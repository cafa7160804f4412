#!/usr/bin/env bash
# The full pre-merge gate: plain tier-1 (Release, -O2 -DNDEBUG — the
# configuration the tracked benchmark numbers come from), a throughput-
# bench smoke, then UBSan, then TSan.
#
#   tools/ci.sh            # everything
#   tools/ci.sh -j8        # extra args forwarded to every ctest
#
# Each stage uses its own build directory (build-ci, build-ubsan,
# build-tsan) so the three configurations never poison each other's
# caches.  Fails on the first stage that fails.
#
# The hot-path regression tests (byte-identity goldens, allocation guard)
# carry the additional ctest label `perf`; after touching the engine,
# `ctest --test-dir build-ci -L perf` re-runs just those.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

echo "== plain tier-1 (Release) =="
build_dir="${repo_root}/build-ci"
cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j"$(nproc)"
ctest --test-dir "${build_dir}" -L tier1 --output-on-failure "$@"

echo "== sim_throughput smoke =="
# DUFP_SMOKE: tiny profile, one repetition.  Validates that the bench
# runs and emits parseable JSON matching bench/sim_throughput_schema.json
# (structurally — no performance gate here; thresholds are a ROADMAP
# item until CI hardware is stable enough to gate on).
smoke_dir="${build_dir}/smoke-out"
rm -rf "${smoke_dir}"
DUFP_SMOKE=1 DUFP_OUT_DIR="${smoke_dir}" "${build_dir}/bench/sim_throughput"
python3 - "${smoke_dir}/BENCH_sim_throughput.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema_version", "bench", "smoke", "config", "baseline",
            "serial", "socket_threads_4", "speedup"):
    assert key in doc, f"missing key: {key}"
assert doc["schema_version"] == 3
assert doc["smoke"] is True
assert doc["serial"]["ticks"] > 0
# Event-leaping accounting: every tick must be classified exactly once
# (leapt on the calm fast path, stepped exactly, or batched in the
# socket-parallel engine) — a gap or an overlap here means the leaping
# engine dropped or double-counted simulated time.  A row skipped on
# this host carries skipped_reason instead of a measurement (v3).
for key in ("serial", "socket_threads_4"):
    row = doc[key]
    if "skipped_reason" in row:
        assert key != "serial", "the serial row is never skipped"
        assert row["skipped_reason"] == "host_cpus==1"
        continue
    leap = row["leap"]
    total = leap["leapt_ticks"] + leap["stepped_ticks"] + leap["batched_ticks"]
    assert total == int(row["ticks"]), (
        f"{key}: leap split {total} != ticks {row['ticks']}")
print("sim_throughput smoke: JSON OK, leap split accounts for every tick")
EOF

echo "== shard_scaling smoke =="
# Forks real worker processes on a shrunk grid and byte-compares the
# gathered outputs against a serial run — the bench itself exits
# non-zero on any byte drift, so this doubles as a cheap cross-process
# determinism gate.
DUFP_SMOKE=1 DUFP_OUT_DIR="${smoke_dir}" "${build_dir}/bench/shard_scaling"
python3 - "${smoke_dir}/BENCH_shard_scaling.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema_version", "bench", "smoke", "config",
            "single_process", "processes_2", "processes_4"):
    assert key in doc, f"missing key: {key}"
assert doc["schema_version"] == 2
assert doc["config"]["host_cpus"] >= 1
# Every multi-process row carries exactly one of: a real speedup (multi-
# core host) or the skip marker (1 CPU — the row still byte-checks).
for key in ("processes_2", "processes_4"):
    row = doc[key]
    assert row["identical_bytes"] is True
    assert ("speedup_vs_single" in row) != ("skipped_reason" in row), (
        f"{key}: want exactly one of speedup_vs_single / skipped_reason")
    if "skipped_reason" in row:
        assert row["skipped_reason"] == "host_cpus==1"
print("shard_scaling smoke: JSON OK, gathered bytes identical")
EOF

echo "== chaos recovery smoke =="
# The failure-model gate (DESIGN.md § Failure model & recovery): a
# seeded DUFP_CHAOS worker self-SIGKILLs mid-record, a second worker
# completes every chunk the victim never claimed, `gather --partial`
# salvages the torn stream and writes a retry manifest, `run --resume`
# executes exactly the missing jobs — and the final gather must be
# byte-identical to an unfailed serial run.  One worker per phase keeps
# the whole drill deterministic (no claim races), so the exit codes are
# asserted exactly: 137 (SIGKILL), 6 (incomplete), 0, 0.
chaos_dir="${build_dir}/chaos-out"
rm -rf "${chaos_dir}"
mkdir -p "${chaos_dir}/claims"
shard_worker="${build_dir}/cli/dufp_shard_worker"
"${shard_worker}" spec > "${chaos_dir}/spec.json" 2> /dev/null
DUFP_QUIET=1 "${shard_worker}" serial --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/serial" 2> /dev/null
status=0
DUFP_QUIET=1 DUFP_CHAOS=0.3 DUFP_CHAOS_SEED=1 "${shard_worker}" run \
    --spec "${chaos_dir}/spec.json" --out "${chaos_dir}/w0.jsonl" \
    --chunk-size 4 --claim-dir "${chaos_dir}/claims" --owner w0 \
    2> /dev/null || status=$?
[[ "${status}" -eq 137 ]] || {
  echo "chaos smoke: expected the chaos worker to die by SIGKILL (137)," \
       "got ${status}" >&2
  exit 1
}
[[ -f "${chaos_dir}/w0.jsonl.partial" && ! -f "${chaos_dir}/w0.jsonl" ]] || {
  echo "chaos smoke: a killed worker must leave only a .partial stream" >&2
  exit 1
}
# The victim's lease is fresh, so a huge TTL keeps its chunk orphaned —
# the gap --resume exists to fill.
DUFP_QUIET=1 "${shard_worker}" run --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/w1.jsonl" --chunk-size 4 \
    --claim-dir "${chaos_dir}/claims" --owner w1 --lease-ttl 100000 \
    2> /dev/null
status=0
"${shard_worker}" gather --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/gathered" --partial \
    "${chaos_dir}/w0.jsonl.partial" "${chaos_dir}/w1.jsonl" \
    2> /dev/null || status=$?
[[ "${status}" -eq 6 && -f "${chaos_dir}/gathered.retry.json" ]] || {
  echo "chaos smoke: partial gather should exit 6 + write a retry" \
       "manifest (exit ${status})" >&2
  exit 1
}
DUFP_QUIET=1 "${shard_worker}" run --resume "${chaos_dir}/gathered.retry.json" \
    --out "${chaos_dir}/rescue.jsonl" 2> /dev/null
"${shard_worker}" gather --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/gathered" --partial \
    "${chaos_dir}/w0.jsonl.partial" "${chaos_dir}/w1.jsonl" \
    "${chaos_dir}/rescue.jsonl" 2> /dev/null
cmp "${chaos_dir}/gathered.csv" "${chaos_dir}/serial.csv" || {
  echo "chaos smoke: DETERMINISM VIOLATION: recovered gather differs" \
       "from serial" >&2
  exit 1
}
echo "chaos smoke: kill -> salvage -> resume -> bytes identical to serial"

echo "== supervise smoke =="
# The same storm under the supervisor: chaos workers die, get restarted
# with backoff, repeat offenders poison their chunks — and whatever is
# left unrecovered must be honestly reported via a retry manifest that a
# clean rescue run completes.  Worker/chunk interleaving is timing-
# dependent, so only the end-to-end property is asserted: supervised +
# (optional) rescue gathers byte-identical to serial.
sup_dir="${build_dir}/chaos-out/sup"
mkdir -p "${sup_dir}"
status=0
DUFP_QUIET=1 DUFP_CHAOS=0.3 DUFP_CHAOS_SEED=1 "${shard_worker}" supervise \
    --spec "${chaos_dir}/spec.json" --out-dir "${sup_dir}" --workers 2 \
    --chunk-size 4 --lease-ttl 100000 --max-restarts 3 \
    --gather "${sup_dir}/gathered" > "${sup_dir}/outputs.txt" \
    2> /dev/null || status=$?
sup_files=()
while IFS= read -r line; do sup_files+=("${line}"); done \
    < "${sup_dir}/outputs.txt"
if [[ "${status}" -eq 6 ]]; then
  DUFP_QUIET=1 "${shard_worker}" run \
      --resume "${sup_dir}/gathered.retry.json" \
      --out "${sup_dir}/rescue.jsonl" 2> /dev/null
  "${shard_worker}" gather --spec "${chaos_dir}/spec.json" \
      --out "${sup_dir}/gathered" --partial \
      "${sup_files[@]}" "${sup_dir}/rescue.jsonl" 2> /dev/null
elif [[ "${status}" -ne 0 ]]; then
  echo "supervise smoke: unexpected exit ${status}" >&2
  exit 1
fi
cmp "${sup_dir}/gathered.csv" "${chaos_dir}/serial.csv" || {
  echo "supervise smoke: DETERMINISM VIOLATION: supervised gather" \
       "differs from serial" >&2
  exit 1
}
echo "supervise smoke: supervised chaos run recovered, bytes identical"

echo "== tournament smoke =="
# Every registered policy on a tiny grid (1 app x 1 tolerance x 1 rep)
# through the shard engine, schema-checking the ranked leaderboard CSV:
# all policies present, ranks sequential from 1, violation/energy
# columns parse.  Catches a policy whose registration or factory broke
# without running the full tournament.
DUFP_SMOKE=1 DUFP_QUIET=1 DUFP_OUT_DIR="${smoke_dir}" \
    "${build_dir}/bench/tournament"
python3 - "${smoke_dir}/tournament.csv" <<'EOF'
import csv, sys
with open(sys.argv[1]) as f:
    rows = list(csv.DictReader(f))
expected_cols = {"rank", "policy", "cells", "violations",
                 "mean_slowdown_pct", "worst_slowdown_pct",
                 "mean_pkg_power_savings_pct", "mean_dram_power_savings_pct",
                 "mean_energy_change_pct"}
assert rows, "empty leaderboard"
assert expected_cols <= set(rows[0]), f"missing columns: {expected_cols - set(rows[0])}"
assert len(rows) >= 7, f"expected >= 7 ranked policies, got {len(rows)}"
assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))
for legacy in ("DUF", "DUFP", "DUFP-F", "DNPC"):
    assert any(r["policy"] == legacy for r in rows), f"missing {legacy}"
for r in rows:
    int(r["violations"]); float(r["mean_energy_change_pct"])
print(f"tournament smoke: {len(rows)} policies ranked, CSV OK")
EOF

echo "== fleet smoke =="
# Fleet-scale hierarchical budgeting (DESIGN.md § Fleet-scale
# hierarchical power budgeting): the 2x2-rack reference fleet through
# every execution path.  The serial run is the golden; a 2-shard static
# run must gather to byte-identical outputs; dropping a shard must exit
# 6 and write a retry manifest whose resume run completes the bytes.
# All exit codes are asserted exactly.
fleet_dir="${build_dir}/fleet-out"
rm -rf "${fleet_dir}"
mkdir -p "${fleet_dir}"
"${shard_worker}" fleet-spec > "${fleet_dir}/spec.json" 2> /dev/null
DUFP_QUIET=1 "${shard_worker}" fleet-serial --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/serial" 2> /dev/null
for shard in 0 1; do
  DUFP_QUIET=1 "${shard_worker}" fleet-run --spec "${fleet_dir}/spec.json" \
      --out "${fleet_dir}/w${shard}.jsonl" --shard "${shard}" --shards 2 \
      2> /dev/null
done
"${shard_worker}" fleet-gather --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/gathered" \
    "${fleet_dir}/w0.jsonl" "${fleet_dir}/w1.jsonl" 2> /dev/null
for suffix in alloc.csv summary.csv prom; do
  cmp "${fleet_dir}/gathered.${suffix}" "${fleet_dir}/serial.${suffix}" || {
    echo "fleet smoke: DETERMINISM VIOLATION: sharded ${suffix} differs" \
         "from serial" >&2
    exit 1
  }
done
# Salvage + resume: shard 1's nodes are missing, the partial gather must
# say so via exit 6 + a manifest, and the resume run must fill the gap.
status=0
"${shard_worker}" fleet-gather --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/partial" --partial \
    "${fleet_dir}/w0.jsonl" 2> /dev/null || status=$?
[[ "${status}" -eq 6 && -f "${fleet_dir}/partial.retry.json" ]] || {
  echo "fleet smoke: partial fleet-gather should exit 6 + write a retry" \
       "manifest (exit ${status})" >&2
  exit 1
}
DUFP_QUIET=1 "${shard_worker}" fleet-run \
    --resume "${fleet_dir}/partial.retry.json" \
    --out "${fleet_dir}/rescue.jsonl" 2> /dev/null
"${shard_worker}" fleet-gather --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/partial" \
    "${fleet_dir}/w0.jsonl" "${fleet_dir}/rescue.jsonl" 2> /dev/null
cmp "${fleet_dir}/partial.alloc.csv" "${fleet_dir}/serial.alloc.csv" || {
  echo "fleet smoke: DETERMINISM VIOLATION: resumed gather differs from" \
       "serial" >&2
  exit 1
}
echo "fleet smoke: serial = sharded = salvage+resume, bytes identical"

echo "== wire format pin =="
# The shard wire (DESIGN.md § Sharded execution) is pinned by a grid and
# a fleet shard file captured from the CLI before the streaming codec
# existed.  Regenerating each from its checked-in spec must give the same
# bytes, so a format drift fails here even if the writer and the reader
# drifted together.
wire_dir="${build_dir}/wire-out"
rm -rf "${wire_dir}"
mkdir -p "${wire_dir}"
grid_golden="${repo_root}/tests/harness/golden/wire_grid"
fleet_golden="${repo_root}/tests/fleet/golden/wire_fleet"
DUFP_QUIET=1 "${shard_worker}" run --spec "${grid_golden}.spec.json" \
    --out "${wire_dir}/grid.jsonl" 2> /dev/null
DUFP_QUIET=1 "${shard_worker}" fleet-run --spec "${fleet_golden}.spec.json" \
    --out "${wire_dir}/fleet.jsonl" 2> /dev/null
cmp "${wire_dir}/grid.jsonl" "${grid_golden}.jsonl" || {
  echo "wire pin: FORMAT DRIFT: the grid shard file differs from" \
       "${grid_golden}.jsonl" >&2
  exit 1
}
cmp "${wire_dir}/fleet.jsonl" "${fleet_golden}.jsonl" || {
  echo "wire pin: FORMAT DRIFT: the fleet shard file differs from" \
       "${fleet_golden}.jsonl" >&2
  exit 1
}
echo "wire pin: grid and fleet shard files byte-identical to the goldens"

echo "== fleet_scaling smoke =="
# Every registered fleet allocator on the 2x2x2 smoke fleet, serial vs
# supervised-sharded byte-compared inside the bench (it exits non-zero
# on drift), then the scorecard JSON/CSV schema-checked.
DUFP_SMOKE=1 DUFP_QUIET=1 DUFP_OUT_DIR="${smoke_dir}" \
    "${build_dir}/bench/fleet_scaling"
python3 - "${smoke_dir}/BENCH_fleet_scaling.json" \
    "${smoke_dir}/fleet_scaling.csv" <<'EOF'
import csv, json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema_version"] == 1
assert doc["bench"] == "fleet_scaling"
assert doc["smoke"] is True
for key in ("racks", "nodes_per_rack", "sockets_per_node", "sockets",
            "epochs", "budget_w", "traffic"):
    assert key in doc["config"], f"missing config key: {key}"
allocators = ("static-equal", "proportional", "fastcap")
for name in allocators:
    entry = doc[name]
    assert entry["identical_bytes"] is True, f"{name}: byte drift"
    assert entry["total_energy_j"] > 0
    assert 0.0 <= entry["violation_rate"] <= 1.0
    assert 0.0 < entry["jain_fairness"] <= 1.0
with open(sys.argv[2]) as f:
    rows = list(csv.DictReader(f))
assert len(rows) == len(allocators), f"expected {len(allocators)} rows"
expected_cols = {"allocator", "traffic", "budget_w", "total_energy_j",
                 "violation_rate", "jain_fairness", "mean_speed"}
assert expected_cols <= set(rows[0]), \
    f"missing columns: {expected_cols - set(rows[0])}"
assert {r["allocator"] for r in rows} == set(allocators)
print(f"fleet_scaling smoke: {len(rows)} allocators ranked, bytes"
      " identical, schema OK")
EOF

echo "== perf gate (sim_throughput, full run) =="
# A real (non-smoke) run of the tracked throughput bench, gated on the
# serial speedup over the pre-optimisation seed engine.  The tracked
# number is ~14.6x (BENCH_sim_throughput.json — event-leaping engine
# plus the untraced-run trace-row skip); the default floor of 9.0x
# leaves ~40% noise margin so shared CI hosts don't flake, while still
# catching any real hot-path regression (the pre-leaping engine
# measured ~2.2x and would fail this gate).
# Override per-host with DUFP_CI_MIN_SERIAL_SPEEDUP; the parallel gate
# only applies on multi-core hosts (on 1 CPU socket-threads measure
# overhead, not speedup).
perf_dir="${build_dir}/perf-out"
rm -rf "${perf_dir}"
DUFP_OUT_DIR="${perf_dir}" "${build_dir}/bench/sim_throughput"
min_serial="${DUFP_CI_MIN_SERIAL_SPEEDUP:-9.0}"
min_parallel="${DUFP_CI_MIN_PARALLEL_SPEEDUP:-1.0}"
python3 - "${perf_dir}/BENCH_sim_throughput.json" \
    "${min_serial}" "${min_parallel}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
min_serial, min_parallel = float(sys.argv[2]), float(sys.argv[3])
serial = doc["speedup"]["serial_vs_baseline"]
assert serial >= min_serial, (
    f"perf gate: serial_vs_baseline {serial:.2f}x < floor {min_serial}x")
print(f"perf gate: serial_vs_baseline {serial:.2f}x >= {min_serial}x")
# The bench itself decides whether the parallel row is meaningful on
# this host (schema v3); the gate keys on its marker, not on
# re-deriving the CPU count.
row = doc["socket_threads_4"]
if "skipped_reason" in row:
    print(f"perf gate: parallel gate skipped ({row['skipped_reason']})")
else:
    par = doc["speedup"]["parallel_vs_serial"]
    assert par >= min_parallel, (
        f"perf gate: parallel_vs_serial {par:.2f}x < floor {min_parallel}x")
    print(f"perf gate: parallel_vs_serial {par:.2f}x >= {min_parallel}x")
EOF

echo "== grid_throughput gate (batched lane engine) =="
# The tournament-shaped smoke grid, sequential (PR 9 execution model:
# run_once per job, shared cell cache off) vs the batched lane engine,
# byte-compared through the finalized evaluation CSV — the bench exits
# non-zero on any drift or a non-warm repeat, so this is also a
# grid-scale identity gate.  The speedup floor defaults to 1.5x — the
# tracked cold-batched number on the 1-CPU dev container is ~1.8-1.9x
# (all shared-table amortization; lane threading is skipped there), so
# the margin absorbs shared-host noise.  Override per-host with
# DUFP_CI_MIN_GRID_SPEEDUP.
DUFP_SMOKE=1 DUFP_QUIET=1 DUFP_OUT_DIR="${perf_dir}" \
    "${build_dir}/bench/grid_throughput"
min_grid="${DUFP_CI_MIN_GRID_SPEEDUP:-1.5}"
python3 - "${perf_dir}/BENCH_grid_throughput.json" "${min_grid}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
min_grid = float(sys.argv[2])
for key in ("schema_version", "bench", "smoke", "config", "sequential",
            "batched_cold", "batched_warm", "threaded", "speedup",
            "shared_cache", "per_job"):
    assert key in doc, f"missing key: {key}"
assert doc["schema_version"] == 1
for key in ("batched_cold", "batched_warm"):
    assert doc[key]["identical_bytes"] is True, f"{key}: byte drift"
threaded = doc["threaded"]
if "skipped_reason" in threaded:
    assert threaded["skipped_reason"] == "host_cpus==1"
else:
    assert threaded["identical_bytes"] is True, "threaded: byte drift"
# The cross-run amortization claim: a repeat of the identical grid must
# start fully warm — zero cold cell-edge builds, every lookup served.
warm = doc["batched_warm"]["cells"]
assert warm["cold_builds"] == 0, (
    f"warm repeat ran {warm['cold_builds']} cold edge builds (want 0)")
assert doc["sequential"]["cells"]["shared_hits"] == 0, (
    "sequential leg must run with the shared cache off")
# A full shared edge table silently turns hits back into bisections;
# overflow fails CI instead of costing time unnoticed.
drops = doc["shared_cache"]["full_drops"]
assert drops == 0, f"shared cell-edge table overflowed: {drops} dropped inserts"
cold = doc["speedup"]["batched_cold_vs_sequential"]
assert cold >= min_grid, (
    f"grid gate: batched_cold_vs_sequential {cold:.2f}x < floor {min_grid}x")
print(f"grid gate: batched_cold {cold:.2f}x >= {min_grid}x, warm repeat "
      f"fully warm, no table overflow, bytes identical")
EOF

# Archive the gated numbers per commit so regressions can be bisected
# from history rather than re-measured.
history_dir="${repo_root}/out/bench_history"
mkdir -p "${history_dir}"
sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo nogit)"
cp "${perf_dir}/BENCH_sim_throughput.json" "${history_dir}/${sha}.json"
cp "${perf_dir}/BENCH_grid_throughput.json" \
    "${history_dir}/${sha}.grid_throughput.json"
echo "perf gate: archived ${history_dir}/${sha}.json and ${sha}.grid_throughput.json"

echo "== tier-1 under UBSan =="
"${repo_root}/tools/run_tier1_ubsan.sh" "$@"

echo "== tier-1 under TSan =="
"${repo_root}/tools/run_tier1_tsan.sh" "$@"

echo "== ci: all stages passed =="
