// The payload-agnostic half of the sharded execution layer: everything
// about streaming versioned JSONL shard files, claiming chunks through
// leases, and gathering records back exactly-once is independent of
// *what* a job computes.  This header owns that machinery; harness/shard.h
// binds it to experiment grids (GridSpec/RunResult) and src/fleet binds
// it to fleet node simulations — both speak the identical wire dialect
// (same header keys, same error surface, same duplicate/determinism
// guarantees), so operational tooling works on either kind of file.
//
// A wire file is:
//   - one header line: {"format":...,"version":...,"spec_name":...,
//     "spec_fingerprint":...,"shard":...,"shards":...,"job_count":...}
//   - one line per job: {"job":i,"result":{...}} with every double as its
//     IEEE-754 bit pattern (see harness/shard_codec.h)
//
// The layer moves payloads as encoded bytes, never as trees: a worker's
// payload codec hands over each record's bytes, emit wraps them in the
// {"job":i,"result":...} envelope verbatim, and gather reads the
// envelope in order with a json::Reader, hashes the result's raw byte
// span for the duplicate guard and passes that same span to the payload
// decoder.  Record lines are canonical (one writer, an in-order reader:
// reordered keys or stray whitespace make a line undecodable).  The
// header line stays tolerant — it is parsed as a json::Value tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "harness/chaos.h"

namespace dufp::harness {

/// One wire version across every payload kind; bump on any change.
inline constexpr int kShardFormatVersion = 1;

/// Wire/format-contract violations: a file or document that is not what
/// the operation was told it is (wrong format, unsupported version,
/// fingerprint mismatch, invalid spec).  Distinguished from plain
/// std::runtime_error so the CLI can exit with its documented
/// spec-mismatch code.
class ShardFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Claims chunks of the job list for dynamic load balancing.  try_claim
/// must return true for at most one *live* owner per chunk across every
/// cooperating worker (workers may race); the lease hooks below let a
/// claimer recover chunks whose owner died.
class ChunkClaimer {
 public:
  virtual ~ChunkClaimer() = default;
  virtual bool try_claim(int chunk) = 0;

  /// Heartbeats every lease this claimer holds; called between result
  /// records so a long grid never looks dead.  No-op by default.
  virtual void renew() {}

  /// True while this claimer still owns `chunk`'s lease.  A worker that
  /// was stalled past the TTL may have had its lease stolen; it must
  /// check before emitting the chunk's records (the thief re-runs them).
  virtual bool still_owner(int /*chunk*/) { return true; }

  /// Marks `chunk` finished (its records are durably emitted) and
  /// releases the lease.  Returns false — and records nothing — when
  /// ownership was lost, so a stale worker can never clobber the
  /// thief's in-flight claim.  Completion records are idempotent:
  /// completing an already-completed chunk is a no-op.
  virtual bool complete(int chunk) {
    (void)chunk;
    return true;
  }
};

/// Lease policy of a FileChunkClaimer.
struct LeaseOptions {
  /// Unique id of this claimer (one per worker attempt).  Empty derives
  /// "pid<pid>" — fine for ad-hoc runs; supervisors pass stable ids so
  /// crash blame and chaos schedules are reproducible.
  std::string owner;

  /// A lease whose heartbeat is older than this is considered orphaned
  /// and may be stolen.  <= 0 disables stealing entirely (the PR-5
  /// permanent-claim behavior).
  double ttl_seconds = 30.0;
};

/// File-based lease claimer.  Chunk k's lease is `<dir>/chunk<k>.claim`,
/// created with O_CREAT|O_EXCL (POSIX-atomic, so concurrent workers
/// never double-claim) and carrying `owner=<id>` plus a monotonically
/// increasing heartbeat counter.  The owner keeps the fd open; renew()
/// rewrites the record in place, bumping both the counter and the file
/// mtime — the mtime is the cross-process staleness signal (any shared
/// filesystem dynamic mode already requires).
///
/// Steal protocol (at-most-one live owner, no locks):
///   1. A claimer finding an existing lease older than the TTL renames
///      it to a unique `.stale.<owner>.<n>` name.  rename(2) is atomic:
///      of any number of racing stealers, exactly one wins (the rest see
///      ENOENT) — the loser retries from the top.
///   2. The winner unlinks the stale lease and falls back to the normal
///      O_CREAT|O_EXCL create, which it may still lose to a fresh
///      claimer — ownership is only ever granted by winning the create.
///   3. The previous owner, if merely stalled rather than dead, detects
///      the theft by inode comparison (still_owner) and drops its
///      now-duplicate output instead of emitting it.
///
/// Completed chunks are recorded as `chunk<k>.done` markers (idempotent:
/// creating an existing marker is a no-op) and never reclaimable;
/// quarantined chunks as `chunk<k>.poison` (see ShardSupervisor), which
/// try_claim refuses so a job that kills its workers cannot take the
/// whole fleet down with it.
class FileChunkClaimer final : public ChunkClaimer {
 public:
  /// `dir` must exist and be shared by every cooperating worker.
  explicit FileChunkClaimer(std::string dir, LeaseOptions lease = {});
  ~FileChunkClaimer() override;  // closes fds; leases stay on disk

  bool try_claim(int chunk) override;
  void renew() override;
  bool still_owner(int chunk) override;
  bool complete(int chunk) override;

  /// Unlinks every lease this claimer still owns (clean handoff without
  /// completion, e.g. a worker told to shut down).  Stolen or completed
  /// chunks are skipped.
  void release_all();

  const std::string& owner() const { return owner_; }

  /// Chunks this claimer refused because a poison marker quarantines
  /// them (their jobs must be reported, not silently skipped).
  const std::vector<int>& poisoned_seen() const { return poisoned_seen_; }

  // Marker-file paths, shared with the supervisor and tests.
  static std::string claim_path(const std::string& dir, int chunk);
  static std::string done_path(const std::string& dir, int chunk);
  static std::string poison_path(const std::string& dir, int chunk);

  /// The lease record at `path`, if one can be read.
  struct LeaseInfo {
    std::string owner;
    std::uint64_t heartbeat = 0;
  };
  static std::optional<LeaseInfo> read_lease(const std::string& path);

 private:
  std::string dir_;
  std::string owner_;
  double ttl_seconds_;
  std::map<int, int> held_;  ///< chunk -> open lease fd
  int steal_seq_ = 0;        ///< uniquifies this claimer's steal renames
  std::uint64_t heartbeat_ = 0;
  std::vector<int> poisoned_seen_;
};

struct ShardRunOptions {
  int shard = 0;   ///< this worker's id in [0, shards)
  int shards = 1;  ///< total workers
  int threads = 1; ///< in-process thread pool width (DUFP_THREADS-style)

  /// > 0 switches from static round-robin to dynamic chunk claiming:
  /// the job list is cut into chunks of this size and workers claim
  /// chunks through `claimer` until none remain.  `shard`/`shards` then
  /// only label the output file.
  int chunk_size = 0;
  ChunkClaimer* claimer = nullptr;  ///< required when chunk_size > 0

  /// Resume mode: restrict this run to exactly these job indices (a
  /// retry manifest's missing list).  Static assignment round-robins
  /// over the list; dynamic mode cuts its chunks from it.  nullptr runs
  /// the whole plan.  Indices must be valid and strictly ascending.
  const std::vector<std::size_t>* job_filter = nullptr;

  /// Seeded self-SIGKILL injection (DUFP_CHAOS); kill_rate 0 = off.
  ChaosOptions chaos;
};

/// What identifies one shardable workload on the wire, independent of
/// its payload type.  Both sides of the wire derive one of these from
/// their spec: the runner stamps it into the header, the gatherer
/// rejects files whose header disagrees.
struct WireIdentity {
  std::string format;           ///< e.g. "dufp-shard-result"
  std::string spec_name;
  std::string fingerprint_hex;  ///< %016llx of the spec's fingerprint
  std::size_t job_count = 0;

  /// Optional human attribution of a job index ("rack 1 / node 3"),
  /// appended to missing-job error messages so operators see *what*
  /// is absent, not just which index.  nullptr keeps the bare ids.
  std::function<std::string(std::size_t)> job_label;
};

/// Runs this worker's share of the jobs and streams the versioned JSONL
/// (header line + one line per job) to `out`.  `run` executes a batch of
/// job indices and returns one encoded payload (its canonical JSON
/// bytes) per index, in order — everything else (static/dynamic
/// assignment, resume filters, lease renewal, chaos injection,
/// crash-safe flushing) lives here.
void run_shard_wire(
    const WireIdentity& id, const ShardRunOptions& options,
    const std::function<std::vector<std::string>(
        const std::vector<std::size_t>&)>& run,
    std::ostream& out);

struct GatherOptions {
  /// Salvage mode: tolerate damaged input — truncated or corrupt lines
  /// are skipped (each noted with file:line), unreadable files are
  /// skipped whole, byte-identical duplicate records are dropped as
  /// idempotent re-deliveries (a reclaimed chunk legitimately re-emits
  /// its jobs) — and report what is missing instead of throwing.
  /// Duplicates whose bytes *differ* still throw in every mode: two
  /// different results for one job is a determinism violation, never
  /// damage.
  bool partial = false;
};

/// One piece of damage tolerated (partial mode) in an input file.
struct GatherNote {
  std::string file;
  int line = 0;  ///< 1-based; 0 = whole-file problem
  std::string what;
};

/// Everything a payload-agnostic gather pass learned; the payload-typed
/// results live with the caller (its `store` callback received them).
struct WireGatherReport {
  std::size_t job_count = 0;
  std::vector<bool> have;
  std::vector<std::size_t> missing;  ///< sorted ascending
  std::size_t records = 0;           ///< complete records decoded
  std::size_t duplicates = 0;        ///< idempotent re-deliveries dropped
  std::vector<GatherNote> notes;     ///< damage tolerated (partial mode)
  int header_shards = 0;  ///< max `shards` over the headers (0 = none)

  bool complete() const { return missing.empty(); }
};

/// Reads wire JSONL files back, validating headers against `id` and
/// demanding every job exactly once across the input set.  `store` is
/// called with the job index and the raw bytes of its "result" value
/// (valid only during the call); it decodes the payload into the job's
/// slot, and a throw is treated as an undecodable record.  It runs for
/// every record whose envelope reads — re-deliveries included, before
/// the duplicate verdict — so damage is always a note, never mistaken
/// for a determinism violation; an accepted re-delivery carries the same
/// bytes and so decodes to the same payload.  Lines are read one at a
/// time: at most one record's bytes are held.  Strict mode throws at the
/// first problem; partial mode salvages (see GatherOptions).
WireGatherReport gather_wire(
    const WireIdentity& id, const std::vector<std::string>& files,
    const GatherOptions& options,
    const std::function<void(std::size_t, std::string_view)>& store);

}  // namespace dufp::harness
