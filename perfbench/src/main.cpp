// dufp_perfbench: the repository benchmark program.
//
//   dufp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out-dir DIR [--shape full|tiny] [--git-commit SHA]
//                  [--flip-byte]
//
// --trace 0 repeats untraced passes of the workload for S seconds and
// reports the end-to-end metrics (medians over the passes).  --trace 1
// alternates the instrumented serial pass with tracing off and on for S
// seconds and reports the per-layer metrics of the traced passes, the
// tracing overhead and the layer-sum check.  Either way the correctness
// gate then re-runs a fixed sample with event leaping off and
// byte-compares it with the timed results.
//
// Human-readable lines go to stdout first; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  A full record
// (provenance, every metric, gate notes) lands in DIR/result-*.json and
// the spans of a traced run in DIR/spans-*.jsonl.  Exit code 0 iff the
// outputs were correct.  --flip-byte corrupts one timed result before
// the gate compares it, to prove the gate fails the run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dufp::strf;
using dufp::json::Value;

/// The layer-sum check: span self times must cover the traced pass wall
/// time to within this share of it.
constexpr double kLayerSumTolerance = 0.02;
/// Set-up is repeated this many times before every untraced pass, so the
/// samples span the whole run; setup_s is their median.
constexpr int kSetupsPerPass = 25;
/// At least this many untraced passes per end-to-end run.
constexpr std::size_t kMinPasses = 3;
/// Never start another pass past this point, whatever --seconds says.
constexpr double kHardStopSeconds = 150.0;

/// The end-to-end metrics of the last output line, in order.
const std::vector<std::string> kEndToEnd = {
    "jobs_per_s", "sim_speed", "cpu_s_per_job", "setup_s", "peak_rss_mb"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench-out";
  Shape shape = Shape::full;
  std::string git_commit = "unknown";
  bool flip_byte = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dufp_perfbench: %s\n"
               "usage: dufp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n"
               "                      [--shape full|tiny] [--git-commit SHA] "
               "[--flip-byte]\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--flip-byte") {
      o.flip_byte = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else if (key == "--shape") {
        if (value != "full" && value != "tiny") usage("bad --shape " + value);
        o.shape = value == "full" ? Shape::full : Shape::tiny;
      } else if (key == "--git-commit") {
        o.git_commit = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Value number(double v) { return Value::make_raw_number(strf("%.17g", v)); }

void print_metric(const Metric& m) {
  std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

Value metrics_json(const std::vector<Metric>& metrics) {
  Value o = Value::make_object();
  for (const Metric& m : metrics) {
    Value entry = Value::make_object();
    entry.add("value", number(m.value));
    entry.add("unit", Value::make_string(m.unit));
    o.add(m.name, std::move(entry));
  }
  return o;
}

/// Everything one run measured, before it is printed.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  MetricSet reported;  ///< the metrics of the last output line
  MetricSet extra;     ///< printed and recorded, not in the last line
  std::vector<std::uint64_t> digests;
  std::vector<double> paper_gaps;
  std::vector<double> pass_walls;  ///< every timed pass, in run order
  std::size_t passes = 0;
};

void tally(const PassResult& r, Outcome& out) {
  out.attempted += r.jobs;
  out.failed += r.failed;
  if (r.failed == 0) {
    out.digests.push_back(r.digest);
    if (r.paper_gap_pp) out.paper_gaps.push_back(*r.paper_gap_pp);
  }
}

/// Times `count` set-ups of `w`.
void time_setups(Workload& w, int count, std::vector<double>& setups) {
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_since(t0));
  }
}

void run_end_to_end(Workload& w, const Options& opt, Outcome& out) {
  std::vector<double> jobs_per_s, sim_speed, cpu_per_job, sys_share, walls;
  std::vector<double> setups;
  const Clock::time_point start = Clock::now();
  while (true) {
    time_setups(w, kSetupsPerPass, setups);
    const PassResult r = w.run_pass();
    tally(r, out);
    walls.push_back(r.wall_s);
    if (r.failed == 0 && r.wall_s > 0.0) {
      jobs_per_s.push_back(static_cast<double>(r.jobs) / r.wall_s);
      sim_speed.push_back(r.sim_socket_s / r.wall_s);
      cpu_per_job.push_back(r.cpu_s / static_cast<double>(r.jobs));
      sys_share.push_back(r.cpu_s > 0.0 ? r.sys_s / r.cpu_s : 0.0);
    }
    const double elapsed = seconds_since(start);
    const double next = elapsed + median(walls);
    if (next > kHardStopSeconds) break;
    if (walls.size() >= kMinPasses && next > opt.seconds) break;
  }
  out.passes = walls.size();
  out.pass_walls = walls;
  out.reported.set("jobs_per_s", "jobs/s", median(jobs_per_s));
  out.reported.set("sim_speed", "socket_s/s", median(sim_speed));
  out.reported.set("cpu_s_per_job", "s", median(cpu_per_job));
  out.reported.set("setup_s", "s", median(setups));
  out.reported.set("peak_rss_mb", "MiB", HostUsage::now().max_rss_mb);
  out.extra.set("pass_wall_s", "s", median(walls));
  out.extra.set("sys_cpu_share", "fraction", median(sys_share));
}

void run_traced(Workload& w, const Options& opt, Outcome& out,
                std::string& spans_jsonl) {
  std::vector<MetricSet> layers;
  const Clock::time_point start = Clock::now();
  while (true) {
    const Clock::time_point pair_start = Clock::now();
    Tracer off(false);
    MetricSet scratch;
    declare_layer_metrics(scratch);
    const PassResult u = w.instrumented_pass(off, scratch);
    tally(u, out);

    Tracer on(true);
    MetricSet m;
    declare_layer_metrics(m);
    const PassResult t = w.instrumented_pass(on, m);
    tally(t, out);
    on.append_jsonl(spans_jsonl, static_cast<int>(layers.size()));

    double attributed = 0.0;
    for (const auto& [name, s] : on.self_seconds()) attributed += s;
    double layered = 0.0;
    for (const Metric& metric : m.items()) {
      if (metric.unit == "s" && metric.name != "host.sys_cpu_s") {
        layered += metric.value;
      }
    }
    m.set("trace.pass_s", "s", t.wall_s);
    m.set("trace.untraced_pass_s", "s", u.wall_s);
    m.set("trace.overhead_share", "fraction", t.wall_s / u.wall_s - 1.0);
    m.set("trace.bench_s", "s", attributed - layered);
    m.set("trace.unattributed_s", "s", t.wall_s - attributed);
    m.set("trace.layer_sum_share", "fraction", attributed / t.wall_s);
    layers.push_back(std::move(m));

    const double pair_s = seconds_since(pair_start);
    const double next = seconds_since(start) + pair_s;
    if (next > kHardStopSeconds || next > opt.seconds) break;
  }
  out.passes = 2 * layers.size();

  // Counts repeat exactly across traced passes; times are medians.
  for (const Metric& first : layers.front().items()) {
    std::vector<double> values;
    for (const MetricSet& m : layers) values.push_back(m.get(first.name));
    out.reported.set(first.name, first.unit, median(values));
  }
  const double unattributed = out.reported.get("trace.unattributed_s");
  const double wall = out.reported.get("trace.pass_s");
  if (std::abs(unattributed) > kLayerSumTolerance * wall) {
    out.correct = false;
    out.problems.push_back(strf(
        "layer-sum check: %.4f s of the %.4f s traced pass is unattributed "
        "(allowed %.0f%%)",
        unattributed, wall, kLayerSumTolerance * 100.0));
  }
}

/// Self seconds per module: harness, sim, fleet, the benchmark's own
/// glue, and the unattributed remainder.
void print_layer_rollup(const MetricSet& m) {
  std::map<std::string, double> modules;
  for (const Metric& metric : m.items()) {
    if (metric.unit != "s" || metric.name.rfind("trace.", 0) == 0 ||
        metric.name == "host.sys_cpu_s") {
      continue;
    }
    modules[metric.name.substr(0, metric.name.find('.'))] += metric.value;
  }
  modules["perfbench"] = m.get("trace.bench_s");
  const double wall = m.get("trace.pass_s");
  std::printf("layer self time (traced pass %.3f s):\n", wall);
  for (const auto& [module, seconds] : modules) {
    std::printf("  %-26s %.4f s  %5.1f%%\n", module.c_str(), seconds,
                wall > 0 ? 100.0 * seconds / wall : 0.0);
  }
  const double rest = m.get("trace.unattributed_s");
  std::printf("  %-26s %.4f s  %5.1f%%  (limit %.0f%%)\n", "unattributed",
              rest, wall > 0 ? 100.0 * rest / wall : 0.0,
              kLayerSumTolerance * 100.0);
}

int run(const Options& opt) {
  std::filesystem::create_directories(opt.out_dir);
  auto w = make_workload(opt.workload, opt.seed, opt.shape, opt.out_dir);
  const std::string tag =
      strf("%s-seed%llu-trace%d", opt.workload.c_str(),
           static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  const std::string spec_path = opt.out_dir + "/spec-" + tag + ".json";
  std::ofstream(spec_path, std::ios::binary) << w->spec_text() << '\n';

  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("perfbench %s  seed %llu  %s  trace %d\n", w->name().c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.shape == Shape::full ? "full" : "tiny", opt.trace ? 1 : 0);
  std::printf("  host_cpus %u  build %s  compiler %s  commit %s\n", host_cpus,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              opt.git_commit.c_str());
  for (const auto& [name, value] : w->seeds().named) {
    std::printf("  %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }

  // Set-up: spec parse + plan.  The first one also pays the process's
  // first-use registry and profile construction.
  std::vector<double> first_setup;
  time_setups(*w, 1, first_setup);
  std::printf("  jobs per pass %zu\n", w->job_count());

  Outcome out;
  std::string spans_jsonl;
  if (opt.trace) {
    run_traced(*w, opt, out, spans_jsonl);
  } else {
    run_end_to_end(*w, opt, out);
  }
  out.extra.set("setup_first_s", "s", first_setup.front());

  const GateResult gate = w->gate(opt.flip_byte);
  out.failed += gate.failed;
  for (const auto& note : gate.notes) out.problems.push_back("gate: " + note);
  if (std::adjacent_find(out.digests.begin(), out.digests.end(),
                         std::not_equal_to<>()) != out.digests.end()) {
    out.correct = false;
    out.problems.push_back("finalized outputs differ between passes");
  }
  if (out.failed > 0) out.correct = false;

  const double fail_share = static_cast<double>(out.failed) /
                            static_cast<double>(std::max<std::size_t>(
                                out.attempted, 1));
  out.extra.set("job_fail_share", "fraction", fail_share);
  if (!out.paper_gaps.empty()) {
    out.extra.set("paper_gap_pp", "pp", out.paper_gaps.back());
  }
  const std::string digest =
      out.digests.empty()
          ? "none"
          : strf("%016llx",
                 static_cast<unsigned long long>(out.digests.back()));

  std::printf("%s metrics (%zu passes, %zu jobs attempted, %zu failed):\n",
              opt.trace ? "per-layer" : "end-to-end", out.passes,
              out.attempted, out.failed);
  for (const Metric& m : out.reported.items()) print_metric(m);
  for (const Metric& m : out.extra.items()) print_metric(m);
  std::printf("  %-26s %s\n", "output_digest", digest.c_str());
  std::printf("  %-26s %zu checked, %zu failed\n", "gate", gate.checked,
              gate.failed);
  if (opt.trace) print_layer_rollup(out.reported);
  for (const auto& p : out.problems) std::printf("PROBLEM: %s\n", p.c_str());

  // The full record, with provenance.
  Value record = Value::make_object();
  record.add("workload", Value::make_string(w->name()));
  record.add("shape",
             Value::make_string(opt.shape == Shape::full ? "full" : "tiny"));
  record.add("trace", Value::make_bool(opt.trace));
  Value prov = Value::make_object();
  prov.add("host_cpus", Value::make_u64(host_cpus));
  prov.add("build_type", Value::make_string(PERFBENCH_BUILD_TYPE));
  prov.add("compiler", Value::make_string(PERFBENCH_COMPILER));
  prov.add("git_commit", Value::make_string(opt.git_commit));
  Value seeds = Value::make_object();
  for (const auto& [name, value] : w->seeds().named) {
    seeds.add(name, Value::make_u64(value));
  }
  prov.add("seeds", std::move(seeds));
  prov.add("spec_fingerprint",
           Value::make_string(strf("%016llx",
                                   static_cast<unsigned long long>(
                                       dufp::json::fnv1a(w->spec_text())))));
  prov.add("run_seconds", number(opt.seconds));
  record.add("provenance", std::move(prov));
  record.add("passes", Value::make_u64(out.passes));
  Value walls = Value::make_array();
  for (const double w : out.pass_walls) walls.push_back(number(w));
  record.add("pass_wall_s", std::move(walls));
  record.add("output_digest", Value::make_string(digest));
  record.add("correct", Value::make_bool(out.correct));
  record.add("attempted", Value::make_u64(out.attempted));
  record.add("failed", Value::make_u64(out.failed));
  std::vector<Metric> all = out.reported.items();
  all.insert(all.end(), out.extra.items().begin(), out.extra.items().end());
  record.add("metrics", metrics_json(all));
  Value problems = Value::make_array();
  for (const auto& p : out.problems) problems.push_back(Value::make_string(p));
  record.add("problems", std::move(problems));
  std::ofstream(opt.out_dir + "/result-" + tag + ".json", std::ios::binary)
      << record.dump() << '\n';
  if (opt.trace) {
    std::ofstream(opt.out_dir + "/spans-" + tag + ".jsonl", std::ios::binary)
        << spans_jsonl;
  }

  std::vector<Metric> last;
  if (opt.trace) {
    last = out.reported.items();
  } else {
    for (const std::string& name : kEndToEnd) {
      for (const Metric& m : out.reported.items()) {
        if (m.name == name) last.push_back(m);
      }
    }
  }
  Value line = Value::make_object();
  line.add("correct", Value::make_bool(out.correct));
  line.add("attempted", Value::make_u64(out.attempted));
  line.add("failed", Value::make_u64(out.failed));
  line.add("metrics", metrics_json(last));
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse_options(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dufp_perfbench: %s\n", e.what());
    return 1;
  }
}
