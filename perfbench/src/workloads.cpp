#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/json.h"
#include "fleet/node_run.h"
#include "fleet/plan.h"
#include "fleet/shard.h"
#include "fleet/spec.h"
#include "harness/shard.h"
#include "harness/shard_codec.h"
#include "harness/supervisor.h"
#include "msr/registers.h"
#include "rapl/cell_cache.h"
#include "workloads/profiles.h"

namespace perfbench {

namespace fs = std::filesystem;
using dufp::fleet::FleetNodeResult;
using dufp::fleet::FleetSpec;
using dufp::harness::GridSpec;
using dufp::harness::RunResult;

// -- MetricSet / HostUsage ----------------------------------------------------

void MetricSet::set(const std::string& name, const std::string& unit,
                    double value) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  items_.push_back({name, unit, value});
}

double MetricSet::get(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

HostUsage HostUsage::now() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  HostUsage u;
  u.user_s = tv_seconds(self.ru_utime) + tv_seconds(kids.ru_utime);
  u.sys_s = tv_seconds(self.ru_stime) + tv_seconds(kids.ru_stime);
  u.minor_faults =
      static_cast<double>(self.ru_minflt) + static_cast<double>(kids.ru_minflt);
  // ru_maxrss is in KiB on Linux.
  u.max_rss_mb =
      static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
  return u;
}

namespace {

// -- shared helpers -----------------------------------------------------------

/// Times a pass: wall clock and CPU (self + reaped children).
class PassClock {
 public:
  PassClock() : usage_(HostUsage::now()), t0_(Clock::now()) {}

  void stop(PassResult& r) const {
    r.wall_s = seconds_since(t0_);
    const HostUsage u = HostUsage::now();
    r.cpu_s = (u.user_s + u.sys_s) - (usage_.user_s + usage_.sys_s);
    r.sys_s = u.sys_s - usage_.sys_s;
  }
  /// The pass's kernel CPU and minor page faults (self + children).
  void report_host(MetricSet& m) const {
    const HostUsage u = HostUsage::now();
    m.set("host.sys_cpu_s", "s", u.sys_s - usage_.sys_s);
    m.set("host.minor_faults", "count", u.minor_faults - usage_.minor_faults);
  }

 private:
  HostUsage usage_;
  Clock::time_point t0_;
};

/// A fixed sample of `count` job indices spread over [0, jobs).
std::vector<std::size_t> spread_sample(std::size_t jobs, std::size_t count) {
  std::vector<std::size_t> sample;
  if (jobs == 0) return sample;
  count = std::min(count, jobs);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = count == 1 ? 0 : k * (jobs - 1) / (count - 1);
    if (sample.empty() || sample.back() != j) sample.push_back(j);
  }
  return sample;
}

void compare_encoded(std::string timed, const std::string& reference,
                     std::size_t job, bool flip_byte, GateResult& gate) {
  if (flip_byte && !timed.empty()) timed[timed.size() / 2] ^= 0x01;
  ++gate.checked;
  if (timed != reference) {
    ++gate.failed;
    gate.notes.push_back("job " + std::to_string(job) +
                         ": timed result differs from the leap-off re-run");
  }
}

/// Counts the control plane's writes to the package power limit and the
/// uncore ratio limit at the simulated MSR boundary (every write ends an
/// event leap).
struct WriteCounters {
  std::uint64_t cap = 0;
  std::uint64_t uncore = 0;

  void attach(dufp::sim::Simulation& sim) {
    for (int s = 0; s < sim.socket_count(); ++s) {
      sim.msr(s).on_write(dufp::msr::kMsrPkgPowerLimit,
                          [this](int, std::uint64_t) { ++cap; });
      sim.msr(s).on_write(dufp::msr::kMsrUncoreRatioLimit,
                          [this](int, std::uint64_t) { ++uncore; });
    }
  }
};

/// Engine and cell-edge counters summed over a pass.
struct EngineTally {
  double ticks = 0.0;
  double socket_ticks = 0.0;
  double leapt = 0.0;
  double leaps = 0.0;
  double max_leap = 0.0;
  double events = 0.0;
  dufp::rapl::CellStats cells;

  void add(const dufp::sim::BatchStats& bs, int sockets) {
    const double t = static_cast<double>(bs.leapt_ticks + bs.stepped_ticks +
                                         bs.batched_ticks);
    ticks += t;
    socket_ticks += t * sockets;
    leapt += static_cast<double>(bs.leapt_ticks);
    leaps += static_cast<double>(bs.leaps);
    max_leap = std::max(max_leap, static_cast<double>(bs.max_leap));
    events += static_cast<double>(bs.events_fired);
  }

  void report(MetricSet& m, double sim_run_s) const {
    m.set("sim.ticks", "count", ticks);
    m.set("sim.ns_per_socket_tick", "ns",
          socket_ticks > 0 ? sim_run_s * 1e9 / socket_ticks : 0.0);
    m.set("sim.leap_share", "fraction", ticks > 0 ? leapt / ticks : 0.0);
    m.set("sim.leaps", "count", leaps);
    m.set("sim.max_leap", "ticks", max_leap);
    m.set("sim.events_fired", "count", events);
    const double cold = static_cast<double>(cells.cold_builds);
    const double shared = static_cast<double>(cells.shared_hits);
    const double local = static_cast<double>(cells.local_hits);
    m.set("rapl.cold_builds", "count", cold);
    m.set("rapl.probes", "count", static_cast<double>(cells.probes));
    m.set("rapl.shared_hits", "count", shared);
    m.set("rapl.local_hits", "count", local);
    m.set("rapl.way_evictions", "count",
          static_cast<double>(cells.way_evictions));
    m.set("rapl.edge_hit_ratio", "fraction",
          cold + shared + local > 0 ? (shared + local) / (cold + shared + local)
                                    : 0.0);
    m.set("rapl.shared_full_drops", "count",
          static_cast<double>(
              dufp::rapl::SharedCellCache::instance().stats().full_drops));
  }
};

/// Two forked workers claiming dynamic chunks of `chunk_size` jobs.
dufp::harness::SupervisorOptions supervisor_options(const std::string& dir,
                                                    int chunk_size) {
  dufp::harness::SupervisorOptions o;
  o.workers = 2;
  o.threads = 1;
  o.chunk_size = chunk_size;
  o.out_dir = dir;
  return o;
}

double file_bytes(const std::vector<std::string>& files) {
  double bytes = 0.0;
  for (const auto& f : files) bytes += static_cast<double>(fs::file_size(f));
  return bytes;
}

void clear_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Copies the self time of every span whose name is a declared layer
/// metric (`<span>_s`) into `m`.
void report_span_times(const Tracer& tracer, MetricSet& m) {
  for (const auto& [name, seconds] : tracer.self_seconds()) {
    const std::string metric = name + "_s";
    for (const Metric& known : m.items()) {
      if (known.name == metric) m.set(metric, "s", seconds);
    }
  }
}


// -- the paper's Fig. 3 grid, in-process or supervised ------------------------

/// The five cells the paper quotes exactly: (app, policy, tolerance,
/// package power savings in percent).
struct PaperCell {
  dufp::workloads::AppId app;
  const char* policy;
  double tolerance;
  double savings_pct;
};
constexpr PaperCell kPaperCells[] = {
    {dufp::workloads::AppId::cg, "DUF", 0.20, 9.66},
    {dufp::workloads::AppId::cg, "DUFP", 0.20, 17.57},
    {dufp::workloads::AppId::bt, "DUF", 0.20, 0.64},
    {dufp::workloads::AppId::bt, "DUFP", 0.20, 5.14},
    {dufp::workloads::AppId::cg, "DUFP", 0.10, 13.98},
};

double paper_gap_pp(const std::vector<dufp::harness::Evaluation>& evals) {
  double sum = 0.0;
  for (const PaperCell& c : kPaperCells) {
    const auto it =
        std::find_if(evals.begin(), evals.end(),
                     [&](const auto& e) { return e.app() == c.app; });
    if (it == evals.end()) {
      throw std::logic_error("paper cell app missing from the grid");
    }
    sum += std::fabs(it->pkg_power_savings_pct(c.policy, c.tolerance) -
                     c.savings_pct);
  }
  return sum / static_cast<double>(std::size(kPaperCells));
}

class GridWorkload final : public Workload {
 public:
  /// `sharded`: supervised forked workers instead of in-process threads,
  /// telemetry on.  `fault_rate` > 0 runs the grid under a fault storm.
  GridWorkload(std::string name, bool sharded, double fault_rate,
               std::uint64_t seed, Shape shape, const std::string& out_dir)
      : name_(std::move(name)),
        sharded_(sharded),
        shape_(shape),
        shard_dir_(out_dir + "/shards") {
    GridSpec s;
    s.name = "perfbench-" + name_;
    if (shape == Shape::full) {
      s.apps = dufp::workloads::all_apps();
      s.tolerances = {0.0, 0.05, 0.10, 0.20};
      s.repetitions = 3;
      s.sockets = 4;
    } else {
      s.apps = {dufp::workloads::AppId::bt, dufp::workloads::AppId::cg};
      s.tolerances = {0.10, 0.20};
      s.repetitions = 1;
      s.sockets = 1;
    }
    s.policies = {"DUF", "DUFP"};
    s.seed = seed;
    s.telemetry = sharded;
    seeds_.named.emplace_back("seed", s.seed);
    if (fault_rate > 0.0) {
      s.fault_rate = fault_rate;
      s.fault_seed = seed + 1;
      seeds_.named.emplace_back("fault_seed", s.fault_seed);
    }
    spec_text_ = s.canonical_text();
  }

  std::string name() const override { return name_; }
  const Seeds& seeds() const override { return seeds_; }
  std::string spec_text() const override { return spec_text_; }
  std::size_t job_count() const override { return all_.size(); }

  void setup() override {
    spec_ = GridSpec::parse(spec_text_);
    plan_ = std::make_unique<dufp::harness::GridPlan>(
        dufp::harness::build_plan(spec_));
    all_.resize(plan_->plan.job_count());
    for (std::size_t j = 0; j < all_.size(); ++j) all_[j] = j;
    sample_ = spread_sample(all_.size(), 8);
  }

  PassResult run_pass() override {
    dufp::rapl::SharedCellCache::instance().clear();
    if (sharded_) clear_dir(shard_dir_);
    PassResult r;
    r.jobs = all_.size();
    PassClock clock;
    std::vector<RunResult> results;
    try {
      if (sharded_) {
        const auto report = dufp::harness::supervise_shard_run(
            spec_, supervisor_options());
        dufp::harness::GatherOptions g;
        g.partial = true;
        auto gathered = dufp::harness::gather_shards_report(
            spec_, report.output_files, g);
        r.failed = gathered.missing.size();
        if (gathered.complete()) results = std::move(gathered.results);
      } else {
        results = plan_->plan.run_jobs(all_, 2);
      }
      if (r.failed == 0) finish_grid(std::move(results), r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] %s pass failed: %s\n",
                   name().c_str(), e.what());
      r.failed = r.jobs;
    }
    clock.stop(r);
    return r;
  }

  PassResult instrumented_pass(Tracer& tr, MetricSet& m) override {
    dufp::rapl::SharedCellCache::instance().clear();
    if (sharded_) clear_dir(shard_dir_);
    PassResult r;
    r.jobs = all_.size();
    PassClock clock;
    EngineTally engine;
    WriteCounters writes;
    double intervals = 0.0, retries = 0.0, degradations = 0.0, faults = 0.0;
    double samples = 0.0, events = 0.0;
    try {
      std::unique_ptr<dufp::harness::GridPlan> gp;
      {
        auto s = tr.span("harness.plan");
        gp = std::make_unique<dufp::harness::GridPlan>(
            dufp::harness::build_plan(spec_));
      }
      std::vector<RunResult> gathered;
      if (sharded_) {
        dufp::harness::SupervisorReport report;
        {
          auto s = tr.span("harness.supervise");
          report = dufp::harness::supervise_shard_run(spec_,
                                                      supervisor_options());
        }
        dufp::harness::GatherReport g;
        {
          auto s = tr.span("harness.gather");
          dufp::harness::GatherOptions opts;
          opts.partial = true;
          g = dufp::harness::gather_shards_report(spec_, report.output_files,
                                                  opts);
        }
        auto s = tr.span("perfbench.reset");
        r.failed = g.missing.size();
        gathered = std::move(g.results);
        m.set("harness.wire_bytes", "bytes", file_bytes(report.output_files));
        m.set("harness.worker_attempts", "count",
              static_cast<double>(report.attempts.size()));
        m.set("harness.worker_restarts", "count",
              static_cast<double>(report.restarts));
        // The in-process jobs below start cold, like a forked worker.
        dufp::rapl::SharedCellCache::instance().clear();
      }

      // Per job: prepare_run -> simulation().run() -> finish(), plus the
      // wire round trip (encode -> dump -> parse -> decode) in the
      // sharded workloads.
      std::vector<RunResult> results(sharded_ ? 0 : all_.size());
      std::vector<std::uint64_t> wire_digests(all_.size());
      for (const std::size_t j : all_) {
        const auto job = static_cast<std::int64_t>(j);
        auto js = tr.span("perfbench.job", job);
        std::optional<dufp::harness::PreparedRun> p;
        {
          auto s = tr.span("harness.prepare", job);
          p.emplace(dufp::harness::prepare_run(gp->plan.job_config(j)));
        }
        writes.attach(p->simulation());
        {
          auto s = tr.span("sim.run", job);
          p->simulation().run();
        }
        RunResult res;
        {
          auto s = tr.span("harness.finish", job);
          res = p->finish();
        }
        engine.add(res.batch_stats, spec_.sockets);
        engine.cells.add(res.cell_stats);
        for (const auto& a : res.agent_stats) {
          intervals += static_cast<double>(a.intervals);
        }
        retries += static_cast<double>(res.health.actuation_retries);
        degradations += static_cast<double>(res.health.degradations);
        faults += static_cast<double>(res.health.faults_injected);
        if (res.telemetry) {
          samples += static_cast<double>(res.telemetry->metrics.size());
          for (const auto& ev : res.telemetry->events) {
            events += static_cast<double>(ev.size());
          }
        }
        if (!sharded_) {
          results[j] = std::move(res);
          continue;
        }
        std::string line;
        {
          auto s = tr.span("harness.encode", job);
          line = dufp::harness::encode_run_result(res).dump();
        }
        {
          auto s = tr.span("harness.decode", job);
          res = dufp::harness::decode_run_result(dufp::json::parse(line));
        }
        wire_digests[j] = dufp::json::fnv1a(line);
      }
      if (sharded_ && r.failed == 0) {
        // The in-process jobs must match what the workers shipped.
        auto s = tr.span("perfbench.check");
        for (const std::size_t j : all_) {
          if (dufp::json::fnv1a(
                  dufp::harness::encode_run_result(gathered[j]).dump()) !=
              wire_digests[j]) {
            ++r.failed;
          }
        }
        results = std::move(gathered);
      }
      if (r.failed == 0) {
        auto s = tr.span("harness.finalize");
        finish_grid(std::move(results), r);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] %s instrumented pass failed: %s\n",
                   name().c_str(), e.what());
      r.failed = r.jobs;
    }
    clock.stop(r);
    clock.report_host(m);
    report_span_times(tr, m);
    engine.report(m, m.get("sim.run_s"));
    m.set("core.intervals", "count", intervals);
    m.set("core.cap_writes", "count", static_cast<double>(writes.cap));
    m.set("core.uncore_writes", "count", static_cast<double>(writes.uncore));
    m.set("core.actuation_retries", "count", retries);
    m.set("core.degradations", "count", degradations);
    m.set("faults.injected", "count", faults);
    m.set("telemetry.metric_samples", "count", samples);
    m.set("telemetry.flight_events", "count", events);
    m.set("telemetry.prom_bytes", "bytes", prom_bytes_);
    return r;
  }

  GateResult gate(bool flip_byte) override {
    GateResult g;
    if (kept_.size() != sample_.size()) {
      g.checked = sample_.size();
      g.failed = sample_.size();
      g.notes.push_back("no complete pass to check");
      return g;
    }
    for (std::size_t k = 0; k < sample_.size(); ++k) {
      const std::size_t j = sample_[k];
      std::string reference;
      try {
        auto cfg = plan_->plan.job_config(j);
        cfg.sim.time_leap = false;
        reference =
            dufp::harness::encode_run_result(dufp::harness::run_once(cfg))
                .dump();
      } catch (const std::exception& e) {
        g.notes.push_back("job " + std::to_string(j) +
                          ": leap-off re-run threw: " + e.what());
      }
      compare_encoded(dufp::harness::encode_run_result(kept_[k]).dump(),
                      reference, j, flip_byte && k == 0, g);
    }
    return g;
  }

 private:
  dufp::harness::SupervisorOptions supervisor_options() const {
    return perfbench::supervisor_options(shard_dir_,
                                         shape_ == Shape::full ? 8 : 1);
  }

  void keep_sample(const std::vector<RunResult>& results) {
    kept_.clear();
    for (const std::size_t j : sample_) kept_.push_back(results[j]);
  }

  void finish_grid(std::vector<RunResult> results, PassResult& r) {
    keep_sample(results);
    for (const auto& res : results) {
      r.sim_socket_s += res.summary.exec_seconds * spec_.sockets;
    }
    const auto out = dufp::harness::finalize_grid(spec_, std::move(results));
    r.digest = dufp::json::fnv1a(out.evaluation_csv + out.merged_prometheus);
    r.paper_gap_pp = paper_gap_pp(out.evaluations);
    prom_bytes_ = static_cast<double>(out.merged_prometheus.size());
  }

  std::string name_;
  bool sharded_;
  Shape shape_;
  std::string shard_dir_;
  Seeds seeds_;
  std::string spec_text_;
  GridSpec spec_;
  std::unique_ptr<dufp::harness::GridPlan> plan_;
  std::vector<std::size_t> all_;
  std::vector<std::size_t> sample_;
  std::vector<RunResult> kept_;
  double prom_bytes_ = 0.0;
};

// -- the capped fleet ---------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, Shape shape) {
    FleetSpec s;
    s.name = "perfbench-fleet-capped";
    s.topology = shape == Shape::full ? dufp::fleet::FleetTopology{8, 8, 16}
                                      : dufp::fleet::FleetTopology{1, 2, 2};
    s.allocator = "fastcap";
    s.epochs = shape == Shape::full ? 24 : 2;
    s.epoch_seconds = 1.0;
    s.traffic_profile = "heavy-tail";
    s.seed = seed;
    // One traffic trace for every seed: the heavy-tail traces of different
    // seeds differ by up to a quarter in cold cell-edge builds, which would
    // read as run-to-run noise.
    s.traffic_seed = 3;
    s.app = dufp::workloads::AppId::cg;
    s.policy = "DUFP";
    s.tolerated_slowdown = 0.10;
    // 75 % of the uncapped fleet (max_cap_w per socket).
    s.global_budget_w = 0.75 * s.max_cap_w *
                        s.topology.racks * s.topology.nodes_per_rack *
                        s.topology.sockets_per_node;
    seeds_.named.emplace_back("seed", s.seed);
    seeds_.named.emplace_back("traffic_seed", s.traffic_seed);
    spec_text_ = s.canonical_text();
  }

  std::string name() const override { return "fleet_capped"; }
  const Seeds& seeds() const override { return seeds_; }
  std::string spec_text() const override { return spec_text_; }
  std::size_t job_count() const override { return nodes_.size(); }

  void setup() override {
    spec_ = FleetSpec::parse(spec_text_);
    plan_ = dufp::fleet::plan_allocations(spec_);
    nodes_.resize(static_cast<std::size_t>(spec_.topology.racks) *
                  static_cast<std::size_t>(spec_.topology.nodes_per_rack));
    for (std::size_t n = 0; n < nodes_.size(); ++n) nodes_[n] = n;
    sample_ = spread_sample(nodes_.size(), 8);
  }

  PassResult run_pass() override {
    dufp::rapl::SharedCellCache::instance().clear();
    PassResult r;
    r.jobs = nodes_.size();
    PassClock clock;
    try {
      // One lane: the nodes run one by one, as in the instrumented pass.
      finish_fleet(dufp::fleet::run_fleet_nodes(spec_, nodes_, plan_, true, 1),
                   r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] fleet pass failed: %s\n", e.what());
      r.failed = r.jobs;
    }
    clock.stop(r);
    return r;
  }

  PassResult instrumented_pass(Tracer& tr, MetricSet& m) override {
    dufp::rapl::SharedCellCache::instance().clear();
    PassResult r;
    r.jobs = nodes_.size();
    PassClock clock;
    EngineTally engine;
    WriteCounters writes;
    double degradations = 0.0, faults = 0.0;
    try {
      dufp::fleet::AllocationPlan plan;
      {
        auto s = tr.span("fleet.plan");
        plan = dufp::fleet::plan_allocations(spec_);
      }
      std::vector<FleetNodeResult> results(nodes_.size());
      for (const std::size_t n : nodes_) {
        const auto job = static_cast<std::int64_t>(n);
        auto js = tr.span("fleet.run", job);
        std::optional<dufp::fleet::PreparedFleetNode> p;
        {
          auto s = tr.span("fleet.prepare", job);
          p.emplace(dufp::fleet::prepare_fleet_node(spec_, n, plan));
        }
        auto& sim = p->simulation();
        writes.attach(sim);
        {
          auto s = tr.span("sim.run", job);
          sim.run();
        }
        engine.add(sim.batch_stats(), sim.socket_count());
        for (int i = 0; i < sim.socket_count(); ++i) {
          engine.cells.add(sim.rapl(i).governor().cell_stats());
        }
        {
          auto s = tr.span("fleet.finish", job);
          results[n] = p->finish();
        }
        degradations += static_cast<double>(results[n].degradations);
        faults += static_cast<double>(results[n].faults_injected);
      }
      {
        auto s = tr.span("fleet.finalize");
        finish_fleet(results, r);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] fleet instrumented pass failed: %s\n",
                   e.what());
      r.failed = r.jobs;
    }
    clock.stop(r);
    clock.report_host(m);
    report_span_times(tr, m);
    engine.report(m, m.get("sim.run_s"));
    // The node's agents live inside run_fleet_node; only the MSR writes
    // and the health roll-up are observable from outside.
    m.set("core.cap_writes", "count", static_cast<double>(writes.cap));
    m.set("core.uncore_writes", "count", static_cast<double>(writes.uncore));
    m.set("core.degradations", "count", degradations);
    m.set("faults.injected", "count", faults);
    return r;
  }

  GateResult gate(bool flip_byte) override {
    GateResult g;
    if (kept_.size() != sample_.size()) {
      g.checked = sample_.size();
      g.failed = sample_.size();
      g.notes.push_back("no complete pass to check");
      return g;
    }
    for (std::size_t k = 0; k < sample_.size(); ++k) {
      const std::size_t n = sample_[k];
      std::string reference;
      try {
        reference = dufp::fleet::encode_node_result(
                        dufp::fleet::run_fleet_node(spec_, n, plan_, false))
                        .dump();
      } catch (const std::exception& e) {
        g.notes.push_back("node " + std::to_string(n) +
                          ": leap-off re-run threw: " + e.what());
      }
      compare_encoded(dufp::fleet::encode_node_result(kept_[k]).dump(),
                      reference, n, flip_byte && k == 0, g);
    }
    return g;
  }

 private:
  void finish_fleet(const std::vector<FleetNodeResult>& results,
                    PassResult& r) {
    kept_.clear();
    for (const std::size_t n : sample_) kept_.push_back(results[n]);
    for (const auto& res : results) {
      r.sim_socket_s += res.exec_seconds * spec_.topology.sockets_per_node;
    }
    const auto out = dufp::fleet::finalize_fleet(spec_, results);
    r.digest = dufp::json::fnv1a(out.allocation_csv + out.summary_csv +
                                 out.prometheus);
  }

  Seeds seeds_;
  std::string spec_text_;
  FleetSpec spec_;
  dufp::fleet::AllocationPlan plan_;
  std::vector<std::size_t> nodes_;
  std::vector<std::size_t> sample_;
  std::vector<FleetNodeResult> kept_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Shape shape,
                                        const std::string& out_dir) {
  if (name == "paper_grid") {
    return std::make_unique<GridWorkload>(name, false, 0.0, seed, shape,
                                          out_dir);
  }
  if (name == "sharded_grid") {
    return std::make_unique<GridWorkload>(name, true, 0.0, seed, shape,
                                          out_dir);
  }
  if (name == "sharded_storm") {
    return std::make_unique<GridWorkload>(name, true, 0.02, seed, shape,
                                          out_dir);
  }
  if (name == "fleet_capped") {
    return std::make_unique<FleetWorkload>(seed, shape);
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

void declare_layer_metrics(MetricSet& m) {
  EngineTally{}.report(m, 0.0);
  m.set("sim.run_s", "s", 0.0);
  for (const char* name :
       {"core.intervals", "core.cap_writes", "core.uncore_writes",
        "core.actuation_retries", "core.degradations", "faults.injected"}) {
    m.set(name, "count", 0.0);
  }
  m.set("host.sys_cpu_s", "s", 0.0);
  m.set("host.minor_faults", "count", 0.0);
  m.set("telemetry.metric_samples", "count", 0.0);
  m.set("telemetry.flight_events", "count", 0.0);
  m.set("telemetry.prom_bytes", "bytes", 0.0);
  for (const char* name :
       {"harness.plan_s", "harness.prepare_s", "harness.finish_s",
        "harness.encode_s", "harness.decode_s"}) {
    m.set(name, "s", 0.0);
  }
  m.set("harness.wire_bytes", "bytes", 0.0);
  for (const char* name :
       {"harness.supervise_s", "harness.gather_s", "harness.finalize_s"}) {
    m.set(name, "s", 0.0);
  }
  m.set("harness.worker_attempts", "count", 0.0);
  m.set("harness.worker_restarts", "count", 0.0);
  for (const char* name : {"fleet.plan_s", "fleet.prepare_s", "fleet.run_s",
                           "fleet.finish_s", "fleet.finalize_s"}) {
    m.set(name, "s", 0.0);
  }
}

}  // namespace perfbench
