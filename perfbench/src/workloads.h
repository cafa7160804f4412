// The benchmark's workloads, each driven through the repository's public
// entry points:
//
//   paper_grid     build_plan -> ExperimentPlan::run_jobs(all, 2 threads)
//                  -> finalize_grid over the paper's Fig. 3 grid
//   sharded_grid   the same cells with telemetry on, through
//                  supervise_shard_run (2 forked workers, dynamic chunks)
//                  -> gather_shards_report -> finalize_grid
//   sharded_storm  sharded_grid under a 2 % fault storm
//   fleet_capped   plan_allocations -> run_fleet_nodes (one lane, one
//                  node at a time) -> finalize_fleet over a 1024-socket
//                  fastcap fleet
//
// Every workload offers the same four operations: set-up (spec parse +
// plan), an untraced pass (the end-to-end numbers), an instrumented
// serial pass (the per-layer numbers, spans recorded when the tracer is
// on) and the correctness gate (a fixed sample re-run with event leaping
// off, byte-compared with the timed results).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/// One named metric with its unit, kept in insertion order.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class MetricSet {
 public:
  void set(const std::string& name, const std::string& unit, double value);
  double get(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Process CPU and memory counters, self plus reaped children.
struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double max_rss_mb = 0.0;  ///< max over self and the largest child

  static HostUsage now();
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;            ///< user + sys, self + children
  double sys_s = 0.0;            ///< the kernel's part of cpu_s
  std::size_t jobs = 0;          ///< jobs attempted
  std::size_t failed = 0;        ///< threw or missing after gather
  double sim_socket_s = 0.0;     ///< simulated socket-seconds completed
  std::uint64_t digest = 0;      ///< FNV-1a of the finalized CSV
  std::optional<double> paper_gap_pp;
};

struct GateResult {
  std::size_t checked = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;
};

/// Workload sizes: the measured shape, or a tiny one for the
/// benchmark's own test.
enum class Shape { full, tiny };

/// The workload's seeds by name, all derived from --seed.
struct Seeds {
  std::vector<std::pair<std::string, std::uint64_t>> named;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual const Seeds& seeds() const = 0;
  /// The generated spec's canonical text (what the program receives).
  virtual std::string spec_text() const = 0;
  virtual std::size_t job_count() const = 0;

  /// Spec parse + plan, until the first job could start.
  virtual void setup() = 0;
  /// One untraced pass through the real entry points; keeps the sample
  /// results the gate compares.
  virtual PassResult run_pass() = 0;
  /// One serial pass through the per-call entry points.  Spans go to
  /// `tracer` (when enabled) and layer counters to `layer`.
  virtual PassResult instrumented_pass(Tracer& tracer, MetricSet& layer) = 0;
  /// Re-runs the fixed sample with event leaping off and byte-compares
  /// it with the last pass.  `flip_byte` corrupts one byte of the first
  /// timed result first (the gate's own test).
  virtual GateResult gate(bool flip_byte) = 0;
};

/// Sets every per-layer metric to zero under its unit, so all workloads
/// emit the same names (a layer a workload does not use reads 0).
void declare_layer_metrics(MetricSet& m);

/// One of the workloads above; throws std::invalid_argument on an
/// unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Shape shape,
                                        const std::string& out_dir);

}  // namespace perfbench
