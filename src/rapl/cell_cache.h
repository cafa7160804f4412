// Process-wide shared cell-edge cache (DESIGN.md §7f).
//
// A cell edge — the exact IEEE-754 double where the governor's P-state
// search output flips to grid state `idx` — is a pure function of
//   (socket numeric parameters, P-state index, effective uncore clock,
//    demand.cpu_activity, demand.mem_activity):
// the bit-lattice bisection in FirmwareGovernor::lowest_allowance_reaching
// reaches the socket only through SocketModel::power_split (once per
// edge), whose fixed and dynamic terms read exactly those values; each
// probe then compares the allowance's target scale with the config's
// scale-space thresholds (rapl/scale_thresholds.h, pinned here at
// intern time), not the power model's bisection inverse.  The bisection
// fallback of a config whose thresholds are not exact reads the same
// values through SocketModel::package_power_at and the power model's
// core_mhz_for_power.  The uncore window and the idle flag matter only
// through the effective uncore clock they select; the time-composition
// weights and the reference rates never reach the power model.  Two
// governors anywhere in the process whose keys match therefore compute
// bit-equal edges, so a shared read-only cache behind the per-governor
// ways is invisible to the byte-identity contract: a hit replays the
// identical double the local bisection would have produced.
//
// This is the cross-run amortization layer of the batched multi-run
// engine: repetition 2..N of a cell, the other sockets of the same
// machine, every same-config cell of a grid, and every node of a fleet
// whose sockets share an operating point start warm instead of
// re-running ~25 planner probes per edge.
//
// Concurrency: a single mutex guards the table (lane-group threads and
// the plan's ThreadPool workers all land here).  Lookups are rare
// relative to calm ticks — the per-governor ways absorb the hot path —
// so the lock is not contended in practice.  Insertion is
// first-writer-wins; a racing second insert computed the identical bits
// anyway.
//
// Allocation discipline: the edge table is a fixed-capacity
// open-addressing array allocated once at singleton construction, so
// lookup/insert never touch the heap — the engine's zero-allocation
// steady-state guarantee (tests/perf/alloc_guard_test) extends through
// the cache.  A full table drops further inserts (counted in
// GlobalStats::full_drops); correctness is unaffected, later runs just
// rebuild those edges locally.
//
// Keys compare the *bit patterns* of the double inputs (never ==):
// conservative — a -0.0 vs +0.0 mismatch costs a duplicate build, never
// a wrong edge.  Socket configs are interned by exact field comparison
// into small ids so the per-edge key stays four flat words
// (interning allocates, but only at governor construction).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hwmodel/socket_config.h"
#include "hwmodel/socket_model.h"
#include "rapl/scale_thresholds.h"

namespace dufp::rapl {

/// Cell-edge table economics for one governor (or summed over a run /
/// grid).  Cheap enough to keep always-on; the grid-throughput bench and
/// telemetry read it so the shared-cache win is measurable, not assumed.
struct CellStats {
  std::uint64_t cold_builds = 0;    ///< edge bisections actually run
  std::uint64_t probes = 0;         ///< P-state-search probes inside them
  std::uint64_t shared_hits = 0;    ///< way misses served by the process cache
  std::uint64_t way_evictions = 0;  ///< valid ways overwritten on refill
  std::uint64_t local_hits = 0;     ///< served from the governor's own ways

  void add(const CellStats& o) {
    cold_builds += o.cold_builds;
    probes += o.probes;
    shared_hits += o.shared_hits;
    way_evictions += o.way_evictions;
    local_hits += o.local_hits;
  }
};

/// The socket state a cell edge reads besides the config and the P-state
/// index, as bit patterns.  One identity for both cache tiers: the
/// governor's ways content-match on it and the shared key embeds it.
struct EdgeInputs {
  std::uint64_t uncore_mhz = 0;    ///< bits of effective_uncore_mhz()
  std::uint64_t cpu_activity = 0;  ///< bits of demand().cpu_activity
  std::uint64_t mem_activity = 0;  ///< bits of demand().mem_activity

  EdgeInputs() = default;
  EdgeInputs(double effective_uncore_mhz, double cpu_activity,
             double mem_activity);
  /// The inputs at the socket's current window and demand.
  static EdgeInputs of(const hw::SocketModel& socket);

  friend bool operator==(const EdgeInputs&, const EdgeInputs&) = default;
};

class SharedCellCache {
 public:
  /// Flat key: [config id << 32 | P-state index, then the EdgeInputs
  /// words].  A first word of all ones marks an empty slot, which no
  /// make_key result can carry.
  using Key = std::array<std::uint64_t, 4>;

  static SharedCellCache& instance();

  /// Interns a socket config by exact comparison of every numeric field
  /// entering the edge computation (grid geometry, uncore window range,
  /// power and memory model parameters, core count).  Returns a dense id
  /// stable for the process lifetime.  model_name is deliberately
  /// ignored: renaming a part must not split the cache.
  std::uint32_t intern_config(const hw::SocketConfig& cfg);

  /// The scale-space P-state thresholds of an interned config, pinned
  /// once when the config was first interned.  A pure function of the
  /// config like the id, so it survives clear(); the row is immutable
  /// and lives as long as the cache, so governors keep a reference and
  /// read it lock-free.
  const ScaleThresholds& scale_thresholds(std::uint32_t config_id) const;

  /// Builds the per-edge key from the interned config, the P-state index
  /// and the edge inputs.
  static Key make_key(std::uint32_t config_id, std::size_t idx,
                      const EdgeInputs& inputs);

  /// True (filling *edge) when the key is cached.  Counts a global hit.
  bool lookup(const Key& key, double* edge);

  /// Publishes a freshly built edge (first writer wins).
  void insert(const Key& key, double edge);

  /// Master switch (default from DUFP_SHARED_CELL_CACHE, on unless "0").
  /// Off: lookup always misses and insert drops — every governor builds
  /// its own edges exactly as before the cache existed.
  bool enabled() const;
  void set_enabled(bool on);

  /// Drops every cached edge (the warm/cold A-B knob of
  /// bench/grid_throughput; also isolates tests) and resets the global
  /// stats.  Interned config ids stay valid — governors hold them for
  /// the process lifetime.
  void clear();

  /// Process-wide totals since the last clear().
  struct GlobalStats {
    std::uint64_t entries = 0;     ///< distinct edges resident
    std::uint64_t hits = 0;        ///< lookups served
    std::uint64_t misses = 0;      ///< lookups not served (while enabled)
    std::uint64_t inserts = 0;     ///< edges published
    std::uint64_t full_drops = 0;  ///< inserts dropped at capacity
  };
  GlobalStats stats() const;

 private:
  SharedCellCache();

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// One open-addressing slot (40 bytes); empty while key[0] == kEmpty.
  /// A slot never empties outside clear(), so plain linear probing stays
  /// correct (no tombstones needed).
  struct Slot {
    Key key{kEmpty, 0, 0, 0};
    double edge = 0.0;
    bool used() const { return key[0] != kEmpty; }
  };

  std::size_t probe_locked(const Key& key) const;

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::vector<hw::SocketConfig> configs_;  // interned, id = index
  // Per interned config; boxed so a row's address survives growth.
  std::vector<std::unique_ptr<const ScaleThresholds>> thresholds_;
  std::vector<Slot> slots_;                // fixed size, power of two
  std::size_t resident_ = 0;
  GlobalStats stats_;
};

}  // namespace dufp::rapl
