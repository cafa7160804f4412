// Simulated RAPL firmware (the package control unit's power-limiting
// loop).  Runs at simulation-tick resolution (1 ms): maintains a running
// average of package power per constraint window and picks the highest
// core P-state whose predicted power respects every enabled constraint,
// with realistic slew limits.
//
// This reproduces the behaviours the paper leans on:
//  * enforcement is via core DVFS (Sec. II-B: "RAPL uses DVFS");
//  * the long-term constraint allows short excursions above the limit as
//    long as the window average complies; the short-term constraint
//    bounds those excursions;
//  * a freshly lowered cap takes tens of milliseconds to bite (Sec. IV-D:
//    "some time is needed to apply a new power cap"), because the window
//    average must drain and the P-state slews down step by step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/ring_buffer.h"
#include "hwmodel/socket_model.h"
#include "msr/registers.h"
#include "rapl/cell_cache.h"
#include "rapl/scale_thresholds.h"

namespace dufp::rapl {

struct GovernorParams {
  double tick_s = 0.001;  ///< control-loop period

  /// Correction aggressiveness: instantaneous allowance is
  /// limit + gain * (limit - window_average); >0 lets the package burst
  /// above a cold limit and forces under-shoot after an overshoot.
  double headroom_gain = 2.0;

  /// P-state slew: throttling is fast (thermal protection), unthrottling
  /// deliberate (avoids oscillation) — per tick, in MHz.
  double throttle_slew_mhz = 300.0;
  double unthrottle_slew_mhz = 100.0;
};

class FirmwareGovernor {
 public:
  FirmwareGovernor(hw::SocketModel& socket, const GovernorParams& params);

  /// Installs new constraints (from an MSR 0x610 write).  Re-sizes the
  /// averaging windows; accumulated history within the old windows is
  /// kept where it fits.
  void set_limit(const msr::PowerLimit& limit);
  const msr::PowerLimit& limit() const { return limit_; }

  /// Chooses and applies the core-frequency limit for the next tick.
  /// Call once per tick, before the socket is evaluated.
  void tick();

  /// Feeds the power actually drawn over the tick just simulated.
  void record_power(double pkg_power_w, double dt_s) {
    DUFP_EXPECT(dt_s > 0.0);
    DUFP_EXPECT(pkg_power_w >= 0.0);
    long_window_.add(pkg_power_w);
    short_window_.add(pkg_power_w);
  }

  /// Window averages (diagnostics / tests).
  double long_term_avg_w() const { return long_window_.mean(); }
  double short_term_avg_w() const { return short_window_.mean(); }

  /// Frequency limit currently applied (MHz).
  double current_limit_mhz() const { return current_limit_mhz_; }

  /// True when the governor is at a bitwise fixed point under a constant
  /// recorded package power of `pkg_power_w`: both averaging windows are
  /// full of exactly that value with a round-off-stable running sum, and
  /// re-running the control decision would reproduce the currently
  /// applied frequency limit bit for bit.  While this holds, a
  /// tick()+record_power(pkg_power_w) cycle changes no observable
  /// governor or socket state — the precondition the simulation's
  /// event-leaping fast path relies on to skip the control loop entirely.
  bool steady_state(double pkg_power_w) const;

  /// O(1) pre-gate for steady_state: both windows consist entirely of one
  /// bitwise-identical value.  Cheap enough to poll every tick.
  bool windows_uniform() const {
    return long_window_.full() &&
           long_window_.run_length() >= long_window_.capacity() &&
           short_window_.full() &&
           short_window_.run_length() >= short_window_.capacity();
  }

  /// Calm-tick fast path for the simulation engine.  Performs, in one
  /// call, the exact observable work of a tick()+record_power(recorded_w)
  /// pair *provided the control decision would keep the current frequency
  /// limit* — and refuses (returning false, touching nothing) otherwise.
  ///
  /// The decision is the cell-table decision tick() itself uses (see
  /// planned_limit_mhz); for a calm tick it costs a couple of comparisons
  /// against cached cell edges instead of a bisection.  Defined here so
  /// the engine's calm-stretch loop inlines it.
  bool fast_calm_tick(double recorded_w) {
    // Calm ⟺ the decision tick() would take keeps the applied limit, i.e.
    // the allowance lies in the applied limit's own cell (the P-state
    // search returns the limit, no slew applies, and quantization of a
    // grid point is the identity).
    if (calm_limit_ != current_limit_mhz_ ||
        calm_version_ != socket_.state_version()) {
      refresh_calm_cell();
    }
    // A non-finite allowance plans core_max in the reference decision;
    // +inf matches the test exactly (it passes only for the top state),
    // and the never-occurring NaN / -inf fail every comparison and merely
    // fall back to the exact path.
    const double a = current_allowance();
    if (!(a >= calm_lo_ && (calm_top_ || a < calm_hi_))) return false;
    // tick() would re-apply the unchanged limit (a no-op write: the
    // socket setter compares before invalidating); record_power() would
    // push the tick's power into both windows.  Only the pushes are
    // observable.
    long_window_.add(recorded_w);
    short_window_.add(recorded_w);
    return true;
  }

  /// The control decision of tick() without the actuation: the quantized
  /// frequency limit the governor would apply given the current windows.
  ///
  /// Computed without running the P-state search: the allowance axis
  /// partitions into cells on which the search output is constant (it is
  /// a monotone step function of the allowance), and the exact cell
  /// edges — the precise doubles where the search output flips, pinned
  /// by bisecting the IEEE-754 bit lattice with probes of the real
  /// search — are cached per P-state, keyed on the effective uncore clock
  /// and the two activity factors (the search's only other inputs).
  /// Locating the allowance's cell costs a few comparisons; the bisection
  /// runs only when an edge is first needed for a never-seen socket state.
  double planned_limit_mhz() const {
    return planned_limit_mhz(current_allowance());
  }
  /// The same decision for an explicit allowance (W) in place of the
  /// windows' current one.
  double planned_limit_mhz(double allowance_w) const;

  /// Reference implementation of the same decision via a fresh P-state
  /// search through the power model's bisection inverse (the
  /// pre-cell-table code path: no cell table, no scale-space
  /// thresholds).  Exposed so equivalence tests can check the cached
  /// decision bit-for-bit; not used on any engine path.
  double planned_limit_reference_mhz() const {
    return planned_limit_reference_mhz(current_allowance());
  }
  double planned_limit_reference_mhz(double allowance_w) const;

  /// Smallest allowance for which the P-state search reaches grid state
  /// `idx` at the socket's current state, pinned to the exact flipping
  /// double by bit-lattice bisection (-inf when every allowance reaches
  /// it, +inf when none does).  Probes compare the allowance's target
  /// scale with the config's thresholds, in a bracket seeded from the
  /// threshold; a config whose thresholds could not be verified exact
  /// uses lowest_allowance_bisection instead.  Counts its probes in
  /// cell_stats(); does not touch the cell table.
  double lowest_allowance_reaching(std::size_t idx) const;

  /// The same edge with every probe running the reference P-state search
  /// (highest_compliant_mhz) and the bracket seeded from the forward
  /// model: the fallback of an inexact config, and the reference tests
  /// compare against.
  double lowest_allowance_bisection(std::size_t idx) const;

  /// True when this config's scale-space thresholds were verified exact
  /// (ScaleThresholds::exact) and the probes use them.
  bool scale_thresholds_exact() const { return scale_->exact; }

  /// Cell-table economics of this governor since construction: cold edge
  /// builds, probes spent inside them, hits served by the process-wide
  /// shared cache, way evictions.  A pure observer — reading it never
  /// perturbs the cache.
  const CellStats& cell_stats() const { return cell_stats_; }

 private:
  /// One cached edge of the allowance→P-state partition: the exact
  /// double where the P-state search first reaches the state `idx` steps
  /// above core_min.  Content-matched on the edge's inputs besides the
  /// allowance (the same EdgeInputs identity the shared cache keys on),
  /// so edges survive a DUFP controller hunting the uncore window and
  /// workloads revisiting phases; kCellWays alternatives per state cover
  /// a controller alternating between a few operating points without
  /// thrash.
  struct CellSlot {
    /// State version at last confirmation; 0 marks an empty way (socket
    /// state versions start at 1).
    std::uint64_t version = 0;
    EdgeInputs inputs;  ///< what the edge was built for
    double edge = 0.0;
  };
  /// A DUFP controller's uncore hunt sweeps the full ratio range (a dozen
  /// or more distinct windows), so the ways must cover the whole sweep or
  /// the cache thrashes and the edge bisection dominates the run again.
  /// Hits are moved to the front, keeping the common case one compare.
  static constexpr std::size_t kCellWays = 24;

  /// Instantaneous allowance from the current window averages — the
  /// first half of the control decision.  Runs once per socket per calm
  /// tick, hence inline.
  double current_allowance() const {
    double allowance = std::numeric_limits<double>::infinity();
    if (limit_.long_term_enabled && limit_.long_term_w > 0.0) {
      const double avg = long_window_.full() || long_window_.size() > 0
                             ? long_window_.mean()
                             : limit_.long_term_w;
      allowance =
          std::min(allowance,
                   limit_.long_term_w +
                       params_.headroom_gain * (limit_.long_term_w - avg));
    }
    if (limit_.short_term_enabled && limit_.short_term_w > 0.0) {
      const double avg = short_window_.size() > 0 ? short_window_.mean()
                                                  : limit_.short_term_w;
      allowance =
          std::min(allowance,
                   limit_.short_term_w +
                       params_.headroom_gain * (limit_.short_term_w - avg));
    }
    return allowance;
  }
  /// Refills the flat calm-cell members (calm_lo_/calm_hi_/calm_top_)
  /// from the cell table for the currently applied limit.
  void refresh_calm_cell();
  /// Slew limiting and quantization of a search result: the last step of
  /// every decision path.
  double slewed(double target_mhz) const;

  /// Edge of cell `idx` for the socket's current state (lazily built,
  /// cached in cells_; way misses consult the process-wide
  /// SharedCellCache before falling back to the bisection).  -inf when
  /// every allowance reaches the state, +inf when none does.
  double cell_edge(std::size_t idx) const;
  /// P-state `idx` in MHz (rapl::grid_mhz of the socket's config).
  double grid_mhz(std::size_t idx) const {
    return rapl::grid_mhz(socket_.config(), idx);
  }

  /// Highest quantized core frequency with predicted power <= allowance
  /// (the P-state search, through the power model's bisection inverse).
  double highest_compliant_mhz(double allowance_w) const;
  /// highest_compliant_mhz(max(allowance_w, 0)) >= grid_mhz(idx), for
  /// exact thresholds, given the socket's power split: the cell-edge
  /// probe.
  bool reaches_state(std::size_t idx, double allowance_w,
                     const hw::PowerModel::PowerSplit& split) const;

  std::size_t window_ticks(double window_s) const;

  hw::SocketModel& socket_;
  GovernorParams params_;
  msr::PowerLimit limit_;
  WindowedMean long_window_;
  WindowedMean short_window_;
  double current_limit_mhz_;
  /// Cell-edge cache, kCellWays recency-ordered slots per P-state
  /// (planned_limit_mhz is const — the lazily built cache is an
  /// invisible memo).
  mutable std::vector<CellSlot> cells_;
  /// This socket config's SharedCellCache id, interned at construction
  /// so the in-run cache paths never allocate.
  std::uint32_t shared_cfg_ = 0;
  /// Economics counters (see cell_stats()); mutable for the same reason
  /// cells_ is — the decision paths are const.
  mutable CellStats cell_stats_;

  /// The applied limit's own cell, flattened into members so the calm
  /// test is two comparisons with no cache lookup; revalidated by
  /// (limit, socket state version).
  mutable double calm_lo_ = 0.0;
  mutable double calm_hi_ = 0.0;
  mutable bool calm_top_ = false;  ///< limit is the top state: no upper edge
  mutable double calm_limit_ = -1.0;
  mutable std::uint64_t calm_version_ = 0;

  /// This config's scale-space thresholds: the shared cache's immutable
  /// row, which lives as long as the cache, so the probes take no lock.
  const ScaleThresholds* scale_ = nullptr;
};

}  // namespace dufp::rapl
