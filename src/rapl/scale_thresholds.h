// P-state thresholds in scale space (DESIGN.md §7b, "Scale-space
// thresholds").
//
// The firmware governor's P-state search floors the power model's
// inverse to the core grid.  The inverse reduces a power target to one
// double, target_scale = (target_w − fixed) / dyn_at_ref
// (hw::PowerModel::reduce_to_scale), and only core_mhz_for_scale reads
// it.  So the grid state the search returns for a target inside the
// scale range is a step function of target_scale alone — the same for
// every uncore clock and demand of a socket config — and each state's
// step can be pinned once per config as the exact double where it
// starts.  A cell-edge probe then costs a subtraction, a division and a
// compare instead of a 60-step bisection, with the same answer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hwmodel/power_model.h"
#include "hwmodel/socket_config.h"

namespace dufp::rapl {

/// Number of states on the core P-state grid of `cfg`.
std::size_t grid_states(const hw::SocketConfig& cfg);

/// P-state `idx` in MHz, evaluated with the exact FP expression
/// floor_to_grid produces.
inline double grid_mhz(const hw::SocketConfig& cfg, std::size_t idx) {
  return static_cast<double>(idx) * cfg.core_step_mhz + cfg.core_min_mhz;
}

/// The P-state search's flooring: the highest grid state at or below the
/// unquantized clock `exact_mhz`, clamped to the grid (core_max for a
/// non-finite clock).
double floor_to_grid(const hw::SocketConfig& cfg, double exact_mhz);

/// Bisects the positive-double bit lattice (IEEE-754 ordering of positive
/// doubles matches their bit patterns) between the bits `lo`, which does
/// not satisfy the monotone predicate `reaches`, and `hi`, which does:
/// returns the first double that does.  Probes of the real computation
/// pin the exact double where its output flips, so a tabulated edge can
/// never disagree with the computation it replaces.
template <typename Reaches>
double bisect_edge(const Reaches& reaches, std::uint64_t lo,
                   std::uint64_t hi) {
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (reaches(std::bit_cast<double>(mid))) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::bit_cast<double>(hi);
}

/// The grid state the search returns, as a function of where the power
/// target lands (hw::PowerModel::ScaleTarget), for one socket config.
struct ScaleThresholds {
  /// True when the table was verified exact for this config: each branch
  /// of core_mhz_for_scale monotone, and monotone across the
  /// voltage-floor junction and both clamps.  False: callers keep the
  /// bisection.
  bool exact = false;
  /// Search output for a target with no dynamic budget (the inverse
  /// returns 0 MHz) and for one the reference clock meets.
  double none_mhz = 0.0;
  double ref_mhz = 0.0;
  /// at[idx]: the smallest target_scale in [0, 1) whose search output
  /// reaches grid state idx; 1.0 when none below 1 does.
  /// Nondecreasing in idx; at[0] is 0.
  std::vector<double> at;

  /// Pins the table for `cfg` by bisecting the IEEE-754 bit lattice of
  /// [0, 1) with probes of the real core_mhz_for_scale: about 62 probes
  /// per grid state, once per config.
  static ScaleThresholds pin(const hw::SocketConfig& cfg);
};

}  // namespace dufp::rapl
