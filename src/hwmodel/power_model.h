// Analytic package / DRAM power functions.  Pure: all state is passed in,
// which lets the RAPL firmware governor evaluate "what would power be at
// frequency f" when searching for the highest compliant P-state.
#pragma once

#include "hwmodel/demand.h"
#include "hwmodel/socket_config.h"

namespace dufp::hw {

class PowerModel {
 public:
  PowerModel(const PowerModelParams& params, int cores, double f_ref_mhz,
             double fu_ref_mhz);

  /// Package power at the given operating point under `demand`.
  double package_power_w(double core_mhz, double uncore_mhz,
                         const PhaseDemand& demand) const;

  /// DRAM domain power at the given achieved bandwidth.
  double dram_power_w(double bytes_per_second) const;

  /// Core-domain component only (used by tests and diagnostics).
  double core_power_w(double core_mhz, const PhaseDemand& demand) const;

  /// Uncore-domain component only.
  double uncore_power_w(double uncore_mhz, const PhaseDemand& demand) const;

  /// Analytic inverse of package_power_w in the core-frequency argument:
  /// the (unquantized) core clock at which package power equals
  /// `target_w`, given the uncore clock and demand.  Clamped to the
  /// reference clock when every frequency complies; returns 0 when none
  /// does.  The composition of its two exact halves, reduce_to_scale and
  /// core_mhz_for_scale; the reference the governor's scale-space
  /// thresholds are tested against.
  double core_mhz_for_power(double target_w, double uncore_mhz,
                            const PhaseDemand& demand) const;

  /// The two terms of package power at fixed uncore clock and demand:
  /// package power at core clock x·f_ref is fixed_w + dyn_at_ref_w·s(x),
  /// with s(x) = x·V(x)² the CV²f scale (1 at the reference clock).
  struct PowerSplit {
    double fixed_w = 0.0;       ///< static + core idle + uncore
    double dyn_at_ref_w = 0.0;  ///< core dynamic power at the reference
  };
  PowerSplit power_split(double uncore_mhz, const PhaseDemand& demand) const;

  /// Where a power target lands in scale space: below every clock (no
  /// dynamic budget; the inverse returns 0), at or above the reference
  /// clock (the inverse returns f_ref), or strictly inside, at `scale` in
  /// [0, 1) (or NaN for a NaN target), which core_mhz_for_scale inverts.
  enum class ScaleBranch { kNone, kRef, kScale };
  struct ScaleTarget {
    ScaleBranch branch = ScaleBranch::kNone;
    double scale = 0.0;  ///< meaningful for kScale only
  };
  /// First half of core_mhz_for_power: the reduction of `target_w` to a
  /// target scale, with its three early returns.  Inline: the governor's
  /// cell-edge probes run it against a PowerSplit computed once per edge.
  static ScaleTarget reduce_to_scale(double target_w, const PowerSplit& s) {
    const double dyn_budget_w = target_w - s.fixed_w;
    if (dyn_budget_w <= 0.0) return {ScaleBranch::kNone, 0.0};
    if (s.dyn_at_ref_w <= 0.0) return {ScaleBranch::kRef, 0.0};
    const double target_scale = dyn_budget_w / s.dyn_at_ref_w;
    // Even the reference clock fits; clamp to it.
    if (target_scale >= 1.0) return {ScaleBranch::kRef, target_scale};
    return {ScaleBranch::kScale, target_scale};
  }

  /// Second half of core_mhz_for_power: the core clock (MHz) whose CV²f
  /// scale is `target_scale`, for a scale the reduction left inside
  /// (kScale).  Linear in the voltage-floor region, a 60-step bisection
  /// above it; monotone nondecreasing in `target_scale` within each
  /// branch (DESIGN.md §7b, "Scale-space thresholds").
  double core_mhz_for_scale(double target_scale) const;

  /// Shape of core_mhz_for_scale, for callers that tabulate it.  Targets
  /// at or below `floor_scale` take the linear voltage-floor branch (only
  /// when `has_floor`), the rest the bisection.  `monotone_branches`
  /// holds when each branch is monotone nondecreasing on its own: the
  /// floor branch scales by finite nonnegative constants, and the
  /// bisection's bracket [max(x_floor, 0), 1] is ordered.  Whether the
  /// two branches agree at their junction is left to the caller.
  struct ScaleShape {
    bool has_floor = false;
    double floor_scale = 0.0;
    bool monotone_branches = false;
  };
  ScaleShape scale_shape() const;

  /// Reference clock (MHz) the inverse clamps to.
  double f_ref_mhz() const { return f_ref_mhz_; }

  const PowerModelParams& params() const { return params_; }

 private:
  PowerModelParams params_;
  int cores_;
  double f_ref_mhz_;
  double fu_ref_mhz_;
};

}  // namespace dufp::hw
