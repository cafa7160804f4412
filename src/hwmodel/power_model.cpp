#include "hwmodel/power_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/expect.h"
#include "common/units.h"

namespace dufp::hw {

PowerModel::PowerModel(const PowerModelParams& params, int cores,
                       double f_ref_mhz, double fu_ref_mhz)
    : params_(params),
      cores_(cores),
      f_ref_mhz_(f_ref_mhz),
      fu_ref_mhz_(fu_ref_mhz) {
  DUFP_EXPECT(cores > 0);
  DUFP_EXPECT(f_ref_mhz > 0.0 && fu_ref_mhz > 0.0);
}

namespace {

/// Relative voltage at normalized frequency x = f / f_ref.
double rel_voltage(double x, const PowerModelParams& p) {
  const double v = 1.0 - p.v_slope * (1.0 - x);
  return v > p.v_min_frac ? v : p.v_min_frac;
}

/// CV²f dynamic-power scale, 1.0 at the reference frequency.
double dvfs_scale(double x, const PowerModelParams& p) {
  const double v = rel_voltage(x, p);
  return x * v * v;
}

}  // namespace

double PowerModel::core_power_w(double core_mhz,
                                const PhaseDemand& demand) const {
  DUFP_EXPECT(core_mhz > 0.0);
  const double dyn = params_.core_dyn_w * demand.cpu_activity *
                     dvfs_scale(core_mhz / f_ref_mhz_, params_);
  return static_cast<double>(cores_) * (params_.core_idle_w + dyn);
}

double PowerModel::uncore_power_w(double uncore_mhz,
                                  const PhaseDemand& demand) const {
  DUFP_EXPECT(uncore_mhz > 0.0);
  const double ratio = uncore_mhz / fu_ref_mhz_;
  return params_.uncore_base_w * std::pow(ratio, params_.uncore_alpha) +
         params_.uncore_act_w * demand.mem_activity;
}

double PowerModel::package_power_w(double core_mhz, double uncore_mhz,
                                   const PhaseDemand& demand) const {
  return params_.static_w + core_power_w(core_mhz, demand) +
         uncore_power_w(uncore_mhz, demand);
}

PowerModel::PowerSplit PowerModel::power_split(
    double uncore_mhz, const PhaseDemand& demand) const {
  PowerSplit s;
  s.fixed_w = params_.static_w +
              static_cast<double>(cores_) * params_.core_idle_w +
              uncore_power_w(uncore_mhz, demand);
  s.dyn_at_ref_w =
      static_cast<double>(cores_) * params_.core_dyn_w * demand.cpu_activity;
  return s;
}

double PowerModel::core_mhz_for_power(double target_w, double uncore_mhz,
                                      const PhaseDemand& demand) const {
  const ScaleTarget t =
      reduce_to_scale(target_w, power_split(uncore_mhz, demand));
  switch (t.branch) {
    case ScaleBranch::kNone:
      return 0.0;
    case ScaleBranch::kRef:
      return f_ref_mhz_;
    case ScaleBranch::kScale:
      break;
  }
  return core_mhz_for_scale(t.scale);
}

double PowerModel::core_mhz_for_scale(double target_scale) const {
  // Invert s(x) = x * V(x)^2.  In the floor region s is linear; above it
  // s is a cubic in x — solve by a fixed 60-step bisection (monotone in
  // target_scale; each step halves the bracket, so it ends at the
  // double-precision resolution of x).
  const double x_floor =
      1.0 - (1.0 - params_.v_min_frac) / params_.v_slope;
  const double s_floor =
      x_floor > 0.0 ? dvfs_scale(x_floor, params_) : 0.0;
  if (x_floor > 0.0 && target_scale <= s_floor) {
    const double x = x_floor * target_scale / s_floor;
    return x * f_ref_mhz_;
  }
  double lo = std::max(x_floor, 0.0);
  double hi = 1.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (dvfs_scale(mid, params_) > target_scale) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi) * f_ref_mhz_;
}

PowerModel::ScaleShape PowerModel::scale_shape() const {
  // The same expressions core_mhz_for_scale evaluates.
  const double x_floor =
      1.0 - (1.0 - params_.v_min_frac) / params_.v_slope;
  ScaleShape out;
  out.has_floor = x_floor > 0.0;
  out.floor_scale = out.has_floor ? dvfs_scale(x_floor, params_) : 0.0;
  const double lo = std::max(x_floor, 0.0);  // NaN stays NaN
  // For x_floor > 0 the floor branch scales by x_floor / s_floor
  // (s_floor > 0), or is the single point 0 (s_floor == 0).
  const bool floor_ok = !out.has_floor || (std::isfinite(x_floor) &&
                                           std::isfinite(out.floor_scale));
  out.monotone_branches = lo >= 0.0 && lo <= 1.0 && floor_ok;
  return out;
}

double PowerModel::dram_power_w(double bytes_per_second) const {
  DUFP_EXPECT(bytes_per_second >= 0.0);
  return params_.dram_background_w +
         params_.dram_w_per_gbps * bps_to_gbps(bytes_per_second);
}

}  // namespace dufp::hw
