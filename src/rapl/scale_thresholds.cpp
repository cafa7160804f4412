#include "rapl/scale_thresholds.h"

#include <algorithm>
#include <cmath>

namespace dufp::rapl {

std::size_t grid_states(const hw::SocketConfig& cfg) {
  return static_cast<std::size_t>(std::lround(
             (cfg.core_max_mhz - cfg.core_min_mhz) / cfg.core_step_mhz)) +
         1;
}

double floor_to_grid(const hw::SocketConfig& cfg, double exact_mhz) {
  if (!std::isfinite(exact_mhz)) return cfg.core_max_mhz;
  const double floored =
      std::floor((exact_mhz - cfg.core_min_mhz) / cfg.core_step_mhz) *
          cfg.core_step_mhz +
      cfg.core_min_mhz;
  return std::clamp(floored, cfg.core_min_mhz, cfg.core_max_mhz);
}

ScaleThresholds ScaleThresholds::pin(const hw::SocketConfig& cfg) {
  const hw::PowerModel model(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                             cfg.fu_ref_mhz());
  const std::size_t n = grid_states(cfg);
  ScaleThresholds out;
  out.none_mhz = floor_to_grid(cfg, 0.0);
  out.ref_mhz = floor_to_grid(cfg, model.f_ref_mhz());
  const auto state = [&](double t) {
    return floor_to_grid(cfg, model.core_mhz_for_scale(t));
  };
  const double below_one = std::nextafter(1.0, 0.0);

  // The table is exact only where "the search reaches state idx" is a
  // monotone predicate of target_scale.  Each branch of the inverse is
  // monotone when its shape says so, and flooring/clamping keep that;
  // what is left to check is the one junction between the branches,
  // and — for the cell-edge bisection over allowances — that the two
  // clamps (no budget, reference clock met) bound the scale range.  The
  // grid must be strictly increasing and end at core_max so that the
  // search output always is one grid state.
  const hw::PowerModel::ScaleShape shape = model.scale_shape();
  bool exact = shape.monotone_branches &&
               grid_mhz(cfg, n - 1) == cfg.core_max_mhz &&
               out.none_mhz <= state(0.0) && state(below_one) <= out.ref_mhz;
  for (std::size_t idx = 0; exact && idx + 1 < n; ++idx) {
    exact = grid_mhz(cfg, idx) < grid_mhz(cfg, idx + 1);
  }
  if (exact && shape.has_floor && shape.floor_scale < below_one) {
    exact = state(shape.floor_scale) <=
            state(std::nextafter(shape.floor_scale, 1.0));
  }
  if (!exact) return out;

  // Bisect the bit lattice of [0, 1) for the first scale reaching each
  // state.
  out.at.resize(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    const double target = grid_mhz(cfg, idx);
    const auto reaches = [&](double t) { return state(t) >= target; };
    if (reaches(0.0)) {
      out.at[idx] = 0.0;
      continue;
    }
    if (!reaches(below_one)) {
      out.at[idx] = 1.0;
      continue;
    }
    out.at[idx] =
        bisect_edge(reaches, 0, std::bit_cast<std::uint64_t>(below_one));
  }
  out.exact = true;
  return out;
}

}  // namespace dufp::rapl
