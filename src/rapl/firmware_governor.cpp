#include "rapl/firmware_governor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/expect.h"
#include "hwmodel/socket_model.h"

namespace dufp::rapl {

FirmwareGovernor::FirmwareGovernor(hw::SocketModel& socket,
                                   const GovernorParams& params)
    : socket_(socket),
      params_(params),
      long_window_(window_ticks(1.0)),
      short_window_(window_ticks(0.01)),
      current_limit_mhz_(socket.config().core_max_mhz) {
  DUFP_EXPECT(params.tick_s > 0.0);
  // Start from the hardware default constraints.
  msr::PowerLimit def;
  def.long_term_w = socket.config().long_term_default_w;
  def.long_term_window_s = socket.config().long_term_window_s;
  def.long_term_enabled = true;
  def.long_term_clamped = true;
  def.short_term_w = socket.config().short_term_default_w;
  def.short_term_window_s = socket.config().short_term_window_s;
  def.short_term_enabled = true;
  def.short_term_clamped = true;
  set_limit(def);
  // Cell-edge cache slots for every P-state, allocated up front so the
  // decision paths stay allocation-free in steady state.
  const auto& cfg = socket.config();
  const std::size_t n_states = grid_states(cfg);
  cells_.resize(n_states * kCellWays);
  // Intern the config with the process-wide cell cache now: the dense id
  // goes into every shared key, and interning up front keeps the in-run
  // cache paths allocation-free (the alloc-guard contract).  The config's
  // scale-space thresholds were pinned when it was first interned; the
  // row is immutable, so it is read without a lock.
  SharedCellCache& shared = SharedCellCache::instance();
  shared_cfg_ = shared.intern_config(cfg);
  scale_ = &shared.scale_thresholds(shared_cfg_);
  // The cell table identifies "search output" with "grid point": the
  // P-state range must be an exact multiple of the step (true of real
  // hardware grids), or the search's top clamp could return an off-grid
  // frequency no cell represents.
  DUFP_EXPECT(grid_mhz(n_states - 1) == cfg.core_max_mhz);
}

std::size_t FirmwareGovernor::window_ticks(double window_s) const {
  const double ticks = window_s / params_.tick_s;
  return static_cast<std::size_t>(std::max(1.0, std::round(ticks)));
}

void FirmwareGovernor::set_limit(const msr::PowerLimit& limit) {
  limit_ = limit;
  const std::size_t lw = window_ticks(limit.long_term_window_s);
  const std::size_t sw = window_ticks(limit.short_term_window_s);
  // Re-create windows only when the span changed; otherwise preserve the
  // accumulated history (a cap change must not forget recent consumption,
  // or a decrease would be toothless for a full window).
  if (lw != 0 && lw != long_window_.capacity()) {
    long_window_ = WindowedMean(lw);
  }
  if (sw != 0 && sw != short_window_.capacity()) {
    short_window_ = WindowedMean(sw);
  }
}

void FirmwareGovernor::tick() {
  current_limit_mhz_ = planned_limit_mhz();
  socket_.set_core_freq_limit_mhz(current_limit_mhz_);
}

double FirmwareGovernor::planned_limit_reference_mhz(
    double allowance_w) const {
  double target = socket_.config().core_max_mhz;
  if (std::isfinite(allowance_w)) {
    target = highest_compliant_mhz(std::max(allowance_w, 0.0));
  }
  return slewed(target);
}

double FirmwareGovernor::slewed(double target_mhz) const {
  if (target_mhz < current_limit_mhz_) {
    target_mhz =
        std::max(target_mhz, current_limit_mhz_ - params_.throttle_slew_mhz);
  } else if (target_mhz > current_limit_mhz_) {
    target_mhz =
        std::min(target_mhz, current_limit_mhz_ + params_.unthrottle_slew_mhz);
  }
  return socket_.quantize_core_mhz(target_mhz);
}

bool FirmwareGovernor::steady_state(double pkg_power_w) const {
  return long_window_.steady_under(pkg_power_w) &&
         short_window_.steady_under(pkg_power_w) &&
         planned_limit_mhz() == current_limit_mhz_;
}

namespace {

constexpr double kTopAllowance = 1e300;

/// The edge of a monotone nondecreasing allowance predicate, seeded: when
/// the relative bracket seed·(1 ± rel_width) is verified to straddle the
/// flip, the bit-lattice bisection runs inside it; otherwise over the
/// whole range (-inf when the predicate holds at zero allowance, +inf
/// when not even at kTopAllowance).  The seed only saves probes; the
/// edge's exactness rests on the bisection alone.
template <typename Reaches>
double seeded_edge(const Reaches& reaches, double seed, double rel_width) {
  if (std::isfinite(seed) && seed > 0.0) {
    const double lo_seed = seed * (1.0 - rel_width);
    const double hi_seed = seed * (1.0 + rel_width);
    if (lo_seed > 0.0 && !reaches(lo_seed) && reaches(hi_seed)) {
      return bisect_edge(reaches, std::bit_cast<std::uint64_t>(lo_seed),
                         std::bit_cast<std::uint64_t>(hi_seed));
    }
  }
  if (reaches(0.0)) return -std::numeric_limits<double>::infinity();
  if (!reaches(kTopAllowance)) return std::numeric_limits<double>::infinity();
  return bisect_edge(reaches, 0, std::bit_cast<std::uint64_t>(kTopAllowance));
}

}  // namespace

bool FirmwareGovernor::reaches_state(
    std::size_t idx, double allowance_w,
    const hw::PowerModel::PowerSplit& split) const {
  // Mirrors highest_compliant_mhz(max(allowance_w, 0)) >= grid_mhz(idx)
  // branch for branch; only the scale compare replaces the bisection.
  using Branch = hw::PowerModel::ScaleBranch;
  const hw::PowerModel::ScaleTarget t =
      hw::PowerModel::reduce_to_scale(std::max(allowance_w, 0.0), split);
  switch (t.branch) {
    case Branch::kNone:
      return scale_->none_mhz >= grid_mhz(idx);
    case Branch::kRef:
      return scale_->ref_mhz >= grid_mhz(idx);
    case Branch::kScale:
      break;
  }
  if (t.scale >= 0.0) return t.scale >= scale_->at[idx];
  // A NaN scale (a NaN demand or power parameter) is outside the table.
  return floor_to_grid(socket_.config(),
                       socket_.power_model().core_mhz_for_scale(t.scale)) >=
         grid_mhz(idx);
}

double FirmwareGovernor::lowest_allowance_reaching(std::size_t idx) const {
  if (!scale_->exact) return lowest_allowance_bisection(idx);
  // The fixed power (the one std::pow) and the dynamic power at the
  // reference are the same for every probe of this edge.
  const hw::PowerModel::PowerSplit split = socket_.power_split();
  const auto reaches = [&](double a) {
    ++cell_stats_.probes;
    return reaches_state(idx, a, split);
  };
  // The search output crosses the state where the target scale crosses
  // at[idx]: the seed fixed + at[idx]·dyn_at_ref is that allowance up to
  // the rounding of the reduction's subtraction and division, a few ulps,
  // so a bracket of 8 epsilon (8 to 16 ulps) either side holds the edge.
  return seeded_edge(reaches,
                     split.fixed_w + scale_->at[idx] * split.dyn_at_ref_w,
                     8.0 * std::numeric_limits<double>::epsilon());
}

double FirmwareGovernor::lowest_allowance_bisection(std::size_t idx) const {
  // The P-state search clamps the allowance at zero, so its output is
  // constant for allowance <= 0 and monotone nondecreasing above (the
  // inner bisection compares against a threshold that moves one way, and
  // floor/clamp of a monotone input stay monotone).
  const double target = grid_mhz(idx);
  const auto reaches = [&](double a) {
    ++cell_stats_.probes;
    return highest_compliant_mhz(std::max(a, 0.0)) >= target;
  };
  // Seed the bracket from the forward power model: analytically the
  // search output crosses `target` exactly at the package power of the
  // target state, and the search's inner bisection lands within a hair
  // of the analytic inverse.  A verified narrow bracket around the seed
  // cuts the probe count roughly in half; if verification fails (clamp
  // regions, degenerate demands) fall back to the full positive range.
  return seeded_edge(reaches, socket_.package_power_at(target), 1e-9);
}

double FirmwareGovernor::cell_edge(std::size_t idx) const {
  DUFP_EXPECT(idx * kCellWays < cells_.size());
  CellSlot* ways = cells_.data() + idx * kCellWays;
  const std::uint64_t ver = socket_.state_version();
  // The ways are kept in recency order (front = most recently used), so
  // the common case — socket state unmoved since the front slot was last
  // confirmed — is a single integer compare.
  const auto promote = [&](std::size_t w) -> double {
    if (w != 0) {
      const CellSlot hit = ways[w];
      for (std::size_t i = w; i > 0; --i) ways[i] = ways[i - 1];
      ways[0] = hit;
    }
    return ways[0].edge;
  };
  for (std::size_t w = 0; w < kCellWays; ++w) {
    if (ways[w].version == ver) {
      ++cell_stats_.local_hits;
      return promote(w);
    }
  }
  // The state moved (uncore retune, phase change); it may still be one
  // seen before — DUFP controllers sweep the uncore window range and
  // workloads revisit phases, so match by content and re-confirm.  Only
  // what the edge reads takes part: a window move that leaves the
  // effective uncore clock alone, or a phase differing only in its
  // time-composition weights, keeps its edges.
  const EdgeInputs in = EdgeInputs::of(socket_);
  for (std::size_t w = 0; w < kCellWays; ++w) {
    if (ways[w].version != 0 && ways[w].inputs == in) {
      ways[w].version = ver;
      ++cell_stats_.local_hits;
      return promote(w);
    }
  }
  // Never-seen state for *this* governor: consult the process-wide
  // shared cache — another governor (same config, other socket, other
  // run, other repetition) may have pinned this exact edge already.  A
  // hit fills the way with the identical bits the local bisection would
  // produce, so the refill below is the only place the P-state search
  // still runs.
  SharedCellCache& shared = SharedCellCache::instance();
  const SharedCellCache::Key key =
      SharedCellCache::make_key(shared_cfg_, idx, in);
  CellSlot& slot = ways[kCellWays - 1];
  if (slot.version != 0) ++cell_stats_.way_evictions;
  double edge;
  if (shared.lookup(key, &edge)) {
    ++cell_stats_.shared_hits;
  } else {
    edge = lowest_allowance_reaching(idx);
    ++cell_stats_.cold_builds;
    shared.insert(key, edge);
  }
  slot.version = ver;
  slot.inputs = in;
  slot.edge = edge;
  return promote(kCellWays - 1);
}

double FirmwareGovernor::planned_limit_mhz(double allowance_w) const {
  const auto& cfg = socket_.config();
  double target = cfg.core_max_mhz;
  if (std::isfinite(allowance_w)) {
    // Locate the allowance's cell — the P-state the search would return —
    // starting from the applied limit's cell (where a calm tick lands in
    // one or two comparisons) and walking only as far as the slew limits
    // can matter: past them the clamp fixes the outcome regardless of
    // how much further the search result lies.
    const std::size_t n = cells_.size() / kCellWays;
    auto k = static_cast<std::size_t>(std::lround(
        (current_limit_mhz_ - cfg.core_min_mhz) / cfg.core_step_mhz));
    if (allowance_w >= cell_edge(k)) {
      while (k + 1 < n &&
             grid_mhz(k) < current_limit_mhz_ + params_.unthrottle_slew_mhz &&
             allowance_w >= cell_edge(k + 1)) {
        ++k;
      }
    } else {
      while (k > 0 &&
             grid_mhz(k) > current_limit_mhz_ - params_.throttle_slew_mhz) {
        --k;
        if (allowance_w >= cell_edge(k)) break;
      }
    }
    target = grid_mhz(k);
  }
  return slewed(target);
}

void FirmwareGovernor::refresh_calm_cell() {
  // The applied limit's cell edges, flattened into members so the calm
  // test itself is two comparisons; revalidated by (limit, state version).
  const auto& cfg = socket_.config();
  const std::size_t n = cells_.size() / kCellWays;
  const auto idx = static_cast<std::size_t>(std::lround(
      (current_limit_mhz_ - cfg.core_min_mhz) / cfg.core_step_mhz));
  calm_lo_ = cell_edge(idx);
  calm_top_ = idx + 1 >= n;
  calm_hi_ = calm_top_ ? 0.0 : cell_edge(idx + 1);
  calm_limit_ = current_limit_mhz_;
  calm_version_ = socket_.state_version();
}

double FirmwareGovernor::highest_compliant_mhz(double allowance_w) const {
  // Analytic inverse of the power model, floored to the P-state grid so
  // the chosen state's power is at or below the allowance.
  return floor_to_grid(socket_.config(),
                       socket_.power_model().core_mhz_for_power(
                           allowance_w, socket_.effective_uncore_mhz(),
                           socket_.demand()));
}

}  // namespace dufp::rapl
