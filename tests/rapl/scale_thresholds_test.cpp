// Exactness of the scale-space P-state thresholds (DESIGN.md §7b,
// "Scale-space thresholds"): every threshold is the first double of its
// state's step, pinned to the ulp; a governor probing through the table
// pins the same cell edges and plans the same limits, bit for bit, as
// one running the power model's bisection inverse — across seeded
// configs, uncore clocks and activities, at the edges and three ulps
// either side; and a config the monotonicity check rejects keeps the
// bisection.
#include "rapl/scale_thresholds.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "hwmodel/power_model.h"
#include "hwmodel/socket_config.h"
#include "hwmodel/socket_model.h"
#include "rapl/firmware_governor.h"

namespace dufp::rapl {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

hw::PowerModel power_model(const hw::SocketConfig& cfg) {
  return hw::PowerModel(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                        cfg.fu_ref_mhz());
}

/// The P-state search's output at target scale `t`: what the thresholds
/// tabulate.
double state_at(const hw::SocketConfig& cfg, const hw::PowerModel& model,
                double t) {
  return floor_to_grid(cfg, model.core_mhz_for_scale(t));
}

/// A seeded config.  Every fourth has a voltage slope so shallow that
/// the floor knee x_floor is at or below 0 (no voltage-floor branch);
/// every fourth, offset by one, a voltage floor within 1e-4 of the
/// reference voltage (the knee just below the reference clock).
hw::SocketConfig random_config(Rng& rng, int c) {
  hw::SocketConfig cfg;
  cfg.cores = 8 + 4 * (c % 6);
  cfg.core_min_mhz = 800.0 + 200.0 * (c % 3);
  cfg.core_step_mhz = 100.0;
  cfg.core_max_mhz =
      cfg.core_min_mhz + 100.0 * (10 + static_cast<int>(rng.uniform(0, 12)));
  cfg.core_base_mhz = cfg.core_min_mhz + 500.0;
  cfg.uncore_max_mhz = 2000.0 + 200.0 * (c % 4);
  auto& p = cfg.power;
  p.static_w = rng.uniform(5.0, 30.0);
  p.core_idle_w = rng.uniform(0.1, 1.0);
  p.core_dyn_w = rng.uniform(1.0, 6.0);
  p.uncore_base_w = rng.uniform(10.0, 50.0);
  p.uncore_act_w = rng.uniform(2.0, 20.0);
  p.uncore_alpha = rng.uniform(1.0, 2.0);
  if (c % 4 == 0) {
    p.v_slope = 0.2;
    p.v_min_frac = rng.uniform(0.5, 0.75);  // x_floor <= 0
  } else if (c % 4 == 1) {
    p.v_slope = rng.uniform(0.3, 0.8);
    p.v_min_frac = 0.9999;
  } else {
    p.v_slope = rng.uniform(0.3, 0.8);
    p.v_min_frac = rng.uniform(0.5, 0.95);
  }
  return cfg;
}

/// A loaded or idle demand with the given core activity.
hw::PhaseDemand demand_with(double cpu_activity, double mem_activity,
                            bool idle) {
  hw::PhaseDemand d;
  d.w_cpu = 0.5;
  d.w_mem = 0.3;
  d.w_unc = 0.1;
  d.w_fixed = 0.1;
  d.cpu_activity = cpu_activity;
  d.mem_activity = mem_activity;
  d.idle = idle;
  return d;
}

TEST(ScaleThresholdsTest, EveryThresholdIsTheFirstDoubleOfItsStep) {
  Rng rng(0x5ca1e'7001ULL);
  for (int c = 0; c < 24; ++c) {
    const hw::SocketConfig cfg =
        c == 0 ? hw::SocketConfig{} : random_config(rng, c);
    const hw::PowerModel model = power_model(cfg);
    const ScaleThresholds th = ScaleThresholds::pin(cfg);
    ASSERT_TRUE(th.exact) << "config " << c;
    ASSERT_EQ(th.at.size(), grid_states(cfg));
    EXPECT_EQ(bits(th.at[0]), bits(0.0)) << "config " << c;
    EXPECT_EQ(th.none_mhz, floor_to_grid(cfg, 0.0));
    EXPECT_EQ(th.ref_mhz, floor_to_grid(cfg, model.f_ref_mhz()));
    for (std::size_t idx = 0; idx < th.at.size(); ++idx) {
      const double target = grid_mhz(cfg, idx);
      const double t = th.at[idx];
      if (idx > 0) {
        EXPECT_LE(th.at[idx - 1], t) << "config " << c;
      }
      ASSERT_GE(t, 0.0);
      ASSERT_LE(t, 1.0);
      if (t < 1.0) {
        EXPECT_GE(state_at(cfg, model, t), target)
            << "config " << c << " state " << idx << ": at[] does not reach";
      }
      if (t > 0.0) {
        EXPECT_LT(state_at(cfg, model, std::nextafter(t, 0.0)), target)
            << "config " << c << " state " << idx
            << ": the double below at[] already reaches";
      }
    }
  }
}

TEST(ScaleThresholdsTest, GovernorMatchesTheBisectionBitForBit) {
  Rng rng(0x5ca1e'7002ULL);
  const double activities[] = {0.0, -0.0,
                               std::numeric_limits<double>::denorm_min()};
  const double fixed_allowances[] = {
      0.0, -0.0, -1.0, 1e300, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  std::uint64_t decisions = 0;
  for (int c = 0; c < 16; ++c) {
    const hw::SocketConfig cfg =
        c == 0 ? hw::SocketConfig{} : random_config(rng, c);
    const std::size_t n = grid_states(cfg);
    for (int s = 0; s < 12; ++s) {
      hw::SocketModel socket(cfg, 0);
      const double unc_lo =
          cfg.uncore_min_mhz + 100.0 * static_cast<int>(rng.uniform(0, 5));
      const double unc_hi =
          cfg.uncore_max_mhz - 100.0 * static_cast<int>(rng.uniform(0, 5));
      socket.set_uncore_window_mhz(unc_lo, unc_hi);
      const double cpu = s < 3 ? activities[s] : rng.uniform(0.0, 1.3);
      socket.set_demand(
          demand_with(cpu, rng.uniform(0.0, 1.0), rng.next_double() < 0.25));
      FirmwareGovernor gov(socket, GovernorParams{});
      ASSERT_TRUE(gov.scale_thresholds_exact()) << "config " << c;

      std::vector<double> allowances(std::begin(fixed_allowances),
                                     std::end(fixed_allowances));
      for (std::size_t idx = 0; idx < n; ++idx) {
        const double edge = gov.lowest_allowance_reaching(idx);
        ASSERT_EQ(bits(edge), bits(gov.lowest_allowance_bisection(idx)))
            << "config " << c << " state " << s << " P-state " << idx
            << " activity " << cpu;
        if (!std::isfinite(edge)) continue;
        double lo = edge;
        double hi = edge;
        allowances.push_back(edge);
        for (int k = 0; k < 3; ++k) {
          lo = std::nextafter(lo, -1e300);
          hi = std::nextafter(hi, 1e300);
          allowances.push_back(lo);
          allowances.push_back(hi);
        }
      }
      for (std::size_t i = 0; i < allowances.size(); ++i) {
        // Move the applied limit now and then, so the slew limits and the
        // cell walk start from different states.
        if (i % 16 == 0) {
          msr::PowerLimit pl = gov.limit();
          pl.long_term_w = pl.short_term_w = rng.uniform(20.0, 250.0);
          gov.set_limit(pl);
          gov.tick();
        }
        const double a = allowances[i];
        ASSERT_EQ(bits(gov.planned_limit_mhz(a)),
                  bits(gov.planned_limit_reference_mhz(a)))
            << "config " << c << " state " << s << " allowance " << a;
        ++decisions;
      }
    }
  }
  EXPECT_GT(decisions, 10000u);
}

TEST(ScaleThresholdsTest, NonMonotoneConfigKeepsTheBisection) {
  // A voltage floor of 0 under a slope of 2 puts the floor knee at half
  // the reference clock with zero dynamic power there, so the floor
  // branch is the single point 0, where the inverse divides 0 by 0: the
  // search returns core_max at scale 0 and core_min just above it.
  hw::SocketConfig cfg;
  cfg.power.v_min_frac = 0.0;
  cfg.power.v_slope = 2.0;
  const hw::PowerModel model = power_model(cfg);
  ASSERT_TRUE(model.scale_shape().monotone_branches);
  ASSERT_GT(state_at(cfg, model, 0.0),
            state_at(cfg, model, std::numeric_limits<double>::denorm_min()))
      << "the config must really be non-monotone at the junction";
  const ScaleThresholds th = ScaleThresholds::pin(cfg);
  EXPECT_FALSE(th.exact);
  EXPECT_TRUE(th.at.empty());

  // A negative voltage slope inverts the bisection's bracket: rejected
  // by shape alone.
  hw::SocketConfig inverted;
  inverted.power.v_slope = -0.5;
  EXPECT_FALSE(power_model(inverted).scale_shape().monotone_branches);
  EXPECT_FALSE(ScaleThresholds::pin(inverted).exact);

  for (const hw::SocketConfig& bad : {cfg, inverted}) {
    hw::SocketModel socket(bad, 0);
    socket.set_demand(demand_with(0.8, 0.4, false));
    FirmwareGovernor gov(socket, GovernorParams{});
    ASSERT_FALSE(gov.scale_thresholds_exact());
    for (std::size_t idx = 0; idx < grid_states(bad); ++idx) {
      EXPECT_EQ(bits(gov.lowest_allowance_reaching(idx)),
                bits(gov.lowest_allowance_bisection(idx)))
          << "P-state " << idx;
    }
    for (double a = 0.0; a < 250.0; a += 0.37) {
      EXPECT_EQ(bits(gov.planned_limit_mhz(a)),
                bits(gov.planned_limit_reference_mhz(a)))
          << "allowance " << a;
    }
  }
}

}  // namespace
}  // namespace dufp::rapl
