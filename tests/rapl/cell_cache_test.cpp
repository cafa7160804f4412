// Unit tests for the process-wide shared cell-edge cache: interning,
// the edge-input key contract, first-writer-wins inserts, the enable
// gate, capacity, and clear() semantics — plus the exactness check that
// justifies the narrow key: governors whose sockets agree on the key
// inputs but on nothing else plan bit-identical limits.  The cache is a
// process singleton, so every test clears it first and restores the
// enable state it found — the suite must not leak warmth into (or absorb
// warmth from) neighbouring tests.
#include "rapl/cell_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hwmodel/socket_config.h"
#include "hwmodel/socket_model.h"
#include "rapl/firmware_governor.h"

namespace dufp::rapl {
namespace {

class SharedCellCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = cache().enabled();
    cache().set_enabled(true);
    cache().clear();
  }
  void TearDown() override {
    cache().clear();
    cache().set_enabled(was_enabled_);
  }
  static SharedCellCache& cache() { return SharedCellCache::instance(); }

  bool was_enabled_ = false;
};

/// An arbitrary loaded operating point: 2.4 GHz uncore, activities
/// 0.8 / 0.6.
EdgeInputs inputs() { return EdgeInputs(2400.0, 0.8, 0.6); }

hw::PhaseDemand demand() {
  hw::PhaseDemand d;
  d.w_cpu = 0.5;
  d.w_mem = 0.3;
  d.w_unc = 0.1;
  d.w_fixed = 0.1;
  d.flops_rate_ref = 30.0;
  d.bytes_rate_ref = 20.0;
  d.cpu_activity = 0.8;
  d.mem_activity = 0.6;
  d.idle = false;
  return d;
}

/// The shared key of P-state 2 for a socket at `window` under `d`.
SharedCellCache::Key socket_key(std::uint32_t id, double unc_min,
                                double unc_max, const hw::PhaseDemand& d) {
  hw::SocketModel socket(hw::SocketConfig{}, 0);
  socket.set_uncore_window_mhz(unc_min, unc_max);
  socket.set_demand(d);
  return SharedCellCache::make_key(id, 2, EdgeInputs::of(socket));
}

TEST_F(SharedCellCacheTest, InternIsStableAndDeduplicates) {
  const hw::SocketConfig a;
  const std::uint32_t id1 = cache().intern_config(a);
  const std::uint32_t id2 = cache().intern_config(a);
  EXPECT_EQ(id1, id2) << "identical configs must intern to one id";

  hw::SocketConfig b;
  b.power.static_w += 1.0;
  EXPECT_NE(cache().intern_config(b), id1)
      << "a power-model change must split the cache";

  // model_name is deliberately not part of the identity.
  hw::SocketConfig renamed;
  renamed.model_name = "same part, new sticker";
  EXPECT_EQ(cache().intern_config(renamed), id1);
}

TEST_F(SharedCellCacheTest, LookupMissThenInsertThenHit) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const auto key =
      SharedCellCache::make_key(id, /*idx=*/3, inputs());

  double edge = 0.0;
  EXPECT_FALSE(cache().lookup(key, &edge));
  cache().insert(key, 87.5);
  ASSERT_TRUE(cache().lookup(key, &edge));
  EXPECT_EQ(edge, 87.5);

  const auto s = cache().stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST_F(SharedCellCacheTest, FirstWriterWins) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const auto key =
      SharedCellCache::make_key(id, /*idx=*/1, inputs());
  cache().insert(key, 50.0);
  cache().insert(key, 99.0);  // a racing build computed the same bits anyway
  double edge = 0.0;
  ASSERT_TRUE(cache().lookup(key, &edge));
  EXPECT_EQ(edge, 50.0);
  EXPECT_EQ(cache().stats().inserts, 1u);
}

TEST_F(SharedCellCacheTest, KeysSplitOnEdgeInputsOnly) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  hw::SocketConfig other_cfg;
  other_cfg.power.core_dyn_w += 0.5;
  const std::uint32_t other_id = cache().intern_config(other_cfg);
  const auto base = SharedCellCache::make_key(id, 2, inputs());

  // Every input the edge computation reads splits the key: the config,
  // the P-state index, the effective uncore clock and both activities.
  EXPECT_NE(base, SharedCellCache::make_key(other_id, 2, inputs()));
  EXPECT_NE(base, SharedCellCache::make_key(id, 3, inputs()));
  EXPECT_NE(base,
            SharedCellCache::make_key(id, 2, EdgeInputs(2300.0, 0.8, 0.6)));
  EXPECT_NE(base,
            SharedCellCache::make_key(id, 2, EdgeInputs(2400.0, 0.7, 0.6)));
  EXPECT_NE(base,
            SharedCellCache::make_key(id, 2, EdgeInputs(2400.0, 0.8, 0.5)));

  // The socket-level view: the key is exactly what EdgeInputs::of reads.
  const auto loaded = socket_key(id, 1200.0, 2400.0, demand());
  EXPECT_EQ(loaded, base);
  // idle splits through the effective uncore clock it selects (the
  // window minimum instead of the maximum).
  hw::PhaseDemand idle = demand();
  idle.idle = true;
  EXPECT_NE(loaded, socket_key(id, 1200.0, 2400.0, idle));
  // So does the window, where it binds: the maximum under load, the
  // minimum when idle.
  EXPECT_NE(loaded, socket_key(id, 1200.0, 2000.0, demand()));
  EXPECT_NE(socket_key(id, 1200.0, 2400.0, idle),
            socket_key(id, 1500.0, 2400.0, idle));

  // Fields that never reach the edge do not split it: the time
  // composition weights, the reference rates, and the window minimum
  // while it does not bind.
  hw::PhaseDemand reweighted = demand();
  reweighted.w_cpu = 0.2;
  reweighted.w_mem = 0.1;
  reweighted.w_unc = 0.3;
  reweighted.w_fixed = 0.4;
  reweighted.flops_rate_ref = 7e9;
  reweighted.bytes_rate_ref = 3e9;
  EXPECT_EQ(loaded, socket_key(id, 1200.0, 2400.0, reweighted));
  EXPECT_EQ(loaded, socket_key(id, 1800.0, 2400.0, demand()));
  EXPECT_EQ(loaded, socket_key(id, 2400.0, 2400.0, reweighted));
  // An idle socket whose window pins the uncore where a loaded one runs
  // shares the loaded socket's edges.
  EXPECT_EQ(loaded, socket_key(id, 2400.0, 2400.0, idle));

  // -0.0 and +0.0 compare equal as doubles but are different bit
  // patterns: the cache must treat them as distinct (conservative — a
  // duplicate build, never a wrong edge).
  EXPECT_NE(SharedCellCache::make_key(id, 2, EdgeInputs(2400.0, 0.0, 0.6)),
            SharedCellCache::make_key(id, 2, EdgeInputs(2400.0, -0.0, 0.6)));
}

// A 1024-socket capped fleet pins ~29k distinct edges per pass; the
// table must hold them all without dropping inserts.
TEST_F(SharedCellCacheTest, HoldsFortyThousandEdges) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  constexpr int kEdges = 40000;
  for (int i = 0; i < kEdges; ++i) {
    // Activities on a fine lattice, like a traffic-scaled fleet's.
    const EdgeInputs in(2400.0 - 100.0 * (i % 7), 0.5 + 1e-6 * i,
                        0.25 + 1e-7 * (i % 13));
    cache().insert(SharedCellCache::make_key(id, i % 19, in),
                   static_cast<double>(i));
  }
  const auto s = cache().stats();
  EXPECT_EQ(s.full_drops, 0u);
  EXPECT_EQ(s.entries, static_cast<std::uint64_t>(kEdges));
  EXPECT_EQ(s.inserts, static_cast<std::uint64_t>(kEdges));
  // Spot-check that every edge is findable under its own key.
  for (int i = 0; i < kEdges; i += 997) {
    const EdgeInputs in(2400.0 - 100.0 * (i % 7), 0.5 + 1e-6 * i,
                        0.25 + 1e-7 * (i % 13));
    double edge = -1.0;
    ASSERT_TRUE(cache().lookup(SharedCellCache::make_key(id, i % 19, in),
                               &edge));
    EXPECT_EQ(edge, static_cast<double>(i));
  }
}

TEST_F(SharedCellCacheTest, DisabledCacheServesNothing) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const auto key =
      SharedCellCache::make_key(id, 4, inputs());
  cache().set_enabled(false);
  cache().insert(key, 42.0);
  double edge = 0.0;
  EXPECT_FALSE(cache().lookup(key, &edge));
  cache().set_enabled(true);
  EXPECT_FALSE(cache().lookup(key, &edge))
      << "a disabled-era insert must have been dropped";
}

TEST_F(SharedCellCacheTest, ClearDropsEdgesButKeepsConfigIds) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const auto key =
      SharedCellCache::make_key(id, 5, inputs());
  cache().insert(key, 13.0);
  cache().clear();
  double edge = 0.0;
  EXPECT_FALSE(cache().lookup(key, &edge));
  EXPECT_EQ(cache().stats().entries, 0u);
  // Interned ids survive a clear — governors hold them for the process
  // lifetime, and recycling one would alias configs under stale keys.
  EXPECT_EQ(cache().intern_config(hw::SocketConfig{}), id);
}

// -- exactness of the narrow key ---------------------------------------------

/// A socket's window and demand: everything besides the config that the
/// governor's edges could conceivably depend on.
struct SocketState {
  double unc_min = 0.0;
  double unc_max = 0.0;
  hw::PhaseDemand demand;
};

hw::PhaseDemand random_demand(Rng& rng, double cpu_activity,
                              double mem_activity, bool idle) {
  const double a = rng.uniform(0.05, 1.0);
  const double b = rng.uniform(0.05, 1.0);
  const double c = rng.uniform(0.05, 1.0);
  const double sum = a + b + c + rng.uniform(0.05, 1.0);
  hw::PhaseDemand d;
  d.w_cpu = a / sum;
  d.w_mem = b / sum;
  d.w_unc = c / sum;
  d.w_fixed = 1.0 - (d.w_cpu + d.w_mem + d.w_unc);
  d.flops_rate_ref = rng.uniform(1e9, 500e9);
  d.bytes_rate_ref = rng.uniform(1e9, 100e9);
  d.cpu_activity = cpu_activity;
  d.mem_activity = mem_activity;
  d.idle = idle;
  return d;
}

/// A socket state whose edge inputs are (u, cpu, mem) and whose other
/// window and demand fields are random: a loaded socket pins the uncore
/// at `u` with its window maximum (minimum below it), an idle one with
/// its window minimum (maximum above it).  `u` in [1300, 2300].
SocketState random_state(Rng& rng, double u, double cpu, double mem,
                         bool idle) {
  const auto steps = [&](double span_mhz) {
    return 100.0 * static_cast<int>(rng.uniform(0.0, span_mhz / 100.0));
  };
  SocketState st;
  if (idle) {
    st.unc_min = u;
    st.unc_max = u + 100.0 + steps(2400.0 - u);
  } else {
    st.unc_min = 1200.0 + steps(u - 1200.0);
    st.unc_max = u;
  }
  st.demand = random_demand(rng, cpu, mem, idle);
  return st;
}

/// Two socket states sharing the four key inputs (config, effective
/// uncore clock, both activities) but no other demand or window field.
std::pair<SocketState, SocketState> twin_states(Rng& rng) {
  const double u = 1300.0 + 100.0 * static_cast<int>(rng.uniform(0.0, 11.0));
  const double cpu = rng.uniform(0.05, 1.2);
  const double mem = rng.uniform(0.0, 1.0);
  return {random_state(rng, u, cpu, mem, /*idle=*/false),
          random_state(rng, u, cpu, mem, /*idle=*/true)};
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Drives a fresh governor over a falling-then-rising allowance sweep
/// (empty power windows make the allowance equal the limit) and records
/// the cached and reference decisions, bit patterns, at every step.
std::vector<std::uint64_t> sweep_decisions(const SocketState& st,
                                           CellStats* stats) {
  hw::SocketModel socket(hw::SocketConfig{}, 0);
  socket.set_uncore_window_mhz(st.unc_min, st.unc_max);
  socket.set_demand(st.demand);
  FirmwareGovernor gov(socket, GovernorParams{});
  std::vector<std::uint64_t> out;
  const auto step = [&](double watts) {
    msr::PowerLimit pl;
    pl.long_term_w = watts;
    pl.long_term_window_s = 1.0;
    pl.long_term_enabled = true;
    pl.short_term_w = watts;
    pl.short_term_window_s = 0.01;
    pl.short_term_enabled = true;
    gov.set_limit(pl);
    out.push_back(bits(gov.planned_limit_mhz()));
    out.push_back(bits(gov.planned_limit_reference_mhz()));
    gov.tick();
  };
  for (double w = 230.0; w > 15.0; w -= 0.73) step(w);
  for (double w = 15.0; w < 230.0; w += 0.61) step(w);
  *stats = gov.cell_stats();
  return out;
}

using EdgeKeyExactnessTest = SharedCellCacheTest;

TEST_F(EdgeKeyExactnessTest, TwinSocketsPlanBitIdenticalLimits) {
  // With the shared cache off every governor bisects its own edges, so
  // agreement here is a property of the governor, not of the cache: the
  // decisions depend on the socket only through the key inputs.
  cache().set_enabled(false);
  Rng rng(0x5eed'ed9e'0001ULL);
  for (int trial = 0; trial < 24; ++trial) {
    const auto [a, b] = twin_states(rng);
    CellStats sa, sb;
    const auto da = sweep_decisions(a, &sa);
    const auto db = sweep_decisions(b, &sb);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); i += 2) {
      EXPECT_EQ(da[i], da[i + 1]) << "trial " << trial << " step " << i / 2
                                  << ": cached != reference";
    }
    EXPECT_EQ(da, db) << "trial " << trial
                      << ": twin sockets planned different limits";
    EXPECT_GT(sb.cold_builds, 0u);
  }
}

TEST_F(EdgeKeyExactnessTest, TwinSocketEdgesComeFromTheSharedCache) {
  Rng rng(0x5eed'ed9e'0002ULL);
  for (int trial = 0; trial < 12; ++trial) {
    cache().clear();
    const auto [a, b] = twin_states(rng);
    CellStats sa, sb;
    const auto da = sweep_decisions(a, &sa);
    const auto db = sweep_decisions(b, &sb);
    EXPECT_EQ(da, db) << "trial " << trial;
    EXPECT_GT(sa.cold_builds, 0u) << "trial " << trial;
    EXPECT_EQ(sb.cold_builds, 0u)
        << "trial " << trial << ": the twin rebuilt edges it shares";
    EXPECT_EQ(sb.shared_hits, sa.cold_builds) << "trial " << trial;
  }
}

TEST_F(EdgeKeyExactnessTest, NearTwinSocketsMatchCacheOff) {
  // A key missing an edge input would hand a socket the edges of one
  // that differs only in that input.  Drawing each input from two values
  // makes such near-twins common; with the shared cache on, every socket
  // must still decide exactly what it decides with the cache off.
  Rng rng(0x5eed'ed9e'0003ULL);
  std::vector<SocketState> states;
  for (int i = 0; i < 24; ++i) {
    const auto pick = [&](double a, double b) {
      return rng.next_double() < 0.5 ? a : b;
    };
    const double u = pick(1800.0, 2200.0);
    const double cpu = pick(0.6, 0.9);
    const double mem = pick(0.2, 0.7);
    states.push_back(random_state(rng, u, cpu, mem, rng.next_double() < 0.5));
  }
  const auto decide_all = [&](bool cache_on) {
    cache().set_enabled(cache_on);
    cache().clear();
    std::vector<std::vector<std::uint64_t>> out;
    CellStats stats;
    for (const SocketState& st : states) {
      out.push_back(sweep_decisions(st, &stats));
    }
    return out;
  };
  const auto off = decide_all(false);
  const auto on = decide_all(true);
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(on[i], off[i]) << "socket " << i
                             << " decided differently with the cache on";
  }
  EXPECT_GT(cache().stats().hits, 0u) << "no edge was shared";
}

}  // namespace
}  // namespace dufp::rapl
