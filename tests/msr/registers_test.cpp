#include "msr/registers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dufp::msr {
namespace {

TEST(RaplUnitsTest, SkylakeDefaults) {
  const RaplUnits u;
  EXPECT_DOUBLE_EQ(u.watts_per_unit(), 0.125);
  EXPECT_DOUBLE_EQ(u.joules_per_unit(), 1.0 / 16384.0);
  EXPECT_DOUBLE_EQ(u.seconds_per_unit(), 1.0 / 1024.0);
}

TEST(RaplUnitsTest, EncodeDecodeRoundTrip) {
  RaplUnits u;
  u.power_unit_bits = 3;
  u.energy_unit_bits = 14;
  u.time_unit_bits = 10;
  const auto raw = encode_rapl_units(u);
  const auto back = decode_rapl_units(raw);
  EXPECT_EQ(back.power_unit_bits, 3u);
  EXPECT_EQ(back.energy_unit_bits, 14u);
  EXPECT_EQ(back.time_unit_bits, 10u);
}

TEST(RaplUnitsTest, KnownRawValue) {
  // Skylake-SP reads 0x000a0e03 from MSR 0x606.
  EXPECT_EQ(encode_rapl_units(RaplUnits{}), 0x000a0e03ull);
}

TEST(TimeWindowTest, EncodeDecodeNearRoundTrip) {
  const RaplUnits u;
  for (double s : {0.001, 0.00976, 0.1, 0.5, 0.999424, 2.0, 10.0}) {
    const auto field = encode_time_window(s, u);
    const double back = decode_time_window(field, u);
    // The format quantizes to 2^Y * (1 + Z/4): successive representable
    // values differ by at most 25 %.
    EXPECT_NEAR(back, s, s * 0.15) << "window " << s;
  }
}

TEST(TimeWindowTest, PaperDefaultWindows) {
  const RaplUnits u;
  // 1 s long-term window: 2^10 * 1 * (1/1024 s) = 1.0 exactly.
  const auto f1 = encode_time_window(1.0, u);
  EXPECT_DOUBLE_EQ(decode_time_window(f1, u), 1.0);
  // 10 ms short-term window: closest representable is 2^3 * 1.25 / 1024.
  const auto f2 = encode_time_window(0.01, u);
  EXPECT_NEAR(decode_time_window(f2, u), 0.01, 0.002);
}

TEST(TimeWindowTest, FieldIsSevenBits) {
  const RaplUnits u;
  EXPECT_LE(encode_time_window(1e6, u), 0x7Fu);
}

/// Windows that stress the (Y, Z) search: zero, sub-unit values, exact
/// ties between neighbouring representable windows, every representable
/// window and its neighbours, and values past the 2^31 * 1.75 top.
std::vector<double> window_sweep(const RaplUnits& u) {
  const double tu = u.seconds_per_unit();
  std::vector<double> out{0.0, -0.0, tu * 1e-9, tu * 0.25, tu * 0.5,
                          tu * 0.999, 0.001, 0.01, 0.00976, 0.1, 1.0};
  double pow2 = 1.0;
  for (int y = 0; y < 32; ++y, pow2 *= 2.0) {
    for (int z = 0; z < 4; ++z) {
      const double w = pow2 * (1.0 + z / 4.0) * tu;
      const double next = z < 3 ? pow2 * (1.0 + (z + 1) / 4.0) * tu
                                : 2.0 * pow2 * tu;
      out.push_back(w);
      out.push_back(std::nextafter(w, 0.0));
      out.push_back(std::nextafter(w, 1e300));
      out.push_back(0.5 * (w + next));  // exact tie between neighbours
      out.push_back(std::nextafter(0.5 * (w + next), 0.0));
      out.push_back(std::nextafter(0.5 * (w + next), 1e300));
    }
  }
  const double top = std::ldexp(1.75, 31) * tu;
  for (const double above : {top * 1.0000001, top * 1.2, top * 4.0,
                             top * 1e6, 1e300}) {
    out.push_back(above);
  }
  return out;
}

TEST(TimeWindowTest, TiesGoToTheShorterWindow) {
  const RaplUnits u;
  const double tu = u.seconds_per_unit();
  // 1.125 units sits exactly between 1 (field 0) and 1.25 (Y=0, Z=1).
  EXPECT_EQ(encode_time_window(1.125 * tu, u), 0u);
  EXPECT_EQ(encode_time_window(std::nextafter(1.125 * tu, 1.0), u), 1u << 5);
  // Past the top of the range the largest window is the closest.
  EXPECT_EQ(encode_time_window(std::ldexp(1.75, 31) * tu * 1.2, u), 0x7Fu);
}

TEST(TimeWindowTest, MemoMatchesExhaustiveSearch) {
  // The memo must return exactly what the exhaustive search returns for
  // every input, whether it hits (repeat) or misses (new window, or the
  // same seconds under a different time unit).
  TimeWindowMemo memo;
  for (const unsigned tu_bits : {10u, 10u, 0u, 15u, 10u}) {
    RaplUnits u;
    u.time_unit_bits = tu_bits;
    for (const double s : window_sweep(u)) {
      const std::uint32_t want = encode_time_window(s, u);
      EXPECT_EQ(memo.encode(s, u), want) << "miss, window " << s;
      EXPECT_EQ(memo.encode(s, u), want) << "hit, window " << s;
    }
  }
  // A unit change alone must invalidate: 1 s is field Y=10 at TU=10 but
  // Y=0 at TU=0.
  RaplUnits tu10;
  RaplUnits tu0;
  tu0.time_unit_bits = 0;
  EXPECT_EQ(memo.encode(1.0, tu10), encode_time_window(1.0, tu10));
  EXPECT_EQ(memo.encode(1.0, tu0), encode_time_window(1.0, tu0));
  EXPECT_NE(encode_time_window(1.0, tu10), encode_time_window(1.0, tu0));
}

TEST(PowerLimitTest, MemoizedEncodeMatchesPlain) {
  const RaplUnits u;
  TimeWindowMemo long_memo;
  TimeWindowMemo short_memo;
  const std::vector<double> windows = window_sweep(u);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    PowerLimit pl;
    pl.long_term_w = 40.0 + static_cast<double>(i % 97);
    pl.long_term_window_s = windows[(i / 3) % windows.size()];
    pl.long_term_enabled = i % 2 == 0;
    pl.long_term_clamped = i % 3 == 0;
    pl.short_term_w = 60.0 + static_cast<double>(i % 89);
    pl.short_term_window_s = windows[(i * 7 / 5) % windows.size()];
    pl.short_term_enabled = i % 5 != 0;
    pl.locked = i % 11 == 0;
    EXPECT_EQ(encode_power_limit(pl, u, long_memo, short_memo),
              encode_power_limit(pl, u))
        << "step " << i;
  }
}

TEST(PowerLimitTest, RoundTripBothConstraints) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 125.0;
  pl.long_term_window_s = 1.0;
  pl.long_term_enabled = true;
  pl.long_term_clamped = true;
  pl.short_term_w = 150.0;
  pl.short_term_window_s = 0.01;
  pl.short_term_enabled = true;
  pl.short_term_clamped = false;

  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_DOUBLE_EQ(back.long_term_w, 125.0);
  EXPECT_DOUBLE_EQ(back.short_term_w, 150.0);
  EXPECT_TRUE(back.long_term_enabled);
  EXPECT_TRUE(back.long_term_clamped);
  EXPECT_TRUE(back.short_term_enabled);
  EXPECT_FALSE(back.short_term_clamped);
  EXPECT_FALSE(back.locked);
  EXPECT_DOUBLE_EQ(back.long_term_window_s, 1.0);
}

TEST(PowerLimitTest, PowerQuantizedToEighthWatt) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 100.06;  // closest representable: 100.0
  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_NEAR(back.long_term_w, 100.06, 0.0625);
  EXPECT_DOUBLE_EQ(back.long_term_w * 8.0,
                   std::round(back.long_term_w * 8.0));
}

TEST(PowerLimitTest, LockBitSurvives) {
  const RaplUnits u;
  PowerLimit pl;
  pl.locked = true;
  EXPECT_TRUE(decode_power_limit(encode_power_limit(pl, u), u).locked);
}

TEST(PowerLimitTest, FieldsDoNotBleed) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 4095.875;  // max representable in 15 bits at 1/8 W
  pl.short_term_w = 0.0;
  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_DOUBLE_EQ(back.long_term_w, 4095.875);
  EXPECT_DOUBLE_EQ(back.short_term_w, 0.0);
}

TEST(PowerLimitTest, OverRangeClamps) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 1e9;
  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_DOUBLE_EQ(back.long_term_w, 4095.875);
}

TEST(PowerInfoTest, RoundTrip) {
  const RaplUnits u;
  PowerInfo info;
  info.tdp_w = 125.0;
  info.min_power_w = 60.0;
  info.max_power_w = 250.0;
  const auto back = decode_power_info(encode_power_info(info, u), u);
  EXPECT_DOUBLE_EQ(back.tdp_w, 125.0);
  EXPECT_DOUBLE_EQ(back.min_power_w, 60.0);
  EXPECT_DOUBLE_EQ(back.max_power_w, 250.0);
}

TEST(EnergyCounterTest, SimpleDelta) {
  const RaplUnits u;
  EXPECT_DOUBLE_EQ(energy_counter_delta(0, 16384, u), 1.0);  // 2^14 units
}

TEST(EnergyCounterTest, WrapsAt32Bits) {
  const RaplUnits u;
  const std::uint32_t before = 0xFFFFFF00u;
  const std::uint32_t after = 0x00000100u;
  // 0x200 units across the wrap.
  EXPECT_DOUBLE_EQ(energy_counter_delta(before, after, u),
                   512.0 / 16384.0);
}

TEST(EnergyCounterTest, JoulesToUnits) {
  const RaplUnits u;
  EXPECT_EQ(joules_to_energy_units(1.0, u), 16384ull);
  EXPECT_EQ(joules_to_energy_units(0.0, u), 0ull);
}

TEST(UncoreRatioTest, RoundTrip) {
  UncoreRatioLimit l;
  l.max_ratio = 24;
  l.min_ratio = 12;
  const auto back = decode_uncore_ratio_limit(encode_uncore_ratio_limit(l));
  EXPECT_EQ(back.max_ratio, 24u);
  EXPECT_EQ(back.min_ratio, 12u);
}

TEST(UncoreRatioTest, PinnedWindow) {
  UncoreRatioLimit l;
  l.max_ratio = 18;
  l.min_ratio = 18;
  const auto back = decode_uncore_ratio_limit(encode_uncore_ratio_limit(l));
  EXPECT_EQ(back.max_ratio, back.min_ratio);
}

TEST(UncoreRatioTest, ReversedWindowRejected) {
  UncoreRatioLimit l;
  l.max_ratio = 12;
  l.min_ratio = 24;
  EXPECT_THROW(encode_uncore_ratio_limit(l), std::invalid_argument);
}

TEST(UncoreRatioTest, MhzConversions) {
  EXPECT_DOUBLE_EQ(uncore_ratio_to_mhz(24), 2400.0);
  EXPECT_EQ(uncore_mhz_to_ratio(2400.0), 24u);
  EXPECT_EQ(uncore_mhz_to_ratio(2449.0), 24u);  // rounds
  EXPECT_EQ(uncore_mhz_to_ratio(2450.0), 25u);
}

TEST(UncorePerfStatusTest, RoundTrip) {
  EXPECT_EQ(decode_uncore_perf_status(encode_uncore_perf_status(17)), 17u);
}

}  // namespace
}  // namespace dufp::msr
