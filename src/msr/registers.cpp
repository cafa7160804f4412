#include "msr/registers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/expect.h"
#include "common/units.h"

namespace dufp::msr {
namespace {

constexpr std::uint64_t mask(unsigned bits) {
  return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

std::uint64_t field_get(std::uint64_t raw, unsigned shift, unsigned bits) {
  return (raw >> shift) & mask(bits);
}

void field_set(std::uint64_t& raw, unsigned shift, unsigned bits,
               std::uint64_t value) {
  raw &= ~(mask(bits) << shift);
  raw |= (value & mask(bits)) << shift;
}

/// Clamps watts to the 15-bit power-limit field.
std::uint64_t watts_to_limit_units(double w, const RaplUnits& u) {
  const double units = w / u.watts_per_unit();
  const double clamped = std::clamp(units, 0.0, double(mask(15)));
  return static_cast<std::uint64_t>(clamped + 0.5);
}

}  // namespace

std::uint64_t encode_rapl_units(const RaplUnits& u) {
  DUFP_EXPECT(u.power_unit_bits <= 15);
  DUFP_EXPECT(u.energy_unit_bits <= 31);
  DUFP_EXPECT(u.time_unit_bits <= 15);
  std::uint64_t raw = 0;
  field_set(raw, 0, 4, u.power_unit_bits);
  field_set(raw, 8, 5, u.energy_unit_bits);
  field_set(raw, 16, 4, u.time_unit_bits);
  return raw;
}

RaplUnits decode_rapl_units(std::uint64_t raw) {
  RaplUnits u;
  u.power_unit_bits = static_cast<unsigned>(field_get(raw, 0, 4));
  u.energy_unit_bits = static_cast<unsigned>(field_get(raw, 8, 5));
  u.time_unit_bits = static_cast<unsigned>(field_get(raw, 16, 4));
  return u;
}

std::uint32_t encode_time_window(double seconds, const RaplUnits& u) {
  DUFP_EXPECT(seconds >= 0.0);
  const double tu = u.seconds_per_unit();
  // window = 2^Y * (1 + Z/4) * tu.  Search the 4 Z values for each Y and
  // keep the closest representable window; the field is tiny (128 combos)
  // so exhaustive search is the clearest correct implementation.
  std::uint32_t best_field = 0;
  double best_err = std::numeric_limits<double>::infinity();
  double pow2 = 1.0;  // exact 2^y, doubled per iteration (no libm call)
  for (std::uint32_t y = 0; y < 32; ++y, pow2 *= 2.0) {
    for (std::uint32_t z = 0; z < 4; ++z) {
      const double w = pow2 * (1.0 + static_cast<double>(z) / 4.0) * tu;
      const double err = std::abs(w - seconds);
      if (err < best_err) {
        best_err = err;
        best_field = y | (z << 5);
      }
    }
  }
  return best_field;
}

double decode_time_window(std::uint32_t field, const RaplUnits& u) {
  const std::uint32_t y = field & 0x1F;
  const std::uint32_t z = (field >> 5) & 0x3;
  return std::ldexp(1.0, static_cast<int>(y)) *
         (1.0 + static_cast<double>(z) / 4.0) * u.seconds_per_unit();
}

std::uint32_t TimeWindowMemo::encode(double seconds, const RaplUnits& u) {
  std::uint64_t bits;
  std::memcpy(&bits, &seconds, sizeof bits);
  if (!valid_ || bits != seconds_bits_ || u.time_unit_bits != time_unit_bits_) {
    field_ = encode_time_window(seconds, u);
    seconds_bits_ = bits;
    time_unit_bits_ = u.time_unit_bits;
    valid_ = true;
  }
  return field_;
}

namespace {

std::uint64_t pack_power_limit(const PowerLimit& pl, const RaplUnits& u,
                               std::uint32_t long_window,
                               std::uint32_t short_window) {
  std::uint64_t raw = 0;
  field_set(raw, 0, 15, watts_to_limit_units(pl.long_term_w, u));
  field_set(raw, 15, 1, pl.long_term_enabled ? 1 : 0);
  field_set(raw, 16, 1, pl.long_term_clamped ? 1 : 0);
  field_set(raw, 17, 7, long_window);
  field_set(raw, 32, 15, watts_to_limit_units(pl.short_term_w, u));
  field_set(raw, 47, 1, pl.short_term_enabled ? 1 : 0);
  field_set(raw, 48, 1, pl.short_term_clamped ? 1 : 0);
  field_set(raw, 49, 7, short_window);
  field_set(raw, 63, 1, pl.locked ? 1 : 0);
  return raw;
}

}  // namespace

std::uint64_t encode_power_limit(const PowerLimit& pl, const RaplUnits& u) {
  return pack_power_limit(pl, u, encode_time_window(pl.long_term_window_s, u),
                          encode_time_window(pl.short_term_window_s, u));
}

std::uint64_t encode_power_limit(const PowerLimit& pl, const RaplUnits& u,
                                 TimeWindowMemo& long_window,
                                 TimeWindowMemo& short_window) {
  return pack_power_limit(pl, u, long_window.encode(pl.long_term_window_s, u),
                          short_window.encode(pl.short_term_window_s, u));
}

PowerLimit decode_power_limit(std::uint64_t raw, const RaplUnits& u) {
  PowerLimit pl;
  pl.long_term_w =
      static_cast<double>(field_get(raw, 0, 15)) * u.watts_per_unit();
  pl.long_term_enabled = field_get(raw, 15, 1) != 0;
  pl.long_term_clamped = field_get(raw, 16, 1) != 0;
  pl.long_term_window_s =
      decode_time_window(static_cast<std::uint32_t>(field_get(raw, 17, 7)), u);
  pl.short_term_w =
      static_cast<double>(field_get(raw, 32, 15)) * u.watts_per_unit();
  pl.short_term_enabled = field_get(raw, 47, 1) != 0;
  pl.short_term_clamped = field_get(raw, 48, 1) != 0;
  pl.short_term_window_s =
      decode_time_window(static_cast<std::uint32_t>(field_get(raw, 49, 7)), u);
  pl.locked = field_get(raw, 63, 1) != 0;
  return pl;
}

std::uint64_t encode_power_info(const PowerInfo& info, const RaplUnits& u) {
  std::uint64_t raw = 0;
  field_set(raw, 0, 15, watts_to_limit_units(info.tdp_w, u));
  field_set(raw, 16, 15, watts_to_limit_units(info.min_power_w, u));
  field_set(raw, 32, 15, watts_to_limit_units(info.max_power_w, u));
  return raw;
}

PowerInfo decode_power_info(std::uint64_t raw, const RaplUnits& u) {
  PowerInfo info;
  info.tdp_w = static_cast<double>(field_get(raw, 0, 15)) * u.watts_per_unit();
  info.min_power_w =
      static_cast<double>(field_get(raw, 16, 15)) * u.watts_per_unit();
  info.max_power_w =
      static_cast<double>(field_get(raw, 32, 15)) * u.watts_per_unit();
  return info;
}

double energy_counter_delta(std::uint32_t before, std::uint32_t after,
                            const RaplUnits& u) {
  const std::uint64_t delta =
      wrap_delta(before, after, /*wrap_range=*/1ULL << 32);
  return static_cast<double>(delta) * u.joules_per_unit();
}

std::uint64_t joules_to_energy_units(double joules, const RaplUnits& u) {
  DUFP_EXPECT(joules >= 0.0);
  return static_cast<std::uint64_t>(joules / u.joules_per_unit());
}

std::uint64_t encode_uncore_ratio_limit(const UncoreRatioLimit& l) {
  DUFP_EXPECT(l.max_ratio <= 127 && l.min_ratio <= 127);
  DUFP_EXPECT(l.min_ratio <= l.max_ratio);
  std::uint64_t raw = 0;
  field_set(raw, 0, 7, l.max_ratio);
  field_set(raw, 8, 7, l.min_ratio);
  return raw;
}

UncoreRatioLimit decode_uncore_ratio_limit(std::uint64_t raw) {
  UncoreRatioLimit l;
  l.max_ratio = static_cast<unsigned>(field_get(raw, 0, 7));
  l.min_ratio = static_cast<unsigned>(field_get(raw, 8, 7));
  return l;
}

std::uint64_t encode_perf_ctl(unsigned target_ratio) {
  DUFP_EXPECT(target_ratio <= 255);
  return static_cast<std::uint64_t>(target_ratio & 0xFF) << 8;
}

unsigned decode_perf_ctl(std::uint64_t raw) {
  return static_cast<unsigned>((raw >> 8) & 0xFF);
}

std::uint64_t encode_uncore_perf_status(unsigned current_ratio) {
  DUFP_EXPECT(current_ratio <= 127);
  return current_ratio & 0x7F;
}

unsigned decode_uncore_perf_status(std::uint64_t raw) {
  return static_cast<unsigned>(raw & 0x7F);
}

}  // namespace dufp::msr
