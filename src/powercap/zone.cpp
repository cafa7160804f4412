#include "powercap/zone.h"

#include <cmath>

#include "common/expect.h"
#include "common/units.h"

namespace dufp::powercap {

using namespace dufp::msr;

// ---------------------------------------------------------------------------
// Zone convenience wrappers
// ---------------------------------------------------------------------------

double Zone::power_limit_w(ConstraintId c) const {
  return uw_to_watts(power_limit_uw(static_cast<int>(c)));
}

void Zone::set_power_limit_w(ConstraintId c, double watts) {
  DUFP_EXPECT(watts > 0.0);
  set_power_limit_uw(static_cast<int>(c), watts_to_uw(watts));
}

double Zone::time_window_s(ConstraintId c) const {
  return static_cast<double>(time_window_us(static_cast<int>(c))) * 1e-6;
}

double Zone::energy_j() const { return uj_to_joules(energy_uj()); }

std::uint64_t Zone::energy_delta_uj(std::uint64_t before,
                                    std::uint64_t after) const {
  return wrap_delta(before, after, max_energy_range_uj());
}

// ---------------------------------------------------------------------------
// PackageZone
// ---------------------------------------------------------------------------

PackageZone::PackageZone(msr::MsrDevice& dev, int socket_id)
    : dev_(dev), socket_id_(socket_id) {
  units_ = decode_rapl_units(dev_.read(0, kMsrRaplPowerUnit));
}

std::string PackageZone::name() const {
  return "intel-rapl:" + std::to_string(socket_id_);
}

std::uint64_t PackageZone::energy_uj() const {
  const std::uint64_t raw = dev_.read(0, kMsrPkgEnergyStatus) & 0xFFFFFFFFULL;
  return static_cast<std::uint64_t>(static_cast<double>(raw) *
                                    units_.joules_per_unit() * 1e6);
}

std::uint64_t PackageZone::max_energy_range_uj() const {
  return static_cast<std::uint64_t>(4294967296.0 * units_.joules_per_unit() *
                                    1e6);
}

std::string PackageZone::constraint_name(int constraint) const {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  return constraint == 0 ? "long_term" : "short_term";
}

msr::PowerLimit PackageZone::read_limit() const {
  return decode_power_limit(dev_.read(0, kMsrPkgPowerLimit), units_);
}

void PackageZone::write_limit(const msr::PowerLimit& pl) {
  dev_.write(0, kMsrPkgPowerLimit,
             encode_power_limit(pl, units_, long_window_, short_window_));
}

std::uint64_t PackageZone::power_limit_uw(int constraint) const {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  const auto pl = read_limit();
  return watts_to_uw(constraint == 0 ? pl.long_term_w : pl.short_term_w);
}

void PackageZone::set_power_limit_uw(int constraint, std::uint64_t uw) {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  auto pl = read_limit();
  if (constraint == 0) {
    pl.long_term_w = uw_to_watts(uw);
  } else {
    pl.short_term_w = uw_to_watts(uw);
  }
  write_limit(pl);
}

std::uint64_t PackageZone::time_window_us(int constraint) const {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  const auto pl = read_limit();
  const double s =
      constraint == 0 ? pl.long_term_window_s : pl.short_term_window_s;
  return static_cast<std::uint64_t>(s * 1e6 + 0.5);
}

void PackageZone::set_time_window_us(int constraint, std::uint64_t us) {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  auto pl = read_limit();
  const double s = static_cast<double>(us) * 1e-6;
  if (constraint == 0) {
    pl.long_term_window_s = s;
  } else {
    pl.short_term_window_s = s;
  }
  write_limit(pl);
}

bool PackageZone::enabled() const {
  const auto pl = read_limit();
  return pl.long_term_enabled || pl.short_term_enabled;
}

void PackageZone::set_enabled(bool on) {
  auto pl = read_limit();
  pl.long_term_enabled = on;
  pl.short_term_enabled = on;
  write_limit(pl);
}

double PackageZone::tdp_w() const {
  return decode_power_info(dev_.read(0, kMsrPkgPowerInfo), units_).tdp_w;
}

// ---------------------------------------------------------------------------
// DramZone
// ---------------------------------------------------------------------------

DramZone::DramZone(msr::MsrDevice& dev, int socket_id)
    : dev_(dev), socket_id_(socket_id) {
  units_ = decode_rapl_units(dev_.read(0, kMsrRaplPowerUnit));
}

std::string DramZone::name() const {
  return "intel-rapl:" + std::to_string(socket_id_) + ":0";
}

std::uint64_t DramZone::energy_uj() const {
  const std::uint64_t raw = dev_.read(0, kMsrDramEnergyStatus) & 0xFFFFFFFFULL;
  return static_cast<std::uint64_t>(static_cast<double>(raw) *
                                    units_.joules_per_unit() * 1e6);
}

std::uint64_t DramZone::max_energy_range_uj() const {
  return static_cast<std::uint64_t>(4294967296.0 * units_.joules_per_unit() *
                                    1e6);
}

std::string DramZone::constraint_name(int constraint) const {
  DUFP_EXPECT(constraint == 0);
  return "long_term";
}

std::uint64_t DramZone::power_limit_uw(int constraint) const {
  DUFP_EXPECT(constraint == 0);
  const auto pl =
      decode_power_limit(dev_.read(0, kMsrDramPowerLimit), units_);
  return watts_to_uw(pl.long_term_w);
}

void DramZone::set_power_limit_uw(int constraint, std::uint64_t uw) {
  DUFP_EXPECT(constraint == 0);
  // Stored but never enforced: DRAM capping is unavailable on the paper's
  // platform (Sec. II-B), and the simulated PCU ignores this register.
  auto pl = decode_power_limit(dev_.read(0, kMsrDramPowerLimit), units_);
  pl.long_term_w = uw_to_watts(uw);
  dev_.write(0, kMsrDramPowerLimit, encode_power_limit(pl, units_));
}

std::uint64_t DramZone::time_window_us(int constraint) const {
  DUFP_EXPECT(constraint == 0);
  const auto pl =
      decode_power_limit(dev_.read(0, kMsrDramPowerLimit), units_);
  return static_cast<std::uint64_t>(pl.long_term_window_s * 1e6 + 0.5);
}

void DramZone::set_time_window_us(int constraint, std::uint64_t us) {
  DUFP_EXPECT(constraint == 0);
  auto pl = decode_power_limit(dev_.read(0, kMsrDramPowerLimit), units_);
  pl.long_term_window_s = static_cast<double>(us) * 1e-6;
  dev_.write(0, kMsrDramPowerLimit, encode_power_limit(pl, units_));
}

void DramZone::set_enabled(bool /*on*/) {
  // No-op: zone cannot be enabled on this platform.
}

}  // namespace dufp::powercap
