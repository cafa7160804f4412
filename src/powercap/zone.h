// A faithful C++ mirror of the `powercap` library's RAPL interface
// (https://github.com/powercap/powercap, the library the paper uses for
// capping, Sec. IV-C): zones with numbered constraints, microwatt /
// microjoule / microsecond units, and the long_term / short_term
// constraint naming of intel-rapl sysfs.
//
// Implemented purely over the MsrDevice interface, so the same code drives
// the simulated backend here and would drive /dev/cpu/*/msr on hardware.
#pragma once

#include <cstdint>
#include <string>

#include "msr/device.h"
#include "msr/registers.h"

namespace dufp::powercap {

/// Constraint indices follow intel-rapl: 0 = long_term, 1 = short_term.
enum class ConstraintId : int { long_term = 0, short_term = 1 };

class Zone {
 public:
  virtual ~Zone() = default;

  virtual std::string name() const = 0;

  /// Monotonic energy counter in microjoules (wraps at
  /// max_energy_range_uj, like the sysfs file).
  virtual std::uint64_t energy_uj() const = 0;
  virtual std::uint64_t max_energy_range_uj() const = 0;

  virtual int num_constraints() const = 0;
  virtual std::string constraint_name(int constraint) const = 0;
  virtual std::uint64_t power_limit_uw(int constraint) const = 0;
  virtual void set_power_limit_uw(int constraint, std::uint64_t uw) = 0;
  virtual std::uint64_t time_window_us(int constraint) const = 0;
  virtual void set_time_window_us(int constraint, std::uint64_t us) = 0;

  virtual bool enabled() const = 0;
  virtual void set_enabled(bool on) = 0;

  // -- typed convenience wrappers (watts / seconds) ---------------------------
  double power_limit_w(ConstraintId c) const;
  void set_power_limit_w(ConstraintId c, double watts);
  double time_window_s(ConstraintId c) const;
  double energy_j() const;

  /// Microjoules elapsed between two `energy_uj()` readings, correct
  /// across a single `max_energy_range_uj()` wrap.  Every consumer that
  /// differences this zone's energy counter must go through here (or
  /// `dufp::wrap_delta` directly) — naive subtraction turns the wrap into
  /// an astronomically large unsigned delta.
  std::uint64_t energy_delta_uj(std::uint64_t before,
                                std::uint64_t after) const;
};

/// Package RAPL zone ("intel-rapl:<socket>"): both constraints enforced.
class PackageZone final : public Zone {
 public:
  explicit PackageZone(msr::MsrDevice& dev, int socket_id = 0);

  std::string name() const override;
  std::uint64_t energy_uj() const override;
  std::uint64_t max_energy_range_uj() const override;
  int num_constraints() const override { return 2; }
  std::string constraint_name(int constraint) const override;
  std::uint64_t power_limit_uw(int constraint) const override;
  void set_power_limit_uw(int constraint, std::uint64_t uw) override;
  std::uint64_t time_window_us(int constraint) const override;
  void set_time_window_us(int constraint, std::uint64_t us) override;
  bool enabled() const override;
  void set_enabled(bool on) override;

  /// TDP as reported by MSR_PKG_POWER_INFO.
  double tdp_w() const;

 private:
  msr::PowerLimit read_limit() const;
  void write_limit(const msr::PowerLimit& pl);

  msr::MsrDevice& dev_;
  int socket_id_;
  msr::RaplUnits units_;
  /// The windows rarely change while the caps move every interval, so
  /// each constraint's window field is re-encoded only when it does.
  msr::TimeWindowMemo long_window_;
  msr::TimeWindowMemo short_window_;
};

/// DRAM RAPL subzone ("intel-rapl:<socket>:0").  Energy readable; limit
/// writes are accepted but have no effect — mirroring the paper's platform
/// where memory power capping is unavailable (Sec. II-B).
class DramZone final : public Zone {
 public:
  explicit DramZone(msr::MsrDevice& dev, int socket_id = 0);

  std::string name() const override;
  std::uint64_t energy_uj() const override;
  std::uint64_t max_energy_range_uj() const override;
  int num_constraints() const override { return 1; }
  std::string constraint_name(int constraint) const override;
  std::uint64_t power_limit_uw(int constraint) const override;
  void set_power_limit_uw(int constraint, std::uint64_t uw) override;
  std::uint64_t time_window_us(int constraint) const override;
  void set_time_window_us(int constraint, std::uint64_t us) override;
  bool enabled() const override { return false; }
  void set_enabled(bool on) override;

 private:
  msr::MsrDevice& dev_;
  int socket_id_;
  msr::RaplUnits units_;
};

}  // namespace dufp::powercap
