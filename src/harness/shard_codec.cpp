#include "harness/shard_codec.h"

#include <limits>
#include <utility>

namespace dufp::harness {

namespace {

using json::Reader;
using json::Writer;

// Flat structs travel as one object of named fields in a fixed order; a
// field table drives both directions, so the writer and the reader
// cannot disagree on a key or its position.
template <typename T, typename Field>
using FieldTable = std::pair<const char*, Field T::*>;

constexpr FieldTable<HealthTotals, std::uint64_t> kHealthFields[] = {
    {"actuation_retries", &HealthTotals::actuation_retries},
    {"actuation_failures", &HealthTotals::actuation_failures},
    {"sample_read_failures", &HealthTotals::sample_read_failures},
    {"samples_rejected", &HealthTotals::samples_rejected},
    {"degradations", &HealthTotals::degradations},
    {"reengagements", &HealthTotals::reengagements},
    {"intervals_degraded", &HealthTotals::intervals_degraded},
    {"faults_injected", &HealthTotals::faults_injected},
};

constexpr FieldTable<core::AgentHealth, std::uint64_t> kAgentHealthFields[] = {
    {"actuation_retries", &core::AgentHealth::actuation_retries},
    {"actuation_failures", &core::AgentHealth::actuation_failures},
    {"sample_read_failures", &core::AgentHealth::sample_read_failures},
    {"samples_rejected", &core::AgentHealth::samples_rejected},
    {"degradations", &core::AgentHealth::degradations},
    {"reengage_failures", &core::AgentHealth::reengage_failures},
    {"reengagements", &core::AgentHealth::reengagements},
    {"intervals_degraded", &core::AgentHealth::intervals_degraded},
};

constexpr FieldTable<core::AgentStats, std::uint64_t> kAgentStatsFields[] = {
    {"intervals", &core::AgentStats::intervals},
    {"uncore_decreases", &core::AgentStats::uncore_decreases},
    {"uncore_increases", &core::AgentStats::uncore_increases},
    {"uncore_resets", &core::AgentStats::uncore_resets},
    {"cap_decreases", &core::AgentStats::cap_decreases},
    {"cap_increases", &core::AgentStats::cap_increases},
    {"cap_resets", &core::AgentStats::cap_resets},
    {"cap_overshoot_resets", &core::AgentStats::cap_overshoot_resets},
    {"short_term_tightenings", &core::AgentStats::short_term_tightenings},
    {"uncore_reset_retries", &core::AgentStats::uncore_reset_retries},
    {"pstate_pins", &core::AgentStats::pstate_pins},
    {"pstate_releases", &core::AgentStats::pstate_releases},
};

constexpr FieldTable<sim::RunSummary, double> kSummaryFields[] = {
    {"exec_seconds", &sim::RunSummary::exec_seconds},
    {"pkg_energy_j", &sim::RunSummary::pkg_energy_j},
    {"dram_energy_j", &sim::RunSummary::dram_energy_j},
    {"avg_pkg_power_w", &sim::RunSummary::avg_pkg_power_w},
    {"avg_dram_power_w", &sim::RunSummary::avg_dram_power_w},
    {"total_gflop", &sim::RunSummary::total_gflop},
    {"total_gbytes", &sim::RunSummary::total_gbytes},
};

constexpr FieldTable<sim::PhaseTotals, double> kPhaseFields[] = {
    {"wall_seconds", &sim::PhaseTotals::wall_seconds},
    {"pkg_energy_j", &sim::PhaseTotals::pkg_energy_j},
    {"dram_energy_j", &sim::PhaseTotals::dram_energy_j},
};

template <typename T, std::size_t N>
void write_u64s(Writer& w, const T& s,
                const FieldTable<T, std::uint64_t> (&fields)[N]) {
  for (const auto& [key, field] : fields) {
    w.key(key);
    w.u64(s.*field);
  }
}

template <typename T, std::size_t N>
void read_u64s(Reader& r, T& s,
               const FieldTable<T, std::uint64_t> (&fields)[N]) {
  for (const auto& [key, field] : fields) {
    r.key(key);
    s.*field = r.u64();
  }
}

template <typename T, std::size_t N>
void write_hexes(Writer& w, const T& s,
                 const FieldTable<T, double> (&fields)[N]) {
  for (const auto& [key, field] : fields) {
    w.key(key);
    w.hex(s.*field);
  }
}

template <typename T, std::size_t N>
void read_hexes(Reader& r, T& s, const FieldTable<T, double> (&fields)[N]) {
  for (const auto& [key, field] : fields) {
    r.key(key);
    s.*field = r.hex();
  }
}

/// An integer field whose C++ type is narrower than the wire's: values
/// the writer could never have produced are rejected, not truncated.
template <typename Int>
Int read_narrow(Reader& r, std::int64_t lo, std::int64_t hi,
                const char* what) {
  const std::int64_t v = r.i64();
  if (v < lo || v > hi) r.error(std::string("out-of-range ") + what);
  return static_cast<Int>(v);
}

std::uint16_t read_u16(Reader& r, const char* what) {
  const std::uint64_t v = r.u64();
  if (v > std::numeric_limits<std::uint16_t>::max()) {
    r.error(std::string("out-of-range ") + what);
  }
  return static_cast<std::uint16_t>(v);
}

void write_agent_stats(Writer& w, const core::AgentStats& a) {
  w.begin_object();
  write_u64s(w, a, kAgentStatsFields);
  w.key("health");
  w.begin_object();
  write_u64s(w, a.health, kAgentHealthFields);
  w.end_object();
  w.end_object();
}

core::AgentStats read_agent_stats(Reader& r) {
  core::AgentStats a;
  r.begin_object();
  read_u64s(r, a, kAgentStatsFields);
  r.key("health");
  r.begin_object();
  read_u64s(r, a.health, kAgentHealthFields);
  r.end_object();
  r.end_object();
  return a;
}

void write_metric(Writer& w, const telemetry::MetricSample& m) {
  w.begin_object();
  w.key("type");
  w.i64(static_cast<int>(m.type));
  w.key("name");
  w.string(m.name);
  w.key("help");
  w.string(m.help);
  w.key("labels");
  w.begin_array();
  for (const auto& [k, val] : m.labels) {
    w.begin_array();
    w.string(k);
    w.string(val);
    w.end_array();
  }
  w.end_array();
  w.key("value");
  w.hex(m.value);
  w.key("bucket_bounds");
  w.begin_array();
  for (const double b : m.bucket_bounds) w.hex(b);
  w.end_array();
  w.key("bucket_counts");
  w.begin_array();
  for (const std::uint64_t c : m.bucket_counts) w.u64(c);
  w.end_array();
  w.key("sum");
  w.hex(m.sum);
  w.key("count");
  w.u64(m.count);
  w.end_object();
}

telemetry::MetricSample read_metric(Reader& r) {
  telemetry::MetricSample m;
  r.begin_object();
  r.key("type");
  m.type = read_narrow<telemetry::MetricType>(
      r, 0, static_cast<int>(telemetry::MetricType::histogram), "metric type");
  r.key("name");
  m.name = r.string();
  r.key("help");
  m.help = r.string();
  r.key("labels");
  r.begin_array();
  while (r.next()) {
    r.begin_array();
    std::string k = r.string();
    std::string val = r.string();
    r.end_array();
    m.labels.emplace_back(std::move(k), std::move(val));
  }
  r.key("value");
  m.value = r.hex();
  r.key("bucket_bounds");
  r.begin_array();
  while (r.next()) m.bucket_bounds.push_back(r.hex());
  r.key("bucket_counts");
  r.begin_array();
  while (r.next()) m.bucket_counts.push_back(r.u64());
  r.key("sum");
  m.sum = r.hex();
  r.key("count");
  m.count = r.u64();
  r.end_object();
  return m;
}

void write_event(Writer& w, const telemetry::Event& e) {
  w.begin_object();
  w.key("t_us");
  w.i64(e.t_us);
  w.key("kind");
  w.i64(static_cast<int>(e.kind));
  w.key("socket");
  w.u64(e.socket);
  w.key("code");
  w.u64(e.code);
  w.key("a");
  w.hex(e.a);
  w.key("b");
  w.hex(e.b);
  w.end_object();
}

telemetry::Event read_event(Reader& r) {
  telemetry::Event e;
  r.begin_object();
  r.key("t_us");
  e.t_us = r.i64();
  r.key("kind");
  e.kind = read_narrow<telemetry::EventKind>(
      r, 0, telemetry::kEventKindCount - 1, "event kind");
  r.key("socket");
  e.socket = read_u16(r, "event socket");
  r.key("code");
  e.code = read_u16(r, "event code");
  r.key("a");
  e.a = r.hex();
  r.key("b");
  e.b = r.hex();
  r.end_object();
  return e;
}

void write_events(Writer& w, const std::vector<telemetry::Event>& events) {
  w.begin_array();
  for (const auto& e : events) write_event(w, e);
  w.end_array();
}

std::vector<telemetry::Event> read_events(Reader& r) {
  std::vector<telemetry::Event> events;
  r.begin_array();
  while (r.next()) events.push_back(read_event(r));
  return events;
}

void write_snapshot(Writer& w, const telemetry::TelemetrySnapshot& snap) {
  w.begin_object();
  w.key("metrics");
  w.begin_array();
  for (const auto& m : snap.metrics) write_metric(w, m);
  w.end_array();
  w.key("events");
  w.begin_array();
  for (const auto& per_socket : snap.events) write_events(w, per_socket);
  w.end_array();
  w.key("dumps");
  w.begin_array();
  for (const auto& d : snap.dumps) {
    w.begin_object();
    w.key("socket");
    w.i64(d.socket);
    w.key("at_us");
    w.i64(d.at_us);
    w.key("events");
    write_events(w, d.events);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

telemetry::TelemetrySnapshot read_snapshot(Reader& r) {
  telemetry::TelemetrySnapshot snap;
  r.begin_object();
  r.key("metrics");
  r.begin_array();
  while (r.next()) snap.metrics.push_back(read_metric(r));
  r.key("events");
  r.begin_array();
  while (r.next()) snap.events.push_back(read_events(r));
  r.key("dumps");
  r.begin_array();
  while (r.next()) {
    telemetry::FlightDump dump;
    r.begin_object();
    r.key("socket");
    dump.socket = read_narrow<int>(r, std::numeric_limits<int>::min(),
                                   std::numeric_limits<int>::max(),
                                   "dump socket");
    r.key("at_us");
    dump.at_us = r.i64();
    r.key("events");
    dump.events = read_events(r);
    r.end_object();
    snap.dumps.push_back(std::move(dump));
  }
  r.end_object();
  return snap;
}

}  // namespace

std::string write_run_result(const RunResult& result) {
  std::string out;
  Writer w(out);
  w.begin_object();

  w.key("summary");
  w.begin_object();
  write_hexes(w, result.summary, kSummaryFields);
  w.end_object();

  w.key("agent_stats");
  w.begin_array();
  for (const auto& a : result.agent_stats) write_agent_stats(w, a);
  w.end_array();

  w.key("fault_stats");
  w.begin_array();
  for (const auto& f : result.fault_stats) {
    w.begin_array();
    for (const std::uint64_t c : f.injected) w.u64(c);
    w.end_array();
  }
  w.end_array();

  w.key("health");
  w.begin_object();
  write_u64s(w, result.health, kHealthFields);
  w.end_object();

  // std::map iterates key-sorted, so phase order is deterministic.
  w.key("phase_totals");
  w.begin_array();
  for (const auto& [name, t] : result.phase_totals) {
    w.begin_object();
    w.key("name");
    w.string(name);
    write_hexes(w, t, kPhaseFields);
    w.end_object();
  }
  w.end_array();

  if (result.telemetry.has_value()) {
    w.key("telemetry");
    write_snapshot(w, *result.telemetry);
  }
  w.end_object();
  return out;
}

RunResult read_run_result(std::string_view bytes) {
  RunResult res;
  Reader r(bytes);
  r.begin_object();

  r.key("summary");
  r.begin_object();
  read_hexes(r, res.summary, kSummaryFields);
  r.end_object();

  r.key("agent_stats");
  r.begin_array();
  while (r.next()) res.agent_stats.push_back(read_agent_stats(r));

  r.key("fault_stats");
  r.begin_array();
  while (r.next()) {
    faults::FaultStats fs;
    r.begin_array();
    for (std::uint64_t& c : fs.injected) {
      if (!r.next()) r.error("fault class count mismatch");
      c = r.u64();
    }
    r.end_array();
    res.fault_stats.push_back(fs);
  }

  r.key("health");
  r.begin_object();
  read_u64s(r, res.health, kHealthFields);
  r.end_object();

  r.key("phase_totals");
  r.begin_array();
  while (r.next()) {
    r.begin_object();
    r.key("name");
    std::string name = r.string();
    // The writer walks a std::map: names arrive strictly ascending, and
    // anything else would not re-encode to the same bytes.
    if (!res.phase_totals.empty() &&
        !(res.phase_totals.rbegin()->first < name)) {
      r.error("phase names out of order");
    }
    sim::PhaseTotals t;
    read_hexes(r, t, kPhaseFields);
    r.end_object();
    res.phase_totals.emplace_hint(res.phase_totals.end(), std::move(name), t);
  }

  if (r.optional_key("telemetry")) res.telemetry = read_snapshot(r);
  r.end_object();
  r.finish();
  return res;
}

json::Value encode_run_result(const RunResult& result) {
  return json::parse(write_run_result(result));
}

RunResult decode_run_result(const json::Value& v) {
  return read_run_result(v.dump());
}

json::Value encode_snapshot(const telemetry::TelemetrySnapshot& snap) {
  std::string out;
  Writer w(out);
  write_snapshot(w, snap);
  return json::parse(out);
}

telemetry::TelemetrySnapshot decode_snapshot(const json::Value& v) {
  const std::string bytes = v.dump();
  Reader r(bytes);
  telemetry::TelemetrySnapshot snap = read_snapshot(r);
  r.finish();
  return snap;
}

}  // namespace dufp::harness
