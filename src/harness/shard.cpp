#include "harness/shard.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/string_util.h"
#include "core/policy_registry.h"
#include "harness/shard_codec.h"
#include "telemetry/export.h"
#include "workloads/profiles.h"

namespace dufp::harness {

namespace {

using json::Value;

Value raw_double(double v) { return Value::make_raw_number(strf("%.17g", v)); }

}  // namespace

// -- GridSpec ----------------------------------------------------------------

json::Value GridSpec::to_json() const {
  Value o = Value::make_object();
  o.add("format", Value::make_string(kGridSpecFormat));
  o.add("version", Value::make_i64(kShardFormatVersion));
  o.add("name", Value::make_string(name));
  Value app_arr = Value::make_array();
  for (const auto app : apps) {
    app_arr.push_back(Value::make_string(workloads::app_name(app)));
  }
  o.add("apps", std::move(app_arr));
  // Key "modes" (not "policies"): the wire name predates the registry and
  // is pinned by the fingerprint of every existing spec.
  Value mode_arr = Value::make_array();
  for (const auto& policy : policies) {
    mode_arr.push_back(Value::make_string(policy));
  }
  o.add("modes", std::move(mode_arr));
  Value tol_arr = Value::make_array();
  for (const double tol : tolerances) tol_arr.push_back(raw_double(tol));
  o.add("tolerances", std::move(tol_arr));
  o.add("repetitions", Value::make_i64(repetitions));
  o.add("seed", Value::make_u64(seed));
  o.add("sockets", Value::make_i64(sockets));
  o.add("fault_rate", raw_double(fault_rate));
  o.add("fault_seed", Value::make_u64(fault_seed));
  o.add("telemetry", Value::make_bool(telemetry));
  return o;
}

std::string GridSpec::canonical_text() const { return to_json().dump(); }

std::uint64_t GridSpec::fingerprint() const {
  return json::fnv1a(canonical_text());
}

GridSpec GridSpec::from_json(const json::Value& v) {
  if (v.at("format").as_string() != kGridSpecFormat) {
    throw ShardFormatError("GridSpec: not a " + std::string(kGridSpecFormat) +
                           " document");
  }
  if (v.at("version").as_i64() != kShardFormatVersion) {
    throw ShardFormatError(
        strf("GridSpec: unsupported version %lld (this build speaks %d)",
             static_cast<long long>(v.at("version").as_i64()),
             kShardFormatVersion));
  }
  GridSpec spec;
  spec.name = v.at("name").as_string();
  spec.apps.clear();
  for (const Value& app : v.at("apps").as_array()) {
    spec.apps.push_back(workloads::app_by_name(app.as_string()));
  }
  for (const Value& mode : v.at("modes").as_array()) {
    spec.policies.push_back(mode.as_string());
  }
  for (const Value& tol : v.at("tolerances").as_array()) {
    spec.tolerances.push_back(tol.as_double());
  }
  spec.repetitions = static_cast<int>(v.at("repetitions").as_i64());
  spec.seed = v.at("seed").as_u64();
  spec.sockets = static_cast<int>(v.at("sockets").as_i64());
  spec.fault_rate = v.at("fault_rate").as_double();
  spec.fault_seed = v.at("fault_seed").as_u64();
  spec.telemetry = v.at("telemetry").as_bool();

  const auto problems = spec.validate();
  if (!problems.empty()) {
    std::string msg = "GridSpec: invalid spec:";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      msg += (i == 0 ? " " : "; ") + problems[i];
    }
    throw ShardFormatError(msg);
  }
  // Canonicalize alias/case spellings so CSV labels, telemetry labels and
  // re-serialized specs all use the registry name.
  for (auto& policy : spec.policies) {
    policy = core::PolicyRegistry::instance().at(policy).name;
  }
  return spec;
}

GridSpec GridSpec::parse(std::string_view text) {
  return from_json(json::parse(text));
}

GridSpec GridSpec::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("GridSpec: cannot open " + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

GridSpec GridSpec::reference() {
  GridSpec spec;
  spec.name = "reference";
  spec.apps = {workloads::AppId::cg, workloads::AppId::ep};
  spec.policies = {"DUF", "DUFP"};
  spec.tolerances = {0.05, 0.10};
  spec.repetitions = 3;
  spec.seed = 1;
  spec.sockets = 4;
  return spec;
}

std::vector<std::string> GridSpec::validate() const {
  std::vector<std::string> problems;
  if (name.empty()) problems.push_back("name is empty");
  if (apps.empty()) problems.push_back("apps is empty");
  if (policies.empty()) problems.push_back("modes is empty");
  // Every entry must resolve in the registry, exactly once: unknown and
  // duplicate names are each reported individually so one pass over the
  // error message fixes the whole list.
  const auto& registry = core::PolicyRegistry::instance();
  std::vector<std::string> seen;
  for (const auto& policy : policies) {
    const std::string key = to_lower(trim(policy));
    if (key == "default" || key == "none") {
      problems.push_back(
          "modes must not contain 'default' (the baseline is implicit)");
      continue;
    }
    const auto* entry = registry.find(policy);
    if (entry == nullptr) {
      problems.push_back("modes contains unknown policy \"" + policy +
                         "\" (known: " + registry.known_names() + ")");
      continue;
    }
    if (std::find(seen.begin(), seen.end(), entry->name) != seen.end()) {
      problems.push_back("modes contains duplicate policy \"" + policy +
                         "\"");
      continue;
    }
    seen.push_back(entry->name);
  }
  if (tolerances.empty()) problems.push_back("tolerances is empty");
  if (repetitions < 1) problems.push_back("repetitions must be >= 1");
  if (sockets < 1) problems.push_back("sockets must be >= 1");
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    problems.push_back("fault_rate must be in [0, 1]");
  }
  return problems;
}

WireIdentity GridSpec::wire_identity() const {
  WireIdentity id;
  id.format = kShardResultFormat;
  id.spec_name = name;
  id.fingerprint_hex =
      strf("%016llx", static_cast<unsigned long long>(fingerprint()));
  id.job_count = build_plan(*this).plan.job_count();
  return id;
}

// -- plan building -----------------------------------------------------------

GridPlan build_plan(const GridSpec& spec) {
  GridPlan gp;
  // Deliberately NOT default_run_config: that reads the environment
  // (DUFP_SOCKETS / DUFP_FAULT_RATE / ...), and a spec-driven plan must
  // be identical in every process regardless of its environment.
  const GridSpec& s = spec;
  gp.index = add_grid_cells(
      gp.plan, spec.apps, spec.policies, spec.tolerances, spec.repetitions,
      spec.seed, [&s](const workloads::WorkloadProfile& prof) {
        RunConfig cfg;
        cfg.profile = &prof;
        cfg.machine.sockets = s.sockets;
        if (s.fault_rate > 0.0) {
          cfg.faults = faults::FaultOptions::storm(s.fault_rate, s.fault_seed);
        }
        cfg.telemetry.enabled = s.telemetry;
        return cfg;
      });
  return gp;
}

// -- shard assignment --------------------------------------------------------

std::vector<std::size_t> shard_jobs_static(std::size_t job_count, int shards,
                                           int shard) {
  if (shards < 1 || shard < 0 || shard >= shards) {
    throw std::invalid_argument(
        strf("shard_jobs_static: shard %d of %d is out of range", shard,
             shards));
  }
  std::vector<std::size_t> indices;
  for (std::size_t j = static_cast<std::size_t>(shard); j < job_count;
       j += static_cast<std::size_t>(shards)) {
    indices.push_back(j);
  }
  return indices;
}

// -- shard worker ------------------------------------------------------------

void run_shard(const GridSpec& spec, const ShardRunOptions& options,
               std::ostream& out) {
  const GridPlan gp = build_plan(spec);
  WireIdentity id = spec.wire_identity();
  id.job_count = gp.plan.job_count();  // reuse the plan built above
  const int threads = options.threads;
  run_shard_wire(
      id, options,
      [&gp, threads](const std::vector<std::size_t>& indices) {
        const auto results = gp.plan.run_jobs(indices, threads);
        std::vector<std::string> payloads;
        payloads.reserve(results.size());
        for (const RunResult& r : results) {
          payloads.push_back(write_run_result(r));
        }
        return payloads;
      },
      out);
}

// -- gather ------------------------------------------------------------------

GatherReport gather_shards_report(const GridSpec& spec,
                                  const std::vector<std::string>& files,
                                  const GatherOptions& options) {
  const WireIdentity id = spec.wire_identity();

  GatherReport report;
  report.results.resize(id.job_count);
  WireGatherReport wire = gather_wire(
      id, files, options,
      [&report](std::size_t job, std::string_view result) {
        report.results[job] = read_run_result(result);
      });

  report.job_count = wire.job_count;
  report.have = std::move(wire.have);
  report.missing = std::move(wire.missing);
  report.records = wire.records;
  report.duplicates = wire.duplicates;
  report.notes = std::move(wire.notes);
  report.header_shards = wire.header_shards;
  return report;
}

std::vector<RunResult> gather_shards(const GridSpec& spec,
                                     const std::vector<std::string>& files) {
  return std::move(gather_shards_report(spec, files, {}).results);
}

// -- retry manifest ----------------------------------------------------------

json::Value RetryManifest::to_json() const {
  Value o = Value::make_object();
  o.add("format", Value::make_string(kRetryManifestFormat));
  o.add("version", Value::make_i64(kShardFormatVersion));
  o.add("spec", spec.to_json());
  o.add("spec_fingerprint",
        Value::make_string(strf("%016llx", static_cast<unsigned long long>(
                                               spec.fingerprint()))));
  Value arr = Value::make_array();
  for (const std::size_t j : missing) arr.push_back(Value::make_u64(j));
  o.add("missing_jobs", std::move(arr));
  return o;
}

std::string RetryManifest::canonical_text() const { return to_json().dump(); }

RetryManifest RetryManifest::from_json(const json::Value& v) {
  if (v.at("format").as_string() != kRetryManifestFormat) {
    throw ShardFormatError("RetryManifest: not a " +
                           std::string(kRetryManifestFormat) + " document");
  }
  if (v.at("version").as_i64() != kShardFormatVersion) {
    throw ShardFormatError(
        strf("RetryManifest: unsupported version %lld (this build speaks %d)",
             static_cast<long long>(v.at("version").as_i64()),
             kShardFormatVersion));
  }
  RetryManifest m;
  m.spec = GridSpec::from_json(v.at("spec"));
  const std::string want = strf(
      "%016llx", static_cast<unsigned long long>(m.spec.fingerprint()));
  if (v.at("spec_fingerprint").as_string() != want) {
    throw ShardFormatError(
        "RetryManifest: embedded spec does not match its recorded "
        "fingerprint (manifest was edited or corrupted)");
  }
  const std::size_t jobs = build_plan(m.spec).plan.job_count();
  for (const Value& j : v.at("missing_jobs").as_array()) {
    m.missing.push_back(j.as_u64());
  }
  if (m.missing.empty()) {
    throw ShardFormatError("RetryManifest: missing_jobs is empty");
  }
  for (std::size_t i = 0; i < m.missing.size(); ++i) {
    if (m.missing[i] >= jobs ||
        (i > 0 && m.missing[i] <= m.missing[i - 1])) {
      throw ShardFormatError(
          "RetryManifest: missing_jobs must be strictly ascending and in "
          "range");
    }
  }
  return m;
}

RetryManifest RetryManifest::parse(std::string_view text) {
  return from_json(json::parse(text));
}

RetryManifest RetryManifest::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("RetryManifest: cannot open " + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

RetryManifest make_retry_manifest(const GridSpec& spec,
                                  const GatherReport& report) {
  if (report.complete()) {
    throw std::logic_error(
        "make_retry_manifest: gather is complete, nothing to retry");
  }
  RetryManifest m;
  m.spec = spec;
  m.missing = report.missing;
  return m;
}

// -- finalize ----------------------------------------------------------------

std::string evaluation_csv(const std::vector<Evaluation>& evals,
                           const std::vector<std::string>& policies,
                           const std::vector<double>& tolerances) {
  std::string csv =
      "app,mode,tolerance_pct,runs,exec_s_mean,exec_s_min,exec_s_max,"
      "avg_pkg_w_mean,avg_dram_w_mean,pkg_energy_j_mean,dram_energy_j_mean,"
      "total_energy_j_mean,slowdown_pct,pkg_power_savings_pct,"
      "dram_power_savings_pct,energy_change_pct,actuation_retries,"
      "actuation_failures,degradations,faults_injected\n";

  auto row = [&csv](const std::string& app, const std::string& mode,
                    double tol_pct, const RepeatedResult& r, double slowdown,
                    double pkg_savings, double dram_savings,
                    double energy_change) {
    csv += strf(
        "%s,%s,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
        "%.17g,%.17g,%.17g,%.17g,%llu,%llu,%llu,%llu\n",
        app.c_str(), mode.c_str(), tol_pct, r.runs, r.exec_seconds.mean,
        r.exec_seconds.min, r.exec_seconds.max, r.avg_pkg_power_w.mean,
        r.avg_dram_power_w.mean, r.pkg_energy_j.mean, r.dram_energy_j.mean,
        r.total_energy_j.mean, slowdown, pkg_savings, dram_savings,
        energy_change,
        static_cast<unsigned long long>(r.health.actuation_retries),
        static_cast<unsigned long long>(r.health.actuation_failures),
        static_cast<unsigned long long>(r.health.degradations),
        static_cast<unsigned long long>(r.health.faults_injected));
  };

  for (const Evaluation& ev : evals) {
    const std::string app = workloads::app_name(ev.app());
    // The baseline row keeps the legacy display name "default".
    row(app, core::to_string(PolicyMode::none), 0.0, ev.baseline(), 0.0, 0.0,
        0.0, 0.0);
    for (const std::string& policy : policies) {
      for (const double tol : tolerances) {
        row(app, policy, tol * 100.0, ev.at(policy, tol),
            ev.slowdown_pct(policy, tol),
            ev.pkg_power_savings_pct(policy, tol),
            ev.dram_power_savings_pct(policy, tol),
            ev.energy_change_pct(policy, tol));
      }
    }
  }
  return csv;
}

std::string evaluation_csv(const std::vector<Evaluation>& evals,
                           const std::vector<PolicyMode>& modes,
                           const std::vector<double>& tolerances) {
  return evaluation_csv(evals, policy_names(modes), tolerances);
}

GridOutputs finalize_grid(const GridSpec& spec,
                          std::vector<RunResult> results) {
  GridOutputs out;

  // Telemetry is a per-job artifact that aggregation drops — extract it
  // before the results are consumed.  The merged exposition labels every
  // sample with its job index and stable-sorts by metric name, so the
  // bytes depend only on job identities, never on which shard ran what.
  if (spec.telemetry) {
    if (!results.empty() && results[0].telemetry.has_value()) {
      out.job0_telemetry = results[0].telemetry;
    }
    std::vector<telemetry::MetricSample> merged;
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (!results[j].telemetry.has_value()) continue;
      for (telemetry::MetricSample m : results[j].telemetry->metrics) {
        m.labels.emplace_back("job", std::to_string(j));
        merged.push_back(std::move(m));
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const telemetry::MetricSample& a,
                        const telemetry::MetricSample& b) {
                       return a.name < b.name;
                     });
    std::ostringstream prom;
    telemetry::write_prometheus(merged, prom);
    out.merged_prometheus = prom.str();
  }

  GridPlan gp = build_plan(spec);
  gp.plan.finish_with(std::move(results));
  out.evaluations =
      assemble_evaluations(gp.plan, gp.index, spec.policies, spec.tolerances);
  out.evaluation_csv =
      evaluation_csv(out.evaluations, spec.policies, spec.tolerances);
  return out;
}

GridOutputs run_grid_serial(const GridSpec& spec, int threads) {
  const GridPlan gp = build_plan(spec);
  std::vector<std::size_t> all(gp.plan.job_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  // Exactly the gather path: per-job results produced by the same
  // run_jobs, finalized by the same finish_with — serial ≡ gathered by
  // construction, and the tests byte-verify it anyway.
  return finalize_grid(spec, gp.plan.run_jobs(all, threads));
}

}  // namespace dufp::harness
