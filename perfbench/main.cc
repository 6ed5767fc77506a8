// The simulator benchmark program.  Usage (normally through run.py):
//
//   pdht_perfbench --workload <sweep_1_14|scale_100k|outage_5k|all>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>] [--commit <id>]
//   pdht_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with tracing off: reps run
// until the run has spent --seconds, set-up included (at least kMinReps).
// --trace 1 runs one untraced rep and one traced rep (phase timing on,
// spans recorded) and reports the per-layer metrics.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 200;
/// Samples that must lie beyond the reported p95, so the p95 is measured.
constexpr size_t kMinTailSamples = 10;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample counts etc., human output only
};

struct WorkloadOut {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Collect(const RepResult& rep, WorkloadOut* out) {
  out->attempted += rep.attempted;
  out->failed += rep.failed;
  out->errors.insert(out->errors.end(), rep.errors.begin(), rep.errors.end());
}

void AddError(const std::string& err, WorkloadOut* out) {
  if (!err.empty()) out->errors.push_back(err);
}

std::string Count(size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

/// End-to-end metrics, tracing off.
WorkloadOut RunTimed(Workload w, uint64_t seed, double seconds) {
  const Budget budget = DefaultBudget(w);
  std::vector<RepResult> reps;
  const auto start = Clock::now();
  while (reps.size() < kMaxReps) {
    reps.push_back(RunRep(w, seed, budget, nullptr, 0));
    const double spent =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (reps.size() >= kMinReps && spent >= seconds) break;
  }

  WorkloadOut out;
  std::vector<double> rps, setup, round_ms;
  // Throughput is pooled (all rounds / all window time): per-rep figures
  // on a shared host can be bimodal, and a median of a few reps jumps
  // between the modes where the pooled ratio averages them.
  double rounds = 0.0, window_s = 0.0;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    Collect(r, &out);
    rps.push_back(static_cast<double>(r.host.window_rounds) /
                  r.host.window_s);
    rounds += static_cast<double>(r.host.window_rounds);
    window_s += r.host.window_s;
    setup.push_back(r.host.setup_s);
    round_ms.insert(round_ms.end(), r.host.round_ms.begin(),
                    r.host.round_ms.end());
    if (i > 0) {
      AddError(CheckSameSim(reps[0].sim, r.sim,
                            "rep " + std::to_string(i) + " vs rep 0"),
               &out);
    }
  }
  const SimStats& s = reps[0].sim;
  AddError(CheckSimRanges(s), &out);
  AddError(CheckTailSamples(round_ms, kMinTailSamples), &out);

  std::ostringstream per_rep;
  per_rep.precision(6);
  for (double v : rps) per_rep << " " << v;
  const std::string reps_note =
      Count(reps.size(), "reps") + ":" + per_rep.str();
  const std::string rounds_note = Count(round_ms.size(), "samples");
  out.metrics = {
      {"rounds_per_s", rounds / window_s, "1/s", "pooled over " + reps_note},
      {"round_ms_p50", Quantile(round_ms, 0.5), "ms", rounds_note},
      {"round_ms_p95", Quantile(round_ms, 0.95), "ms", rounds_note},
      {"setup_s", Median(setup), "s",
       "median of " + Count(reps.size(), "reps")},
      {"peak_rss_mb", PeakRssMb(), "MB", "process peak"},
      {"msgs_per_round", s.msgs_per_round, "msg/round", "simulated"},
      {"hit_rate", s.hit_rate, "ratio", "simulated"},
      {"query_found_frac", s.found_frac(), "ratio",
       "simulated; query_fail_frac = " +
           std::to_string(1.0 - s.found_frac()) + " over " +
           Count(s.probes, "probes")},
  };
  return out;
}

/// Per-layer metrics: one untraced and one traced rep of the same seed.
WorkloadOut RunTraced(Workload w, uint64_t seed, SpanLog* spans) {
  const Budget budget = DefaultBudget(w);
  const RepResult plain = RunRep(w, seed, budget, nullptr, 0);
  const auto a = Clock::now();
  const uint32_t root = spans->Open(0, WorkloadName(w), "workload", a);
  const RepResult traced = RunRep(w, seed, budget, spans, root);
  spans->Close(root, Clock::now());

  WorkloadOut out;
  Collect(plain, &out);
  Collect(traced, &out);
  AddError(CheckSimRanges(traced.sim), &out);
  AddError(CheckSameSim(plain.sim, traced.sim, "traced vs untraced"), &out);
  AddError(CheckPhaseSums(traced.host.round_ms, traced.host.phase_ms), &out);

  const HostStats& th = traced.host;
  const HostStats& ph = plain.host;
  const SimStats& s = traced.sim;
  const size_t rounds = th.round_ms.size();
  double phase_mean[kNumPhases] = {};
  double self_ms = 0.0;
  for (size_t i = 0; i < rounds; ++i) {
    double sum = 0.0;
    for (size_t p = 0; p < kNumPhases; ++p) {
      const double ms = th.phase_ms[i * kNumPhases + p];
      phase_mean[p] += ms / static_cast<double>(rounds);
      sum += ms;
    }
    self_ms += (th.round_ms[i] - sum) / static_cast<double>(rounds);
  }
  auto phase = [&](const char* name) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      if (std::string(kPhases[p]) == name) return phase_mean[p];
    }
    return 0.0;
  };
  const std::string traced_note = Count(rounds, "traced rounds");
  const double traced_round = Mean(th.round_ms);
  const double model_err =
      std::max(s.model_err_partial, s.model_err_index_all);
  out.metrics = {
      {"overlay.maint_ms", phase("maint"), "ms", traced_note},
      {"overlay.maint_msgs_per_round", s.maint_msgs, "msg/round", ""},
      {"overlay.dht_msgs_per_round", s.dht_msgs, "msg/round", ""},
      {"overlay.unstructured_msgs_per_round", s.unstructured_msgs,
       "msg/round", ""},
      {"overlay.lookup_hops_mean", s.lookup_hops_mean, "hops",
       "deferred delivery only"},
      {"core.query_ms", phase("query"), "ms", traced_note},
      {"core.update_ms", phase("update"), "ms", traced_note},
      {"core.evict_ms", phase("evict"), "ms", traced_note},
      {"core.replica_msgs_per_round", s.replica_msgs, "msg/round", ""},
      {"core.index_keys", s.index_keys, "count", ""},
      {"core.key_ttl", s.key_ttl, "s", "simulated seconds"},
      {"core.probe_query_us_p50", Quantile(ph.probe_us, 0.5), "us",
       Count(ph.probe_us.size(), "untraced probes")},
      {"sim.round_ms", traced_round, "ms", traced_note},
      {"sim.engine_self_ms", self_ms, "ms", "round span minus phases"},
      {"sim.churn_ms", phase("churn"), "ms", traced_note},
      {"sim.plan_ms", phase("plan"), "ms", traced_note},
      {"sim.publish_ms", phase("publish"), "ms", traced_note},
      {"sim.drain_ms", phase("drain"), "ms", traced_note},
      {"sim.cpu_util", ph.cpu_s / ph.window_s, "cores", "untraced window"},
      {"sim.trace_overhead", traced_round / Mean(ph.round_ms) - 1.0, "ratio",
       "traced / untraced mean round - 1"},
      {"net.deferred_per_round", s.deferred, "msg/round", ""},
      {"net.timeouts_per_round", s.timeouts, "count/round", ""},
      {"net.failovers_per_round", s.failovers, "count/round", ""},
      {"net.lookup_rtt_ms_p50", s.lookup_rtt_p50, "ms",
       "simulated; deferred delivery only"},
      {"net.lookup_rtt_ms_p99", s.lookup_rtt_p99, "ms",
       "simulated; deferred delivery only"},
      {"exp.worker_util", ph.worker_util, "ratio", "sweep only"},
      {"exp.cell_s_max", ph.cell_s_max, "s", "sweep only"},
      {"exp.partialTtl.round_ms", ph.partial_round_ms, "ms", "sweep only"},
      {"exp.indexAll.round_ms", ph.index_all_round_ms, "ms", "sweep only"},
      {"model.msgs_err", model_err, "ratio", "sweep only; worst strategy"},
      {"model.partialTtl.msgs_err", s.model_err_partial, "ratio",
       "vs TotalPartialIdeal"},
      {"model.indexAll.msgs_err", s.model_err_index_all, "ratio",
       "vs TotalIndexAll"},
  };
  return out;
}

std::string JsonString(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string JsonNumber(double v) {
  if (v != v || v - v != 0) return "null";  // NaN / inf are not JSON
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pdht_perfbench --workload <sweep_1_14|scale_100k|"
               "outage_5k|all> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>] [--commit <id>]\n"
               "       pdht_perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") return RunSelfTest();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return Usage();
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) return Usage();
  }
  std::vector<Workload> workloads;
  if (args["workload"] == "all") {
    workloads = {Workload::kSweep, Workload::kScale100k, Workload::kOutage5k};
  } else {
    Workload w;
    if (!ParseWorkload(args["workload"], &w)) return Usage();
    workloads = {w};
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";

  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"commit\": " + JsonString(args.count("commit") ? args["commit"]
                                                           : "unknown") +
      ", \"workload\": " + JsonString(args["workload"]) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"seconds\": " + JsonNumber(seconds) +
      ", \"trace\": " + (trace ? "1" : "0") + "}";
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  SpanLog spans(Clock::now());
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::string metrics_json;
  for (Workload w : workloads) {
    const WorkloadOut out = trace ? RunTraced(w, seed, &spans)
                                  : RunTimed(w, seed, seconds);
    std::printf("== %s (%s)\n", WorkloadName(w),
                trace ? "traced: per-layer" : "untraced: end-to-end");
    for (const auto& m : out.metrics) {
      std::printf("  %-36s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
      const std::string name =
          workloads.size() > 1 ? std::string(WorkloadName(w)) + "." + m.name
                               : m.name;
      if (!metrics_json.empty()) metrics_json += ", ";
      metrics_json += JsonString(name) + ": {\"value\": " +
                      JsonNumber(m.value) +
                      ", \"unit\": " + JsonString(m.unit) + "}";
    }
    for (const auto& e : out.errors) {
      std::printf("  CHECK FAILED: %s\n", e.c_str());
    }
    if (out.errors.empty()) std::printf("  checks: all passed\n");
    correct = correct && out.errors.empty();
    attempted += out.attempted;
    failed += out.failed;
    std::fflush(stdout);
  }
  if (trace) {
    const std::string path = args.count("spans") ? args["spans"] : "";
    if (path.empty() || !spans.WriteJson(path, host)) {
      std::printf("  CHECK FAILED: could not write the span file '%s'\n",
                  path.c_str());
      correct = false;
    } else {
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  return 0;
}
