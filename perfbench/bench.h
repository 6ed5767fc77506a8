// Shared types of the simulator benchmark (see README.md).
//
// A workload run is a sequence of repetitions ("reps").  Every rep
// constructs its system(s) from the same seed, warms up, times a fixed
// window of RunRounds(1) calls, then issues closed-loop ExecuteQuery
// probes.  Because the input size is fixed, every rep of one seed must
// produce bit-identical simulated statistics (SimStats); only host
// timings (HostStats) differ between reps.

#ifndef PDHT_PERFBENCH_BENCH_H_
#define PDHT_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The engine's phase series, in actor order (PdhtSystem's SimPhase).
inline constexpr const char* kPhases[] = {"churn", "maint",   "plan",
                                          "query", "publish", "update",
                                          "evict", "drain"};
inline constexpr size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

/// Simulated statistics of one rep.  Deterministic at a fixed seed: a
/// change here means the simulated stream changed.
struct SimStats {
  double msgs_per_round = 0;  ///< msg.rate.total over the timed window
  double hit_rate = 0;        ///< hit.rate over the timed window
  uint64_t probes = 0;        ///< closed-loop ExecuteQuery probes issued
  uint64_t probes_found = 0;  ///< probes that located a holder
  double lookup_rtt_p50 = 0;  ///< simulated ms; deferred delivery only
  double lookup_rtt_p99 = 0;
  double lookup_hops_mean = 0;
  double maint_msgs = 0;  ///< per round, timed window
  double dht_msgs = 0;
  double unstructured_msgs = 0;
  double replica_msgs = 0;
  double deferred = 0;
  double timeouts = 0;
  double failovers = 0;
  double index_keys = 0;
  double key_ttl = 0;
  double model_err_partial = 0;  ///< sweep only: |sim - model| / model
  double model_err_index_all = 0;
  /// FNV-1a over every recorded series (phase timings excluded) and the
  /// latency snapshot: catches stream changes the means above average out.
  uint64_t series_hash = 0;

  double found_frac() const {
    return static_cast<double>(probes_found) / static_cast<double>(probes);
  }
};

/// Host timings of one rep.
struct HostStats {
  double setup_s = 0;   ///< constructing the system(s)
  double window_s = 0;  ///< wall time the throughput is taken over
  uint64_t window_rounds = 0;
  double cpu_s = 0;                ///< process CPU time over window_s
  std::vector<double> round_ms;    ///< one per timed RunRounds(1)
  std::vector<double> probe_us;    ///< one per probe
  // Traced reps only: per-round phase ms, kNumPhases per timed round, in
  // round order.
  std::vector<double> phase_ms;
  // Sweep only.
  double worker_util = 0;
  double cell_s_max = 0;
  double partial_round_ms = 0;
  double index_all_round_ms = 0;
};

struct RepResult {
  SimStats sim;
  HostStats host;
  uint64_t attempted = 0;  ///< timed rounds + probes
  uint64_t failed = 0;     ///< host-level failures (exceptions, cell errors)
  std::vector<std::string> errors;
};

/// In-memory span recorder.  Spans are written out once, after the run.
class SpanLog {
 public:
  struct Span {
    uint32_t id;
    uint32_t parent;  ///< 0 = root
    std::string run;
    std::string name;
    double start_us;
    double end_us;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished span; returns its id (ids start at 1).
  uint32_t Add(uint32_t parent, const std::string& run,
               const std::string& name, Clock::time_point start,
               Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    return AddLocked(parent, run, name, Us(start), Us(end));
  }
  /// Opens a span whose end is set later with Close.
  uint32_t Open(uint32_t parent, const std::string& run,
                const std::string& name, Clock::time_point start) {
    std::lock_guard<std::mutex> lock(mu_);
    return AddLocked(parent, run, name, Us(start), Us(start));
  }
  void Close(uint32_t id, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_us = Us(end);
  }
  /// Adds a span with explicit microsecond bounds (phase spans).
  uint32_t AddUs(uint32_t parent, const std::string& run,
                 const std::string& name, double start_us, double end_us) {
    std::lock_guard<std::mutex> lock(mu_);
    return AddLocked(parent, run, name, start_us, end_us);
  }
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool WriteJson(const std::string& path, const std::string& header) const;
  size_t size() const { return spans_.size(); }

 private:
  uint32_t AddLocked(uint32_t parent, const std::string& run,
                     const std::string& name, double start_us,
                     double end_us) {
    const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back({id, parent, run, name, start_us, end_us});
    return id;
  }

  Clock::time_point origin_;
  std::mutex mu_;  // guards spans_: sweep cells record from worker threads
  std::vector<Span> spans_;
};

/// Per-workload fixed input size.
struct Budget {
  uint64_t warmup_rounds = 0;
  uint64_t timed_rounds = 0;
  uint64_t probes = 0;  ///< per system
};

enum class Workload { kSweep, kScale100k, kOutage5k };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);
Budget DefaultBudget(Workload w);

/// One rep.  `spans` non-null = traced rep: phase timing on, spans
/// recorded under `parent`.  `sim_threads` 0 = the workload's default.
RepResult RunRep(Workload w, uint64_t seed, const Budget& budget,
                 SpanLog* spans, uint32_t parent, uint32_t sim_threads = 0);

// --- Output checks (each has a negative control in selftest.cc) ---------

/// Empty when the simulated statistics are in range: msgs_per_round > 0,
/// hit_rate and the probe fail share in [0, 1].  NaN fails every check.
std::string CheckSimRanges(const SimStats& s);

/// Empty when `a` and `b` are bit-identical, field by field.  `what`
/// names the comparison in the message.
std::string CheckSameSim(const SimStats& a, const SimStats& b,
                         const std::string& what);

/// Empty when, for every round i, the kNumPhases phase ms recorded for it
/// sum to no more than round_ms[i].
std::string CheckPhaseSums(const std::vector<double>& round_ms,
                           const std::vector<double>& phase_ms);

/// Empty when at least `min_beyond` samples lie above the p95.
std::string CheckTailSamples(const std::vector<double>& samples,
                             size_t min_beyond);

/// Linear-interpolated quantile (q in [0, 1]); NaN for no samples.
double Quantile(std::vector<double> v, double q);

/// Process CPU seconds (all threads).
double ProcessCpuSeconds();

/// Runs the benchmark's own tests; returns the process exit code.
int RunSelfTest();

}  // namespace perfbench

#endif  // PDHT_PERFBENCH_BENCH_H_
