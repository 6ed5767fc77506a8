// The three benchmark workloads and the rep loop that measures them.
// Why each workload exists, and which layers it loads, is in README.md.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/pdht_system.h"
#include "exp/parallel_runner.h"
#include "model/cost_model.h"
#include "overlay/structured_overlay.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using pdht::core::PdhtSystem;
using pdht::core::Strategy;
using pdht::core::SystemConfig;

/// Threads every workload uses: the runner's workers in the sweep, the
/// sharded engine's pool elsewhere.
constexpr uint32_t kThreads = 4;
constexpr uint32_t kSweepSeedsPerCell = 4;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- configurations ---------------------------------------------------

/// Table 1 at 1/14 scale (as bench_perf_roundloop's scale_1_14): immediate
/// delivery, churn on, legacy serial engine per cell.
SystemConfig SweepBase(uint64_t seed) {
  SystemConfig c;
  c.params.num_peers = 1428;
  c.params.keys = 2857;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 10.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.churn.enabled = true;
  c.sim_threads = 1;
  c.seed = seed;
  return c;
}

/// The scale-up workloads bound the unstructured walk (as
/// bench_perf_roundloop does): a miss would otherwise flood every peer, and
/// the flood would swamp the layers these workloads exist to load.
void BoundWalk(SystemConfig& c) {
  c.walk.num_walkers = 16;
  c.walk.max_steps_per_walker = 128;
  c.walk.flood_fallback = false;
}

/// bench_perf_roundloop's scale_100k partialTtl row on the sharded engine.
SystemConfig Scale100k(uint64_t seed, uint32_t sim_threads) {
  SystemConfig c;
  c.params.num_peers = 100000;
  c.params.keys = 200000;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 100.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.strategy = Strategy::kPartialTtl;
  c.churn.enabled = true;
  BoundWalk(c);
  c.sim_threads = sim_threads;
  c.seed = seed;
  return c;
}

/// Kademlia with the fault-tolerance layer under a cluster outage that
/// falls inside the timed window.  sim_shards is pinned so the series do
/// not depend on the thread count.
SystemConfig Outage5k(uint64_t seed, uint32_t sim_threads, const Budget& b) {
  SystemConfig c;
  c.params.num_peers = 5000;
  c.params.keys = 10000;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 10.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.strategy = Strategy::kPartialTtl;
  c.backend = pdht::core::DhtBackend::kKademlia;
  c.churn.enabled = true;
  BoundWalk(c);
  c.delivery_model = pdht::net::DeliveryModelKind::kLatency;
  c.latency.topology = pdht::net::LatencyTopology::kTransitStub;
  c.proximity_routing = true;
  c.route_proximity = true;
  c.timeout_costing = true;
  c.adaptive_rto = true;
  c.replica_route = true;
  c.scenario.kind = pdht::sim::ScenarioKind::kClusterOutage;
  c.scenario.outage_start_round = b.warmup_rounds + b.timed_rounds / 4;
  c.scenario.outage_end_round = b.warmup_rounds + b.timed_rounds / 2;
  c.sim_threads = sim_threads;
  c.sim_shards = 4;
  c.seed = seed;
  return c;
}

// --- one system -------------------------------------------------------

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

/// Mean of the last `n` values of a series; NaN when n == 0.
double WindowMean(const PdhtSystem& sys, const char* series, uint64_t n) {
  const pdht::sim::RoundEngine& engine = sys.engine();
  if (!engine.HasSeries(series)) return 0.0;
  const std::vector<double>& v = engine.Series(series).values();
  n = std::min<uint64_t>(n, v.size());
  double sum = 0.0;
  for (size_t i = v.size() - n; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

double LatencyOf(const pdht::core::RunSnapshot& snap, const char* key) {
  auto it = snap.latency.find(key);
  return it == snap.latency.end() ? 0.0 : it->second;
}

/// Simulated statistics over the timed window (before the probes).
SimStats WindowStats(const PdhtSystem& sys, uint64_t rounds) {
  SimStats s;
  s.msgs_per_round = WindowMean(sys, PdhtSystem::kSeriesMsgTotal, rounds);
  s.hit_rate = WindowMean(sys, PdhtSystem::kSeriesHitRate, rounds);
  s.maint_msgs = WindowMean(sys, PdhtSystem::kSeriesMsgMaint, rounds);
  s.dht_msgs = WindowMean(sys, PdhtSystem::kSeriesMsgDht, rounds);
  s.unstructured_msgs =
      WindowMean(sys, PdhtSystem::kSeriesMsgUnstructured, rounds);
  s.replica_msgs = WindowMean(sys, PdhtSystem::kSeriesMsgReplica, rounds);
  s.deferred = WindowMean(sys, PdhtSystem::kSeriesDeferredRate, rounds);
  s.timeouts = WindowMean(sys, PdhtSystem::kSeriesTimeoutRate, rounds);
  s.failovers = WindowMean(sys, PdhtSystem::kSeriesFailoverRate, rounds);
  const pdht::core::RunSnapshot snap = sys.Snapshot(rounds);
  s.index_keys = static_cast<double>(snap.index_keys);
  s.key_ttl = snap.effective_key_ttl;
  s.lookup_rtt_p50 = LatencyOf(snap, PdhtSystem::kMetricLookupRttP50);
  s.lookup_rtt_p99 = LatencyOf(snap, PdhtSystem::kMetricLookupRttP99);
  s.lookup_hops_mean = LatencyOf(snap, PdhtSystem::kMetricLookupHopsMean);

  uint64_t h = 1469598103934665603ULL;
  for (const std::string& name : sys.engine().SeriesNames()) {
    if (name.rfind("round.phase.", 0) == 0) continue;  // wall-clock noise
    const std::vector<double>& v = sys.engine().Series(name).values();
    HashBytes(&h, name.data(), name.size());
    HashBytes(&h, v.data(), v.size() * sizeof(double));
  }
  for (const auto& [key, value] : snap.latency) {
    HashBytes(&h, key.data(), key.size());
    HashBytes(&h, &value, sizeof value);
  }
  s.series_hash = h;
  return s;
}

/// Warmup, timed window, probes and the invariant check on a constructed
/// system.  Appends host samples to `host`; returns the simulated stats.
SimStats DriveSystem(PdhtSystem& sys, uint64_t seed, const Budget& b,
                     SpanLog* spans, uint32_t parent, const std::string& run,
                     HostStats* host, std::vector<std::string>* errors) {
  const auto w0 = Clock::now();
  sys.RunRounds(b.warmup_rounds);
  const auto w1 = Clock::now();
  if (spans != nullptr) spans->Add(parent, run, "warmup", w0, w1);

  const pdht::TimeSeries* phase[kNumPhases] = {};
  uint32_t window_span = 0;
  if (spans != nullptr) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      phase[p] = &sys.engine().Series(
          pdht::sim::RoundEngine::PhaseSeriesName(kPhases[p]));
    }
    window_span = spans->Open(parent, run, "window", w1);
  }
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < b.timed_rounds; ++i) {
    const auto a = Clock::now();
    sys.RunRounds(1);
    const auto z = Clock::now();
    host->round_ms.push_back(Millis(a, z));
    if (spans == nullptr) continue;
    // The engine reports each phase's duration, not its start; phase
    // spans are laid end to end from the round start in actor order.
    const uint32_t round = spans->Add(window_span, run, "round", a, z);
    double cursor = spans->Us(a);
    for (size_t p = 0; p < kNumPhases; ++p) {
      const double ms = phase[p]->values().back();
      host->phase_ms.push_back(ms);
      spans->AddUs(round, run, std::string("phase.") + kPhases[p], cursor,
                   cursor + ms * 1e3);
      cursor += ms * 1e3;
    }
  }
  const auto t1 = Clock::now();
  host->window_s += Seconds(t0, t1);
  host->window_rounds += b.timed_rounds;
  host->cpu_s += ProcessCpuSeconds() - cpu0;
  if (spans != nullptr) spans->Close(window_span, t1);

  SimStats s = WindowStats(sys, b.timed_rounds);

  // Closed-loop probes: the next query is issued when the previous one
  // returns.  Keys come from the workload's own popularity law on a
  // stream of the benchmark's, so the system's stream is not consumed.
  pdht::Rng key_rng(seed ^ 0x70726f6265ULL);
  const uint32_t probes_span =
      spans != nullptr ? spans->Open(parent, run, "probes", t1) : 0;
  for (uint64_t j = 0; j < b.probes; ++j) {
    const uint64_t key = sys.workload().SampleKey(key_rng);
    const auto a = Clock::now();
    const pdht::core::QueryOutcome out = sys.ExecuteQuery(key);
    const auto z = Clock::now();
    host->probe_us.push_back(
        std::chrono::duration<double, std::micro>(z - a).count());
    if (spans != nullptr) spans->Add(probes_span, run, "probe", a, z);
    ++s.probes;
    if (out.found) ++s.probes_found;
  }
  if (spans != nullptr) spans->Close(probes_span, Clock::now());

  const pdht::overlay::StructuredOverlay* overlay = sys.dht_overlay();
  const std::string inv =
      overlay == nullptr ? "no DHT overlay" : overlay->CheckInvariants();
  if (!inv.empty()) errors->push_back(run + ": invariants: " + inv);
  return s;
}

RepResult RunSingle(const SystemConfig& config, uint64_t seed,
                    const Budget& b, SpanLog* spans, uint32_t parent,
                    const std::string& run) {
  RepResult r;
  try {
    const auto a = Clock::now();
    PdhtSystem sys(config);
    const auto z = Clock::now();
    r.host.setup_s = Seconds(a, z);
    if (spans != nullptr) spans->Add(parent, run, "setup", a, z);
    r.sim = DriveSystem(sys, seed, b, spans, parent, run, &r.host, &r.errors);
    r.attempted = b.timed_rounds + b.probes;
  } catch (const std::exception& e) {
    r.errors.push_back(run + ": " + e.what());
    r.failed = 1;
    r.attempted = std::max<uint64_t>(r.attempted, 1);
  }
  return r;
}

// --- the sweep ----------------------------------------------------------

struct CellOut {
  SimStats sim;
  HostStats host;
  double hook_s = 0;
  std::vector<std::string> errors;
};

RepResult RunSweep(uint64_t seed, const Budget& b, SpanLog* spans,
                   uint32_t parent) {
  pdht::exp::ExperimentSpec spec;
  spec.name = "sweep_1_14";
  spec.base = SweepBase(seed);
  spec.base.phase_timing = spans != nullptr;
  spec.axes = {
      {"strategy",
       {{"partialTtl",
         [](SystemConfig& c) { c.strategy = Strategy::kPartialTtl; }},
        {"indexAll",
         [](SystemConfig& c) { c.strategy = Strategy::kIndexAll; }}}},
      {"backend", {}}};
  for (pdht::core::DhtBackend be : pdht::overlay::RegisteredBackends()) {
    spec.axes[1].levels.push_back(
        {pdht::core::DhtBackendName(be),
         [be](SystemConfig& c) { c.backend = be; }});
  }
  // Four seeds per grid point, as the paper benches run by default: the
  // grid's wall time then averages several realizations of each cell
  // instead of following one seed's slowest cell.
  spec.seeds_per_cell = kSweepSeedsPerCell;
  const size_t n = spec.NumCells();

  RepResult r;
  // Set-up cost of the grid: the runner constructs each cell inside its
  // worker, out of the benchmark's sight, so the same constructions are
  // timed here, serially, before the sweep.
  const auto s0 = Clock::now();
  const uint32_t setup_span =
      spans != nullptr ? spans->Open(parent, "sweep_1_14", "setup", s0) : 0;
  try {
    for (size_t i = 0; i < n; ++i) {
      const pdht::exp::Cell cell = spec.MakeCell(i);
      const auto a = Clock::now();
      auto sys = std::make_unique<PdhtSystem>(cell.config);
      const auto z = Clock::now();
      r.host.setup_s += Seconds(a, z);
      if (spans != nullptr) {
        spans->Add(setup_span, "sweep_1_14",
                   "construct " + cell.labels[0] + "/" + cell.labels[1] +
                       "/" + std::to_string(cell.seed_index),
                   a, z);
      }
    }
  } catch (const std::exception& e) {
    r.errors.push_back(std::string("sweep setup: ") + e.what());
    r.failed = 1;
  }
  if (spans != nullptr) spans->Close(setup_span, Clock::now());

  std::vector<CellOut> cells(n);
  spec.run = [&](PdhtSystem& sys, const pdht::exp::Cell& cell) {
    const auto a = Clock::now();
    CellOut& out = cells[cell.index];
    const std::string run = "sweep_1_14/" + cell.labels[0] + "/" +
                            cell.labels[1] + "/" +
                            std::to_string(cell.seed_index);
    const uint32_t cell_span =
        spans != nullptr ? spans->Open(parent, run, "cell", a) : 0;
    out.sim = DriveSystem(sys, cell.config.seed, b, spans, cell_span, run,
                          &out.host, &out.errors);
    const auto z = Clock::now();
    out.hook_s = Seconds(a, z);
    if (spans != nullptr) spans->Close(cell_span, z);
  };

  pdht::exp::RunnerOptions options;
  options.threads = kThreads;
  pdht::exp::ParallelRunner runner(options);
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  const std::vector<pdht::exp::CellResult> results = runner.Run(spec);
  const auto t1 = Clock::now();
  r.host.window_s = Seconds(t0, t1);
  r.host.cpu_s = ProcessCpuSeconds() - cpu0;
  r.host.window_rounds = n * (b.warmup_rounds + b.timed_rounds);

  // Fold the cells in index order, so pooled samples and the hash do not
  // depend on the schedule.
  SimStats& s = r.sim;
  uint64_t h = 1469598103934665603ULL;
  double busy_s = 0;
  double msgs_by[2] = {0, 0};
  std::vector<double> cell_msgs[2];
  double ms_by[2] = {0, 0};
  size_t rounds_by[2] = {0, 0};
  for (size_t i = 0; i < n; ++i) {
    if (!results[i].error.empty()) {
      r.errors.push_back("cell " + std::to_string(i) + ": " +
                         results[i].error);
      ++r.failed;
    }
    const CellOut& c = cells[i];
    r.errors.insert(r.errors.end(), c.errors.begin(), c.errors.end());
    const double inv_n = 1.0 / static_cast<double>(n);
    s.hit_rate += c.sim.hit_rate * inv_n;
    s.maint_msgs += c.sim.maint_msgs * inv_n;
    s.dht_msgs += c.sim.dht_msgs * inv_n;
    s.unstructured_msgs += c.sim.unstructured_msgs * inv_n;
    s.replica_msgs += c.sim.replica_msgs * inv_n;
    s.index_keys += c.sim.index_keys * inv_n;
    s.key_ttl += c.sim.key_ttl * inv_n;
    s.probes += c.sim.probes;
    s.probes_found += c.sim.probes_found;
    HashBytes(&h, &c.sim.series_hash, sizeof c.sim.series_hash);

    const int strategy = results[i].labels.empty() ||
                                 results[i].labels[0] == "partialTtl"
                             ? 0
                             : 1;
    msgs_by[strategy] += c.sim.msgs_per_round;
    cell_msgs[strategy].push_back(c.sim.msgs_per_round);
    for (double ms : c.host.round_ms) ms_by[strategy] += ms;
    rounds_by[strategy] += c.host.round_ms.size();
    r.host.round_ms.insert(r.host.round_ms.end(), c.host.round_ms.begin(),
                           c.host.round_ms.end());
    r.host.probe_us.insert(r.host.probe_us.end(), c.host.probe_us.begin(),
                           c.host.probe_us.end());
    r.host.phase_ms.insert(r.host.phase_ms.end(), c.host.phase_ms.begin(),
                           c.host.phase_ms.end());
    busy_s += c.hook_s;
    r.host.cell_s_max = std::max(r.host.cell_s_max, c.hook_s);
  }
  s.series_hash = h;
  // The grid's cost is each strategy's median cell, averaged over the two
  // strategies.  The mean would let one cell set the number: at stor
  // 50 and repl 25 the indexAll preload fills every store, P-Grid's uneven
  // leaves displace ~50 keys, and at seeds where one of them is popular
  // the indexAll/pgrid cell sends 10-20x its usual messages (hit rate 0.77
  // instead of ~0.99).  Such cells still show in hit_rate,
  // core.index_keys and model.indexAll.msgs_err.
  s.msgs_per_round =
      0.5 * (Quantile(cell_msgs[0], 0.5) + Quantile(cell_msgs[1], 0.5));
  r.host.worker_util = busy_s / (kThreads * r.host.window_s);
  r.host.partial_round_ms = ms_by[0] / static_cast<double>(rounds_by[0]);
  r.host.index_all_round_ms = ms_by[1] / static_cast<double>(rounds_by[1]);

  // Accuracy against the analytic model (the repo's only reference):
  // the mean over backends of each strategy's simulated msgs/round.
  const pdht::model::CostModel model(spec.base.params);
  const double f_qry = spec.base.params.f_qry;
  const double per_strategy = static_cast<double>(n) / 2.0;
  const double partial_model = model.TotalPartialIdeal(f_qry);
  const double index_all_model = model.TotalIndexAll(f_qry);
  s.model_err_partial =
      std::abs(msgs_by[0] / per_strategy - partial_model) / partial_model;
  s.model_err_index_all =
      std::abs(msgs_by[1] / per_strategy - index_all_model) /
      index_all_model;

  r.attempted = n * (b.timed_rounds + b.probes);
  return r;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSweep:
      return "sweep_1_14";
    case Workload::kScale100k:
      return "scale_100k";
    case Workload::kOutage5k:
      return "outage_5k";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kSweep, Workload::kScale100k, Workload::kOutage5k}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Budget DefaultBudget(Workload w) {
  switch (w) {
    case Workload::kSweep:
      return {100, 300, 250};
    case Workload::kScale100k:
      return {30, 150, 2000};
    case Workload::kOutage5k:
      return {40, 240, 1000};
  }
  return {};
}

RepResult RunRep(Workload w, uint64_t seed, const Budget& budget,
                 SpanLog* spans, uint32_t parent, uint32_t sim_threads) {
  const uint32_t threads = sim_threads == 0 ? kThreads : sim_threads;
  switch (w) {
    case Workload::kSweep:
      return RunSweep(seed, budget, spans, parent);
    case Workload::kScale100k: {
      SystemConfig c = Scale100k(seed, threads);
      c.phase_timing = spans != nullptr;
      return RunSingle(c, seed, budget, spans, parent, "scale_100k");
    }
    case Workload::kOutage5k: {
      SystemConfig c = Outage5k(seed, threads, budget);
      c.phase_timing = spans != nullptr;
      return RunSingle(c, seed, budget, spans, parent, "outage_5k");
    }
  }
  return {};
}

// --- checks -------------------------------------------------------------

std::string CheckSimRanges(const SimStats& s) {
  std::ostringstream err;
  const double fail = 1.0 - s.found_frac();
  if (!(s.msgs_per_round > 0.0)) {
    err << "msgs_per_round " << s.msgs_per_round << " is not > 0; ";
  }
  if (!(s.hit_rate >= 0.0 && s.hit_rate <= 1.0)) {
    err << "hit_rate " << s.hit_rate << " outside [0,1]; ";
  }
  if (!(fail >= 0.0 && fail <= 1.0)) {
    err << "query_fail_frac " << fail << " outside [0,1]; ";
  }
  return err.str();
}

std::string CheckSameSim(const SimStats& a, const SimStats& b,
                         const std::string& what) {
  // Field-by-field bit comparison (NaN == NaN here: bits, not values).
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"msgs_per_round", {a.msgs_per_round, b.msgs_per_round}},
      {"hit_rate", {a.hit_rate, b.hit_rate}},
      {"lookup_rtt_p50", {a.lookup_rtt_p50, b.lookup_rtt_p50}},
      {"lookup_rtt_p99", {a.lookup_rtt_p99, b.lookup_rtt_p99}},
      {"lookup_hops_mean", {a.lookup_hops_mean, b.lookup_hops_mean}},
      {"maint_msgs", {a.maint_msgs, b.maint_msgs}},
      {"dht_msgs", {a.dht_msgs, b.dht_msgs}},
      {"unstructured_msgs", {a.unstructured_msgs, b.unstructured_msgs}},
      {"replica_msgs", {a.replica_msgs, b.replica_msgs}},
      {"deferred", {a.deferred, b.deferred}},
      {"timeouts", {a.timeouts, b.timeouts}},
      {"failovers", {a.failovers, b.failovers}},
      {"index_keys", {a.index_keys, b.index_keys}},
      {"key_ttl", {a.key_ttl, b.key_ttl}},
      {"model_err_partial", {a.model_err_partial, b.model_err_partial}},
      {"model_err_index_all",
       {a.model_err_index_all, b.model_err_index_all}},
  };
  std::ostringstream err;
  for (const auto& [name, v] : fields) {
    if (!same(v.first, v.second)) {
      err << what << ": " << name << " " << v.first << " != " << v.second
          << "; ";
    }
  }
  if (a.probes != b.probes || a.probes_found != b.probes_found) {
    err << what << ": probes found " << a.probes_found << "/" << a.probes
        << " != " << b.probes_found << "/" << b.probes << "; ";
  }
  if (a.series_hash != b.series_hash) {
    err << what << ": series hash differs; ";
  }
  return err.str();
}

std::string CheckPhaseSums(const std::vector<double>& round_ms,
                           const std::vector<double>& phase_ms) {
  if (phase_ms.size() != round_ms.size() * kNumPhases) {
    return "phase samples (" + std::to_string(phase_ms.size()) +
           ") do not cover the rounds (" + std::to_string(round_ms.size()) +
           ")";
  }
  size_t over = 0;
  for (size_t i = 0; i < round_ms.size(); ++i) {
    double sum = 0.0;
    for (size_t p = 0; p < kNumPhases; ++p) {
      sum += phase_ms[i * kNumPhases + p];
    }
    if (sum > round_ms[i] + 1e-9) ++over;
  }
  if (over == 0) return "";
  return std::to_string(over) + " of " + std::to_string(round_ms.size()) +
         " rounds have phases summing past their round span";
}

std::string CheckTailSamples(const std::vector<double>& samples,
                             size_t min_beyond) {
  const double p95 = Quantile(samples, 0.95);
  const size_t beyond = static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [p95](double v) { return v > p95; }));
  if (beyond >= min_beyond) return "";
  return "only " + std::to_string(beyond) + " of " +
         std::to_string(samples.size()) + " samples lie beyond the p95";
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& header) const {
  std::ofstream f(path);
  if (!f) return false;
  f.precision(17);
  f << "{\"host\": " << header << ",\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"run\": \"" << s.run << "\", \"name\": \"" << s.name
      << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
      << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
