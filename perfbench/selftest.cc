// The benchmark's own tests, at a small budget:
//  * scale_100k and outage_5k give identical simulated statistics at 2 and
//    4 sim threads;
//  * every output check passes on a real run and trips on its negative
//    control (changed seed, no traffic, misattributed phases, too few
//    samples, a corrupted overlay), so no gate passes by construction.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "net/network.h"
#include "overlay/structured_overlay.h"
#include "stats/counter.h"
#include "util/rng.h"

namespace perfbench {
namespace {

int failures = 0;

/// A check on a real run must pass (empty message).
void ExpectPass(const std::string& what, const std::string& err) {
  std::printf("%-58s %s\n", what.c_str(), err.empty() ? "PASS" : "FAIL");
  if (!err.empty()) {
    std::printf("    %s\n", err.c_str());
    ++failures;
  }
}

/// The same check on its negative control must trip (non-empty message).
void ExpectTrip(const std::string& what, const std::string& err) {
  std::printf("%-58s %s\n", what.c_str(),
              err.empty() ? "FAIL (did not trip)" : "PASS (tripped)");
  if (err.empty()) {
    ++failures;
  } else {
    std::printf("    %.200s\n", err.c_str());
  }
}

/// Small budgets: enough rounds to cross outage_5k's outage window.
Budget Small(Workload w) {
  return w == Workload::kOutage5k ? Budget{8, 32, 100} : Budget{5, 20, 200};
}

std::string Errors(const RepResult& r) {
  std::string all;
  for (const auto& e : r.errors) all += e + "; ";
  return all;
}

}  // namespace

int RunSelfTest() {
  constexpr uint64_t kSeed = 7;
  for (Workload w : {Workload::kScale100k, Workload::kOutage5k}) {
    const std::string name = WorkloadName(w);
    const Budget b = Small(w);
    const RepResult two = RunRep(w, kSeed, b, nullptr, 0, 2);
    const RepResult four = RunRep(w, kSeed, b, nullptr, 0, 4);
    const RepResult other_seed = RunRep(w, kSeed + 1, b, nullptr, 0, 4);
    ExpectPass(name + ": rep errors and invariants",
               Errors(two) + Errors(four));
    ExpectPass(name + ": identical at 2 and 4 sim threads",
               CheckSameSim(two.sim, four.sim, "2 vs 4 threads"));
    ExpectTrip(name + ": ... negative control, changed seed",
               CheckSameSim(other_seed.sim, four.sim, "seed+1 vs seed"));
    ExpectPass(name + ": sim ranges", CheckSimRanges(four.sim));

    SpanLog spans(Clock::now());
    const RepResult traced = RunRep(w, kSeed, b, &spans, 0, 4);
    ExpectPass(name + ": traced == untraced",
               CheckSameSim(four.sim, traced.sim, "traced vs untraced"));
    ExpectTrip(name + ": ... negative control, changed seed",
               CheckSameSim(other_seed.sim, traced.sim, "seed+1 traced"));
    ExpectPass(name + ": phases fit their round span",
               CheckPhaseSums(traced.host.round_ms, traced.host.phase_ms));
    // Negative control: charge round i+1's phases to round i as well.
    std::vector<double> misattributed;
    std::vector<double> rounds = traced.host.round_ms;
    rounds.pop_back();
    for (size_t i = 0; i + 1 < traced.host.round_ms.size(); ++i) {
      for (size_t p = 0; p < kNumPhases; ++p) {
        misattributed.push_back(traced.host.phase_ms[i * kNumPhases + p] +
                                traced.host.phase_ms[(i + 1) * kNumPhases + p]);
      }
    }
    ExpectTrip(name + ": ... negative control, two rounds' phases",
               CheckPhaseSums(rounds, misattributed));
    ExpectTrip(name + ": tail samples, negative control (20 rounds)",
               CheckTailSamples(four.host.round_ms, 10));
  }

  // No traffic: zero rounds and zero probes must not pass as a result.
  const RepResult idle =
      RunRep(Workload::kOutage5k, kSeed, Budget{0, 0, 0}, nullptr, 0);
  ExpectTrip("sim ranges, negative control (no traffic)",
             CheckSimRanges(idle.sim));

  // Invariants: every rep above ran CheckInvariants on its overlay; here
  // the same call must flag a ring with a duplicated member.
  pdht::CounterRegistry counters;
  pdht::net::Network net(&counters);
  for (uint32_t p = 0; p < 8; ++p) net.SetOnline(p, true);
  pdht::overlay::OverlayParams op;
  op.repl = 2;
  op.num_peers = 8;
  auto chord = pdht::overlay::MakeOverlay(pdht::core::DhtBackend::kChord,
                                          &net, op, pdht::Rng(1));
  chord->SetMembers({0, 1, 2, 3});
  ExpectPass("invariants on a well-formed ring", chord->CheckInvariants());
  chord->SetMembers({0, 1, 2, 2, 3});
  ExpectTrip("invariants, negative control (duplicated member)",
             chord->CheckInvariants());

  std::printf("selftest: %s (%d failure%s)\n", failures == 0 ? "OK" : "FAILED",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
