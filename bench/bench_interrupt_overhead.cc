// Cancellation overhead and deadline tightness for the interrupt
// subsystem (core/interrupt.h).
//
// Claims demonstrated:
//  1. Poll overhead: arming a deadline that never fires (10 minutes out)
//     costs <= 2% over the same decision with no deadline at all, on the
//     exhaustive E-P3 rows. Poll sites are one relaxed atomic load on
//     the hot path and a clock read every kPollStride calls, and with
//     failpoints compiled in but unarmed each site adds one more relaxed
//     load — all of it fits inside the gate.
//  2. Outcome parity: answers, candidate counts and witnesses are
//     identical with and without the armed-but-unfired deadline —
//     cancellation machinery never changes results.
//  3. Deadline tightness: a decision whose budgets would run for minutes
//     returns within deadline * 1.1 + 5ms once deadline_ms is set, and
//     reports strategy deadline-exceeded.
//
// `--gate` exits non-zero when a gated row misses its bound (CI wires
// this into the tier-1 job). Self-timed; pass --json to emit
// BENCH_interrupt_overhead.json via bench_util's JsonReport.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The exhaustive E-P3 rows of bench_witness_pipeline / bench_obs_overhead:
/// cyclic cores in the NO-input regime, budgets above the space size, so
/// every rep sweeps the identical candidate space through every poll site.
struct Workload {
  std::string name;
  ConjunctiveQuery q;
  DependencySet sigma;
  acyclic::AcyclicityClass target;
  size_t max_atoms;
  size_t budget;
};

std::vector<Workload> Workloads() {
  Generator gen(3);
  DependencySet copy = MustParseDependencySet("E(x,y) -> F(x,y).");
  DependencySet chain =
      MustParseDependencySet("E(x,y) -> F(x,y). F(x,y) -> G(x,y).");
  auto spread_head = [](const ConjunctiveQuery& q, size_t stride) {
    std::vector<Term> head;
    for (size_t i = 0; i < 4; ++i) head.push_back(q.body()[i * stride].arg(0));
    return ConjunctiveQuery(head, q.body());
  };
  ConjunctiveQuery k4bool({}, gen.CliqueQuery(4).body());
  ConjunctiveQuery k4 = spread_head(gen.CliqueQuery(4), 3);
  ConjunctiveQuery c6 = gen.CycleQuery(6);
  std::vector<Workload> out;
  out.push_back({"exhaustive-alpha-c6", c6, chain,
                 acyclic::AcyclicityClass::kAlpha, 4, 1u << 30});
  out.push_back({"exhaustive-beta-k4", k4bool, copy,
                 acyclic::AcyclicityClass::kBeta, 4, 1u << 30});
  out.push_back({"exhaustive-alpha-k4", k4, copy,
                 acyclic::AcyclicityClass::kAlpha, 4, 1u << 30});
  return out;
}

SemAcOptions PipelineOptions(const Workload& w, int64_t deadline_ms) {
  SemAcOptions options;
  options.target_class = w.target;
  options.witness_atoms_cap = w.max_atoms;
  options.exhaustive_budget = w.budget;
  options.enable_images = false;
  options.enable_subsets = false;
  options.deadline_ms = deadline_ms;
  return options;
}

struct Run {
  double ms = -1;
  SemAcAnswer answer = SemAcAnswer::kUnknown;
  Strategy strategy = Strategy::kNone;
  size_t candidates = 0;
  std::optional<ConjunctiveQuery> witness;
};

/// Engine::Decide with a fixed deadline configuration. The decision cache
/// is emptied before every rep (outside the timed region), so every timed
/// rep runs the whole pipeline (the per-decision chase and oracle builds
/// included) and its poll sites. One untimed rep warms up first.
class Runner {
 public:
  Runner(const Workload& w, int64_t deadline_ms)
      : engine_(w.sigma, PipelineOptions(w, deadline_ms)),
        pq_(engine_.Prepare(w.q)) {
    engine_.Decide(pq_);
  }

  void Once(Run* run) {
    // Reps must recompute the decision, not serve it from the cache.
    engine_.TrimCaches();
    auto start = Clock::now();
    SemAcResult result = engine_.Decide(pq_);
    double ms = MillisSince(start);
    if (run->ms < 0 || ms < run->ms) run->ms = ms;
    run->answer = result.answer;
    run->strategy = result.strategy;
    run->candidates = result.candidates_tested;
    run->witness = result.witness;
  }

 private:
  Engine engine_;
  PreparedQuery pq_;
};

/// Interleaved rounds keep per-variant bests, so systemic drift hits both
/// variants of a round equally instead of skewing whichever ran last.
void Measure(const Workload& w, int rounds, Run* off, Run* armed) {
  // 10 minutes: far beyond any row, so the deadline arms every poll site
  // (token checks + clock reads) without ever firing.
  Runner off_runner(w, /*deadline_ms=*/0);
  Runner armed_runner(w, /*deadline_ms=*/600000);
  off->ms = armed->ms = -1;
  for (int r = 0; r < rounds; ++r) {
    off_runner.Once(off);
    armed_runner.Once(armed);
  }
}

bool Parity(const Run& a, const Run& b) {
  return a.answer == b.answer && a.strategy == b.strategy &&
         a.candidates == b.candidates &&
         a.witness.has_value() == b.witness.has_value() &&
         (!a.witness.has_value() || *a.witness == *b.witness);
}

/// A row fails its gate only when both the relative bound and an
/// absolute 5ms floor are exceeded — the same floor the CI bench-diff
/// uses, because shared hardware jitters fast rows by several ms even
/// best-of-N.
bool OverGate(double ms, double base_ms, double factor) {
  return ms > base_ms * factor && ms - base_ms > 5.0;
}

int OverheadSection(bench::JsonReport* report, bool gate) {
  bench::Banner(
      "R-P1 - cancellation poll overhead on the exhaustive E-P3 rows",
      "poll sites are a relaxed atomic load (clock every 64th call) and "
      "unarmed failpoints one more relaxed load, so a never-firing "
      "deadline costs <= 2% over no deadline at all");
  bench::Table table({"workload", "off ms", "armed ms", "overhead +%",
                      "cand", "parity"});
  int failures = 0;
  for (const Workload& w : Workloads()) {
    Run off, armed;
    Measure(w, /*rounds=*/5, &off, &armed);
    bool ok = !OverGate(armed.ms, off.ms, 1.02);
    if (!ok) {
      // A noisy first pass is far more likely than real 2%+ overhead;
      // re-measure once with more rounds before declaring failure.
      Measure(w, /*rounds=*/9, &off, &armed);
      ok = !OverGate(armed.ms, off.ms, 1.02);
    }
    double pct = (armed.ms / off.ms - 1.0) * 100.0;
    bool parity = Parity(off, armed);
    table.AddRow({w.name, std::to_string(off.ms), std::to_string(armed.ms),
                  std::to_string(pct), std::to_string(off.candidates),
                  parity ? "identical" : "MISMATCH"});
    report->AddRow(
        "overhead",
        {{"workload", bench::JsonReport::Str(w.name)},
         {"off_ms", bench::JsonReport::Num(off.ms)},
         {"armed_ms", bench::JsonReport::Num(armed.ms)},
         {"overhead_pct", bench::JsonReport::Num(pct)},
         {"candidates",
          bench::JsonReport::Num(static_cast<double>(off.candidates))},
         {"parity", parity ? "true" : "false"}});
    if (!ok) {
      std::printf("*** poll overhead gate missed on %s: %+.2f%%\n",
                  w.name.c_str(), pct);
      ++failures;
    }
    if (!parity) {
      std::printf("*** outcome parity BROKEN on %s\n", w.name.c_str());
      ++failures;
    }
  }
  table.Print();
  return gate ? failures : 0;
}

int TightnessSection(bench::JsonReport* report, bool gate) {
  bench::Banner(
      "R-P2 - deadline tightness on a minutes-scale decision",
      "an elapsed deadline aborts at the next poll point, so a decision "
      "whose budgets would run for minutes returns within deadline * 1.1 "
      "+ 5ms and reports deadline-exceeded");
  // Near-unbounded enumeration budgets on a heavy cyclic query: without
  // the deadline this decision grinds through ~10^9 DFS visits.
  Generator gen(3);
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  ConjunctiveQuery q = gen.CycleQuery(6);
  bench::Table table(
      {"deadline ms", "elapsed ms", "bound ms", "strategy", "within"});
  int failures = 0;
  for (int64_t deadline_ms : {int64_t{10}, int64_t{25}, int64_t{50}}) {
    SemAcOptions options;
    options.subset_budget = size_t{1} << 30;
    options.exhaustive_budget = size_t{1} << 30;
    options.deadline_ms = deadline_ms;
    Engine engine(sigma, options);
    PreparedQuery pq = engine.Prepare(q);
    double best = -1;
    Strategy strategy = Strategy::kNone;
    // Aborted decisions are never cached, so every rep re-runs; keep the
    // best elapsed (scheduler hiccups only ever make a rep slower).
    for (int rep = 0; rep < 3; ++rep) {
      auto start = Clock::now();
      SemAcResult r = engine.Decide(pq);
      double ms = MillisSince(start);
      if (best < 0 || ms < best) best = ms;
      strategy = r.strategy;
    }
    double bound = static_cast<double>(deadline_ms) * 1.1 + 5.0;
    bool aborted = strategy == Strategy::kDeadlineExceeded;
    bool within = best <= bound;
    table.AddRow({std::to_string(deadline_ms), std::to_string(best),
                  std::to_string(bound), ToString(strategy),
                  within ? "yes" : "NO"});
    report->AddRow(
        "tightness",
        {{"deadline_ms",
          bench::JsonReport::Num(static_cast<double>(deadline_ms))},
         {"elapsed_ms", bench::JsonReport::Num(best)},
         {"bound_ms", bench::JsonReport::Num(bound)},
         {"strategy", bench::JsonReport::Str(ToString(strategy))},
         {"within", within ? "true" : "false"}});
    if (!aborted) {
      std::printf("*** deadline did not abort the %lldms row\n",
                  static_cast<long long>(deadline_ms));
      ++failures;
    }
    if (!within) {
      std::printf("*** tightness gate missed: %.2fms > %.2fms bound\n", best,
                  bound);
      ++failures;
    }
  }
  table.Print();
  return gate ? failures : 0;
}

}  // namespace
}  // namespace semacyc

int main(int argc, char** argv) {
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate") gate = true;
  }
  semacyc::bench::JsonReport report(argc, argv, "interrupt_overhead");
  int failures = semacyc::OverheadSection(&report, gate) +
                 semacyc::TightnessSection(&report, gate);
  return failures == 0 ? 0 : 1;
}
