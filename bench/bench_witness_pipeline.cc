// Absolute rows for the witness-search pipeline and its parallel form.
//
// Sections:
//  E-P1  every workload through its strategy's one per-candidate pipeline
//        (push/pop classification with hereditary pruning, incremental
//        candidate-key dedup, prefiltering oracle): best-of-3 ms, DFS
//        visits, candidates tested and prefilter rejections per row.
//        Under --gate every row's work counts must equal the committed
//        ones.
//  E-P3  the exhaustive rows best-of-3 with the incremental chase-
//        homomorphism session split (pushes, domain wipeouts, repairs and
//        the candidate tuples they tried, and the argument choices the
//        DFS skipped on the session's column masks before any push), the
//        classifier's alpha verdicts by route (bitset GYO run or
//        inherited across an ear push) and the heap allocations per DFS
//        visit, counted like E-P6's. Under
//        --gate every row's deterministic work counts but the repair ones
//        must equal the committed ones, and a row whose allocations per
//        visit rise above its committed ceiling fails.
//  E-P4  the exhaustive strategy on 1 vs 2 and 4 work-stealing workers at
//        identical budgets: bitwise outcome parity on every row, >= 2x at
//        4 threads on the long exhaustive-alpha-k4 row, best-of-5 per side
//        over interleaved rounds. Gated (--gate). Per distinct key and
//        thread count it also reports oracle calls and shared NO-set lock
//        acquisitions (not gated).
//  E-P2  the worklist gamma decider on 1k/5k-atom Berge trees and a
//        5k-edge path: single-digit milliseconds, verdict gamma-acyclic.
//  E-P6  one containment-oracle call (ContainedInQ) on a fixed candidate
//        per decide-hard schema class and on the chase-free path: ns per
//        call (best of 5 rounds) and heap allocations per call, counted by
//        this binary's replacement of the global operator new. Under
//        --gate a row whose allocations rise above its committed ceiling
//        fails; the count is deterministic, the time is reported only.
//        (E-P5 is reserved for decision yield.)
//
// The E-P1/E-P3/E-P2 rows are absolute numbers for the CI regression diff
// (scripts/bench_diff.py). The speedups of the retired baselines (legacy
// per-candidate pipeline, full per-push homomorphism re-search,
// round-based gamma fixpoint) are recorded in CHANGES.md.
//
// Self-timed (no google-benchmark dependency); pass --json to emit
// BENCH_witness_pipeline.json via bench_util's JsonReport.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "acyclic/gamma.h"
#include "bench_util.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/witness_search.h"

namespace {
/// Heap allocations made by this thread (E-P3, E-P6). Thread-local, so
/// the E-P4 workers never contend on it.
thread_local uint64_t t_allocations = 0;
}  // namespace

// The replaced global allocation functions behind the E-P3 and E-P6
// counts; the array and nothrow forms forward here.
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace semacyc {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Best-of-`reps` wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(int reps, Fn&& fn) {
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    fn();
    double ms = MillisSince(start);
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

enum class Kind { kSubsets, kExhaustive };

struct Workload {
  std::string name;
  Kind kind;
  ConjunctiveQuery q;
  DependencySet sigma;
  acyclic::AcyclicityClass target;
  size_t max_atoms;
  size_t budget;
};

/// The decider's NO-input regime: cyclic cores where no candidate is a
/// witness and the strategies sweep their whole space. Budgets are set
/// above the space size so every row but the guarded one exhausts it: the
/// measured cost is the per-visit pipeline plus the oracle over the
/// distinct-candidate set, with hereditary pruning skipping subtrees that
/// can never produce a candidate. Cliques give
/// the chase dense cyclic substructure (every triangle is a β- and
/// γ-violation, every repeated vertex pair a Berge one) so pruning has
/// real work to cut; the 4-variable heads exercise the required-term
/// coverage path that dominates realistic non-Boolean searches.
std::vector<Workload> Workloads() {
  Generator gen(3);
  DependencySet copy = MustParseDependencySet("E(x,y) -> F(x,y).");
  DependencySet chain =
      MustParseDependencySet("E(x,y) -> F(x,y). F(x,y) -> G(x,y).");
  // Head = four spread-out query variables: candidates must cover all
  // four, which most small subsets fail.
  auto spread_head = [](const ConjunctiveQuery& q, size_t stride) {
    std::vector<Term> head;
    for (size_t i = 0; i < 4; ++i) head.push_back(q.body()[i * stride].arg(0));
    return ConjunctiveQuery(head, q.body());
  };
  // CycleQuery body i starts at x_i; CliqueQuery on n vertices emits n-1
  // atoms per source vertex, so stride n-1 walks the distinct sources.
  ConjunctiveQuery c8 = spread_head(gen.CycleQuery(8), 2);
  ConjunctiveQuery k5 = spread_head(gen.CliqueQuery(5), 4);
  ConjunctiveQuery k4 = spread_head(gen.CliqueQuery(4), 3);
  // Boolean K4: isomorphism dedup collapses the clique's symmetric
  // subsets, keeping the oracle share small.
  ConjunctiveQuery k4bool({}, gen.CliqueQuery(4).body());
  std::vector<Workload> out;
  out.push_back({"subsets-alpha-c8", Kind::kSubsets, c8, chain,
                 acyclic::AcyclicityClass::kAlpha, 5, 1u << 30});
  out.push_back({"subsets-beta-k4", Kind::kSubsets, k4bool, copy,
                 acyclic::AcyclicityClass::kBeta, 6, 1u << 30});
  out.push_back({"subsets-gamma-k4", Kind::kSubsets, k4bool, copy,
                 acyclic::AcyclicityClass::kGamma, 6, 1u << 30});
  out.push_back({"subsets-berge-k5", Kind::kSubsets, k5, copy,
                 acyclic::AcyclicityClass::kBerge, 5, 1u << 30});
  ConjunctiveQuery c6b = gen.CycleQuery(6);
  out.push_back({"exhaustive-alpha-c6", Kind::kExhaustive, c6b, chain,
                 acyclic::AcyclicityClass::kAlpha, 4, 1u << 30});
  out.push_back({"exhaustive-beta-k4", Kind::kExhaustive, k4bool, copy,
                 acyclic::AcyclicityClass::kBeta, 4, 1u << 30});
  out.push_back({"exhaustive-berge-k4", Kind::kExhaustive, k4bool, copy,
                 acyclic::AcyclicityClass::kBerge, 4, 1u << 30});
  out.push_back({"exhaustive-alpha-k4", Kind::kExhaustive, k4, copy,
                 acyclic::AcyclicityClass::kAlpha, 4, 1u << 30});
  // Every term of the rows above sits in every column of the chase, so
  // the argument forward check never fires there. Here it does: a
  // decide-hard pool query under its guarded schema, whose tgd puts fresh
  // nulls in E only, at that workload's exhaustive budget (10,000 visits;
  // the row stops on it) and the decision's small-query bound (6 atoms).
  out.push_back({"exhaustive-alpha-guarded", Kind::kExhaustive,
                 MustParseQuery("T(x0,x2), E(x2,x1), E(x0,x1)"),
                 MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)."),
                 acyclic::AcyclicityClass::kAlpha, 6, 10000});
  return out;
}

/// One strategy run, witness included so parity can compare outcomes
/// field by field.
struct StrategyRun {
  double ms = 0;
  WitnessSearchOutcome outcome;
  size_t prefiltered = 0;
};

/// One chase and oracle for w's strategy, timed over repeated runs (best
/// time kept). Concurrent workers share the oracle, which takes no lock.
class StrategyRunner {
 public:
  explicit StrategyRunner(const Workload& w)
      : w_(w),
        chase_(ChaseQuery(w.q, w.sigma, chase_options_)),
        oracle_(w.q, w.sigma, chase_options_, rewrite_options_,
                SchemaFacts::Compute(w.sigma), &metrics_) {
    run_.ms = -1;
  }

  void Once(size_t threads) {
    const size_t prefiltered =
        metrics_.Count(obs::Counter::kOraclePrefiltered);
    auto start = Clock::now();
    run_.outcome =
        w_.kind == Kind::kSubsets
            ? FindWitnessInChaseSubsets(chase_, oracle_, w_.max_atoms,
                                        w_.budget, threads, w_.target)
            : ExhaustiveWitnessSearch(w_.q, w_.sigma, chase_, oracle_,
                                      w_.max_atoms, w_.budget, threads,
                                      w_.target);
    double ms = MillisSince(start);
    if (run_.ms < 0 || ms < run_.ms) run_.ms = ms;
    run_.prefiltered =
        metrics_.Count(obs::Counter::kOraclePrefiltered) - prefiltered;
  }

  const StrategyRun& run() const { return run_; }

 private:
  const Workload& w_;
  ChaseOptions chase_options_;
  RewriteOptions rewrite_options_;
  QueryChaseResult chase_;
  obs::MetricsRegistry metrics_{{}, {}};
  ContainmentOracle oracle_;
  StrategyRun run_;
};

/// Runs w's strategy `reps` times on `threads` workers (best time kept).
StrategyRun RunStrategy(const Workload& w, int reps, size_t threads = 1) {
  StrategyRunner runner(w);
  for (int r = 0; r < reps; ++r) runner.Once(threads);
  return runner.run();
}

double Count(size_t n) { return static_cast<double>(n); }

/// E-P1's committed work counts, noise-free like E-P3's.
struct PinnedWitnessCounts {
  const char* workload;
  size_t visits, candidates, prefiltered;
};
constexpr PinnedWitnessCounts kPinnedWitnessCounts[] = {
    {"subsets-alpha-c8", 71057, 14256, 1792},
    {"subsets-beta-k4", 61012, 1452, 36},
    {"subsets-gamma-k4", 61012, 1452, 36},
    {"subsets-berge-k5", 88205, 34992, 2380},
    {"exhaustive-alpha-c6", 7224, 3403, 726},
    {"exhaustive-beta-k4", 2636, 1008, 83},
    {"exhaustive-berge-k4", 1741, 616, 62},
    {"exhaustive-alpha-k4", 607719, 109072, 6789},
    {"exhaustive-alpha-guarded", 10001, 2115, 403},
};

/// Returns the number of rows whose work counts moved (0 when not gating).
int WitnessRows(bench::JsonReport* report, bool gate) {
  bench::Banner(
      "E-P1 - witness search, one per-candidate pipeline per strategy",
      "push/pop classification, hereditary pruning, incremental key dedup "
      "and a prefiltering containment oracle; best-of-3 absolute rows, "
      "work counts pinned under --gate");
  bench::Table table({"workload", "ms", "visits", "cand", "prefiltered",
                      "answer"});
  double total_ms = 0;
  int failures = 0;
  for (const Workload& w : Workloads()) {
    // Best-of-3: one-shot times of one binary can differ by more than
    // half from run to run.
    StrategyRun run = RunStrategy(w, 3);
    const WitnessSearchOutcome& o = run.outcome;
    total_ms += run.ms;
    table.AddRow({w.name, std::to_string(run.ms), std::to_string(o.visits),
                  std::to_string(o.candidates_tested),
                  std::to_string(run.prefiltered),
                  std::string(ToString(o.answer))});
    report->AddRow("witness",
                   {{"workload", bench::JsonReport::Str(w.name)},
                    {"ms", bench::JsonReport::Num(run.ms)},
                    {"budget", bench::JsonReport::Num(Count(w.budget))},
                    {"visits", bench::JsonReport::Num(Count(o.visits))},
                    {"candidates",
                     bench::JsonReport::Num(Count(o.candidates_tested))},
                    {"prefiltered",
                     bench::JsonReport::Num(Count(run.prefiltered))},
                    {"exhausted", o.exhausted ? "true" : "false"}});
    if (!o.exhausted && o.visits < w.budget) {
      std::printf("*** %s did not exhaust its search space\n",
                  w.name.c_str());
    }
    for (const PinnedWitnessCounts& pin : kPinnedWitnessCounts) {
      if (w.name != pin.workload) continue;
      if (o.visits == pin.visits && o.candidates_tested == pin.candidates &&
          run.prefiltered == pin.prefiltered) {
        continue;
      }
      std::printf(
          "*** %s work counts moved: visits %zu (pinned %zu), candidates "
          "%zu (%zu), prefiltered %zu (%zu)\n",
          pin.workload, o.visits, pin.visits, o.candidates_tested,
          pin.candidates, run.prefiltered, pin.prefiltered);
      if (gate) ++failures;
    }
  }
  table.Print();
  std::printf("total wall clock across all workloads: %.1f ms\n", total_ms);
  report->AddRow("witness_total", {{"ms", bench::JsonReport::Num(total_ms)}});
  return failures;
}

/// E-P3's committed work counts. They are noise-free, so any difference is
/// a change in what the search does, not in how fast. `repairs` and
/// `repair_steps` are left out: they depend on which homomorphism a
/// successful repair adopts.
/// `max_allocations` is the ceiling on heap allocations per visit of one
/// single-threaded run (the last of the three, so the thread-local
/// oracle scratch is warm): deterministic too. It is per chased
/// candidate (the atoms of the oracle's chase) or per run (the plan, the
/// sessions, the dedup tables' growth); a DFS push allocates nothing, and
/// a candidate reaches the oracle as views, unbuilt. The guarded row's
/// ceiling is the oracle's: it chases about one candidate per five
/// visits, at eight allocations each (E-P6's guarded row).
/// `arg_prunes` is the argument choices the DFS skipped on the column
/// masks before any push (choices the canonical-growth order rules out
/// first are not tried, so not counted); the clique and cycle rows, whose
/// every chase term sits in every column, never skip one. `gyo_runs` and
/// `inherited` are the classifier's α verdicts by route: a bitset GYO run,
/// or the verdict below an ear push (0 for the β and Berge rows).
struct PinnedHomCounts {
  const char* workload;
  size_t visits, candidates, pushes, wipeouts, repair_fails, arg_prunes;
  size_t gyo_runs, inherited;
  double max_allocations;
};
constexpr PinnedHomCounts kPinnedHomCounts[] = {
    {"exhaustive-alpha-k4", 607719, 109072, 711084, 103366, 0, 0, 93020,
     22404, 0.02},
    {"exhaustive-alpha-c6", 7224, 3403, 11858, 2199, 2436, 0, 531, 2958,
     0.10},
    {"exhaustive-beta-k4", 2636, 1008, 3371, 736, 0, 0, 0, 0, 0.17},
    {"exhaustive-berge-k4", 1741, 616, 2298, 558, 0, 0, 0, 0, 0.26},
    {"exhaustive-alpha-guarded", 10001, 2115, 15018, 2338, 2680, 12873,
     1180, 2785, 1.92},
};

/// Returns the number of rows whose work counts moved (0 when not gating).
int HomRows(bench::JsonReport* report, bool gate) {
  bench::Banner(
      "E-P3 - exhaustive rows with the incremental chase-homomorphism split",
      "core/incremental_hom keeps candidate domains + a witness along the "
      "DFS path (forward checking, witness extension, indexed repair); "
      "best-of-3 absolute rows, work counts and allocations per visit "
      "gated under --gate");
  bench::Table table({"workload", "ms", "visits", "cand", "pushes",
                      "wipeouts", "repairs", "repair fails",
                      "repair steps", "arg prunes", "gyo runs",
                      "inherited", "allocs/visit", "ceiling"});
  int failures = 0;
  for (const Workload& w : Workloads()) {
    if (w.kind != Kind::kExhaustive) continue;
    // Best-of-3: the small rows finish in single-digit milliseconds, where
    // one-shot timing is noise-bound. One thread, so every allocation of
    // the search lands in this thread's count.
    StrategyRunner runner(w);
    uint64_t allocations = 0;
    for (int r = 0; r < 3; ++r) {
      const uint64_t before = t_allocations;
      runner.Once(1);
      allocations = t_allocations - before;
    }
    const StrategyRun& run = runner.run();
    const WitnessSearchOutcome& o = run.outcome;
    const double per_visit =
        static_cast<double>(allocations) / Count(std::max<size_t>(o.visits, 1));
    double ceiling = 0;
    for (const PinnedHomCounts& pin : kPinnedHomCounts) {
      if (w.name == pin.workload) ceiling = pin.max_allocations;
    }
    char allocs[32], ceiling_text[32];
    std::snprintf(allocs, sizeof(allocs), "%.3f", per_visit);
    std::snprintf(ceiling_text, sizeof(ceiling_text), "%.3f", ceiling);
    table.AddRow({w.name, std::to_string(run.ms), std::to_string(o.visits),
                  std::to_string(o.candidates_tested),
                  std::to_string(o.hom.pushes),
                  std::to_string(o.hom.fc_rejects),
                  std::to_string(o.hom.repairs),
                  std::to_string(o.hom.repair_fails),
                  std::to_string(o.hom.repair_steps),
                  std::to_string(o.hom.arg_prunes),
                  std::to_string(o.alpha_gyo_runs),
                  std::to_string(o.alpha_inherited), allocs, ceiling_text});
    report->AddRow(
        "hom",
        {{"workload", bench::JsonReport::Str(w.name)},
         {"ms", bench::JsonReport::Num(run.ms)},
         {"budget", bench::JsonReport::Num(Count(w.budget))},
         {"visits", bench::JsonReport::Num(Count(o.visits))},
         {"candidates", bench::JsonReport::Num(Count(o.candidates_tested))},
         {"hom_pushes", bench::JsonReport::Num(Count(o.hom.pushes))},
         {"hom_wipeouts", bench::JsonReport::Num(Count(o.hom.fc_rejects))},
         {"hom_repairs", bench::JsonReport::Num(Count(o.hom.repairs))},
         {"hom_repair_fails",
          bench::JsonReport::Num(Count(o.hom.repair_fails))},
         {"hom_repair_steps",
          bench::JsonReport::Num(Count(o.hom.repair_steps))},
         {"arg_prunes", bench::JsonReport::Num(Count(o.hom.arg_prunes))},
         {"alpha_gyo_runs", bench::JsonReport::Num(Count(o.alpha_gyo_runs))},
         {"alpha_inherited",
          bench::JsonReport::Num(Count(o.alpha_inherited))},
         {"allocations_per_visit", bench::JsonReport::Num(per_visit)},
         {"allocation_ceiling", bench::JsonReport::Num(ceiling)}});
    if (per_visit > ceiling) {
      std::printf("*** %s allocates %.3f times per visit, above its "
                  "ceiling of %.3f\n",
                  w.name.c_str(), per_visit, ceiling);
      if (gate) ++failures;
    }
    for (const PinnedHomCounts& pin : kPinnedHomCounts) {
      if (w.name != pin.workload) continue;
      if (o.visits == pin.visits && o.candidates_tested == pin.candidates &&
          o.hom.pushes == pin.pushes && o.hom.fc_rejects == pin.wipeouts &&
          o.hom.repair_fails == pin.repair_fails &&
          o.hom.arg_prunes == pin.arg_prunes &&
          o.alpha_gyo_runs == pin.gyo_runs &&
          o.alpha_inherited == pin.inherited) {
        continue;
      }
      std::printf(
          "*** %s work counts moved: visits %zu (pinned %zu), candidates "
          "%zu (%zu), pushes %zu (%zu), wipeouts %zu (%zu), repair fails "
          "%zu (%zu), arg prunes %zu (%zu), gyo runs %zu (%zu), inherited "
          "%zu (%zu)\n",
          pin.workload, o.visits, pin.visits, o.candidates_tested,
          pin.candidates, o.hom.pushes, pin.pushes, o.hom.fc_rejects,
          pin.wipeouts, o.hom.repair_fails, pin.repair_fails,
          o.hom.arg_prunes, pin.arg_prunes, o.alpha_gyo_runs, pin.gyo_runs,
          o.alpha_inherited, pin.inherited);
      if (gate) ++failures;
    }
  }
  table.Print();
  return failures;
}

/// One E-P6 row: a candidate body tested against q under Σ, with the
/// committed ceiling on its heap allocations per call.
struct OracleCase {
  const char* name;
  const char* sigma;
  const char* q;
  const char* candidate;
  double max_allocations;
};
/// q is a decide-hard pool query of the schema's class; the candidate is
/// a 4-atom body whose chase fires (merges, for the key). The chase-free
/// row's Σ never derives an atom over q's predicate. The ceilings are one
/// allocation per chase atom (each atom's argument vector: 8 for the
/// guarded row, 5 for nr and sticky), plus, for the key, the atoms its
/// merge rewrites, the rebuilt atom list and the merge map's entry and
/// table (9).
constexpr OracleCase kOracleCases[] = {
    {"guarded", "T(x,y) -> E(y,z), E(z,x).",
     "E(x0,x3), T(x3,x2), T(x1,x3), E(x0,x2)",
     "E(x0,x3), T(x3,x2), T(x1,x3), E(x4,x2)", 8},
    {"nr", "B1(x,y), B2(y,z) -> B3(z,x).",
     "B3(x0,x1), B2(x2,x1), B2(x3,x2), B1(x1,x3)",
     "B1(x1,x3), B2(x3,x2), B2(x2,x1), B3(x0,x4)", 5},
    {"sticky", "R(x,y), P(y,z) -> P(y,x).",
     "R(x3,x2), P(x1,x3), P(x2,x0), R(x3,x0)",
     "R(x3,x2), P(x2,x0), P(x1,x3), R(x4,x0)", 5},
    {"egd", "R(a,b), R(a,c) -> b = c.",
     "E(x0,x3), R(x2,x0), E(x2,x3), R(x0,x3)",
     "R(x2,x0), R(x2,x1), E(x0,x3), E(x1,x3)", 9},
    {"chase-free", "E(x,y) -> F(x,y).",
     "E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x0)",
     "E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x0)", 0},
};

/// Returns the number of rows above their allocation ceiling (0 when not
/// gating).
int OracleRows(bench::JsonReport* report, bool gate) {
  constexpr int kCalls = 20000;
  constexpr int kRounds = 5;
  bench::Banner(
      "E-P6 - one containment-oracle call per candidate",
      "Lemma 1: candidate ⊆Σ q iff q maps into chase(candidate, Σ); the "
      "oracle freezes, chases and checks one homomorphism per call on "
      "pooled per-thread state. ns per call (best of 5) and heap "
      "allocations per call, the latter gated");
  bench::Table table({"schema", "answer", "ns/call", "allocs/call",
                      "ceiling"});
  int failures = 0;
  for (const OracleCase& c : kOracleCases) {
    DependencySet sigma = MustParseDependencySet(c.sigma);
    ConjunctiveQuery q = MustParseQuery(c.q);
    ConjunctiveQuery candidate = MustParseQuery(c.candidate);
    obs::MetricsRegistry metrics{{}, {}};
    ContainmentOracle oracle(q, sigma, ChaseOptions(), RewriteOptions(),
                             SchemaFacts::Compute(sigma), &metrics);
    // The search hands every call a token; this one never fires. The
    // first call warms the thread-local scratch.
    CancelToken cancel;
    Tri answer = oracle.ContainedInQ(candidate, &cancel);
    double best_ns = -1;
    uint64_t allocations = 0;
    for (int r = 0; r < kRounds; ++r) {
      uint64_t before = t_allocations;
      auto start = Clock::now();
      for (int i = 0; i < kCalls; ++i) {
        if (oracle.ContainedInQ(candidate, &cancel) != answer) {
          std::printf("*** %s: the oracle's answer changed\n", c.name);
        }
      }
      double ns = MillisSince(start) * 1e6 / kCalls;
      allocations = t_allocations - before;
      if (best_ns < 0 || ns < best_ns) best_ns = ns;
    }
    double per_call = static_cast<double>(allocations) / kCalls;
    char ns[32], allocs[32], ceiling[32];
    std::snprintf(ns, sizeof(ns), "%.0f", best_ns);
    std::snprintf(allocs, sizeof(allocs), "%.2f", per_call);
    std::snprintf(ceiling, sizeof(ceiling), "%.0f", c.max_allocations);
    table.AddRow({c.name, ToString(answer), ns, allocs, ceiling});
    report->AddRow(
        "oracle",
        {{"schema", bench::JsonReport::Str(c.name)},
         {"answer", bench::JsonReport::Str(ToString(answer))},
         {"ns_per_call", bench::JsonReport::Num(best_ns)},
         {"allocations_per_call", bench::JsonReport::Num(per_call)},
         {"allocation_ceiling", bench::JsonReport::Num(c.max_allocations)}});
    if (per_call > c.max_allocations) {
      std::printf("*** %s oracle call allocates %.2f times, above its "
                  "ceiling of %.0f\n",
                  c.name, per_call, c.max_allocations);
      if (gate) ++failures;
    }
  }
  table.Print();
  return failures;
}

/// The exhaustive strategy on 1 vs 2 and 4 work-stealing workers at
/// identical budgets. Parity is the correctness claim on EVERY row
/// (bitwise: answer, candidates, visits, exhaustion, the witness itself);
/// the >= 2x speedup claim at 4 threads is gated on the ~1 s
/// exhaustive-alpha-k4 row, and — under --gate — only enforced when the
/// host actually has 4 cores (the parity half of the gate runs
/// regardless). The ~25 ms exhaustive-alpha-c6 row is reported, not
/// gated: on a loaded shared host a freshly spawned worker can wait longer
/// than the whole row to be scheduled (runs at 0.9x with a single steal,
/// about one in four). Each side keeps its best of kRounds, and the rounds
/// interleave 1/2/4 workers so a shift in host speed hits all three sides
/// alike. A second table reports, per distinct key (official
/// candidates_tested) and thread count, the oracle calls — each builds
/// its candidate, so they are also the candidate builds — and the lock
/// acquisitions on the shared NO-set: the per-key overhead extra workers
/// add. Returns the number of gate violations (0 when not gating).
int ParallelShowdown(bench::JsonReport* report, bool gate) {
  constexpr int kRounds = 5;
  bench::Banner(
      "E-P4 - work-stealing Decide, 1 vs N workers, identical budgets",
      "idle workers steal subtree roots of the exhaustive DFS and replay "
      "their incremental sessions to the stolen prefix; the ordered commit "
      "protocol keeps every outcome bitwise-identical, so threads buy "
      "latency only — target >= 2x at 4 threads on exhaustive-alpha-k4");
  unsigned hw = std::thread::hardware_concurrency();
  bool enforce_speedup = gate && hw >= 4;
  if (gate && !enforce_speedup) {
    std::printf("note: %u hardware threads < 4 — parity gated, speedup "
                "reported only\n", hw);
  }
  int failures = 0;
  bench::Table table({"workload", "1 worker ms", "2t ms", "4t ms", "x2", "x4",
                      "steals", "waste", "parity"});
  bench::Table per_key({"workload", "keys", "calls/key 1t", "2t", "4t",
                        "locks/key 1t", "2t", "4t"});
  for (const Workload& w : Workloads()) {
    if (w.kind != Kind::kExhaustive) continue;
    StrategyRunner one_runner(w), two_runner(w), four_runner(w);
    for (int r = 0; r < kRounds; ++r) {
      one_runner.Once(1);
      two_runner.Once(2);
      four_runner.Once(4);
    }
    const StrategyRun& one = one_runner.run();
    const StrategyRun& p2 = two_runner.run();
    const StrategyRun& p4 = four_runner.run();
    const size_t keys = one.outcome.candidates_tested;
    auto per = [keys](size_t n) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f",
                    keys == 0 ? 0.0 : Count(n) / Count(keys));
      return std::string(buf);
    };
    per_key.AddRow({w.name, std::to_string(keys),
                    per(one.outcome.oracle_calls), per(p2.outcome.oracle_calls),
                    per(p4.outcome.oracle_calls),
                    per(one.outcome.shared_set_locks),
                    per(p2.outcome.shared_set_locks),
                    per(p4.outcome.shared_set_locks)});
    double x2 = one.ms / p2.ms;
    double x4 = one.ms / p4.ms;
    auto bitwise = [&](const WitnessSearchOutcome& p) {
      return one.outcome.answer == p.answer &&
             one.outcome.candidates_tested == p.candidates_tested &&
             one.outcome.visits == p.visits &&
             one.outcome.exhausted == p.exhausted &&
             one.outcome.witness.has_value() == p.witness.has_value() &&
             (!one.outcome.witness.has_value() ||
              *one.outcome.witness == *p.witness);
    };
    bool parity = bitwise(p2.outcome) && bitwise(p4.outcome);
    // Speedup is gated on the long row only: the others bottom out in
    // milliseconds where thread startup and scheduling dominate.
    bool gated = w.name == "exhaustive-alpha-k4";
    table.AddRow({w.name, std::to_string(one.ms), std::to_string(p2.ms),
                  std::to_string(p4.ms), std::to_string(x2),
                  std::to_string(x4),
                  std::to_string(p4.outcome.parallel.steals),
                  std::to_string(p4.outcome.parallel.wasted_visits),
                  parity ? "identical" : "MISMATCH"});
    report->AddRow(
        "parallel",
        {{"workload", bench::JsonReport::Str(w.name)},
         {"one_worker_ms", bench::JsonReport::Num(one.ms)},
         {"p2_ms", bench::JsonReport::Num(p2.ms)},
         {"p4_ms", bench::JsonReport::Num(p4.ms)},
         {"speedup2", bench::JsonReport::Num(x2)},
         {"speedup4", bench::JsonReport::Num(x4)},
         {"units", bench::JsonReport::Num(static_cast<double>(
                       p4.outcome.parallel.units_claimed))},
         {"steals", bench::JsonReport::Num(
                        static_cast<double>(p4.outcome.parallel.steals))},
         {"replays", bench::JsonReport::Num(
                         static_cast<double>(p4.outcome.parallel.replays))},
         {"wasted_visits",
          bench::JsonReport::Num(
              static_cast<double>(p4.outcome.parallel.wasted_visits))},
         {"keys", bench::JsonReport::Num(Count(keys))},
         {"oracle_calls1", bench::JsonReport::Num(
                               Count(one.outcome.oracle_calls))},
         {"oracle_calls2", bench::JsonReport::Num(
                               Count(p2.outcome.oracle_calls))},
         {"oracle_calls4", bench::JsonReport::Num(
                               Count(p4.outcome.oracle_calls))},
         {"shared_set_locks2", bench::JsonReport::Num(
                                   Count(p2.outcome.shared_set_locks))},
         {"shared_set_locks4", bench::JsonReport::Num(
                                   Count(p4.outcome.shared_set_locks))},
         {"gated", gated ? "true" : "false"},
         {"parity", parity ? "true" : "false"}});
    if (!parity) {
      std::printf("*** parallel outcome parity BROKEN on %s\n",
                  w.name.c_str());
      if (gate) ++failures;
    }
    if (gated && x4 < 2.0) {
      std::printf("*** parallel speedup target missed on %s: %.1fx < 2x at "
                  "4 threads\n", w.name.c_str(), x4);
      if (enforce_speedup) ++failures;
    }
  }
  table.Print();
  std::printf("per distinct key (reported, not gated):\n");
  per_key.Print();
  return failures;
}

void GammaRows(bench::JsonReport* report) {
  bench::Banner(
      "E-P2 - worklist gamma decider",
      "an object is re-examined only when an incident event can change its "
      "status: near-linear on deep Berge trees; absolute rows");
  bench::Table table({"family", "atoms", "worklist ms", "gamma-acyclic"});
  Generator gen(7);

  auto run = [&](const std::string& family, const acyclic::Hypergraph& hg) {
    bool acyclic = false;
    double ms =
        TimeMs(3, [&] { acyclic = acyclic::DecideGamma(hg).gamma_acyclic; });
    table.AddRow({family, std::to_string(hg.NumEdges()), std::to_string(ms),
                  acyclic ? "yes" : "NO"});
    report->AddRow("gamma",
                   {{"family", bench::JsonReport::Str(family)},
                    {"atoms", bench::JsonReport::Num(Count(hg.NumEdges()))},
                    {"worklist_ms", bench::JsonReport::Num(ms)},
                    {"gamma_acyclic", acyclic ? "true" : "false"}});
    // Every family here is Berge-acyclic, hence gamma-acyclic.
    if (!acyclic) {
      std::printf("*** family misclassified: %s\n", family.c_str());
    }
    if (family.rfind("berge-tree", 0) == 0 && ms >= 10.0) {
      std::printf("*** worklist gamma not single-digit ms on %s: %.1f ms\n",
                  family.c_str(), ms);
    }
  };

  for (int scale : {1000, 5000}) {
    ConjunctiveQuery q = gen.BergeTreeQuery(scale);
    run("berge-tree-" + std::to_string(scale),
        ToAcyclicHypergraph(
            Hypergraph::FromAtoms(q.body(), ConnectingTerms::kVariables)));
  }
  {
    // A single path peels one leaf pair per reduction depth: the deepest
    // reduction for its size.
    acyclic::Hypergraph path;
    for (int i = 0; i < 5000; ++i) path.AddEdge({i, i + 1});
    run("path-5000", path);
  }
  table.Print();
}

}  // namespace
}  // namespace semacyc

int main(int argc, char** argv) {
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }
  semacyc::bench::JsonReport report(argc, argv, "witness_pipeline");
  int failures = semacyc::WitnessRows(&report, gate);
  failures += semacyc::HomRows(&report, gate);
  failures += semacyc::OracleRows(&report, gate);
  failures += semacyc::ParallelShowdown(&report, gate);
  semacyc::GammaRows(&report);
  return failures > 0 ? 1 : 0;
}
