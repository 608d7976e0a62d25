// Prepared-schema engine reuse vs cold free-function calls.
//
// Claim demonstrated: on the realistic service workload — many decisions
// against one fixed Σ, with queries repeating — a shared semacyc::Engine
// amortizes what depends only on Σ or (q, Σ): schema analysis and the
// decision itself. The cold path (one free-function call per decision,
// the pre-Engine behavior) re-derives all of it every time.
//
// Two configurations over the identical call sequence:
//   cold         DecideSemanticAcyclicity per call (transient Engine each)
//   prepared     shared Engine, full configuration (decision cache on)
//
// Self-timed (no google-benchmark dependency); pass --json to emit
// BENCH_engine_reuse.json via bench_util's JsonReport.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
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

struct Workload {
  std::string name;
  DependencySet sigma;
  std::vector<ConjunctiveQuery> queries;  // distinct queries
  int repeats = 0;                        // call sequence = repeats x queries
};

SemAcOptions BenchOptions() {
  SemAcOptions options;
  options.subset_budget = 8000;
  options.exhaustive_budget = 8000;
  return options;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    // The paper's Example 1 schema: guarded tgd, YES and NO queries mixed.
    Workload w;
    w.name = "guarded-example1";
    w.sigma =
        MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)");
    w.queries.push_back(
        MustParseQuery("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)"));
    w.queries.push_back(MustParseQuery(
        "q(x) :- Interest(x,z), Class(y,z), Owns(x,y), Owns(y,x)"));
    w.queries.push_back(MustParseQuery("Interest(x,z), Class(y,z)"));
    w.repeats = 12;
    out.push_back(std::move(w));
  }
  {
    // Linear, not weakly acyclic set: the chase may diverge, so every
    // oracle build constructs a UCQ rewriting (a REWRITE span per
    // uncached decision).
    Workload w;
    w.name = "linear-rewriting";
    w.sigma = MustParseDependencySet("E(x,y) -> E(y,z)");
    Generator gen(7);
    w.queries.push_back(MustParseQuery("E(x,y), E(y,z), E(z,x)"));
    w.queries.push_back(gen.CycleQuery(4));
    w.repeats = 4;
    out.push_back(std::move(w));
  }
  {
    // Full recursive set: strategies run to their budgets (kUnknown), the
    // most expensive repeat shape the cache can absorb.
    Workload w;
    w.name = "full-recursive";
    w.sigma = MustParseDependencySet("E(x,y), E(y,z) -> E(x,z)");
    Generator gen(11);
    w.queries.push_back(gen.CycleQuery(3));
    w.queries.push_back(gen.CycleQuery(4));
    w.repeats = 8;
    out.push_back(std::move(w));
  }
  return out;
}

void EngineShowdown(bench::JsonReport* report) {
  bench::Banner(
      "Engine reuse — prepared schema/queries vs cold free-function calls",
      "repeat decisions against one fixed Sigma amortize schema analysis "
      "and the decision itself");
  bench::Table table({"workload", "calls", "cold (ms)", "prepared (ms)",
                      "cold/prepared", "parity"});

  for (Workload& w : MakeWorkloads()) {
    SemAcOptions options = BenchOptions();
    const size_t calls = w.queries.size() * static_cast<size_t>(w.repeats);

    // Cold: the pre-Engine behavior, everything rebuilt per call.
    std::vector<SemAcAnswer> cold_answers;
    auto cold_start = Clock::now();
    for (int r = 0; r < w.repeats; ++r) {
      for (const ConjunctiveQuery& q : w.queries) {
        cold_answers.push_back(
            DecideSemanticAcyclicity(q, w.sigma, options).answer);
      }
    }
    double cold_ms = MillisSince(cold_start);

    // Full engine: repeats served from the decision cache.
    std::vector<SemAcAnswer> prepared_answers;
    Engine engine(w.sigma, options);
    auto prepared_start = Clock::now();
    {
      std::vector<PreparedQuery> prepared;
      for (const ConjunctiveQuery& q : w.queries) {
        prepared.push_back(engine.Prepare(q));
      }
      for (int r = 0; r < w.repeats; ++r) {
        for (const PreparedQuery& pq : prepared) {
          prepared_answers.push_back(engine.Decide(pq).answer);
        }
      }
    }
    double prepared_ms = MillisSince(prepared_start);

    bool parity = cold_answers == prepared_answers;

    char cold_str[32], prepared_str[32], rp[32];
    std::snprintf(cold_str, sizeof(cold_str), "%.2f", cold_ms);
    std::snprintf(prepared_str, sizeof(prepared_str), "%.2f", prepared_ms);
    std::snprintf(rp, sizeof(rp), "%.1fx", cold_ms / prepared_ms);
    table.AddRow({w.name, std::to_string(calls), cold_str, prepared_str, rp,
                  parity ? "ok" : "MISMATCH"});
    if (!parity) {
      std::printf("!! answer mismatch between engine paths on %s\n",
                  w.name.c_str());
    }

    report->AddRow(
        "engine_reuse",
        {{"workload", bench::JsonReport::Str(w.name)},
         {"calls", bench::JsonReport::Num(static_cast<double>(calls))},
         {"cold_ms", bench::JsonReport::Num(cold_ms)},
         {"prepared_ms", bench::JsonReport::Num(prepared_ms)},
         {"speedup_prepared", bench::JsonReport::Num(cold_ms / prepared_ms)},
         {"decision_cache_hits",
          bench::JsonReport::Num(static_cast<double>(engine.Stats().hits))},
         {"parity", parity ? std::string("true") : std::string("false")}});
  }

  table.Print();
  std::printf(
      "Shape check: identical answers on both paths; prepared >> cold on\n"
      "every workload.\n");
}

/// Bounded decision cache vs unbounded on the same prepared-engine call
/// sequence: the eviction overhead and the hit-rate cliff. A budget
/// comfortably above the working set (16 MiB) should match unbounded; a
/// 1 KiB budget holds only a few decisions, so most repeats recompute —
/// and the evictions column shows why.
void BoundedCacheShowdown(bench::JsonReport* report) {
  bench::Banner(
      "Bounded decision cache — LRU eviction overhead and hit-rate cliff",
      "the same workload under 1 KiB / 16 MiB / unbounded byte budgets; "
      "answers are identical, only time and hit rate move");
  bench::Table table({"workload", "budget", "time (ms)", "hits", "evictions",
                      "vs unbounded", "parity"});

  struct Budget {
    const char* name;
    size_t bytes;  // 0 = unbounded
  };
  const Budget budgets[] = {
      {"1KiB", 1024}, {"16MiB", 16 * 1024 * 1024}, {"unbounded", 0}};

  for (Workload& w : MakeWorkloads()) {
    SemAcOptions options = BenchOptions();
    std::vector<SemAcAnswer> reference;
    double unbounded_ms = 0;

    // Unbounded last in the table but measured first for the reference
    // answers; measurement order does not share state (fresh engines).
    struct RowData {
      double ms = 0;
      size_t hits = 0;
      size_t evictions = 0;
      std::vector<SemAcAnswer> answers;
    };
    RowData rows[3];
    for (int b = 2; b >= 0; --b) {
      Engine engine(w.sigma, options, budgets[b].bytes);
      auto start = Clock::now();
      std::vector<PreparedQuery> prepared;
      for (const ConjunctiveQuery& q : w.queries) {
        prepared.push_back(engine.Prepare(q));
      }
      for (int r = 0; r < w.repeats; ++r) {
        for (const PreparedQuery& pq : prepared) {
          rows[b].answers.push_back(engine.Decide(pq).answer);
        }
      }
      rows[b].ms = MillisSince(start);
      CacheStats stats = engine.Stats();
      rows[b].hits = stats.hits;
      rows[b].evictions = stats.evictions;
      if (b == 2) {
        reference = rows[b].answers;
        unbounded_ms = rows[b].ms;
      }
    }

    for (int b = 0; b < 3; ++b) {
      bool parity = rows[b].answers == reference;
      char ms_str[32], ratio[32];
      std::snprintf(ms_str, sizeof(ms_str), "%.2f", rows[b].ms);
      std::snprintf(ratio, sizeof(ratio), "%.1fx", rows[b].ms / unbounded_ms);
      table.AddRow({w.name, budgets[b].name, ms_str,
                    std::to_string(rows[b].hits),
                    std::to_string(rows[b].evictions), ratio,
                    parity ? "ok" : "MISMATCH"});
      if (!parity) {
        std::printf("!! answer mismatch under budget %s on %s\n",
                    budgets[b].name, w.name.c_str());
      }
      report->AddRow(
          "bounded_caches",
          {{"workload", bench::JsonReport::Str(w.name)},
           {"budget", bench::JsonReport::Str(budgets[b].name)},
           {"bounded_ms", bench::JsonReport::Num(rows[b].ms)},
           {"cache_hits",
            bench::JsonReport::Num(static_cast<double>(rows[b].hits))},
           {"evictions",
            bench::JsonReport::Num(static_cast<double>(rows[b].evictions))},
           {"parity", parity ? std::string("true") : std::string("false")}});
    }
  }
  table.Print();
  std::printf(
      "Shape check: parity on every budget; 16MiB ~ unbounded (no\n"
      "evictions on these working sets); 1KiB holds linear-rewriting's\n"
      "small decisions but shows the cliff on the other two — high\n"
      "eviction counts and cold-ish times.\n");
}

/// Concurrent batch decisions over *distinct* queries: one shared Engine,
/// N threads, each batch item structurally different so the threads do
/// independent work (an all-repeats batch is served by the decision cache
/// and gains nothing from extra threads — worse, concurrent first
/// computations of the same query duplicate each other). The shape check
/// here is parity — identical answers from the threaded run; the speedup
/// column is context that scales with the host's cores (a single-core
/// host, like some CI containers, shows ~1.0x minus scheduling overhead).
void BatchShowdown(bench::JsonReport* report) {
  bench::Banner(
      "Engine::DecideBatch — one shared Engine under concurrency",
      "N threads sharing one Engine decide a distinct-query batch with "
      "exactly the answers of one thread; wall time scales with cores");
  bench::Table table({"batch", "cores", "1 thread (ms)", "4 threads (ms)",
                      "speedup", "parity"});

  DependencySet sigma = MustParseDependencySet("Z0(x,y) -> Z1(x,y)");
  SemAcOptions options = BenchOptions();
  Generator gen(77);
  std::vector<ConjunctiveQuery> queries;
  for (int i = 0; i < 48; ++i) {
    // Random acyclic query plus one chord: sometimes cyclic, always a
    // distinct structure (the soundness-sweep family of the test suite).
    ConjunctiveQuery base = gen.RandomAcyclicQuery(4, 2, 2, "Z");
    std::vector<Atom> body = base.body();
    std::vector<Term> vars = base.Variables();
    body.push_back(
        Atom(Predicate::Get("Z0", 2),
             {vars[static_cast<size_t>(
                  gen.Uniform(0, static_cast<int>(vars.size()) - 1))],
              vars[static_cast<size_t>(
                  gen.Uniform(0, static_cast<int>(vars.size()) - 1))]}));
    queries.emplace_back(std::vector<Term>{}, std::move(body));
  }

  std::vector<PreparedQuery> batch;
  {
    Engine plan(sigma, options);
    for (const ConjunctiveQuery& q : queries) batch.push_back(plan.Prepare(q));
  }
  Engine seq_engine(sigma, options);
  auto seq_start = Clock::now();
  std::vector<SemAcResult> seq = seq_engine.DecideBatch(batch, 1);
  double seq_ms = MillisSince(seq_start);

  Engine par_engine(sigma, options);
  auto par_start = Clock::now();
  std::vector<SemAcResult> par = par_engine.DecideBatch(batch, 4);
  double par_ms = MillisSince(par_start);

  bool parity = seq.size() == par.size();
  for (size_t i = 0; parity && i < seq.size(); ++i) {
    parity = seq[i].answer == par[i].answer;
  }
  unsigned cores = std::thread::hardware_concurrency();
  char seq_str[32], par_str[32], sp[32];
  std::snprintf(seq_str, sizeof(seq_str), "%.2f", seq_ms);
  std::snprintf(par_str, sizeof(par_str), "%.2f", par_ms);
  std::snprintf(sp, sizeof(sp), "%.1fx", seq_ms / par_ms);
  table.AddRow({std::to_string(batch.size()), std::to_string(cores), seq_str,
                par_str, sp, parity ? "ok" : "MISMATCH"});
  report->AddRow(
      "batch",
      {{"batch", bench::JsonReport::Num(static_cast<double>(batch.size()))},
       {"cores", bench::JsonReport::Num(static_cast<double>(cores))},
       {"seq_ms", bench::JsonReport::Num(seq_ms)},
       {"par4_ms", bench::JsonReport::Num(par_ms)},
       {"speedup", bench::JsonReport::Num(seq_ms / par_ms)},
       {"parity", parity ? std::string("true") : std::string("false")}});
  table.Print();
}

}  // namespace
}  // namespace semacyc

int main(int argc, char** argv) {
  semacyc::bench::JsonReport report(argc, argv, "engine_reuse");
  semacyc::EngineShowdown(&report);
  semacyc::BoundedCacheShowdown(&report);
  semacyc::BatchShowdown(&report);
  return 0;
}
