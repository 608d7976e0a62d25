// Quickstart: build an Engine for a constraint set, prepare a query,
// decide semantic acyclicity, and evaluate the acyclic reformulation.
//
//   $ ./examples/quickstart
//
// This walks through the library's core loop on the paper's Example 1,
// using the session-oriented Engine API (one schema, many queries). The
// free functions (DecideSemanticAcyclicity & co.) remain as one-shot
// wrappers over a transient Engine.
#include <cinttypes>
#include <cstdio>

#include "chase/query_chase.h"
#include "core/homomorphism.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "semacyc/engine.h"

using namespace semacyc;

int main() {
  // 1. A conjunctive query. Identifiers are variables; 'quoted' tokens are
  //    constants. This is the paper's Example 1: customers, records,
  //    musical styles.
  ConjunctiveQuery q = MustParseQuery(
      "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)");
  std::printf("query:        %s\n", q.ToString().c_str());

  // 2. A constraint: every customer owns every record classified with a
  //    style they are interested in ("compulsive collectors"). The Engine
  //    analyzes Σ once; every later call runs off that prepared schema
  //    and its decision cache.
  DependencySet sigma = MustParseDependencySet(
      "Interest(x,z), Class(y,z) -> Owns(x,y)");
  std::printf("constraints:  %s", sigma.ToString().c_str());
  Engine engine(sigma);

  // 3. Prepare the query (classification with certificates, small-query
  //    bound) and decide semantic acyclicity under the constraints.
  PreparedQuery pq = engine.Prepare(q);
  std::printf("acyclic?      %s (class: %s)\n",
              pq.MeetsTarget(acyclic::AcyclicityClass::kAlpha) ? "yes" : "no",
              ToString(pq.acyclicity_class()));
  SemAcResult decision = engine.Decide(pq);
  std::printf("semantically acyclic? %s (strategy: %s)\n",
              ToString(decision.answer), ToString(decision.strategy));
  if (decision.answer != SemAcAnswer::kYes) return 1;
  std::printf("witness:      %s\n", decision.witness->ToString().c_str());

  // 4. The witness is equivalent to q on every database satisfying Σ —
  //    verify on a small database, then evaluate via Engine::Eval (the
  //    reformulation is served from the decision cache; Yannakakis runs
  //    over a view-based join tree of the witness).
  Instance db;
  db.InsertAll(MustParseAtoms(
      "Interest('ana','jazz'), Interest('bob','rock'), "
      "Class('kind_of_blue','jazz'), Class('nevermind','rock'), "
      "Owns('ana','kind_of_blue'), Owns('bob','nevermind')"));
  if (!Satisfies(db, sigma)) {
    std::printf("database violates the constraints!\n");
    return 1;
  }
  EvalOutcome fast = engine.Eval(pq, db);
  if (!fast.status.ok()) {
    std::printf("evaluation failed: %s\n", fast.status.message.c_str());
    return 1;
  }
  std::printf("answers via acyclic witness (linear time):\n");
  for (const auto& tuple : fast.evaluation.answers) {
    std::printf("  (%s, %s)\n", tuple[0].ToString().c_str(),
                tuple[1].ToString().c_str());
  }

  // 5. Cross-check with the generic evaluator on the original query.
  auto brute = EvaluateQuery(q, db);
  std::printf("generic evaluation of q returns %zu answers — %s\n",
              brute.size(),
              brute.size() == fast.evaluation.answers.size() ? "they agree"
                                                             : "MISMATCH");

  // 6. Session statistics: the decision above was computed once; Eval
  //    reused it from the cache.
  std::printf("engine: %" PRIu64 " decisions, %zu served from cache\n",
              engine.Metrics().decisions_total, engine.Stats().hits);
  return 0;
}
