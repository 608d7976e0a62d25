// §8.2: acyclic approximations as "quick answers".
//
// A cyclic query that is NOT semantically acyclic still admits a contained
// acyclic under-approximation (the paper's fallback witness); evaluating it
// gives sound (if partial) answers at linear cost.
#include <cstdio>

#include "core/homomorphism.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "eval/yannakakis.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

using namespace semacyc;

int main() {
  // Mutual-follow triangle plus a profile lookup: cyclic, and no
  // constraint rescues it.
  ConjunctiveQuery q = MustParseQuery(
      "q(u) :- Follows(u,v), Follows(v,w), Follows(w,u), Premium(u)");
  DependencySet sigma = MustParseDependencySet(
      "Premium(u) -> User(u)");  // unrelated: the triangle stays essential
  std::printf("query: %s\n", q.ToString().c_str());

  Engine engine(sigma);
  ApproximateOutcome outcome = engine.Approximate(engine.Prepare(q));
  if (!outcome.status.ok()) {
    std::printf("approximation unavailable: %s\n",
                outcome.status.message.c_str());
    return 1;
  }
  const ApproximationResult* result = &outcome.result;
  std::printf("semantically acyclic: %s\n", result->is_exact ? "yes" : "no");
  std::printf("approximation: %s\n",
              result->approximation.ToString().c_str());
  std::printf("approximation acyclic: %s\n\n",
              IsAcyclic(result->approximation) ? "yes" : "no");

  // Evaluate both on a database: the approximation's answers are a subset
  // of the exact answers (q' ⊆Σ q), available at linear cost.
  Instance db;
  db.InsertAll(MustParseAtoms(
      "Follows('a','b'), Follows('b','c'), Follows('c','a'), "
      "Follows('d','d'), "
      "Follows('x','y'), Follows('y','x'), "
      "Premium('a'), Premium('d'), Premium('x'), "
      "User('a'), User('d'), User('x')"));
  auto exact = EvaluateQuery(q, db);
  YannakakisResult approx = EvaluateAcyclic(result->approximation, db);
  std::printf("exact answers:  ");
  for (const auto& t : exact) std::printf("%s ", t[0].ToString().c_str());
  std::printf("\napprox answers: ");
  for (const auto& t : approx.answers) {
    std::printf("%s ", t[0].ToString().c_str());
  }
  std::printf("\n");

  // Soundness check: every approximate answer is an exact answer.
  size_t sound = 0;
  for (const auto& t : approx.answers) {
    for (const auto& e : exact) {
      if (t == e) {
        ++sound;
        break;
      }
    }
  }
  std::printf("soundness: %zu/%zu approximate answers are exact answers\n",
              sound, approx.answers.size());
  return sound == approx.answers.size() ? 0 : 1;
}
