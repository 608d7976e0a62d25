// Example 1 of the paper at scale: the music-store workload.
//
// Generates a synthetic store (customers x records x styles) satisfying
// the compulsive-collector tgd, reformulates the cyclic query, and
// reports the evaluation speedup of the acyclic plan.
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "core/homomorphism.h"
#include "eval/yannakakis.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

using namespace semacyc;

namespace {

long MicrosOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
      .count();
}

}  // namespace

int main() {
  std::printf("music store (Example 1, scaled)\n");
  std::printf("%-10s %-8s %-9s %-12s %-12s %s\n", "customers", "|D|",
              "answers", "cyclic(us)", "acyclic(us)", "speedup");

  // The schema (and query) are the same at every scale: one Engine finds
  // the acyclic reformulation once and serves every later scale from its
  // decision cache — the session pattern the Engine API exists for.
  std::optional<Engine> engine;

  for (int customers : {20, 40, 80, 160}) {
    MusicStoreWorkload w =
        MakeMusicStoreWorkload(2024, customers, 2 * customers, 8, 0.3);
    if (!engine.has_value()) engine.emplace(w.sigma);

    SemAcResult decision = engine->Decide(w.q);
    if (decision.answer != SemAcAnswer::kYes) {
      std::printf("unexpected: query not semantically acyclic\n");
      return 1;
    }

    size_t n_brute = 0, n_fast = 0;
    long brute_us = MicrosOf([&] {
      n_brute = EvaluateQuery(w.q, w.database).size();
    });
    long fast_us = MicrosOf([&] {
      n_fast = EvaluateAcyclic(*decision.witness, w.database).answers.size();
    });
    if (n_brute != n_fast) {
      std::printf("MISMATCH %zu vs %zu\n", n_brute, n_fast);
      return 1;
    }
    std::printf("%-10d %-8zu %-9zu %-12ld %-12ld %.1fx\n", customers,
                w.database.size(), n_brute, brute_us, fast_us,
                fast_us > 0 ? static_cast<double>(brute_us) / fast_us : 0.0);
  }
  std::printf(
      "\nThe acyclic reformulation (2 atoms instead of 3, no cycle)\n"
      "evaluates in time linear in |D| — the paper's motivating win.\n");
  std::printf("engine: %" PRIu64 " decisions, %zu served from the cache\n",
              engine->Metrics().decisions_total, engine->Stats().hits);
  return 0;
}
