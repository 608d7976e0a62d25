// E3 — Figure 3 / Lemma 9: the compact acyclic query.
//
// Measures the Lemma 9 extraction on random acyclic instances: the
// witness always stays within 2·|q| atoms regardless of how large the
// instance is — the paper's small-query-property engine.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/containment.h"
#include "core/hypergraph.h"
#include "gen/generators.h"
#include "semacyc/compaction.h"

namespace semacyc {
namespace {

struct Sample {
  Instance instance;
  ConjunctiveQuery q;
};

/// A random acyclic instance (frozen random join tree) plus a query taken
/// from a connected fragment of it.
Sample MakeSample(uint64_t seed, int instance_atoms, int query_atoms) {
  Generator gen(seed);
  ConjunctiveQuery shape =
      gen.RandomAcyclicQuery(instance_atoms, 2, 2, "C");
  FrozenQuery frozen = Freeze(shape, TermKind::kNull);
  std::vector<Atom> sub(shape.body().begin(),
                        shape.body().begin() +
                            std::min<size_t>(static_cast<size_t>(query_atoms),
                                             shape.body().size()));
  return {frozen.instance, ConjunctiveQuery({}, sub)};
}

void ShapeReport(bench::JsonReport* report) {
  bench::Banner("E3 / Figure 3 + Lemma 9 — compact acyclic query",
                "a witness of size <= 2|q| exists inside any acyclic "
                "instance I with q(c̄) true, independent of |I|");
  bench::Table table({"|I|", "|q|", "|witness|", "bound 2|q|", "acyclic?",
                      "witness ⊆ q?"});
  for (int instance_atoms : {20, 40, 80, 160}) {
    for (int query_atoms : {3, 6, 9}) {
      Sample s = MakeSample(
          static_cast<uint64_t>(instance_atoms * 131 + query_atoms),
          instance_atoms, query_atoms);
      auto result = CompactAcyclicWitness(s.q, s.instance, {});
      if (!result.has_value()) continue;
      table.AddRow({std::to_string(s.instance.size()),
                    std::to_string(s.q.size()),
                    std::to_string(result->witness.size()),
                    std::to_string(2 * s.q.size()),
                    IsAcyclic(result->witness) ? "yes" : "NO",
                    ContainedInClassic(result->witness, s.q) ? "yes" : "NO"});
    }
  }
  table.Print();
  table.WriteTo(report, "shape");
  std::printf(
      "Shape check: |witness| <= 2|q| on every row while |I| grows 8x —\n"
      "the Lemma 9 bound is instance-size independent.\n");
}

void BM_Compaction(benchmark::State& state) {
  Sample s = MakeSample(7, static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompactAcyclicWitness(s.q, s.instance, {}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Compaction)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_JoinTreeConstruction(benchmark::State& state) {
  Sample s = MakeSample(9, static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildJoinTreeView(s.instance.atoms(), ConnectingTerms::kAllTerms));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JoinTreeConstruction)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->Complexity();

}  // namespace
}  // namespace semacyc

int main(int argc, char** argv) {
  semacyc::bench::JsonReport report(argc, argv, "fig3_compaction");
  semacyc::ShapeReport(&report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
