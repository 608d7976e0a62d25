#ifndef SEMACYC_CORE_HYPERGRAPH_H_
#define SEMACYC_CORE_HYPERGRAPH_H_

#include <optional>
#include <vector>

#include "acyclic/classify.h"
#include "core/atom.h"
#include "core/instance.h"
#include "core/join_tree.h"
#include "core/query.h"

namespace semacyc {

/// Which terms act as *connecting* vertices when testing acyclicity.
///
/// The paper (§2) defines acyclicity of an instance through join trees whose
/// connectedness condition ranges over the *nulls* of the instance; the
/// acyclicity of a CQ replaces every variable by a fresh null first, so for
/// queries every variable connects. The semantic-acyclicity pipeline works
/// with chases of frozen queries in which the canonical constants c(x) play
/// the role of variables ("special constants treated as nulls"), hence
/// kAllTerms.
enum class ConnectingTerms {
  kNullsOnly,   // literal §2 definition for instances
  kVariables,   // CQ bodies: variables connect, constants do not
  kAllTerms,    // frozen-query chases: every term connects
};

/// A hypergraph: one hyperedge (list of distinct connecting vertices) per
/// atom. Vertices are terms. This is the term-keyed adapter view; all
/// algorithms live in the acyclic/ engine and run on the interned form
/// produced by ToAcyclicHypergraph.
struct Hypergraph {
  std::vector<std::vector<Term>> edges;

  static Hypergraph FromAtoms(const std::vector<Atom>& atoms,
                              ConnectingTerms connecting);
};

/// Result of the GYO ear-removal reduction (see acyclic/gyo.h). Edge
/// indices are atom indices; parent[i] == -1 marks forest roots.
using GyoResult = acyclic::GyoResult;

/// Interns the term vertices of `hg` (first-occurrence order) and returns
/// the engine form. Edge order — and hence atom indices — is preserved.
acyclic::Hypergraph ToAcyclicHypergraph(const Hypergraph& hg);

/// Runs the GYO reduction via the indexed worklist engine; near-linear on
/// acyclic inputs (the seed's quadratic scan survives as
/// acyclic::GyoReduceNaive for benches and oracles).
GyoResult RunGyo(const Hypergraph& hg);

/// Classifies the atoms' hypergraph in the acyclicity hierarchy
/// (cyclic ⊂ α ⊂ β ⊂ γ ⊂ Berge), with certificates.
acyclic::Classification ClassifyAtoms(const std::vector<Atom>& atoms,
                                      ConnectingTerms connecting);
acyclic::Classification ClassifyQuery(const ConjunctiveQuery& q);

/// True iff the atoms' hypergraph lies in `target` or a stricter class.
/// Runs only the decider for `target`, not the full classification.
bool MeetsAcyclicityClass(const std::vector<Atom>& atoms,
                          ConnectingTerms connecting,
                          acyclic::AcyclicityClass target);

/// Convenience wrappers (α-acyclicity, the paper's default notion).
bool IsAcyclic(const std::vector<Atom>& atoms, ConnectingTerms connecting);
bool IsAcyclic(const ConjunctiveQuery& q);                 // kVariables
bool IsAcyclicInstance(const Instance& instance);          // kNullsOnly
bool IsAcyclicChase(const Instance& instance);             // kAllTerms

/// Builds a join tree for an acyclic atom set; returns std::nullopt when the
/// atoms are cyclic. The tree spans all atoms (forest roots get chained)
/// and references `atoms` in place (no atom copies; `atoms` must outlive
/// it).
std::optional<JoinTreeView> BuildJoinTreeView(const std::vector<Atom>& atoms,
                                              ConnectingTerms connecting);

}  // namespace semacyc

#endif  // SEMACYC_CORE_HYPERGRAPH_H_
