#include "core/hypergraph.h"

#include <unordered_map>

namespace semacyc {

Hypergraph Hypergraph::FromAtoms(const std::vector<Atom>& atoms,
                                 ConnectingTerms connecting) {
  Hypergraph hg;
  hg.edges.reserve(atoms.size());
  for (const Atom& a : atoms) {
    std::vector<Term> verts;
    for (Term t : a.DistinctTerms()) {
      bool connects = false;
      switch (connecting) {
        case ConnectingTerms::kNullsOnly:
          connects = t.IsNull();
          break;
        case ConnectingTerms::kVariables:
          connects = t.IsVariable();
          break;
        case ConnectingTerms::kAllTerms:
          connects = true;
          break;
      }
      if (connects) verts.push_back(t);
    }
    hg.edges.push_back(std::move(verts));
  }
  return hg;
}

acyclic::Hypergraph ToAcyclicHypergraph(const Hypergraph& hg) {
  acyclic::Hypergraph out;
  std::unordered_map<Term, int, TermHash> vertex_of;
  vertex_of.reserve(hg.edges.size() * 2);
  for (const auto& edge : hg.edges) {
    std::vector<int> verts;
    verts.reserve(edge.size());
    for (Term t : edge) {
      verts.push_back(
          vertex_of.emplace(t, static_cast<int>(vertex_of.size()))
              .first->second);
    }
    out.AddEdge(std::move(verts));
  }
  out.num_vertices = static_cast<int>(vertex_of.size());
  return out;
}

GyoResult RunGyo(const Hypergraph& hg) {
  return acyclic::GyoReduce(ToAcyclicHypergraph(hg));
}

acyclic::Classification ClassifyAtoms(const std::vector<Atom>& atoms,
                                      ConnectingTerms connecting) {
  return acyclic::Classify(
      ToAcyclicHypergraph(Hypergraph::FromAtoms(atoms, connecting)));
}

acyclic::Classification ClassifyQuery(const ConjunctiveQuery& q) {
  return ClassifyAtoms(q.body(), ConnectingTerms::kVariables);
}

bool MeetsAcyclicityClass(const std::vector<Atom>& atoms,
                          ConnectingTerms connecting,
                          acyclic::AcyclicityClass target) {
  return acyclic::Meets(
      ToAcyclicHypergraph(Hypergraph::FromAtoms(atoms, connecting)), target);
}

bool IsAcyclic(const std::vector<Atom>& atoms, ConnectingTerms connecting) {
  return RunGyo(Hypergraph::FromAtoms(atoms, connecting)).acyclic;
}

bool IsAcyclic(const ConjunctiveQuery& q) {
  return IsAcyclic(q.body(), ConnectingTerms::kVariables);
}

bool IsAcyclicInstance(const Instance& instance) {
  return IsAcyclic(instance.atoms(), ConnectingTerms::kNullsOnly);
}

bool IsAcyclicChase(const Instance& instance) {
  return IsAcyclic(instance.atoms(), ConnectingTerms::kAllTerms);
}

std::optional<JoinTreeView> BuildJoinTreeView(const std::vector<Atom>& atoms,
                                              ConnectingTerms connecting) {
  GyoResult gyo = RunGyo(Hypergraph::FromAtoms(atoms, connecting));
  if (!gyo.acyclic) return std::nullopt;
  return JoinTreeView(atoms, std::move(gyo.parent));
}

}  // namespace semacyc
