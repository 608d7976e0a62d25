#include "semacyc/decider.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "semacyc/engine.h"

namespace semacyc {

const char* ToString(SemAcAnswer a) {
  switch (a) {
    case SemAcAnswer::kYes:
      return "yes";
    case SemAcAnswer::kNo:
      return "no";
    case SemAcAnswer::kUnknown:
      return "unknown";
  }
  return "?";
}

const char* ToString(Strategy s) {
  switch (s) {
    case Strategy::kNone:
      return "none";
    case Strategy::kAlreadyAcyclic:
      return "already-acyclic";
    case Strategy::kCore:
      return "core";
    case Strategy::kFailingChase:
      return "failing-chase";
    case Strategy::kChaseCompaction:
      return "chase-compaction";
    case Strategy::kImages:
      return "images";
    case Strategy::kSubsets:
      return "subsets";
    case Strategy::kExhaustive:
      return "exhaustive";
    case Strategy::kBudgetExhausted:
      return "budget-exhausted";
    case Strategy::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "?";
}

size_t SmallQueryBound(const ConjunctiveQuery& q, const DependencySet& sigma,
                       const SchemaFacts& facts,
                       bool* theoretically_justified) {
  bool justified = false;
  size_t bound = 2 * std::max<size_t>(q.size(), 1);
  if (!sigma.HasTgds()) {
    // Egds: Theorem 21/Prop 22 machinery (K2 / unary FDs) gives 2·|q|.
    justified = facts.egds_bounded;
  } else if (!sigma.HasEgds()) {
    if (facts.guarded) {
      justified = true;  // Prop 8 via Prop 12
    } else if (facts.nr_or_sticky) {
      justified = true;  // Prop 15 via Props 17/19
      bound = 2 * PaperRewriteHeightBound(q, sigma.tgds);
    }
  }
  if (theoretically_justified != nullptr) {
    *theoretically_justified = justified;
  }
  return bound;
}

namespace {

/// True when `name` lexes as a ParseQuery identifier. The engine's own
/// variable pools ("s$3", "h$0", "w$1", "v$17") deliberately do not.
bool IsIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace

ConjunctiveQuery WithParseableVariables(const ConjunctiveQuery& witness) {
  std::vector<Term> terms = witness.head();
  for (const Atom& a : witness.body()) {
    terms.insert(terms.end(), a.args().begin(), a.args().end());
  }
  std::unordered_set<std::string> taken;
  for (Term t : terms) taken.insert(t.name());
  Substitution rename;
  size_t next = 0;
  for (Term t : terms) {
    if (!t.IsVariable() || IsIdentifier(t.name()) || rename.count(t) != 0) {
      continue;
    }
    std::string name;
    do {
      name = "x" + std::to_string(next++);
    } while (taken.count(name) != 0);
    rename.emplace(t, Term::Variable(name));
  }
  if (rename.empty()) return witness;
  std::vector<Term> head;
  for (Term t : witness.head()) head.push_back(Apply(rename, t));
  return ConjunctiveQuery(std::move(head), Apply(rename, witness.body()));
}

SemAcResult DecideSemanticAcyclicity(const ConjunctiveQuery& q,
                                     const DependencySet& sigma,
                                     const SemAcOptions& options) {
  // One-shot wrapper: a transient Engine runs the identical pipeline; its
  // caches simply never see a second call.
  Engine engine(sigma, options);
  return engine.Decide(q);
}

}  // namespace semacyc
