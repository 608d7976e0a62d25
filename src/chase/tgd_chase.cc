#include "chase/tgd_chase.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "chase/egd_chase.h"
#include "core/homomorphism.h"

namespace semacyc {

Term ChaseResult::Resolve(Term t) const {
  // term_map entries always point to representatives that are themselves
  // resolved (the egd chase maintains this), but walk defensively.
  Term cur = t;
  for (int i = 0; i < 64; ++i) {
    auto it = term_map.find(cur);
    if (it == term_map.end() || it->second == cur) return cur;
    cur = it->second;
  }
  return cur;
}

namespace {

/// A canonical string key for a trigger: tgd index plus the images of its
/// body variables. Used to avoid re-firing the same trigger (this is what
/// makes the oblivious chase "fire every trigger once", and saves the
/// restricted chase from re-deriving).
std::string TriggerKey(size_t tgd_index, const Tgd& tgd,
                       const Substitution& h) {
  std::string key = std::to_string(tgd_index) + "|";
  for (Term v : tgd.body_variables()) {
    key += std::to_string(Apply(h, v).raw_bits()) + ",";
  }
  return key;
}

/// Restricted-chase applicability: the head, with the frontier bound as in
/// the trigger, already maps into the instance.
bool HeadSatisfied(const Instance& instance, const Tgd& tgd,
                   const Substitution& h, CancelToken* cancel) {
  HomOptions options;
  for (Term v : tgd.frontier()) options.fixed.emplace(v, Apply(h, v));
  options.cancel = cancel;
  // A cancelled check conservatively reports "not satisfied": the trigger
  // fires redundantly, and the fired token then truncates the chase at
  // the next budget check (saturated = false), so no answer depends on it.
  return FindHomomorphisms(tgd.head(), instance, options).found;
}

/// Fires the trigger: adds head atoms with fresh nulls for existential
/// variables. Returns number of new atoms.
size_t FireTrigger(Instance* instance, const Tgd& tgd, const Substitution& h) {
  Substitution full = h;
  for (Term z : tgd.existential_variables()) full[z] = Term::FreshNull();
  size_t added = 0;
  for (const Atom& head_atom : tgd.head()) {
    if (instance->Insert(Apply(full, head_atom))) ++added;
  }
  return added;
}

/// Enumerates the homomorphisms of `tgd`'s body into `instance` where the
/// body atom at `anchor_index` maps to the instance atom `anchor_atom`.
std::vector<Substitution> AnchoredBodyHoms(const Instance& instance,
                                           const Tgd& tgd, size_t anchor_index,
                                           uint32_t anchor_atom,
                                           CancelToken* cancel) {
  const Atom& pattern = tgd.body()[anchor_index];
  const Atom& target = instance.atom(anchor_atom);
  if (pattern.predicate() != target.predicate()) return {};
  Substitution fixed;
  for (size_t pos = 0; pos < pattern.arity(); ++pos) {
    Term s = pattern.arg(pos);
    Term d = target.arg(pos);
    if (s.IsVariable()) {
      auto it = fixed.find(s);
      if (it != fixed.end()) {
        if (it->second != d) return {};
      } else {
        fixed.emplace(s, d);
      }
    } else if (s != d) {
      return {};
    }
  }
  HomOptions options;
  options.fixed = std::move(fixed);
  options.max_solutions = 0;  // all
  options.cancel = cancel;
  HomResult result = FindHomomorphisms(tgd.body(), instance, options);
  return std::move(result.solutions);
}

struct Budget {
  const ChaseOptions& options;
  size_t steps = 0;
  bool Exhausted(const Instance& instance, size_t rounds) const {
    // A fired cancellation token truncates exactly like a budget: every
    // call site already maps "exhausted" to saturated = false.
    if (options.cancel != nullptr && options.cancel->Poll()) return true;
    if (options.max_steps > 0 && steps >= options.max_steps) return true;
    if (options.max_atoms > 0 && instance.size() >= options.max_atoms) {
      return true;
    }
    if (options.max_rounds > 0 && rounds >= options.max_rounds) return true;
    return false;
  }
};

}  // namespace

ChaseResult ChaseTgds(const Instance& start, const std::vector<Tgd>& tgds,
                      const ChaseOptions& options) {
  ChaseResult result;
  result.instance = start;
  std::unordered_set<std::string> fired;
  Budget budget{options};

  // Delta-driven rounds: in round 0 consider every atom "new".
  std::vector<uint32_t> delta(result.instance.size());
  for (size_t i = 0; i < delta.size(); ++i) delta[i] = static_cast<uint32_t>(i);

  bool hit_budget = false;
  while (!delta.empty() && !hit_budget) {
    SEMACYC_FAILPOINT("chase.round", options.cancel);
    if (budget.Exhausted(result.instance, result.rounds)) {
      hit_budget = true;
      break;
    }
    ++result.rounds;
    size_t size_before = result.instance.size();
    for (size_t ti = 0; ti < tgds.size() && !hit_budget; ++ti) {
      const Tgd& tgd = tgds[ti];
      for (size_t bi = 0; bi < tgd.body().size() && !hit_budget; ++bi) {
        for (uint32_t atom_idx : delta) {
          if (budget.Exhausted(result.instance, result.rounds)) {
            hit_budget = true;
            break;
          }
          for (Substitution& h : AnchoredBodyHoms(result.instance, tgd, bi,
                                                  atom_idx, options.cancel)) {
            std::string key = TriggerKey(ti, tgd, h);
            if (!fired.insert(key).second) continue;
            if (options.variant == ChaseOptions::Variant::kRestricted &&
                HeadSatisfied(result.instance, tgd, h, options.cancel)) {
              continue;
            }
            FireTrigger(&result.instance, tgd, h);
            ++budget.steps;
            if (budget.Exhausted(result.instance, result.rounds)) {
              hit_budget = true;
              break;
            }
          }
          if (hit_budget) break;
        }
      }
    }
    delta.clear();
    for (size_t i = size_before; i < result.instance.size(); ++i) {
      delta.push_back(static_cast<uint32_t>(i));
    }
  }

  result.steps = budget.steps;
  result.saturated = !hit_budget;
  return result;
}

ChaseResult Chase(const Instance& start, const DependencySet& sigma,
                  const ChaseOptions& options) {
  if (!sigma.HasEgds()) return ChaseTgds(start, sigma.tgds, options);

  ChaseResult result;
  result.instance = start;
  Budget budget{options};

  // Interleave: egd fixpoint, then one full tgd saturation round, repeat.
  // Each phase runs on the merged instance; term merges are accumulated.
  bool changed = true;
  bool hit_budget = false;
  while (changed && !hit_budget) {
    changed = false;
    // Egd fixpoint.
    EgdChaseResult egd_result = ChaseEgds(result.instance, sigma.egds,
                                          &result.term_map, options.cancel);
    if (egd_result.changed) changed = true;
    result.instance = std::move(egd_result.instance);
    if (egd_result.failed) {
      result.failed = true;
      result.saturated = true;
      return result;
    }
    if (egd_result.truncated) {
      hit_budget = true;
      break;
    }
    if (!sigma.HasTgds()) break;
    // One bounded tgd phase: run rounds until fixpoint or budget.
    ChaseOptions phase = options;
    if (options.max_steps > 0) {
      if (budget.steps >= options.max_steps) {
        hit_budget = true;
        break;
      }
      phase.max_steps = options.max_steps - budget.steps;
    }
    ChaseResult tgd_result = ChaseTgds(result.instance, sigma.tgds, phase);
    budget.steps += tgd_result.steps;
    result.rounds += tgd_result.rounds;
    if (tgd_result.instance.size() != result.instance.size()) changed = true;
    result.instance = std::move(tgd_result.instance);
    if (!tgd_result.saturated) hit_budget = true;
  }

  result.steps = budget.steps;
  result.saturated = !hit_budget;
  return result;
}

bool Satisfies(const Instance& instance, const Tgd& tgd) {
  HomOptions options;
  options.max_solutions = 0;
  HomResult result = FindHomomorphisms(tgd.body(), instance, options);
  for (const Substitution& h : result.solutions) {
    Substitution fixed;
    for (Term v : tgd.frontier()) fixed.emplace(v, Apply(h, v));
    if (!HasHomomorphism(tgd.head(), instance, fixed)) return false;
  }
  return true;
}

bool Satisfies(const Instance& instance, const Egd& egd) {
  HomOptions options;
  options.max_solutions = 0;
  HomResult result = FindHomomorphisms(egd.body(), instance, options);
  for (const Substitution& h : result.solutions) {
    if (Apply(h, egd.lhs()) != Apply(h, egd.rhs())) return false;
  }
  return true;
}

bool Satisfies(const Instance& instance, const DependencySet& sigma) {
  for (const Tgd& t : sigma.tgds) {
    if (!Satisfies(instance, t)) return false;
  }
  for (const Egd& e : sigma.egds) {
    if (!Satisfies(instance, e)) return false;
  }
  return true;
}

}  // namespace semacyc
