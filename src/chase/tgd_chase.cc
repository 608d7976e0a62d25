#include "chase/tgd_chase.h"

#include <algorithm>

#include "chase/egd_chase.h"
#include "core/flat_table.h"
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

using CompiledTgd = CompiledTgds::Rule;

/// Per-thread chase state; it keeps its capacity across chase calls, so a
/// small chase allocates only for the atoms it adds. The chase calls
/// nothing that could re-enter it.
struct TgdScratch {
  /// ChaseTgds' and Chase's own compiled set.
  CompiledTgds tgds;
  std::vector<Term> binding;
  /// The body images of the triggers one search found, body_vars each.
  std::vector<Term> matches;
  size_t num_matches = 0;
  hom::Scratch search;
  /// Fired triggers, exact: group g's key is the tuple (tgd index, body
  /// images) at fired_keys[fired_start[g]...].
  FlatKeyTable fired;
  std::vector<uint32_t> fired_keys;
  std::vector<uint32_t> fired_start;
};
thread_local TgdScratch t_scratch;
/// Buffers larger than this are released after a chase.
constexpr size_t kKeepTerms = 4096;

/// Fills s->matches with the triggers of `tgd` whose body atom `anchor`
/// maps to the instance atom `target`, in search order. A fired token
/// stops the search; the triggers found so far stay.
void FindTriggers(const Instance& instance, const CompiledTgd& tgd,
                  size_t anchor, const Atom& target, CancelToken* cancel,
                  TgdScratch* s) {
  s->matches.clear();
  s->num_matches = 0;
  if (tgd.body.preds[anchor] != target.predicate()) return;
  std::vector<Term>& binding = s->binding;
  binding.assign(tgd.slots, Term());
  const hom::CompiledAtom<Term> pattern = tgd.body.atom(anchor);
  for (size_t pos = 0; pos < pattern.arity; ++pos) {
    const Term d = target.arg(pos);
    const uint32_t slot = pattern.slot[pos];
    if (slot == hom::kGround ? pattern.ground[pos] != d
                             : binding[slot].IsValid() && binding[slot] != d) {
      return;
    }
    if (slot != hom::kGround) binding[slot] = d;
  }
  // The anchor atom is matched by `target` already (an instance holds no
  // duplicate atoms, so the search would only find it again).
  hom::SearchInstance(
      tgd.body, instance, &binding, cancel, &s->search,
      [&] {
        s->matches.insert(s->matches.end(), binding.begin(),
                          binding.begin() + tgd.body_vars);
        ++s->num_matches;
        return false;
      },
      hom::AdmitAll{}, static_cast<uint32_t>(anchor));
}

/// Records the trigger (tgd_index, images); false when it fired before.
bool MarkFired(uint32_t tgd_index, const Term* images, size_t n,
               TgdScratch* s) {
  uint64_t key = tgd_index;
  for (size_t k = 0; k < n; ++k) {
    key = key * 0x9e3779b97f4a7c15ull + images[k].raw_bits();
  }
  uint32_t g = s->fired.Insert(key, [&](uint32_t group) {
    const uint32_t* stored = s->fired_keys.data() + s->fired_start[group];
    for (size_t k = 0; k < n; ++k) {
      if (stored[1 + k] != images[k].raw_bits()) return false;
    }
    return stored[0] == tgd_index;
  });
  if (g < s->fired_start.size()) return false;
  s->fired_start.push_back(static_cast<uint32_t>(s->fired_keys.size()));
  s->fired_keys.push_back(tgd_index);
  for (size_t k = 0; k < n; ++k) s->fired_keys.push_back(images[k].raw_bits());
  return true;
}

/// Restricted-chase applicability: the head, with the frontier bound as in
/// the trigger held in s->binding, already maps into the instance. A
/// cancelled check conservatively reports "not satisfied": the trigger
/// fires redundantly, and the fired token then truncates the chase at the
/// next budget check (saturated = false), so no answer depends on it.
bool HeadSatisfied(const Instance& instance, const CompiledTgd& tgd,
                   CancelToken* cancel, TgdScratch* s) {
  std::fill(s->binding.begin() + tgd.body_vars, s->binding.end(), Term());
  return hom::SearchInstance(tgd.head, instance, &s->binding, cancel,
                             &s->search, [] { return true; });
}

/// Fires the trigger in s->binding: adds the head atoms, with fresh nulls
/// for the existential variables.
void FireTrigger(Instance* instance, const CompiledTgd& tgd, TgdScratch* s) {
  std::vector<Term>& binding = s->binding;
  for (size_t slot = tgd.body_vars; slot < tgd.slots; ++slot) {
    binding[slot] = Term::FreshNull();
  }
  for (size_t i = 0; i < tgd.head.size(); ++i) {
    const hom::CompiledAtom<Term> a = tgd.head.atom(i);
    std::vector<Term> args(a.arity);
    for (size_t pos = 0; pos < a.arity; ++pos) {
      args[pos] = a.slot[pos] == hom::kGround ? a.ground[pos]
                                              : binding[a.slot[pos]];
    }
    instance->Insert(Atom(tgd.head.preds[i], std::move(args)));
  }
}

/// One tgd phase over result->instance with the compiled `tgds`:
/// delta-driven rounds (round 0 treats every atom as new, later rounds the
/// atoms the previous one added), each trigger fired at most once, so
/// every applicable trigger is eventually fired. Steps count into
/// result->steps against options.max_steps; options.max_rounds bounds this
/// phase's rounds, which add to result->rounds. Returns false when a budget
/// or the token cut the phase.
bool RunTgdPhase(ChaseResult* result, const CompiledTgds& tgds,
                 const ChaseOptions& options, TgdScratch* s) {
  Instance& instance = result->instance;
  s->fired.Clear();
  s->fired_keys.clear();
  s->fired_start.clear();
  size_t rounds = 0;
  // A fired cancellation token truncates exactly like a budget: every
  // call site already maps "exhausted" to saturated = false.
  auto exhausted = [&] {
    return (options.cancel != nullptr && options.cancel->Poll()) ||
           (options.max_steps > 0 && result->steps >= options.max_steps) ||
           (options.max_atoms > 0 && instance.size() >= options.max_atoms) ||
           (options.max_rounds > 0 && rounds >= options.max_rounds);
  };
  bool hit_budget = false;
  for (size_t begin = 0, end = instance.size(); begin < end && !hit_budget;
       begin = end, end = instance.size()) {
    SEMACYC_FAILPOINT("chase.round", options.cancel);
    if ((hit_budget = exhausted())) break;
    ++rounds;
    for (size_t ti = 0; ti < tgds.rules().size() && !hit_budget; ++ti) {
      const CompiledTgd& tgd = tgds.rules()[ti];
      for (size_t bi = 0; bi < tgd.body.size() && !hit_budget; ++bi) {
        for (size_t a = begin; a < end && !hit_budget; ++a) {
          if ((hit_budget = exhausted())) break;
          FindTriggers(instance, tgd, bi, instance.atom(a), options.cancel, s);
          for (size_t m = 0; m < s->num_matches && !hit_budget; ++m) {
            const Term* images = s->matches.data() + m * tgd.body_vars;
            if (!MarkFired(static_cast<uint32_t>(ti), images, tgd.body_vars,
                           s)) {
              continue;
            }
            std::copy(images, images + tgd.body_vars, s->binding.begin());
            if (options.variant == ChaseOptions::Variant::kRestricted &&
                HeadSatisfied(instance, tgd, options.cancel, s)) {
              continue;
            }
            FireTrigger(&instance, tgd, s);
            ++result->steps;
            hit_budget = exhausted();
          }
        }
      }
    }
  }
  // Only a small chase's buffers are kept for the next one.
  if (s->fired_keys.capacity() > kKeepTerms) {
    s->fired_keys = {};
    s->fired_start = {};
  }
  if (s->matches.capacity() > kKeepTerms) s->matches = {};
  result->rounds += rounds;
  return !hit_budget;
}

}  // namespace

void CompiledTgds::Compile(const std::vector<Tgd>& tgds) {
  rules_.resize(tgds.size());
  for (size_t i = 0; i < tgds.size(); ++i) {
    const std::vector<Term>& vars = tgds[i].body_variables();
    const std::vector<Term>& exist = tgds[i].existential_variables();
    auto slot_of = [&](Term v) {
      auto it = std::find(vars.begin(), vars.end(), v);
      if (it != vars.end()) return static_cast<uint32_t>(it - vars.begin());
      return static_cast<uint32_t>(
          vars.size() + (std::find(exist.begin(), exist.end(), v) -
                         exist.begin()));
    };
    Rule& c = rules_[i];
    c.body.Clear();
    c.head.Clear();
    for (const Atom& a : tgds[i].body()) c.body.Add(a, slot_of);
    for (const Atom& a : tgds[i].head()) c.head.Add(a, slot_of);
    c.body_vars = vars.size();
    c.slots = vars.size() + exist.size();
  }
}

ChaseResult ChaseTgds(Instance start, const std::vector<Tgd>& tgds,
                      const ChaseOptions& options) {
  ChaseResult result;
  result.instance = std::move(start);
  t_scratch.tgds.Compile(tgds);
  result.saturated = RunTgdPhase(&result, t_scratch.tgds, options, &t_scratch);
  return result;
}

ChaseResult Chase(Instance start, const DependencySet& sigma,
                  const ChaseOptions& options) {
  t_scratch.tgds.Compile(sigma.tgds);
  return Chase(std::move(start), sigma, t_scratch.tgds, options);
}

ChaseResult Chase(Instance start, const DependencySet& sigma,
                  const CompiledTgds& tgds, const ChaseOptions& options) {
  ChaseResult result;
  result.instance = std::move(start);
  if (!sigma.HasEgds()) {
    result.saturated = RunTgdPhase(&result, tgds, options, &t_scratch);
    return result;
  }
  // Interleave: egd fixpoint, then one full tgd saturation phase, repeat.
  // Each phase runs on the merged instance; term merges are accumulated.
  bool changed = true;
  bool hit_budget = false;
  while (changed && !hit_budget) {
    EgdChaseResult egds =
        ChaseEgds(std::move(result.instance), sigma.egds, &result.term_map,
                  options.cancel);
    changed = egds.changed;
    result.instance = std::move(egds.instance);
    if (egds.failed) {
      result.failed = true;
      result.saturated = true;
      return result;
    }
    hit_budget = egds.truncated ||
                 (sigma.HasTgds() && options.max_steps > 0 &&
                  result.steps >= options.max_steps);
    if (hit_budget || !sigma.HasTgds()) break;
    const size_t size_before = result.instance.size();
    hit_budget = !RunTgdPhase(&result, tgds, options, &t_scratch);
    if (result.instance.size() != size_before) changed = true;
  }
  result.saturated = !hit_budget;
  return result;
}

bool Satisfies(const Instance& instance, const Tgd& tgd) {
  // The restricted chase fires exactly the triggers whose head does not
  // map: one step is a violation.
  ChaseOptions one_step;
  one_step.max_steps = 1;
  return ChaseTgds(instance, {tgd}, one_step).steps == 0;
}

bool Satisfies(const Instance& instance, const Egd& egd) {
  EgdChaseResult result = ChaseEgds(instance, {egd});
  return !result.changed && !result.failed;
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
