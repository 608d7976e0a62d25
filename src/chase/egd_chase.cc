#include "chase/egd_chase.h"

#include "core/homomorphism.h"

namespace semacyc {
namespace {

/// Per-thread state of the egd chase; it keeps its capacity across calls.
/// Egd i's body is compiled into bodies[i] over slots in first-occurrence
/// order.
struct EgdScratch {
  std::vector<hom::CompiledTerms> bodies;
  hom::Scratch search;
};
thread_local EgdScratch t_scratch;

}  // namespace

EgdChaseResult ChaseEgds(Instance start, const std::vector<Egd>& egds,
                         Substitution* term_map, CancelToken* cancel) {
  EgdChaseResult result;
  result.instance = std::move(start);
  EgdScratch& s = t_scratch;
  s.bodies.resize(egds.size());
  for (size_t i = 0; i < egds.size(); ++i) {
    s.bodies[i].Compile(egds[i].body(), {});
  }

  // Egds are repaired round-robin, each to its own fixpoint; the chase
  // ends once every egd in a row found nothing. An egd repaired since the
  // last merge needs no second look, so the run stops as soon as the
  // egds after the last merging one (wrapping around) find nothing.
  const size_t n = egds.size();
  for (size_t i = 0, quiet = 0; quiet < n; i = (i + 1) % n) {
    bool merged = false;
    {
      hom::CompiledTerms& body = s.bodies[i];
      std::vector<Term>& h = body.binding;
      // A side the body does not bind stands for itself.
      auto image = [&](Term side) {
        uint32_t slot = body.SlotOf(side);
        return slot == hom::kGround ? side : h[slot];
      };
      while (true) {
        if (cancel != nullptr && cancel->Poll()) {
          // A violation may remain unrepaired; the caller must treat the
          // instance as an unfinished fixpoint, never as satisfied.
          result.truncated = true;
          return result;
        }
        // The first violating match, in search order.
        h.assign(h.size(), Term());
        bool violated = hom::SearchInstance(
            body, result.instance, &h, cancel, &s.search,
            [&] { return image(egds[i].lhs()) != image(egds[i].rhs()); });
        if (cancel != nullptr && cancel->triggered()) {
          result.truncated = true;
          return result;
        }
        if (!violated) break;
        Term a = image(egds[i].lhs()), b = image(egds[i].rhs());
        if (a.IsConstant() && b.IsConstant()) {
          result.failed = true;
          return result;
        }
        // Constant wins; otherwise keep `a` as representative.
        Term keep = a, drop = b;
        if (b.IsConstant()) {
          keep = b;
          drop = a;
        }
        result.instance.ReplaceTerm(drop, keep);
        if (term_map != nullptr) {
          // Re-point everything that resolved to `drop`.
          for (auto& [from, to] : *term_map) {
            if (to == drop) to = keep;
          }
          (*term_map)[drop] = keep;
        }
        ++result.merges;
        result.changed = true;
        merged = true;
      }
    }
    // The egd that merged is at its fixpoint: the n - 1 others remain.
    quiet = merged ? 1 : quiet + 1;
  }
  return result;
}

}  // namespace semacyc
