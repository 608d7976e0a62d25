#ifndef SEMACYC_CHASE_TGD_CHASE_H_
#define SEMACYC_CHASE_TGD_CHASE_H_

#include <cstddef>
#include <string>

#include "chase/dependency.h"
#include "core/homomorphism.h"
#include "core/instance.h"
#include "core/interrupt.h"

namespace semacyc {

/// Chase configuration.
struct ChaseOptions {
  enum class Variant {
    /// Standard/restricted chase: fire a trigger only when the head is not
    /// already satisfied by an extension of the trigger (§2 semantics).
    kRestricted,
    /// Oblivious chase: fire every trigger exactly once. Used for the
    /// worst-case constructions (Examples 2 and 3).
    kOblivious,
  };
  Variant variant = Variant::kRestricted;

  /// Stop after this many trigger firings (0 = unlimited).
  size_t max_steps = 200000;
  /// Stop once the instance holds this many atoms (0 = unlimited).
  size_t max_atoms = 2000000;
  /// Stop after this many chase rounds / null-generation depth
  /// (0 = unlimited). A "round" adds all triggers visible at round start.
  size_t max_rounds = 0;
  /// Cooperative cancellation token polled alongside every budget check
  /// (nullptr = not cancellable, the default). A fired token stops the
  /// chase exactly like an exhausted budget: the result reports
  /// saturated = false, so every downstream consumer already treats it as
  /// a truncated prefix.
  CancelToken* cancel = nullptr;
};

/// Outcome of a chase run.
struct ChaseResult {
  Instance instance;
  /// True iff the chase reached a fixpoint: no applicable trigger remains.
  /// When false, `instance` is a finite prefix of some (possibly infinite)
  /// chase result.
  bool saturated = false;
  /// True iff an egd tried to merge two distinct genuine constants.
  bool failed = false;
  size_t steps = 0;
  size_t rounds = 0;
  /// For egd chases: the accumulated term merges, mapping each original
  /// term to its final representative.
  Substitution term_map;

  /// Resolves a term through `term_map` (identity if unmapped).
  Term Resolve(Term t) const;
};

/// A tgd set compiled for the chase. Rule i is tgd i over one slot space:
/// slot s below `body_vars` is body variable s (Tgd::body_variables
/// order), the slots after it the existential variables in order. The
/// trigger search binds the body slots; the head check and the firing
/// read the same binding. Read-only while chasing, so one compiled set
/// serves any number of chases on any number of threads.
class CompiledTgds {
 public:
  struct Rule {
    hom::CompiledTerms body;
    hom::CompiledTerms head;
    size_t body_vars = 0;
    size_t slots = 0;
  };

  CompiledTgds() = default;
  explicit CompiledTgds(const std::vector<Tgd>& tgds) { Compile(tgds); }

  /// Replaces the compiled set, keeping its capacity.
  void Compile(const std::vector<Tgd>& tgds);
  const std::vector<Rule>& rules() const { return rules_; }

 private:
  std::vector<Rule> rules_;
};

/// Chases `start` with tgds only. Fair scheduling (round-robin over rounds,
/// anchored on newly derived atoms), so every applicable trigger is
/// eventually fired.
///
/// Each tgd is compiled once per call (CompiledTgds). Its triggers are found by one
/// indexed homomorphism search (hom::SearchInstance) per newly derived
/// atom, anchored on that atom; the head check and the firing read the
/// body images from the same binding array, and a fired trigger is
/// remembered as the exact integer tuple (tgd index, body images) in a
/// flat table. `start` is taken by value and chased in place: move an
/// instance in to chase it without a copy.
ChaseResult ChaseTgds(Instance start, const std::vector<Tgd>& tgds,
                      const ChaseOptions& options = {});

/// Chases `start` with a full dependency set (tgds + egds interleaved:
/// each tgd round is followed by an egd fixpoint). Takes `start` by value,
/// as ChaseTgds does.
ChaseResult Chase(Instance start, const DependencySet& sigma,
                  const ChaseOptions& options = {});
/// The same chase with Σ's tgds compiled by the caller: `tgds` must be
/// CompiledTgds(sigma.tgds). The chase a caller runs many times (the
/// containment oracle's, once per witness candidate) compiles once.
ChaseResult Chase(Instance start, const DependencySet& sigma,
                  const CompiledTgds& tgds, const ChaseOptions& options = {});

/// Does `instance` satisfy the dependency set? (Definition in §2: for tgds
/// via containment of the body query in the head query; for egds via
/// absence of violating homomorphisms.)
bool Satisfies(const Instance& instance, const DependencySet& sigma);
bool Satisfies(const Instance& instance, const Tgd& tgd);
bool Satisfies(const Instance& instance, const Egd& egd);

}  // namespace semacyc

#endif  // SEMACYC_CHASE_TGD_CHASE_H_
