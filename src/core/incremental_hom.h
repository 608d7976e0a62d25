#ifndef SEMACYC_CORE_INCREMENTAL_HOM_H_
#define SEMACYC_CORE_INCREMENTAL_HOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/flat_table.h"
#include "core/homomorphism.h"
#include "core/instance.h"
#include "core/interrupt.h"
#include "core/query.h"

namespace semacyc {

/// Exact decision of "do the pushed atoms map homomorphically into a fixed
/// target instance?" maintained incrementally under a *stack* of atoms —
/// the access pattern of the exhaustive witness enumerator (PushAtom when
/// the DFS appends a candidate atom, PopAtom when it backtracks). Replaces
/// a from-scratch FindHomomorphisms run per DFS node with work proportional
/// to what the new atom actually changed, without giving up exactness:
/// found() always equals FindHomomorphisms(pushed atoms, target).found with
/// the same fixed bindings (parity pinned by incremental_hom_test).
///
/// How a push is absorbed, cheapest case first:
///
///  * Forward checking. Every mappable term (variable or null; terms bound
///    by `fixed` count as pre-bound variables) carries a *candidate
///    domain*: the target terms it can still take under the per-atom
///    constraints seen so far. A push scans the new atom's candidate
///    tuples — the target's per-predicate list, narrowed through the
///    (predicate, position, term) index by any ground or domain-singleton
///    position — and intersects each variable's domain with the values the
///    compatible tuples support. An emptied domain (or an empty candidate
///    list) refutes the push in O(affected): domains over-approximate the
///    image of every homomorphism, so emptiness is an exact NO and no
///    search runs at all.
///  * Witness extension. When the prefix has a witness homomorphism (the
///    common case), the same scan also looks for a tuple consistent with
///    the already-bound variables; finding one extends the witness to the
///    new atom's fresh variables and the push is done — no search.
///  * Repair. Only when the prefix witness cannot be extended does a
///    backtracking search run over all pushed atoms (earlier choices may
///    need revision). It is the one compiled search of core/homomorphism
///    (hom::HomSearch): each level's cached compatible-tuple list is its
///    base list, the target Instance's (predicate, position, term) buckets
///    narrow every bound or ground position, and domain membership filters
///    each binding. Its outcome is exact; a failure is remembered, and —
///    homomorphisms being closed under restriction to a sub-conjunction —
///    deeper pushes under a failed prefix are refuted for free.
///
/// PopAtom undoes a push exactly: domain shrinkage is trail-based (each
/// domain is a values array with an active prefix; shrinking swaps
/// survivors to the front and records the old active size, so undo is O(1)
/// per touched variable), variables first seen in the popped atom die with
/// it, and the prefix's found() verdict is restored. A witness surviving a
/// pop stays valid — restricting a homomorphism to fewer atoms never
/// breaks it — so repaired bindings of older variables are kept, not
/// rolled back.
///
/// Sessions are reusable: Reset() clears the stack and re-seeds the fixed
/// bindings (the enumerator resets once per head pattern). Steady-state
/// push/pop cycles allocate nothing (pinned by incremental_hom_test):
/// levels, variable records, domains and scratch buffers are pooled, and
/// a source term finds its variable record by a scan of the live
/// variable stack — the source side is one small candidate plus its head,
/// so no hash table is kept.
///
/// Not thread-safe; one session per search, like IncrementalClassifier.
class IncrementalHomomorphism {
 public:
  /// Counters for introspection and benches: how pushes were absorbed.
  struct Stats {
    size_t pushes = 0;
    /// Pushes refuted by forward checking (no compatible tuple, or an
    /// emptied domain) — exact NOs with no search.
    size_t fc_rejects = 0;
    /// Pushes absorbed by extending the prefix witness — exact YESes with
    /// no search.
    size_t extends = 0;
    /// Pushes that ran the full backtracking repair search.
    size_t repairs = 0;
    /// Repairs that came back empty (exact NO the hard way).
    size_t repair_fails = 0;
    /// Candidate tuples the repair searches tried — their deterministic
    /// work count.
    size_t repair_steps = 0;
    /// Pushes onto an already-failed prefix (free, hereditary NO).
    size_t dead_prefix = 0;
  };

  /// Binds the session to `target` (kept by reference — it must outlive
  /// the session and stay unchanged while atoms are pushed). The session
  /// starts at depth 0 with no fixed bindings and found() == true (the
  /// empty conjunction maps trivially).
  explicit IncrementalHomomorphism(const Instance& target);

  /// Clears the stack and re-seeds the pre-bound mappings (e.g. head
  /// variables to frozen head terms). Terms bound here are used verbatim,
  /// like HomOptions::fixed. Pooled storage is kept.
  void Reset(const Substitution& fixed = {});

  /// Pushes an atom and returns found(): whether all pushed atoms still
  /// map into the target (with the fixed bindings respected). Variables
  /// and nulls are mappable; constants map to themselves.
  bool PushAtom(const Atom& atom);

  /// Undoes the most recent PushAtom. Must not be called at depth 0.
  void PopAtom();

  /// Whether the pushed atoms map into the target. Exact — agrees with a
  /// from-scratch FindHomomorphisms at every depth.
  bool found() const { return found_; }

  size_t depth() const { return depth_; }

  /// The current witness homomorphism: every mappable term of every pushed
  /// atom (plus the fixed seeds), mapped. Only meaningful when found().
  Substitution Witness() const;

  const Stats& stats() const { return stats_; }

  /// Attaches a cooperative cancellation token polled inside the repair
  /// DFS (the only super-linear path; nullptr = not cancellable, the
  /// default). A fired token makes the in-flight repair fail as if the
  /// search space were empty — found() may then be false spuriously, so
  /// the caller must discard the outcome once the token has triggered.
  /// Pops stay exact: the undo trail is independent of the search.
  void SetCancel(CancelToken* cancel) { cancel_ = cancel; }

 private:
  /// Dense ids: every distinct term of the target is interned once at
  /// construction into [0, num_dense), and the target's tuples are stored
  /// dense — so the per-tuple scan does array arithmetic only, no term
  /// hashing. The sentinel marks "not a target term" (such a ground source
  /// argument can never match) and "unbound"; it is hom::kGround, so a
  /// level's variable-per-position array is a compiled atom's slot array,
  /// and FlatKeyTable::kNone, so a failed dense_of_ lookup yields it.
  static constexpr uint32_t kNoDense = hom::kGround;
  static_assert(kNoDense == FlatKeyTable::kNone);

  /// Candidate-domain state of one mappable term, over dense target ids.
  /// `values[0..active)` are the live candidates; shrinking permutes
  /// survivors into that prefix so a trail entry (old active size) undoes
  /// it exactly. `where[d]` is 1 + the slot of dense id d in `values`
  /// (0 = absent), maintained across the permutations for O(1) membership.
  struct VarState {
    Term term;
    std::vector<uint32_t> values;
    std::vector<uint32_t> where;  // sized num_dense; zeroed on release
    size_t active = 0;
    uint32_t bound = kNoDense;  // dense witness image; kNoDense = unbound
    Term fixed_term;            // witness image of a fixed seed (verbatim)
    bool is_fixed = false;
  };

  /// Undo record of one push, plus the level's slice of the repair search
  /// space (its compatible tuples and its position→variable pattern).
  struct Level {
    /// (var index, active size before this push's shrink).
    std::vector<std::pair<uint32_t, uint32_t>> trail;
    /// Variables first seen in this push (a suffix of the var stack);
    /// PopAtom releases them, so lifetime is purely stack-based.
    std::vector<uint32_t> fresh;
    /// Target atoms compatible with the pushed atom at push time — a
    /// superset of what any homomorphism can pick for it (domains only
    /// shrink afterwards), so the repair DFS is complete over these lists.
    std::vector<uint32_t> tuples;
    /// Per position: the variable id, or kNoDense for a ground position,
    /// whose dense value is in `ground`.
    std::vector<uint32_t> pos_var;
    std::vector<uint32_t> ground;
    /// The pushed atom's predicate, which keys its index buckets.
    Predicate pred;
    bool saved_found = true;
    /// Push landed on an already-failed prefix: nothing to undo.
    bool dead_prefix = false;
  };

  /// Scratch for one slot (distinct mappable term) of the pushed atom.
  /// The support set is epoch-stamped (stamp[d] == epoch means dense id d
  /// is supported this push), so clearing between pushes is free.
  struct SlotScratch {
    uint32_t var = 0;
    bool fresh = false;
    std::vector<uint32_t> support_list;
    std::vector<uint32_t> stamp;  // sized num_dense
    uint32_t epoch = 0;
  };

  /// The live variable record of `t`, or kNoDense. A linear scan of the
  /// variable stack: the source side is one small candidate plus its
  /// head, so this beats hashing and keeps interning allocation-free.
  uint32_t FindVar(Term t) const;
  uint32_t InternVar(Term t);
  void ReleaseVar(uint32_t id);
  bool InDomain(const VarState& v, uint32_t dense) const {
    uint32_t w = v.where[dense];
    return w != 0 && w - 1 < v.active;
  }
  /// Shrinks `v` to the values stamped in `slot`, recording a trail entry
  /// (skipped when nothing shrinks).
  void ShrinkDomain(uint32_t var_id, Level* level, const SlotScratch& slot);
  /// Exact backtracking search over all pushed atoms (the repair path):
  /// hom::HomSearch over the per-level compatible-tuple lists, narrowed
  /// by the target's index, filtered by the domains — no allocation.
  bool Repair();
  struct RepairTarget;

  /// The target's atoms of `pred` whose position `pos` holds dense term
  /// `dense` — the Instance's bucket, so ascending; empty for kNoDense.
  hom::TupleSpan Bucket(Predicate pred, size_t pos, uint32_t dense) const;

  const Instance* target_;

  /// Dense interning of the target's terms and tuples (built once; the
  /// target must not change during the session). dense_of_ maps a term's
  /// raw bits to its dense id (the group id); tuple i's values are
  /// dense_args_[tuple_start_[i]..).
  FlatKeyTable dense_of_;
  std::vector<Term> dense_terms_;
  std::vector<uint32_t> dense_args_;
  std::vector<uint32_t> tuple_start_;

  /// Pooled variable records; vars_[0..vars_in_use_) are live, one per
  /// distinct mappable term (FindVar looks them up). Fixed variables
  /// occupy the bottom of the stack and never die.
  std::vector<VarState> vars_;
  size_t vars_in_use_ = 0;

  /// Pooled per-push undo records; levels_[0..depth_) are live.
  std::vector<Level> levels_;
  size_t depth_ = 0;

  bool found_ = true;
  Stats stats_;
  CancelToken* cancel_ = nullptr;

  /// Repair scratch, pooled across repairs: the per-variable dense
  /// binding (kNoDense = unbound) and the search's order and undo stack.
  std::vector<uint32_t> repair_binding_;
  hom::Scratch repair_scratch_;

  /// Per-push scratch, pooled across pushes. Values are dense target ids.
  std::vector<SlotScratch> slots_;
  /// Buckets the scan walks this push (one per domain value of the most
  /// selective position, or the whole per-predicate list), plus the
  /// per-position scratch the selection compares against it.
  std::vector<hom::TupleSpan> scan_buckets_;
  std::vector<hom::TupleSpan> probe_buckets_;
  std::vector<int> slot_of_position_;   // -1 = ground position
  std::vector<uint32_t> tuple_vals_;    // per-slot value of the current tuple
  std::vector<uint32_t> extend_vals_;   // per-slot values of the extension
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_INCREMENTAL_HOM_H_
