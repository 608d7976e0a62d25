#ifndef SEMACYC_CORE_INCREMENTAL_HOM_H_
#define SEMACYC_CORE_INCREMENTAL_HOM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/flat_table.h"
#include "core/homomorphism.h"
#include "core/instance.h"
#include "core/interrupt.h"
#include "core/query.h"

namespace semacyc {

/// A fixed target Instance in integer form, read by the incremental
/// session's pushes and repairs without hashing. Every distinct term is
/// interned once into a dense id in [0, num_terms()), every predicate of
/// the target gets a local id (ascending global id), and tuple i's values
/// are dense ids. A bucket directory built at construction answers the
/// Instance's two index reads by array arithmetic:
///  * AtomsOf(lp): the atoms of local predicate lp;
///  * Bucket(lp, pos, d): the atoms of lp whose position pos holds d.
/// Both list atom ids ascending, which is the Instance's bucket order.
///
/// The directory is term-major: per dense term, its runs of (column,
/// atoms), where column numbers a (local predicate, position) pair. Each
/// argument of each atom lands in exactly one run, so its size is linear
/// in the target's argument count (a predicates x positions x terms table
/// is not: the recursive guarded probe's chase has 400k atoms). A lookup
/// binary-searches the term's runs, of which there are at most as many as
/// columns. It is immutable after construction, so the sessions of all
/// search workers over one chase share a single DenseTarget.
///
/// Column masks summarize the directory in one word per term: bit c of
/// ColumnMask(d) is set iff term d occurs in column c, read off d's runs
/// at construction (8 bytes per term). A caller tests "can an argument
/// whose candidates have mask m sit at (lp, pos)?" as
/// `m & ColumnBit(lp, pos)`. A target with more than 64 columns does not
/// fit a word: there every term's mask is all ones and ColumnBit is bit
/// 0, so the test passes for every target term and prunes nothing but
/// terms outside the target. Exact either way, only coarser.
class DenseTarget {
 public:
  /// "Not a target term / predicate"; also FlatKeyTable's miss value.
  static constexpr uint32_t kNone = FlatKeyTable::kNone;
  /// Columns a mask word can hold.
  static constexpr uint32_t kMaskColumns = 64;

  explicit DenseTarget(const Instance& target);

  size_t num_terms() const { return terms_.size(); }
  Term term(uint32_t dense) const { return terms_[dense]; }
  /// The dense id of `t`, or kNone (one hash lookup).
  uint32_t DenseOf(Term t) const { return dense_of_.Find(t.raw_bits()); }
  /// The local id of `pred`, or kNone when no target atom has it.
  uint32_t LocalPred(Predicate pred) const {
    auto it = std::lower_bound(pred_ids_.begin(), pred_ids_.end(), pred.id());
    if (it == pred_ids_.end() || *it != pred.id()) return kNone;
    return static_cast<uint32_t>(it - pred_ids_.begin());
  }
  /// Tuple `tuple`'s dense values, one per position.
  const uint32_t* Args(uint32_t tuple) const {
    return &args_[tuple_start_[tuple]];
  }
  /// The atoms of local predicate `lp`; empty for kNone.
  hom::TupleSpan AtomsOf(uint32_t lp) const {
    if (lp == kNone) return {};
    return {pred_atoms_.data() + pred_start_[lp],
            pred_start_[lp + 1] - pred_start_[lp]};
  }
  /// The atoms of local predicate `lp` whose position `pos` holds dense
  /// term `dense`; empty when either is kNone.
  hom::TupleSpan Bucket(uint32_t lp, size_t pos, uint32_t dense) const {
    if (lp == kNone || dense == kNone) return {};
    const uint32_t column = column_start_[lp] + static_cast<uint32_t>(pos);
    const Run* last = runs_.data() + term_runs_[dense + 1];
    const Run* run = std::lower_bound(
        runs_.data() + term_runs_[dense], last, column,
        [](const Run& r, uint32_t c) { return r.column < c; });
    if (run == last || run->column != column) return {};
    return {atoms_at_.data() + run->begin, run[1].begin - run->begin};
  }
  /// The columns dense term `dense` occurs in, one bit per column.
  uint64_t ColumnMask(uint32_t dense) const { return column_masks_[dense]; }
  /// ColumnMask of any term: 0 for a term outside the target.
  uint64_t TermColumnMask(Term t) const {
    const uint32_t d = DenseOf(t);
    return d == kNone ? 0 : column_masks_[d];
  }
  /// The mask bit of column (lp, pos); lp must be a target predicate.
  uint64_t ColumnBit(uint32_t lp, size_t pos) const {
    if (column_start_.back() > kMaskColumns) return 1;
    return uint64_t{1} << (column_start_[lp] + pos);
  }
  /// Heap bytes of the bucket directory (not of the interned tuples).
  size_t DirectoryBytes() const;

 private:
  /// One run of a term's directory: the term's atoms at one column are
  /// atoms_at_[begin .. the next run's begin).
  struct Run {
    uint32_t column;
    uint32_t begin;
  };

  FlatKeyTable dense_of_;  // a term's raw bits -> its dense id
  std::vector<Term> terms_;
  std::vector<uint32_t> args_;
  std::vector<uint32_t> tuple_start_;  // tuple i: args_[tuple_start_[i]..)
  /// Local predicate lp: global id pred_ids_[lp], columns column_start_[lp]
  /// .. column_start_[lp + 1], atoms pred_atoms_[pred_start_[lp] ..
  /// pred_start_[lp + 1]).
  std::vector<uint32_t> pred_ids_;
  std::vector<uint32_t> column_start_;
  std::vector<uint32_t> pred_start_;
  std::vector<uint32_t> pred_atoms_;
  /// Term d's runs are runs_[term_runs_[d] .. term_runs_[d + 1]), in
  /// ascending column; runs_ ends with a sentinel whose begin is the size
  /// of atoms_at_.
  std::vector<uint32_t> term_runs_;
  std::vector<Run> runs_;
  std::vector<uint32_t> atoms_at_;
  std::vector<uint64_t> column_masks_;  // per dense term
};

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
///  * Argument forward check (before the push, by the caller). Each live
///    variable keeps the OR of its domain values' column masks
///    (DenseTarget), so ColumnMask(t) & ColumnBit(lp, pos) == 0 says in
///    O(1) that no tuple the scan below could accept has a candidate of
///    `t` at (lp, pos): an atom with `t` there is refuted, and a caller
///    building atoms argument by argument skips the choice without
///    pushing it. The mask is set when a domain is born, recomputed when
///    it shrinks and restored by the trail on pop.
///  * Forward checking. Every mappable term (variable or null; terms bound
///    by `fixed` count as pre-bound variables) carries a *candidate
///    domain*: the target terms it can still take under the per-atom
///    constraints seen so far. A push scans the new atom's candidate
///    tuples — the target's per-predicate list, narrowed through the
///    (predicate, position, term) buckets by any ground or small-domain
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
///    base list, the (predicate, position, term) buckets narrow every bound
///    or ground position, and domain membership filters each binding. Its
///    outcome is exact; a failure is remembered, and — homomorphisms being
///    closed under restriction to a sub-conjunction — deeper pushes under a
///    failed prefix are refuted for free.
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
/// Both paths read the target through a DenseTarget, which the session
/// shares read-only with any other sessions over the same target: the
/// scan, the buckets and the repair's tuple reads are array indexing over
/// dense ids. A source term finds its variable record by a scan of the
/// live variable stack (the source side is one small candidate plus its
/// head) and the predicate its local id by a binary search over the
/// target's few predicates, so a push of constant-free atoms hashes
/// nothing; a ground argument costs one DenseOf lookup.
///
/// Sessions are reusable: Reset() clears the stack and re-seeds the fixed
/// bindings (the enumerator resets once per head pattern). Steady-state
/// push/pop cycles allocate nothing (pinned by incremental_hom_test):
/// levels, variable records, domains and scratch buffers are pooled, and
/// each push writes its per-position arrays in place.
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
    /// Argument choices a caller skipped on ColumnMask instead of pushing
    /// them. The session never counts these itself; the caller that reads
    /// the masks adds its own count where it reports the session's.
    size_t arg_prunes = 0;
  };

  /// Binds the session to `target`, which must outlive it and may be
  /// shared by several sessions (each on its own thread). The session
  /// starts at depth 0 with no fixed bindings and found() == true (the
  /// empty conjunction maps trivially).
  explicit IncrementalHomomorphism(const DenseTarget& target);
  IncrementalHomomorphism(DenseTarget&&) = delete;

  /// Clears the stack and re-seeds the pre-bound mappings (e.g. head
  /// variables to frozen head terms). Terms bound here are used verbatim,
  /// like HomOptions::fixed. Pooled storage is kept.
  void Reset(const Substitution& fixed = {});

  /// Pushes an atom and returns found(): whether all pushed atoms still
  /// map into the target (with the fixed bindings respected). Variables
  /// and nulls are mappable; constants map to themselves. Only the
  /// arguments are read, during the call.
  bool PushAtom(AtomView atom);

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

  /// The target columns a pushed atom may still hold `t` in (DenseTarget's
  /// column masks): for a live variable, the OR over its domain (0 for a
  /// fixed seed whose image is outside the target); all ones for a
  /// variable or null the pushed atoms do not mention; for a constant, its
  /// own mask (0 outside the target). A bit `ColumnBit(lp, pos)` missing
  /// from it means an atom with `t` at (lp, pos) is refuted by PushAtom.
  /// One scan of the live variables; no hashing for a variable.
  uint64_t ColumnMask(Term t) const {
    const uint32_t id = FindVar(t);
    if (id != kNoDense) return vars_[id].mask;
    if (t.IsVariable() || t.IsNull()) return ~uint64_t{0};
    return target_.TermColumnMask(t);
  }

  /// The live candidate domain of `t` as dense target ids, in no order;
  /// empty when `t` is not a live variable. For tests.
  std::vector<uint32_t> Domain(Term t) const;

  /// Attaches a cooperative cancellation token polled inside the repair
  /// DFS (the only super-linear path; nullptr = not cancellable, the
  /// default). A fired token makes the in-flight repair fail as if the
  /// search space were empty — found() may then be false spuriously, so
  /// the caller must discard the outcome once the token has triggered.
  /// Pops stay exact: the undo trail is independent of the search.
  void SetCancel(CancelToken* cancel) { cancel_ = cancel; }

 private:
  /// Values are the target's dense ids. The sentinel marks "not a target
  /// term" (such a ground source argument can never match), "not a target
  /// predicate" and "unbound"; it is hom::kGround, so a level's
  /// variable-per-position array is a compiled atom's slot array, and
  /// DenseTarget::kNone, so a failed lookup yields it.
  static constexpr uint32_t kNoDense = hom::kGround;
  static_assert(kNoDense == DenseTarget::kNone);

  /// Candidate-domain state of one mappable term, over dense target ids.
  /// `values[0..active)` are the live candidates; shrinking permutes
  /// survivors into that prefix so a trail entry (old active size) undoes
  /// it exactly. `where[d]` is 1 + the slot of dense id d in `values`
  /// (0 = absent), maintained across the permutations for O(1) membership.
  /// `mask` is the OR of the active values' column masks.
  struct VarState {
    std::vector<uint32_t> values;
    std::vector<uint32_t> where;  // sized num_terms; zeroed on release
    size_t active = 0;
    uint64_t mask = 0;
    uint32_t bound = kNoDense;  // dense witness image; kNoDense = unbound
    Term fixed_term;            // witness image of a fixed seed (verbatim)
    bool is_fixed = false;
  };

  /// Undo record of one push, plus the level's slice of the repair search
  /// space (its compatible tuples and its position→variable pattern).
  struct Level {
    /// A variable's state before this push's shrink.
    struct Shrink {
      uint32_t var;
      uint32_t active;
      uint64_t mask;
    };
    std::vector<Shrink> trail;
    /// Variables first seen in this push (a suffix of the var stack);
    /// PopAtom releases them, so lifetime is purely stack-based.
    std::vector<uint32_t> fresh;
    /// Target atoms compatible with the pushed atom at push time — a
    /// superset of what any homomorphism can pick for it (domains only
    /// shrink afterwards), so the repair DFS is complete over these lists.
    std::vector<uint32_t> tuples;
    /// Per position: the variable id, or kNoDense for a ground position,
    /// whose dense value is in `ground`. Written in place per push.
    std::vector<uint32_t> pos_var;
    std::vector<uint32_t> ground;
    /// The pushed atom's local predicate, which keys its buckets.
    uint32_t pred = kNoDense;
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
    std::vector<uint32_t> stamp;  // sized num_terms
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

  const DenseTarget& target_;

  /// The live variables' terms, one per distinct mappable term, in a
  /// compact array that FindVar scans; vars_[id] is var_terms_[id]'s
  /// record (vars_ is pooled beyond the live ones). Fixed variables
  /// occupy the bottom of the stack and never die.
  std::vector<Term> var_terms_;
  std::vector<VarState> vars_;

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
  /// per-position scratch the selection compares against it. All of these
  /// are resized and written in place, never re-filled.
  std::vector<hom::TupleSpan> scan_buckets_;
  std::vector<hom::TupleSpan> probe_buckets_;
  std::vector<int> slot_of_position_;   // -1 = ground position
  std::vector<uint32_t> tuple_vals_;    // per-slot value of the current tuple
  std::vector<uint32_t> extend_vals_;   // per-slot values of the extension
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_INCREMENTAL_HOM_H_
