#include "core/incremental_hom.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace semacyc {

DenseTarget::DenseTarget(const Instance& target) {
  // Interning: one hash per target argument, once per target. A term's
  // group id is its dense id.
  const std::vector<Atom>& atoms = target.atoms();
  tuple_start_.reserve(atoms.size() + 1);
  tuple_start_.push_back(0);
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      uint32_t d = dense_of_.Insert(t.raw_bits());
      if (d == terms_.size()) terms_.push_back(t);
      args_.push_back(d);
    }
    tuple_start_.push_back(static_cast<uint32_t>(args_.size()));
    if (LocalPred(a.predicate()) == kNone) {
      const uint32_t id = a.predicate().id();
      pred_ids_.insert(
          std::lower_bound(pred_ids_.begin(), pred_ids_.end(), id), id);
    }
  }

  // Per local predicate: its columns (a predicate fixes its arity) and
  // its atoms, ascending (a counting sort by local predicate).
  const size_t num_preds = pred_ids_.size();
  std::vector<uint32_t> arity(num_preds);
  std::vector<uint32_t> local(atoms.size());
  pred_start_.assign(num_preds + 1, 0);
  for (uint32_t i = 0; i < atoms.size(); ++i) {
    local[i] = LocalPred(atoms[i].predicate());
    arity[local[i]] = static_cast<uint32_t>(atoms[i].arity());
    ++pred_start_[local[i] + 1];
  }
  column_start_.assign(num_preds + 1, 0);
  for (size_t lp = 0; lp < num_preds; ++lp) {
    column_start_[lp + 1] = column_start_[lp] + arity[lp];
    pred_start_[lp + 1] += pred_start_[lp];
  }
  pred_atoms_.resize(atoms.size());
  std::vector<uint32_t> fill(pred_start_.begin(), pred_start_.end() - 1);
  for (uint32_t i = 0; i < atoms.size(); ++i) pred_atoms_[fill[local[i]]++] = i;

  // The directory, by a counting sort on the term: visiting the columns
  // in ascending order and each column's atoms ascending, every argument
  // goes to its term's next free slot, so each term's runs come out by
  // column and each run's atoms ascending.
  fill.assign(terms_.size() + 1, 0);
  for (uint32_t d : args_) ++fill[d + 1];
  for (size_t d = 0; d < terms_.size(); ++d) fill[d + 1] += fill[d];
  std::vector<uint32_t> column_at(args_.size());
  atoms_at_.resize(args_.size());
  for (size_t lp = 0; lp < num_preds; ++lp) {
    for (uint32_t pos = 0; pos < arity[lp]; ++pos) {
      for (uint32_t j = pred_start_[lp]; j < pred_start_[lp + 1]; ++j) {
        const uint32_t i = pred_atoms_[j];
        const uint32_t k = fill[args_[tuple_start_[i] + pos]]++;
        atoms_at_[k] = i;
        column_at[k] = column_start_[lp] + pos;
      }
    }
  }
  // fill[d] is now the end of term d's slots, the start of term d + 1's.
  term_runs_.reserve(terms_.size() + 1);
  for (size_t d = 0, k = 0; d < terms_.size(); ++d) {
    term_runs_.push_back(static_cast<uint32_t>(runs_.size()));
    for (const size_t first = k; k < fill[d]; ++k) {
      if (k == first || column_at[k] != column_at[k - 1]) {
        runs_.push_back({column_at[k], static_cast<uint32_t>(k)});
      }
    }
  }
  term_runs_.push_back(static_cast<uint32_t>(runs_.size()));
  runs_.push_back({kNone, static_cast<uint32_t>(atoms_at_.size())});
  runs_.shrink_to_fit();

  // One bit per run: a term's runs are exactly the columns it occurs in.
  const bool fits = column_start_.back() <= kMaskColumns;
  column_masks_.assign(terms_.size(), fits ? 0 : ~uint64_t{0});
  for (size_t d = 0; fits && d < terms_.size(); ++d) {
    for (uint32_t r = term_runs_[d]; r < term_runs_[d + 1]; ++r) {
      column_masks_[d] |= uint64_t{1} << runs_[r].column;
    }
  }
}

size_t DenseTarget::DirectoryBytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(pred_ids_) + bytes(column_start_) + bytes(pred_start_) +
         bytes(pred_atoms_) + bytes(term_runs_) + bytes(runs_) +
         bytes(atoms_at_) + bytes(column_masks_);
}

IncrementalHomomorphism::IncrementalHomomorphism(const DenseTarget& target)
    : target_(target) {}

void IncrementalHomomorphism::Reset(const Substitution& fixed) {
  depth_ = 0;
  while (!var_terms_.empty()) {
    ReleaseVar(static_cast<uint32_t>(var_terms_.size() - 1));
  }
  found_ = true;
  for (const auto& [src, dst] : fixed) {
    VarState& v = vars_[InternVar(src)];
    v.is_fixed = true;
    v.fixed_term = dst;
    // A fixed image outside the target has an empty domain: any atom
    // mentioning the seed is then refuted by the scan, which is exact —
    // but the empty conjunction still maps, so found_ stays true here.
    uint32_t d = target_.DenseOf(dst);
    if (d == kNoDense) continue;
    v.values.push_back(d);
    v.where[d] = 1;
    v.active = 1;
    v.mask = target_.ColumnMask(d);
    v.bound = d;
  }
}

uint32_t IncrementalHomomorphism::FindVar(Term t) const {
  for (size_t id = 0; id < var_terms_.size(); ++id) {
    if (var_terms_[id] == t) return static_cast<uint32_t>(id);
  }
  return kNoDense;
}

uint32_t IncrementalHomomorphism::InternVar(Term t) {
  uint32_t id = static_cast<uint32_t>(var_terms_.size());
  var_terms_.push_back(t);
  if (id == vars_.size()) vars_.emplace_back();
  VarState& v = vars_[id];
  v.values.clear();
  // `where` stays all-zero between occupants (ReleaseVar clears only the
  // entries its values touched), so reuse is O(1).
  v.where.resize(target_.num_terms(), 0);
  v.active = 0;
  v.mask = 0;
  v.bound = kNoDense;
  v.fixed_term = Term();
  v.is_fixed = false;
  return id;
}

void IncrementalHomomorphism::ReleaseVar(uint32_t id) {
  assert(id + 1 == var_terms_.size());
  VarState& v = vars_[id];
  for (uint32_t d : v.values) v.where[d] = 0;
  var_terms_.pop_back();
}

void IncrementalHomomorphism::ShrinkDomain(uint32_t var_id, Level* level,
                                           const SlotScratch& slot) {
  VarState& v = vars_[var_id];
  level->trail.push_back({var_id, static_cast<uint32_t>(v.active), v.mask});
  v.mask = 0;
  size_t i = 0;
  while (i < v.active) {
    uint32_t d = v.values[i];
    if (slot.stamp[d] == slot.epoch) {
      v.mask |= target_.ColumnMask(d);
      ++i;
      continue;
    }
    --v.active;
    if (i != v.active) {
      std::swap(v.values[i], v.values[v.active]);
      v.where[v.values[i]] = static_cast<uint32_t>(i) + 1;
      v.where[v.values[v.active]] = static_cast<uint32_t>(v.active) + 1;
    }
  }
}

/// The repair's view of the search: levels are the source atoms, their
/// cached compatible tuples the base lists, the DenseTarget's buckets the
/// index and the current domains the per-variable filter.
struct IncrementalHomomorphism::RepairTarget {
  IncrementalHomomorphism* self;

  const Level& at(uint32_t i) const { return self->levels_[i]; }
  hom::CompiledAtom<uint32_t> AtomAt(uint32_t i) const {
    return {at(i).pos_var.data(), at(i).ground.data(), at(i).pos_var.size()};
  }
  hom::TupleSpan Base(uint32_t i) const { return hom::SpanOf(&at(i).tuples); }
  hom::TupleSpan Bucket(uint32_t i, size_t pos, uint32_t value) const {
    return self->target_.Bucket(at(i).pred, pos, value);
  }
  uint32_t Arg(uint32_t tuple, size_t pos) const {
    return self->target_.Args(tuple)[pos];
  }
  bool Admits(uint32_t var, uint32_t value) const {
    return self->InDomain(self->vars_[var], value);
  }
  bool Poll() { return self->cancel_ != nullptr && self->cancel_->Poll(); }
  bool Emit() { return true; }
};

bool IncrementalHomomorphism::Repair() {
  // Any homomorphism of the pushed atoms picks, for each level, a tuple
  // that was compatible when that level was pushed (its images lie in
  // every domain along the way — domains only shrink), so a search over
  // the cached per-level tuple lists is complete. A bucket tuple passing
  // the ground positions and the current domains is one of them, so the
  // buckets narrow without losing anything.
  repair_binding_.assign(var_terms_.size(), kNoDense);
  for (size_t id = 0; id < var_terms_.size(); ++id) {
    if (vars_[id].is_fixed) repair_binding_[id] = vars_[id].bound;
  }
  RepairTarget target{this};
  hom::OrderAtoms(target, depth_, repair_binding_, kNoDense, &repair_scratch_);
  hom::HomSearch<uint32_t, RepairTarget> search(
      &target, repair_scratch_.order, &repair_binding_, &repair_scratch_.undo,
      kNoDense);
  // A fired token stops the search; the repair then fails as if the space
  // were empty. The caller discards the whole outcome once the token has
  // triggered, so the spurious NO is never observed as an answer, and the
  // undo trail stays exact for pops.
  bool found =
      search.Run() && (cancel_ == nullptr || !cancel_->triggered());
  stats_.repair_steps += search.steps();
  if (!found) return false;
  // Adopt wholesale: every live variable occurs in some pushed atom (or is
  // a fixed seed), so the search bound them all. Overwritten bindings of
  // older variables stay valid after pops — a homomorphism restricted to
  // fewer atoms is still a homomorphism.
  for (size_t id = 0; id < var_terms_.size(); ++id) {
    if (!vars_[id].is_fixed && repair_binding_[id] != kNoDense) {
      vars_[id].bound = repair_binding_[id];
    }
  }
  return true;
}

bool IncrementalHomomorphism::PushAtom(AtomView atom) {
  ++stats_.pushes;
  if (depth_ == levels_.size()) levels_.emplace_back();
  Level& level = levels_[depth_];
  level.trail.clear();
  level.fresh.clear();
  level.tuples.clear();
  level.saved_found = found_;
  level.dead_prefix = !found_;
  ++depth_;
  if (level.dead_prefix) {
    // Homomorphisms restrict: an unmappable prefix stays unmappable under
    // any extension, so the verdict is forced and free.
    ++stats_.dead_prefix;
    return false;
  }

  const size_t arity = atom.arity;
  level.pred = target_.LocalPred(atom.pred);

  // Slot assembly: one slot per distinct mappable term of the atom. Terms
  // already interned (earlier atoms or fixed seeds — fixed constants count)
  // are mappable; otherwise variables and nulls are, constants are ground.
  // Every position's entries are written here, so the arrays are only
  // resized, never re-filled.
  size_t num_slots = 0;
  slot_of_position_.resize(arity);
  level.ground.resize(arity);
  level.pos_var.resize(arity);
  for (size_t i = 0; i < arity; ++i) {
    Term t = atom.args[i];
    uint32_t var_id = FindVar(t);
    const bool interned_now = var_id == kNoDense;
    if (interned_now) {
      if (!t.IsVariable() && !t.IsNull()) {
        // Ground: the position must carry exactly this term (a term
        // outside the target keeps the kNoDense sentinel and matches no
        // tuple).
        slot_of_position_[i] = -1;
        level.pos_var[i] = kNoDense;
        level.ground[i] = target_.DenseOf(t);
        continue;
      }
      var_id = InternVar(t);
    }
    int slot = -1;
    for (size_t s = 0; s < num_slots; ++s) {
      if (slots_[s].var == var_id) {
        slot = static_cast<int>(s);
        break;
      }
    }
    if (slot < 0) {
      if (num_slots == slots_.size()) slots_.emplace_back();
      SlotScratch& sl = slots_[num_slots];
      sl.var = var_id;
      sl.fresh = interned_now;
      sl.support_list.clear();
      sl.stamp.resize(target_.num_terms(), 0);
      ++sl.epoch;
      slot = static_cast<int>(num_slots++);
      if (interned_now) level.fresh.push_back(var_id);
    }
    slot_of_position_[i] = slot;
    level.pos_var[i] = var_id;
    level.ground[i] = kNoDense;
  }

  // Probe selection: scan the smallest tuple set the buckets offer. A
  // ground position contributes its (predicate, position, term) bucket; a
  // position carrying a small-domain variable contributes the union of the
  // per-value buckets (disjoint, so no dedup) — complete either way, since
  // a compatible tuple's value at the position must be the ground term
  // resp. lie in the domain. Fallback: the whole per-predicate list.
  constexpr size_t kMaxProbeValues = 3;
  const hom::TupleSpan pred_bucket = target_.AtomsOf(level.pred);
  size_t best_sum = pred_bucket.size;
  bool impossible = pred_bucket.size == 0;
  scan_buckets_.clear();
  if (!impossible) scan_buckets_.push_back(pred_bucket);
  for (size_t i = 0; i < arity && !impossible; ++i) {
    int slot = slot_of_position_[i];
    probe_buckets_.clear();
    if (slot < 0) {
      // A term outside the target (kNoDense) has an empty bucket.
      probe_buckets_.push_back(target_.Bucket(level.pred, i, level.ground[i]));
    } else {
      const SlotScratch& sl = slots_[static_cast<size_t>(slot)];
      const VarState& v = vars_[sl.var];
      if (sl.fresh || v.active > kMaxProbeValues) continue;
      for (size_t k = 0; k < v.active; ++k) {
        probe_buckets_.push_back(target_.Bucket(level.pred, i, v.values[k]));
      }
    }
    size_t sum = 0;
    for (const hom::TupleSpan& b : probe_buckets_) sum += b.size;
    if (sum == 0) {
      impossible = true;  // no tuple can satisfy this position
      break;
    }
    if (sum < best_sum) {
      best_sum = sum;
      scan_buckets_ = probe_buckets_;
    }
  }
  if (impossible) scan_buckets_.clear();

  // One scan over the candidate tuples does all three jobs: per-variable
  // support collection (forward checking), the compatibility existence
  // check, and the hunt for a tuple extending the current witness.
  bool any_compatible = false;
  bool have_extension = false;
  tuple_vals_.resize(num_slots);
  for (const hom::TupleSpan& bucket : scan_buckets_) {
    for (size_t k = 0; k < bucket.size; ++k) {
      const uint32_t idx = bucket.data[k];
      const uint32_t* tgt = target_.Args(idx);
      bool ok = true;
      for (size_t s = 0; s < num_slots; ++s) tuple_vals_[s] = kNoDense;
      for (size_t i = 0; i < arity && ok; ++i) {
        uint32_t d = tgt[i];
        int slot = slot_of_position_[i];
        if (slot < 0) {
          ok = level.ground[i] == d;
          continue;
        }
        uint32_t& tv = tuple_vals_[static_cast<size_t>(slot)];
        if (tv != kNoDense) {
          ok = tv == d;
          continue;
        }
        const SlotScratch& sl = slots_[static_cast<size_t>(slot)];
        if (!sl.fresh && !InDomain(vars_[sl.var], d)) {
          ok = false;
          continue;
        }
        tv = d;
      }
      if (!ok) continue;
      any_compatible = true;
      level.tuples.push_back(idx);
      for (size_t s = 0; s < num_slots; ++s) {
        SlotScratch& sl = slots_[s];
        if (sl.stamp[tuple_vals_[s]] != sl.epoch) {
          sl.stamp[tuple_vals_[s]] = sl.epoch;
          sl.support_list.push_back(tuple_vals_[s]);
        }
      }
      if (!have_extension) {
        bool matches_witness = true;
        for (size_t s = 0; s < num_slots && matches_witness; ++s) {
          uint32_t bound = vars_[slots_[s].var].bound;
          if (bound != kNoDense && bound != tuple_vals_[s]) {
            matches_witness = false;
          }
        }
        if (matches_witness) {
          have_extension = true;
          extend_vals_ = tuple_vals_;
        }
      }
    }
  }

  if (!any_compatible) {
    // Exact NO: domains over-approximate the image of every homomorphism
    // of the pushed atoms (induction over pushes), so an atom with no
    // domain-compatible tuple admits none.
    found_ = false;
    ++stats_.fc_rejects;
    return false;
  }

  // Domain updates: fresh variables are born with their support as domain;
  // existing domains shrink to their support (recorded on the trail). A
  // compatible tuple contributed one support value per slot, so no domain
  // empties here — the empty case surfaced as !any_compatible above.
  for (size_t s = 0; s < num_slots; ++s) {
    SlotScratch& sl = slots_[s];
    VarState& v = vars_[sl.var];
    if (sl.fresh) {
      v.values = sl.support_list;
      for (uint32_t k = 0; k < v.values.size(); ++k) {
        v.where[v.values[k]] = k + 1;
        v.mask |= target_.ColumnMask(v.values[k]);
      }
      v.active = v.values.size();
    } else if (sl.support_list.size() != v.active) {
      // Support is a subset of the pre-push domain (membership was checked
      // during the scan), so equal sizes mean nothing shrank — skip the
      // sweep and the trail entry entirely.
      ShrinkDomain(sl.var, &level, sl);
    }
  }

  if (have_extension) {
    // The prefix witness extends: bind the atom's fresh variables to the
    // extension tuple's values and the combined mapping is a homomorphism
    // of all pushed atoms.
    for (size_t s = 0; s < num_slots; ++s) {
      VarState& v = vars_[slots_[s].var];
      if (v.bound == kNoDense) v.bound = extend_vals_[s];
    }
    ++stats_.extends;
    return true;
  }

  ++stats_.repairs;
  if (Repair()) return true;
  ++stats_.repair_fails;
  found_ = false;
  return false;
}

void IncrementalHomomorphism::PopAtom() {
  assert(depth_ > 0);
  Level& level = levels_[--depth_];
  found_ = level.saved_found;
  if (level.dead_prefix) return;
  for (size_t i = level.trail.size(); i-- > 0;) {
    VarState& v = vars_[level.trail[i].var];
    v.active = level.trail[i].active;
    v.mask = level.trail[i].mask;
  }
  // Fresh variables die with their introducing atom; they sit on top of
  // the variable stack in interning order, so reverse release unwinds it.
  for (size_t i = level.fresh.size(); i-- > 0;) ReleaseVar(level.fresh[i]);
}

std::vector<uint32_t> IncrementalHomomorphism::Domain(Term t) const {
  const uint32_t id = FindVar(t);
  if (id == kNoDense) return {};
  const VarState& v = vars_[id];
  return std::vector<uint32_t>(v.values.begin(), v.values.begin() + v.active);
}

Substitution IncrementalHomomorphism::Witness() const {
  Substitution out;
  for (size_t id = 0; id < var_terms_.size(); ++id) {
    const VarState& v = vars_[id];
    if (v.is_fixed) {
      out.emplace(var_terms_[id], v.fixed_term);
    } else if (v.bound != kNoDense) {
      out.emplace(var_terms_[id], target_.term(v.bound));
    }
  }
  return out;
}

}  // namespace semacyc
