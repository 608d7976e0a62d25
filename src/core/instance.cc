#include "core/instance.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace semacyc {
namespace {
constexpr size_t kMinReserve = 16;
constexpr size_t kMinBuckets = 32;
}  // namespace

bool Instance::Insert(Atom&& atom) {
  // A new atom's group id is its index: groups are handed out in order.
  uint32_t g = atom_ids_.Insert(AtomHash{}(atom),
                                [&](uint32_t i) { return atoms_[i] == atom; });
  if (g < atoms_.size()) return false;
  atoms_.push_back(std::move(atom));
  IndexAtom(g);
  return true;
}

void Instance::Clear() {
  if (atoms_.capacity() > kKeepAtoms) {
    *this = Instance();
    return;
  }
  atoms_.clear();
  atom_ids_.Clear();
  bucket_ids_.Clear();
  bucket_keys_.clear();
  for (std::vector<uint32_t>& bucket : buckets_) bucket.clear();
}

void Instance::InsertAll(const std::vector<Atom>& atoms) {
  Reserve(atoms.size());
  for (const Atom& a : atoms) Insert(a);
}

void Instance::Reserve(size_t n) {
  size_t want = atoms_.size() + n;
  if (want <= atoms_.capacity()) return;
  // Growing to exactly size + n would reallocate on every call of a
  // caller that inserts in small batches (InsertAll once per parsed line).
  want = std::max({want, 2 * atoms_.size(), kMinReserve});
  atoms_.reserve(want);
  atom_ids_.Reserve(want);
}

const std::vector<uint32_t>* Instance::Bucket(const IndexKey& key) const {
  uint32_t g = bucket_ids_.Find(
      key.Hash(), [&](uint32_t b) { return bucket_keys_[b] == key; });
  return g == FlatKeyTable::kNone ? nullptr : &buckets_[g];
}

void Instance::AddToBucket(const IndexKey& key, uint32_t idx) {
  uint32_t g = bucket_ids_.Insert(
      key.Hash(), [&](uint32_t b) { return bucket_keys_[b] == key; });
  if (g == bucket_keys_.size()) {
    if (bucket_keys_.empty()) {
      // Small instances (a frozen candidate and its chase) then never
      // regrow the index.
      bucket_ids_.Reserve(kMinBuckets);
      bucket_keys_.reserve(kMinBuckets);
      buckets_.reserve(kMinBuckets);
    }
    bucket_keys_.push_back(key);
    // Clear and ReplaceTerm leave emptied buckets to reuse.
    if (g == buckets_.size()) {
      buckets_.emplace_back();
      // Four ids fit the smallest heap block anyway; most stay that small.
      buckets_.back().reserve(4);
    }
  }
  buckets_[g].push_back(idx);
}

void Instance::IndexAtom(uint32_t idx) {
  const Atom& atom = atoms_[idx];
  const uint32_t pred = atom.predicate().id();
  AddToBucket({pred, kAllPositions, Term()}, idx);
  for (size_t pos = 0; pos < atom.arity(); ++pos) {
    AddToBucket({pred, static_cast<uint32_t>(pos), atom.arg(pos)}, idx);
  }
}

bool Instance::Contains(const Atom& atom) const {
  return atom_ids_.Find(AtomHash{}(atom), [&](uint32_t g) {
           return atoms_[g] == atom;
         }) != FlatKeyTable::kNone;
}

const std::vector<uint32_t>& Instance::AtomsOf(Predicate pred) const {
  static const std::vector<uint32_t>* empty = new std::vector<uint32_t>();
  const std::vector<uint32_t>* list =
      Bucket({pred.id(), kAllPositions, Term()});
  return list == nullptr ? *empty : *list;
}

const std::vector<uint32_t>* Instance::FindCandidates(Predicate pred,
                                                      size_t position,
                                                      Term t) const {
  return Bucket({pred.id(), static_cast<uint32_t>(position), t});
}

std::vector<Predicate> Instance::Predicates() const {
  std::vector<Predicate> out;
  for (const Atom& a : atoms_) {
    if (std::find(out.begin(), out.end(), a.predicate()) == out.end()) {
      out.push_back(a.predicate());
    }
  }
  return out;
}

std::vector<Term> Instance::ActiveDomain() const {
  std::vector<Term> out;
  std::unordered_set<Term> seen;
  for (const Atom& a : atoms_) {
    for (Term t : a.args()) {
      if (seen.insert(t).second) out.push_back(t);
    }
  }
  return out;
}

std::vector<uint32_t> Instance::AtomsMentioning(Term t) const {
  std::vector<uint32_t> out;
  for (size_t b = 0; b < bucket_keys_.size(); ++b) {
    const IndexKey& key = bucket_keys_[b];
    if (key.position == kAllPositions || key.term != t) continue;
    out.insert(out.end(), buckets_[b].begin(), buckets_[b].end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t Instance::ReplaceTerm(Term from, Term to) {
  if (from == to) return 0;
  size_t changed = 0;
  for (const Atom& a : atoms_) changed += a.Mentions(from) ? 1 : 0;
  if (changed == 0) return 0;
  // Rebuild all storage in the old order, keeping the tables' and buckets'
  // capacity: collapsing terms may merge atoms.
  std::vector<Atom> old;
  old.swap(atoms_);
  Clear();
  atoms_.reserve(old.size());
  for (Atom& a : old) {
    if (!a.Mentions(from)) {
      Insert(std::move(a));
      continue;
    }
    std::vector<Term> args = a.args();
    std::replace(args.begin(), args.end(), from, to);
    Insert(Atom(a.predicate(), std::move(args)));
  }
  return changed;
}

Instance Instance::Restrict(const std::vector<uint32_t>& atom_indices) const {
  Instance out;
  for (uint32_t idx : atom_indices) {
    assert(idx < atoms_.size());
    out.Insert(atoms_[idx]);
  }
  return out;
}

std::string Instance::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms_[i].ToString();
  }
  out += "}";
  return out;
}

bool operator==(const Instance& a, const Instance& b) {
  if (a.size() != b.size()) return false;
  for (const Atom& atom : a.atoms_) {
    if (!b.Contains(atom)) return false;
  }
  return true;
}

}  // namespace semacyc
