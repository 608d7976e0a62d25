#include "core/instance.h"

#include <algorithm>
#include <cassert>

namespace semacyc {

bool Instance::Insert(const Atom& atom) {
  auto [it, inserted] = atom_set_.insert(atom);
  if (!inserted) return false;
  atoms_.push_back(atom);
  IndexAtom(static_cast<uint32_t>(atoms_.size() - 1));
  return true;
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
  want = std::max(want, 2 * atoms_.size());
  atoms_.reserve(want);
  atom_set_.reserve(want);
}

void Instance::IndexAtom(uint32_t idx) {
  const Atom& atom = atoms_[idx];
  by_predicate_[atom.predicate().id()].push_back(idx);
  for (size_t pos = 0; pos < atom.arity(); ++pos) {
    by_position_[{atom.predicate().id(), static_cast<uint32_t>(pos),
                  atom.arg(pos)}]
        .push_back(idx);
  }
}

bool Instance::Contains(const Atom& atom) const {
  return atom_set_.count(atom) > 0;
}

const std::vector<uint32_t>& Instance::AtomsOf(Predicate pred) const {
  static const std::vector<uint32_t>* empty = new std::vector<uint32_t>();
  auto it = by_predicate_.find(pred.id());
  return it == by_predicate_.end() ? *empty : it->second;
}

const std::vector<uint32_t>* Instance::FindCandidates(Predicate pred,
                                                      size_t position,
                                                      Term t) const {
  auto it = by_position_.find(
      {pred.id(), static_cast<uint32_t>(position), t});
  return it == by_position_.end() ? nullptr : &it->second;
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
  std::unordered_set<uint32_t> seen;
  for (const auto& [key, indices] : by_position_) {
    if (key.term != t) continue;
    for (uint32_t idx : indices) {
      if (seen.insert(idx).second) out.push_back(idx);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t Instance::ReplaceTerm(Term from, Term to) {
  if (from == to) return 0;
  size_t changed = 0;
  std::vector<Atom> rebuilt;
  rebuilt.reserve(atoms_.size());
  for (const Atom& a : atoms_) {
    bool hit = false;
    std::vector<Term> args = a.args();
    for (Term& t : args) {
      if (t == from) {
        t = to;
        hit = true;
      }
    }
    if (hit) {
      ++changed;
      rebuilt.emplace_back(a.predicate(), std::move(args));
    } else {
      rebuilt.push_back(a);
    }
  }
  if (changed == 0) return 0;
  // Rebuild all storage: collapsing terms may merge atoms.
  atoms_.clear();
  atom_set_.clear();
  by_predicate_.clear();
  by_position_.clear();
  for (const Atom& a : rebuilt) Insert(a);
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
