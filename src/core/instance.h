#ifndef SEMACYC_CORE_INSTANCE_H_
#define SEMACYC_CORE_INSTANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/atom.h"
#include "core/flat_table.h"

namespace semacyc {

/// A (finite) instance: a duplicate-free bag of ground atoms over constants
/// and nulls (variables are permitted too so that frozen queries can be
/// manipulated uniformly; see QueryChase).
///
/// The instance maintains two access paths used throughout the library:
///   * per-predicate atom lists (`AtomsOf`), and
///   * a (predicate, position, term) inverted index (`FindCandidates`)
///     feeding the homomorphism solver and the chase trigger search.
/// Both are buckets of one flat table (FlatKeyTable), and the duplicate
/// check is a second one over the atoms themselves, so inserting an atom
/// costs its argument vector plus amortised bucket growth — no hash-map
/// node per atom or per position. Buckets list atom indices in insertion
/// order.
///
/// Atoms are append-only except for `ReplaceTerm`, which the egd chase uses
/// to merge terms; that operation rebuilds the affected indexes.
class Instance {
 public:
  Instance() = default;

  /// Inserts an atom; returns true iff it was not already present.
  bool Insert(const Atom& atom) { return Insert(Atom(atom)); }
  bool Insert(Atom&& atom);
  /// Inserts every atom of `atoms` (reserves for the batch up front).
  void InsertAll(const std::vector<Atom>& atoms);

  /// Pre-sizes the atom vector and the dedup table for at least `n`
  /// additional atoms so bulk loads (million-tuple instances; see
  /// src/data/) don't rehash and reallocate repeatedly. Growth is
  /// geometric, so many small reservations stay amortised O(1) per atom.
  /// The (predicate, position, term) index cannot be pre-sized (its key
  /// space is data-dependent) and grows as usual.
  void Reserve(size_t n);

  /// Empties the instance for reuse. An instance of at most kKeepAtoms
  /// atoms keeps its tables and its bucket vectors, so refilling it
  /// allocates only the new atoms' argument vectors; a larger one releases
  /// them (FlatKeyTable::Clear's policy), so a pooled instance does not
  /// hold on to its largest fill.
  void Clear();
  static constexpr size_t kKeepAtoms = 1024;

  bool Contains(const Atom& atom) const;
  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  /// All atoms, in insertion order. Indices into this vector are stable
  /// (ReplaceTerm mutates atoms in place).
  const std::vector<Atom>& atoms() const { return atoms_; }
  const Atom& atom(size_t i) const { return atoms_[i]; }

  /// Indices of the atoms with the given predicate.
  const std::vector<uint32_t>& AtomsOf(Predicate pred) const;

  /// Indices of atoms with `pred` whose argument at `position` is `t`.
  /// Returns nullptr when no such atom exists.
  const std::vector<uint32_t>* FindCandidates(Predicate pred, size_t position,
                                              Term t) const;

  /// The set of distinct predicates occurring in the instance.
  std::vector<Predicate> Predicates() const;

  /// The active domain: every term occurring in some atom.
  std::vector<Term> ActiveDomain() const;

  /// Indices of all atoms mentioning term `t`.
  std::vector<uint32_t> AtomsMentioning(Term t) const;

  /// Replaces every occurrence of `from` by `to`, deduplicating collapsed
  /// atoms. Used by the egd chase. Returns the number of atoms changed.
  size_t ReplaceTerm(Term from, Term to);

  /// Restricts the instance to the atoms whose indices are listed.
  Instance Restrict(const std::vector<uint32_t>& atom_indices) const;

  std::string ToString() const;

  friend bool operator==(const Instance& a, const Instance& b);

 private:
  /// An index bucket's key: (predicate, position, term), or
  /// (predicate, kAllPositions, invalid term) for the predicate's list.
  struct IndexKey {
    uint32_t pred;
    uint32_t position;
    Term term;
    bool operator==(const IndexKey& o) const {
      return pred == o.pred && position == o.position && term == o.term;
    }
    uint64_t Hash() const {
      return ((uint64_t{pred} << 32) | term.raw_bits()) ^
             (uint64_t{position} * 0x9e3779b97f4a7c15ull);
    }
  };
  static constexpr uint32_t kAllPositions = 0xffffffffu;

  const std::vector<uint32_t>* Bucket(const IndexKey& key) const;
  void AddToBucket(const IndexKey& key, uint32_t idx);
  void IndexAtom(uint32_t idx);

  std::vector<Atom> atoms_;
  FlatKeyTable atom_ids_;  // AtomHash -> atom index (group id = index)
  FlatKeyTable bucket_ids_;  // IndexKey::Hash -> bucket
  std::vector<IndexKey> bucket_keys_;
  /// Bucket b < bucket_keys_.size() lists bucket_keys_[b]'s atoms; the
  /// emptied buckets past it (left by Clear and ReplaceTerm) are reused.
  std::vector<std::vector<uint32_t>> buckets_;
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_INSTANCE_H_
