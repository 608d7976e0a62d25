#ifndef SEMACYC_DATA_COLUMNAR_H_
#define SEMACYC_DATA_COLUMNAR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/flat_table.h"
#include "core/instance.h"

/// semacyc::data — the columnar data plane (docs/DATAPLANE.md).
///
/// The paper's practical payoff (Prop. 24) is FPT evaluation: reformulate a
/// semantically acyclic query once, then run Yannakakis over the database in
/// time linear in |D|. That bound is only real when the per-tuple constant
/// is small, so this layer stores relations column-major with
/// dictionary-encoded 32-bit value ids (terms are interned process-wide but
/// sparse; value ids are dense per instance), and the evaluator
/// (semijoin_program.h) runs over selection vectors with integer join keys —
/// no per-tuple allocation, no string keys.
namespace semacyc::data {

/// Sentinel for "this term does not occur in the instance".
inline constexpr uint32_t kNoValue = FlatKeyTable::kNone;

/// Per-predicate column-major storage over a per-instance dictionary.
///
/// Immutable once built (loaders seal the instance before returning it):
/// every accessor is const and safe to share across threads, which is what
/// lets one preloaded database serve a whole batch (`semacyc_cli --eval
/// --db FILE`) or a multi-tenant engine.
class ColumnarInstance {
 public:
  struct Relation {
    Predicate pred;
    uint32_t arity = 0;
    size_t rows = 0;
    /// columns[c][r] is the value id of argument c of row r.
    std::vector<std::vector<uint32_t>> columns;
    /// Sorted-run index per position: sorted_runs[c] lists the row ids
    /// ordered by (columns[c][row], row), so all rows holding one value id
    /// in position c form one contiguous run (EqualRange binary-searches
    /// it). This is the constant-filter access path of match ops.
    std::vector<std::vector<uint32_t>> sorted_runs;
  };

  ColumnarInstance() = default;

  /// Bulk-converts a row-oriented Instance (used by Engine::Eval's
  /// columnar-by-default path and by the differential tests).
  static ColumnarInstance FromInstance(const Instance& db);

  /// Loads from a fact file: one ground atom per line in the core parser's
  /// syntax — `R('a',42,'b')` — with '%' comments and blank lines skipped
  /// (format spec in docs/DATAPLANE.md). Returns nullopt with `*error`
  /// set (line number included) on the first malformed or non-ground line,
  /// or when the path cannot be read (missing, a directory, an I/O error).
  /// The file is read once into a buffer of its size.
  static std::optional<ColumnarInstance> FromFile(const std::string& path,
                                                  std::string* error);
  /// Where a FromText call spent its time (benches and load profiles).
  struct LoadTimes {
    int64_t scan_ns = 0;  // line scan, predicate lookup, value encoding
    int64_t seal_ns = 0;  // the sorted-run build
  };
  /// Same, over an in-memory buffer (FromFile delegates here). Fact lines
  /// are scanned in place; the core parser is consulted only to word the
  /// error for a line the scanner rejects. `times`, when non-null,
  /// receives the split of a successful load.
  static std::optional<ColumnarInstance> FromText(std::string_view text,
                                                  std::string* error,
                                                  LoadTimes* times = nullptr);

  /// The dense value id of `t`, or kNoValue when t never occurs.
  uint32_t ValueIdOf(Term t) const { return value_ids_.Find(t.raw_bits()); }
  /// The term behind a value id (vid < NumValues()).
  Term TermOf(uint32_t vid) const { return dictionary_[vid]; }
  size_t NumValues() const { return dictionary_.size(); }

  /// The relation stored for `p`, or nullptr when no fact uses it.
  const Relation* RelationOf(Predicate p) const {
    uint32_t index = relation_ids_.Find(p.id());
    return index == FlatKeyTable::kNone ? nullptr : &relations_[index];
  }
  const std::vector<Relation>& relations() const { return relations_; }
  size_t TotalRows() const { return total_rows_; }

  /// The contiguous run of `rel.sorted_runs[pos]` whose rows hold value id
  /// `vid` in column `pos`: [first, last) over row ids.
  std::pair<const uint32_t*, const uint32_t*> EqualRange(const Relation& rel,
                                                         size_t pos,
                                                         uint32_t vid) const;

  /// Rebuilds the row-oriented Instance (differential tests; O(rows)).
  Instance ToInstance() const;

  /// Approximate heap footprint: dictionary + columns + sorted runs +
  /// the two key tables. Deterministic, O(relations).
  size_t ApproxBytes() const;

  std::string ToString() const;  // shape summary, not the data

 private:
  class FactScanner;  // FromText's per-load line scanner (columnar.cc)

  uint32_t Intern(Term t);
  Relation& RelationFor(Predicate p);
  /// Builds every sorted-run index in O(cells + values); loaders call it
  /// exactly once.
  void Seal();

  // Both tables hand out ids in first-insert order, so a term's group is
  // its value id and a predicate's group is its index in relations_.
  std::vector<Term> dictionary_;
  FlatKeyTable value_ids_;           // Term handle -> value id
  std::vector<Relation> relations_;  // first-occurrence order
  FlatKeyTable relation_ids_;        // predicate id -> index in relations_
  size_t total_rows_ = 0;
};

}  // namespace semacyc::data

#endif  // SEMACYC_DATA_COLUMNAR_H_
