#ifndef SEMACYC_CORE_TERM_H_
#define SEMACYC_CORE_TERM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace semacyc {

/// The three disjoint populations of terms of the paper's §2: constants (C),
/// labeled nulls (N), and variables (V).
enum class TermKind : uint8_t {
  kConstant = 0,
  kNull = 1,
  kVariable = 2,
};

/// A term is a 32-bit tagged handle: 2 bits of kind, 30 bits of index.
///
/// Constant and variable handles are interned by name in the process-wide
/// SymbolTable (see symbols.h helpers below); nulls are anonymous and minted
/// from a global counter, so every call to Term::FreshNull() yields a null
/// distinct from all previously created ones. The 30-bit index bounds a
/// process to 2^30 nulls: FreshNull aborts with a message once they are
/// used up, rather than hand out a null that aliases an earlier one.
class Term {
 public:
  /// Default-constructed terms are an explicit "invalid" sentinel, distinct
  /// from every real term.
  constexpr Term() : bits_(kInvalidBits) {}

  /// Interns (or looks up) the constant with the given name.
  static Term Constant(const std::string& name);
  /// Interns (or looks up) the variable with the given name.
  static Term Variable(const std::string& name);
  /// Mints a fresh labeled null, distinct from all existing nulls. Aborts
  /// the process with a message when the 2^30 null indices are used up.
  static Term FreshNull();
  /// Returns the null with a specific index (used by deserialization/tests).
  static Term NullAt(uint32_t index);

  constexpr bool IsValid() const { return bits_ != kInvalidBits; }
  TermKind kind() const { return static_cast<TermKind>(bits_ >> 30); }
  uint32_t index() const { return bits_ & 0x3fffffffu; }

  bool IsConstant() const { return IsValid() && kind() == TermKind::kConstant; }
  bool IsNull() const { return IsValid() && kind() == TermKind::kNull; }
  bool IsVariable() const { return IsValid() && kind() == TermKind::kVariable; }

  /// True for the canonical "@..."-named constants minted by Freeze(): the
  /// frozen images of query variables, which play the role of nulls
  /// throughout the semantic-acyclicity pipeline (§2 "special constants
  /// treated as nulls"). The "@" prefix is reserved for them — genuine
  /// constants must not use it.
  bool IsFrozenNull() const;

  /// Human-readable rendering: constant/variable names from the symbol
  /// table, nulls as "_:<index>", the invalid term as "<invalid>".
  std::string ToString() const;
  /// ToString with a constant in the quotes the parser reads back as a
  /// constant ('a', or "a" when the name holds a single quote), so that
  /// printed queries round-trip; variables and nulls print as ToString.
  std::string ToQuotedString() const;

  /// The name of a constant or variable. Must not be called on nulls.
  const std::string& name() const;

  friend bool operator==(Term a, Term b) { return a.bits_ == b.bits_; }
  friend bool operator!=(Term a, Term b) { return a.bits_ != b.bits_; }
  friend bool operator<(Term a, Term b) { return a.bits_ < b.bits_; }

  uint32_t raw_bits() const { return bits_; }

 private:
  static constexpr uint32_t kInvalidBits = 0xffffffffu;
  explicit constexpr Term(uint32_t bits) : bits_(bits) {}
  static Term Make(TermKind kind, uint32_t index);

  uint32_t bits_;
};

namespace internal {
/// Test seam: makes `next` the index the next Term::FreshNull() mints and
/// returns the index it would have minted, so a test can reach the end of
/// the null index space without minting 2^30 nulls.
uint32_t ExchangeNextNullIndexForTesting(uint32_t next);
}  // namespace internal

struct TermHash {
  size_t operator()(Term t) const {
    // splitmix-style avalanche over the raw handle.
    uint64_t x = t.raw_bits();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// Combines a hash into a running seed (boost::hash_combine recipe).
inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ull + (*seed << 6) + (*seed >> 2);
}

}  // namespace semacyc

namespace std {
template <>
struct hash<semacyc::Term> {
  size_t operator()(semacyc::Term t) const {
    return semacyc::TermHash{}(t);
  }
};
}  // namespace std

#endif  // SEMACYC_CORE_TERM_H_
