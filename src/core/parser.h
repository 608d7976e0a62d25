#ifndef SEMACYC_CORE_PARSER_H_
#define SEMACYC_CORE_PARSER_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/query.h"

namespace semacyc {

/// Lightweight result type (no exceptions across library boundaries).
template <typename T>
struct ParseResult {
  std::optional<T> value;
  std::string error;

  bool ok() const { return value.has_value(); }
  const T& operator*() const { return *value; }
  const T* operator->() const { return &*value; }

  /// The value; on an error prints `what`, the text and the error, then
  /// aborts (the MustParse functions).
  T OrDie(const char* what, std::string_view text) && {
    if (!ok()) {
      std::fprintf(stderr, "%s(\"%.*s\"): %s\n", what,
                   static_cast<int>(text.size()), text.data(), error.c_str());
      std::abort();
    }
    return std::move(*value);
  }
};

/// Text syntax (documented in README):
///   * identifiers are variables: x, y, customer
///   * constants are quoted ('madrid') or numeric (42)
///   * atom:      R(x,'a',y)
///   * query:     q(x,y) :- R(x,z), S(z,y)        (head optional => Boolean;
///                every head variable must occur in the body)
///   * tgd:       R(x,y), S(y,z) -> T(x,w)        (head-only vars existential)
///   * egd:       R(x,y), R(x,z) -> y = z
/// '%' starts a comment running to end of line.
ParseResult<ConjunctiveQuery> ParseQuery(std::string_view text);
ParseResult<std::vector<Atom>> ParseAtoms(std::string_view text);

/// Parses or aborts; for tests and examples where the text is a literal.
ConjunctiveQuery MustParseQuery(std::string_view text);
std::vector<Atom> MustParseAtoms(std::string_view text);

/// Tokenizer shared with the dependency parser (chase/dependency.h).
struct Token {
  enum Kind {
    kIdent,
    kConstant,  // quoted string or number (text holds the constant name)
    kLParen,
    kRParen,
    kComma,
    kDot,
    kArrow,     // ->
    kTurnstile, // :-
    kEquals,
    kEnd,
    kError,
  };
  Kind kind = kEnd;
  std::string text;
  size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}
  Token Next();
  Token Peek();

 private:
  void SkipWhitespaceAndComments();
  std::string_view text_;
  size_t pos_ = 0;
  std::optional<Token> lookahead_;
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_PARSER_H_
