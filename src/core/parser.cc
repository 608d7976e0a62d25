#include "core/parser.h"

#include <algorithm>
#include <cctype>

namespace semacyc {

void Lexer::SkipWhitespaceAndComments() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if (c == '%') {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }
}

Token Lexer::Peek() {
  if (!lookahead_.has_value()) lookahead_ = Next();
  return *lookahead_;
}

Token Lexer::Next() {
  if (lookahead_.has_value()) {
    Token t = *lookahead_;
    lookahead_.reset();
    return t;
  }
  SkipWhitespaceAndComments();
  Token token;
  token.position = pos_;
  if (pos_ >= text_.size()) {
    token.kind = Token::kEnd;
    return token;
  }
  char c = text_[pos_];
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    token.kind = Token::kIdent;
    token.text = std::string(text_.substr(start, pos_ - start));
    return token;
  }
  if (std::isdigit(static_cast<unsigned char>(c))) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    token.kind = Token::kConstant;
    token.text = std::string(text_.substr(start, pos_ - start));
    return token;
  }
  if (c == '\'' || c == '"') {
    char quote = c;
    size_t start = ++pos_;
    while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
    if (pos_ >= text_.size()) {
      token.kind = Token::kError;
      token.text = "unterminated quoted constant";
      return token;
    }
    token.kind = Token::kConstant;
    token.text = std::string(text_.substr(start, pos_ - start));
    ++pos_;  // consume closing quote
    return token;
  }
  switch (c) {
    case '(':
      ++pos_;
      token.kind = Token::kLParen;
      return token;
    case ')':
      ++pos_;
      token.kind = Token::kRParen;
      return token;
    case ',':
      ++pos_;
      token.kind = Token::kComma;
      return token;
    case '.':
      ++pos_;
      token.kind = Token::kDot;
      return token;
    case '=':
      ++pos_;
      token.kind = Token::kEquals;
      return token;
    case '-':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
        pos_ += 2;
        token.kind = Token::kArrow;
        return token;
      }
      break;
    case ':':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
        pos_ += 2;
        token.kind = Token::kTurnstile;
        return token;
      }
      break;
    default:
      break;
  }
  token.kind = Token::kError;
  token.text = std::string("unexpected character '") + c + "'";
  return token;
}

namespace {

struct TermParse {
  std::optional<Term> term;
  std::string error;
};

TermParse ParseTermToken(const Token& token) {
  TermParse out;
  switch (token.kind) {
    case Token::kIdent:
      out.term = Term::Variable(token.text);
      return out;
    case Token::kConstant:
      out.term = Term::Constant(token.text);
      return out;
    default:
      out.error = "expected term at position " + std::to_string(token.position);
      return out;
  }
}

/// Parses "Pred(term, ..., term)". The predicate arity is inferred.
std::optional<Atom> ParseOneAtom(Lexer* lexer, std::string* error) {
  Token name = lexer->Next();
  if (name.kind != Token::kIdent) {
    *error = "expected predicate name at position " +
             std::to_string(name.position);
    return std::nullopt;
  }
  if (lexer->Next().kind != Token::kLParen) {
    *error = "expected '(' after predicate " + name.text;
    return std::nullopt;
  }
  std::vector<Term> args;
  if (lexer->Peek().kind == Token::kRParen) {
    lexer->Next();
  } else {
    while (true) {
      TermParse tp = ParseTermToken(lexer->Next());
      if (!tp.term.has_value()) {
        *error = tp.error;
        return std::nullopt;
      }
      args.push_back(*tp.term);
      Token sep = lexer->Next();
      if (sep.kind == Token::kComma) continue;
      if (sep.kind == Token::kRParen) break;
      *error = "expected ',' or ')' in atom " + name.text;
      return std::nullopt;
    }
  }
  // Evaluate the arity before std::move(args): the order in which function
  // arguments are evaluated is unspecified.
  const int arity = static_cast<int>(args.size());
  return Atom(Predicate::Get(name.text, arity), std::move(args));
}

std::optional<std::vector<Atom>> ParseAtomList(Lexer* lexer,
                                               std::string* error) {
  std::vector<Atom> atoms;
  while (true) {
    std::optional<Atom> atom = ParseOneAtom(lexer, error);
    if (!atom.has_value()) return std::nullopt;
    atoms.push_back(std::move(*atom));
    if (lexer->Peek().kind == Token::kComma) {
      lexer->Next();
      continue;
    }
    break;
  }
  return atoms;
}

}  // namespace

ParseResult<std::vector<Atom>> ParseAtoms(std::string_view text) {
  ParseResult<std::vector<Atom>> result;
  Lexer lexer(text);
  std::string error;
  std::optional<std::vector<Atom>> atoms = ParseAtomList(&lexer, &error);
  if (!atoms.has_value()) {
    result.error = error;
    return result;
  }
  Token tail = lexer.Next();
  if (tail.kind == Token::kDot) tail = lexer.Next();
  if (tail.kind != Token::kEnd) {
    result.error = "trailing input at position " + std::to_string(tail.position);
    return result;
  }
  result.value = std::move(atoms);
  return result;
}

ParseResult<ConjunctiveQuery> ParseQuery(std::string_view text) {
  ParseResult<ConjunctiveQuery> result;
  // Decide whether the text has an explicit head: "name(...) :- body".
  // We look ahead for ":-" at nesting depth 0.
  bool has_head = false;
  int depth = 0;
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') --depth;
    if (depth == 0 && text[i] == ':' && text[i + 1] == '-') {
      has_head = true;
      break;
    }
  }
  Lexer lexer(text);
  std::string error;
  std::vector<Term> head;
  if (has_head) {
    Token name = lexer.Next();
    if (name.kind != Token::kIdent) {
      result.error = "expected query name";
      return result;
    }
    if (lexer.Next().kind != Token::kLParen) {
      result.error = "expected '(' after query name";
      return result;
    }
    if (lexer.Peek().kind == Token::kRParen) {
      lexer.Next();
    } else {
      while (true) {
        Token t = lexer.Next();
        if (t.kind == Token::kIdent) {
          head.push_back(Term::Variable(t.text));
        } else if (t.kind == Token::kConstant) {
          head.push_back(Term::Constant(t.text));
        } else {
          result.error = "expected head term";
          return result;
        }
        Token sep = lexer.Next();
        if (sep.kind == Token::kComma) continue;
        if (sep.kind == Token::kRParen) break;
        result.error = "expected ',' or ')' in query head";
        return result;
      }
    }
    if (lexer.Next().kind != Token::kTurnstile) {
      result.error = "expected ':-' after query head";
      return result;
    }
  }
  std::optional<std::vector<Atom>> body = ParseAtomList(&lexer, &error);
  if (!body.has_value()) {
    result.error = error;
    return result;
  }
  Token tail = lexer.Next();
  if (tail.kind == Token::kDot) tail = lexer.Next();
  if (tail.kind != Token::kEnd) {
    result.error =
        "trailing input at position " + std::to_string(tail.position);
    return result;
  }
  ConjunctiveQuery q(std::move(head), std::move(*body));
  if (std::optional<Term> h = q.UnboundHeadVariable()) {
    result.error =
        "head variable '" + h->ToString() + "' does not occur in the body";
    return result;
  }
  result.value = std::move(q);
  return result;
}

ConjunctiveQuery MustParseQuery(std::string_view text) {
  return ParseQuery(text).OrDie("MustParseQuery", text);
}

std::vector<Atom> MustParseAtoms(std::string_view text) {
  return ParseAtoms(text).OrDie("MustParseAtoms", text);
}

}  // namespace semacyc
