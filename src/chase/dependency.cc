#include "chase/dependency.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <unordered_set>

namespace semacyc {
namespace {

std::vector<Term> DistinctVariables(const std::vector<Atom>& atoms) {
  std::vector<Term> out;
  std::unordered_set<Term> seen;
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      if (t.IsVariable() && seen.insert(t).second) out.push_back(t);
    }
  }
  return out;
}

}  // namespace

Tgd::Tgd(std::vector<Atom> body, std::vector<Atom> head)
    : body_(std::move(body)), head_(std::move(head)) {
  assert(!body_.empty() && !head_.empty());
  body_vars_ = DistinctVariables(body_);
  std::unordered_set<Term> body_set(body_vars_.begin(), body_vars_.end());
  std::vector<Term> head_vars = DistinctVariables(head_);
  for (Term v : head_vars) {
    if (!body_set.count(v)) existential_vars_.push_back(v);
  }
  std::unordered_set<Term> head_set(head_vars.begin(), head_vars.end());
  for (Term v : body_vars_) {
    if (head_set.count(v)) frontier_.push_back(v);
  }
}

int Tgd::GuardIndex() const {
  for (size_t i = 0; i < body_.size(); ++i) {
    bool covers = true;
    for (Term v : body_vars_) {
      if (!body_[i].Mentions(v)) {
        covers = false;
        break;
      }
    }
    if (covers) return static_cast<int>(i);
  }
  return -1;
}

bool Tgd::IsGuarded() const { return GuardIndex() >= 0; }

bool Tgd::IsInclusionDependency() const {
  if (body_.size() != 1 || head_.size() != 1) return false;
  auto no_repeats = [](const Atom& a) {
    return a.DistinctTerms().size() == a.arity();
  };
  auto all_vars = [](const Atom& a) {
    for (Term t : a.args()) {
      if (!t.IsVariable()) return false;
    }
    return true;
  };
  return no_repeats(body_[0]) && no_repeats(head_[0]) && all_vars(body_[0]) &&
         all_vars(head_[0]);
}

bool Tgd::IsBodyConnected() const {
  ConjunctiveQuery body_query({}, body_);
  return body_query.IsConnected();
}

std::string Tgd::ToString() const {
  return AtomsToString(body_) + " -> " + AtomsToString(head_);
}

Egd::Egd(std::vector<Atom> body, Term lhs, Term rhs)
    : body_(std::move(body)), lhs_(lhs), rhs_(rhs) {
  assert(!body_.empty());
  assert(lhs_.IsVariable() && rhs_.IsVariable());
#ifndef NDEBUG
  bool found_l = false, found_r = false;
  for (const Atom& a : body_) {
    if (a.Mentions(lhs_)) found_l = true;
    if (a.Mentions(rhs_)) found_r = true;
  }
  assert(found_l && found_r && "egd equality variables must occur in body");
#endif
}

std::string Egd::ToString() const {
  return AtomsToString(body_) + " -> " + lhs_.ToString() + " = " +
         rhs_.ToString();
}

std::vector<Egd> FunctionalDependency::ToEgds() const {
  // R(x1..xn), R(y1..yn) with xi = yi on A, and one egd per attribute in B.
  const int n = predicate.arity();
  std::vector<Term> xs, ys;
  for (int i = 0; i < n; ++i) {
    xs.push_back(Term::Variable("fdx" + std::to_string(i)));
    ys.push_back(Term::Variable("fdy" + std::to_string(i)));
  }
  for (int a : lhs) ys[a] = xs[a];
  std::vector<Egd> out;
  for (int b : rhs) {
    if (std::find(lhs.begin(), lhs.end(), b) != lhs.end()) continue;
    std::vector<Atom> body = {Atom(predicate, xs), Atom(predicate, ys)};
    out.emplace_back(std::move(body), xs[b], ys[b]);
  }
  return out;
}

bool FunctionalDependency::IsKey() const {
  std::unordered_set<int> covered(lhs.begin(), lhs.end());
  covered.insert(rhs.begin(), rhs.end());
  return static_cast<int>(covered.size()) == predicate.arity();
}

std::string FunctionalDependency::ToString() const {
  std::string out = predicate.name() + " : {";
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(lhs[i] + 1);
  }
  out += "} -> {";
  for (size_t i = 0; i < rhs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(rhs[i] + 1);
  }
  out += "}";
  return out;
}

std::vector<Predicate> DependencySet::Predicates() const {
  std::vector<Predicate> out;
  auto add = [&out](const std::vector<Atom>& atoms) {
    for (const Atom& a : atoms) {
      if (std::find(out.begin(), out.end(), a.predicate()) == out.end()) {
        out.push_back(a.predicate());
      }
    }
  };
  for (const Tgd& t : tgds) {
    add(t.body());
    add(t.head());
  }
  for (const Egd& e : egds) add(e.body());
  return out;
}

std::string DependencySet::ToString() const {
  std::string out;
  for (const Tgd& t : tgds) out += t.ToString() + ".\n";
  for (const Egd& e : egds) out += e.ToString() + ".\n";
  return out;
}

namespace {

/// Parses the atoms before '->'; returns false on error.
bool ParseBody(Lexer* lexer, std::vector<Atom>* body, std::string* error) {
  while (true) {
    // Inline a small atom parser over the shared lexer.
    Token name = lexer->Next();
    if (name.kind != Token::kIdent) {
      *error = "expected predicate name";
      return false;
    }
    if (lexer->Next().kind != Token::kLParen) {
      *error = "expected '('";
      return false;
    }
    std::vector<Term> args;
    if (lexer->Peek().kind == Token::kRParen) {
      lexer->Next();
    } else {
      while (true) {
        Token t = lexer->Next();
        if (t.kind == Token::kIdent) {
          args.push_back(Term::Variable(t.text));
        } else if (t.kind == Token::kConstant) {
          args.push_back(Term::Constant(t.text));
        } else {
          *error = "expected term";
          return false;
        }
        Token sep = lexer->Next();
        if (sep.kind == Token::kComma) continue;
        if (sep.kind == Token::kRParen) break;
        *error = "expected ',' or ')'";
        return false;
      }
    }
    body->push_back(
        Atom(Predicate::Get(name.text, static_cast<int>(args.size())), args));
    Token sep = lexer->Peek();
    if (sep.kind == Token::kComma) {
      lexer->Next();
      continue;
    }
    return true;
  }
}

enum class DepKind { kTgd, kEgd, kError };

/// Parses one dependency starting at the lexer; used by both the single
/// and the set parser.
DepKind ParseOneDependency(Lexer* lexer, Tgd* tgd, Egd* egd,
                           std::string* error) {
  std::vector<Atom> body;
  if (!ParseBody(lexer, &body, error)) return DepKind::kError;
  if (lexer->Next().kind != Token::kArrow) {
    *error = "expected '->'";
    return DepKind::kError;
  }
  // Lookahead: "ident =" means egd; "ident (" means tgd head atom.
  Token first = lexer->Next();
  if (first.kind != Token::kIdent) {
    *error = "expected head";
    return DepKind::kError;
  }
  Token second = lexer->Peek();
  if (second.kind == Token::kEquals) {
    lexer->Next();  // consume '='
    Token rhs = lexer->Next();
    if (rhs.kind != Token::kIdent) {
      *error = "expected variable after '='";
      return DepKind::kError;
    }
    Term lhs_var = Term::Variable(first.text);
    Term rhs_var = Term::Variable(rhs.text);
    // An equated variable the body does not bind would have the egd chase
    // merge two terms no atom holds, in every round, and never end.
    for (Term v : {lhs_var, rhs_var}) {
      if (std::none_of(body.begin(), body.end(),
                       [v](const Atom& a) { return a.Mentions(v); })) {
        *error = "egd variable '" + v.ToString() +
                 "' does not occur in the body";
        return DepKind::kError;
      }
    }
    *egd = Egd(std::move(body), lhs_var, rhs_var);
    return DepKind::kEgd;
  }
  // Tgd: re-parse the head atom list; we already consumed the predicate
  // name, so parse its argument list here then continue with ParseBody.
  if (lexer->Next().kind != Token::kLParen) {
    *error = "expected '(' in head atom";
    return DepKind::kError;
  }
  std::vector<Atom> head;
  std::vector<Term> args;
  if (lexer->Peek().kind == Token::kRParen) {
    lexer->Next();
  } else {
    while (true) {
      Token t = lexer->Next();
      if (t.kind == Token::kIdent) {
        args.push_back(Term::Variable(t.text));
      } else if (t.kind == Token::kConstant) {
        args.push_back(Term::Constant(t.text));
      } else {
        *error = "expected term in head atom";
        return DepKind::kError;
      }
      Token sep = lexer->Next();
      if (sep.kind == Token::kComma) continue;
      if (sep.kind == Token::kRParen) break;
      *error = "expected ',' or ')' in head atom";
      return DepKind::kError;
    }
  }
  head.push_back(
      Atom(Predicate::Get(first.text, static_cast<int>(args.size())), args));
  if (lexer->Peek().kind == Token::kComma) {
    lexer->Next();
    if (!ParseBody(lexer, &head, error)) return DepKind::kError;
  }
  *tgd = Tgd(std::move(body), std::move(head));
  return DepKind::kTgd;
}

/// Parses exactly one dependency of kind `want`, with an optional final '.'.
template <typename Dep>
ParseResult<Dep> ParseSingle(std::string_view text, DepKind want,
                             const char* wrong_kind) {
  ParseResult<Dep> result;
  Lexer lexer(text);
  Tgd tgd;
  Egd egd;
  std::string error;
  DepKind kind = ParseOneDependency(&lexer, &tgd, &egd, &error);
  if (kind == DepKind::kError) {
    result.error = error;
    return result;
  }
  if (kind != want) {
    result.error = wrong_kind;
    return result;
  }
  Token tail = lexer.Next();
  if (tail.kind == Token::kDot) tail = lexer.Next();
  if (tail.kind != Token::kEnd) {
    result.error = "trailing input";
    return result;
  }
  if constexpr (std::is_same_v<Dep, Tgd>) {
    result.value = std::move(tgd);
  } else {
    result.value = std::move(egd);
  }
  return result;
}

}  // namespace

ParseResult<Tgd> ParseTgd(std::string_view text) {
  return ParseSingle<Tgd>(text, DepKind::kTgd, "expected a tgd, found an egd");
}

ParseResult<Egd> ParseEgd(std::string_view text) {
  return ParseSingle<Egd>(text, DepKind::kEgd, "expected an egd, found a tgd");
}

ParseResult<DependencySet> ParseDependencySet(std::string_view text) {
  ParseResult<DependencySet> result;
  DependencySet set;
  Lexer lexer(text);
  while (true) {
    if (lexer.Peek().kind == Token::kEnd) break;
    Tgd tgd;
    Egd egd;
    std::string error;
    DepKind kind = ParseOneDependency(&lexer, &tgd, &egd, &error);
    if (kind == DepKind::kError) {
      result.error = error;
      return result;
    }
    if (kind == DepKind::kTgd) {
      set.tgds.push_back(std::move(tgd));
    } else {
      set.egds.push_back(std::move(egd));
    }
    Token sep = lexer.Peek();
    if (sep.kind == Token::kDot) {
      lexer.Next();
      continue;
    }
    if (sep.kind == Token::kEnd) break;
    // Statements may also be separated by nothing but whitespace; any other
    // token restarts a dependency parse.
  }
  result.value = std::move(set);
  return result;
}

Tgd MustParseTgd(std::string_view text) {
  return ParseTgd(text).OrDie("MustParseTgd", text);
}

Egd MustParseEgd(std::string_view text) {
  return ParseEgd(text).OrDie("MustParseEgd", text);
}

DependencySet MustParseDependencySet(std::string_view text) {
  return ParseDependencySet(text).OrDie("MustParseDependencySet", text);
}

}  // namespace semacyc
