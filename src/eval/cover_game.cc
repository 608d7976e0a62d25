#include "eval/cover_game.h"

#include <cassert>
#include <optional>
#include <unordered_map>

namespace semacyc {
namespace {

bool Rigid(Term t) { return t.IsConstant() && !t.IsFrozenNull(); }

/// The position-wise map a -> b as a functional term mapping; nullopt when
/// inconsistent (same source term to two targets) or when it moves a rigid
/// constant.
std::optional<std::vector<std::pair<Term, Term>>> AtomMap(const Atom& a,
                                                          const Atom& b) {
  if (a.predicate() != b.predicate()) return std::nullopt;
  std::vector<std::pair<Term, Term>> out;
  for (size_t i = 0; i < a.arity(); ++i) {
    Term s = a.arg(i);
    Term d = b.arg(i);
    if (Rigid(s) && s != d) return std::nullopt;
    bool found = false;
    for (auto& [x, y] : out) {
      if (x == s) {
        if (y != d) return std::nullopt;
        found = true;
        break;
      }
    }
    if (!found) out.push_back({s, d});
  }
  return out;
}

Term ImageOf(const std::vector<std::pair<Term, Term>>& map, Term s) {
  for (const auto& [x, y] : map) {
    if (x == s) return y;
  }
  return Term();
}

}  // namespace

CoverGameResult SolveCoverGame(const Instance& I, const std::vector<Term>& t,
                               const Instance& J,
                               const std::vector<Term>& t_prime) {
  CoverGameResult result;
  assert(t.size() == t_prime.size());
  const size_t n = I.size();
  if (n == 0) {
    result.duplicator_wins = true;
    return result;
  }

  // Head correspondence as a (required-functional) term map.
  std::unordered_map<Term, Term, TermHash> head_map;
  for (size_t i = 0; i < t.size(); ++i) {
    auto [it, inserted] = head_map.emplace(t[i], t_prime[i]);
    if (!inserted && it->second != t_prime[i]) {
      // The same source head term must go to two different targets: no
      // H can satisfy condition (1) for any atom mentioning it. If no
      // atom mentions it, the pair is irrelevant — drop to a sentinel
      // that poisons atoms mentioning the term.
      it->second = Term();  // invalid target = unsatisfiable
    }
  }

  // Candidate images per atom of I, honoring condition (1).
  std::vector<std::vector<uint32_t>> cand(n);
  std::vector<std::vector<std::vector<std::pair<Term, Term>>>> maps(n);
  for (size_t a = 0; a < n; ++a) {
    for (uint32_t b : J.AtomsOf(I.atom(a).predicate())) {
      auto map = AtomMap(I.atom(a), J.atom(b));
      if (!map.has_value()) continue;
      bool head_ok = true;
      for (const auto& [s, d] : *map) {
        auto it = head_map.find(s);
        if (it != head_map.end() && (!it->second.IsValid() || it->second != d)) {
          head_ok = false;
          break;
        }
      }
      if (!head_ok) continue;
      cand[a].push_back(b);
      maps[a].push_back(std::move(*map));
    }
    if (cand[a].empty()) return result;  // spoiler wins
  }

  // Atoms sharing terms (condition (2) is vacuous otherwise, except for
  // plain nonemptiness which the loop maintains).
  std::vector<std::vector<uint32_t>> neighbors(n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t g = 0; g < n; ++g) {
      if (a == g) continue;
      bool shares = false;
      for (Term x : I.atom(a).DistinctTerms()) {
        if (I.atom(g).Mentions(x)) {
          shares = true;
          break;
        }
      }
      if (shares) neighbors[a].push_back(static_cast<uint32_t>(g));
    }
  }

  // Arc-consistency fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    for (size_t a = 0; a < n; ++a) {
      for (size_t ci = 0; ci < cand[a].size();) {
        const auto& fa = maps[a][ci];
        bool supported_everywhere = true;
        for (uint32_t g : neighbors[a]) {
          bool supported = false;
          for (size_t cj = 0; cj < cand[g].size() && !supported; ++cj) {
            const auto& fg = maps[g][cj];
            bool compatible = true;
            for (const auto& [x, y] : fa) {
              Term other = ImageOf(fg, x);
              if (other.IsValid() && other != y) {
                compatible = false;
                break;
              }
            }
            if (compatible) supported = true;
          }
          if (!supported) {
            supported_everywhere = false;
            break;
          }
        }
        if (!supported_everywhere) {
          cand[a].erase(cand[a].begin() + static_cast<long>(ci));
          maps[a].erase(maps[a].begin() + static_cast<long>(ci));
          changed = true;
          if (cand[a].empty()) return result;  // spoiler wins
        } else {
          ++ci;
        }
      }
    }
  }

  result.duplicator_wins = true;
  result.strategy = std::move(cand);
  return result;
}

bool DuplicatorWins(const Instance& I, const std::vector<Term>& t,
                    const Instance& J, const std::vector<Term>& t_prime) {
  return SolveCoverGame(I, t, J, t_prime).duplicator_wins;
}

}  // namespace semacyc
