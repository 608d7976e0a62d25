#include "core/term.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace semacyc {
namespace {

/// Process-wide interning table for named terms (constants and variables).
/// Read-mostly: lookups of known symbols (the steady state of concurrent
/// Engine decisions, which re-intern pooled names like "s$3" constantly)
/// take a shared lock; only genuinely new symbols take the exclusive one.
class SymbolTable {
 public:
  static SymbolTable& Get() {
    static SymbolTable* table = new SymbolTable();
    return *table;
  }

  uint32_t Intern(TermKind kind, const std::string& name) {
    auto& map = maps_[static_cast<int>(kind)];
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = map.find(name);
      if (it != map.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = map.find(name);
    if (it != map.end()) return it->second;
    auto& names = names_[static_cast<int>(kind)];
    uint32_t id = static_cast<uint32_t>(names.size());
    names.push_back(name);
    map.emplace(name, id);
    return id;
  }

  const std::string& NameOf(TermKind kind, uint32_t index) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto& names = names_[static_cast<int>(kind)];
    assert(index < names.size());
    return names[index];
  }

 private:
  std::shared_mutex mu_;
  std::unordered_map<std::string, uint32_t> maps_[3];
  /// Deque, not vector: NameOf hands out references that must survive
  /// concurrent Intern calls (Engine::Decide runs on shared state).
  std::deque<std::string> names_[3];
};

std::atomic<uint32_t> g_null_counter{0};
/// The number of null indices: a handle keeps 30 bits of index.
constexpr uint32_t kNullIndices = 1u << 30;

}  // namespace

Term Term::Make(TermKind kind, uint32_t index) {
  assert(index < (1u << 30));
  return Term((static_cast<uint32_t>(kind) << 30) | index);
}

Term Term::Constant(const std::string& name) {
  return Make(TermKind::kConstant,
              SymbolTable::Get().Intern(TermKind::kConstant, name));
}

Term Term::Variable(const std::string& name) {
  return Make(TermKind::kVariable,
              SymbolTable::Get().Intern(TermKind::kVariable, name));
}

Term Term::FreshNull() {
  const uint32_t index = g_null_counter.fetch_add(1);
  if (index >= kNullIndices) {
    // Index 2^30 would alias null 0 and index 2^31 would be no null at
    // all: a chase on such terms answers wrongly without a sign.
    std::fprintf(stderr,
                 "semacyc: labeled nulls exhausted: all %u null indices of "
                 "this process are used (see docs/ROBUSTNESS.md)\n",
                 kNullIndices);
    std::abort();
  }
  return Make(TermKind::kNull, index);
}

uint32_t internal::ExchangeNextNullIndexForTesting(uint32_t next) {
  return g_null_counter.exchange(next);
}

Term Term::NullAt(uint32_t index) { return Make(TermKind::kNull, index); }

bool Term::IsFrozenNull() const {
  return IsConstant() && name().rfind('@', 0) == 0;
}

const std::string& Term::name() const {
  assert(IsValid() && kind() != TermKind::kNull);
  return SymbolTable::Get().NameOf(kind(), index());
}

std::string Term::ToString() const {
  if (!IsValid()) return "<invalid>";
  switch (kind()) {
    case TermKind::kConstant:
    case TermKind::kVariable:
      return name();
    case TermKind::kNull:
      return "_:" + std::to_string(index());
  }
  return "<unreachable>";
}

std::string Term::ToQuotedString() const {
  if (!IsValid() || !IsConstant()) return ToString();
  const char quote = name().find('\'') == std::string::npos ? '\'' : '"';
  return quote + name() + quote;
}

}  // namespace semacyc
