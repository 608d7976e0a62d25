#include "core/atom.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace semacyc {
namespace {

/// Read-mostly like the term SymbolTable: known predicates (the steady
/// state — ArityOf runs per enumerated candidate atom) take a shared lock.
class PredicateTable {
 public:
  static PredicateTable& Get() {
    static PredicateTable* table = new PredicateTable();
    return *table;
  }

  uint32_t Intern(const std::string& name, int arity) {
    std::string key = name + "/" + std::to_string(arity);
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(entries_.size());
    entries_.push_back({name, arity});
    map_.emplace(std::move(key), id);
    return id;
  }

  const std::string& NameOf(uint32_t id) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    assert(id < entries_.size());
    return entries_[id].name;
  }

  int ArityOf(uint32_t id) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    assert(id < entries_.size());
    return entries_[id].arity;
  }

 private:
  struct Entry {
    std::string name;
    int arity;
  };
  std::shared_mutex mu_;
  std::unordered_map<std::string, uint32_t> map_;
  /// Deque, not vector: NameOf hands out references that must survive
  /// concurrent Intern calls (Engine::Decide runs on shared state).
  std::deque<Entry> entries_;
};

}  // namespace

Predicate Predicate::Get(const std::string& name, int arity) {
  return Predicate(PredicateTable::Get().Intern(name, arity));
}

const std::string& Predicate::name() const {
  return PredicateTable::Get().NameOf(id_);
}

int Predicate::arity() const { return PredicateTable::Get().ArityOf(id_); }

std::string Predicate::ToString() const {
  if (!IsValid()) return "<invalid>";
  return name() + "/" + std::to_string(arity());
}

Atom::Atom(Predicate pred, std::vector<Term> args)
    : pred_(pred), args_(std::move(args)) {
  assert(static_cast<int>(args_.size()) == pred.arity());
}

Atom::Atom(Predicate pred, std::initializer_list<Term> args)
    : Atom(pred, std::vector<Term>(args)) {}

bool Atom::MentionsKind(TermKind kind) const {
  for (Term t : args_) {
    if (t.IsValid() && t.kind() == kind) return true;
  }
  return false;
}

bool Atom::Mentions(Term t) const {
  return std::find(args_.begin(), args_.end(), t) != args_.end();
}

std::vector<Term> Atom::DistinctTerms() const {
  std::vector<Term> out;
  for (Term t : args_) {
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

bool operator<(const Atom& a, const Atom& b) {
  if (a.pred_ != b.pred_) return a.pred_ < b.pred_;
  return a.args_ < b.args_;
}

std::string Atom::ToString() const {
  std::string out = pred_.IsValid() ? pred_.name() : "<invalid>";
  out += "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ",";
    out += args_[i].ToQuotedString();
  }
  out += ")";
  return out;
}

std::string AtomsToString(const std::vector<Atom>& atoms) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].ToString();
  }
  return out;
}

}  // namespace semacyc
