#include "core/query.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <unordered_set>

#include "core/flat_table.h"

namespace semacyc {

Term Apply(const Substitution& sub, Term t) {
  auto it = sub.find(t);
  return it == sub.end() ? t : it->second;
}

Atom Apply(const Substitution& sub, const Atom& atom) {
  std::vector<Term> args;
  args.reserve(atom.arity());
  for (Term t : atom.args()) args.push_back(Apply(sub, t));
  return Atom(atom.predicate(), std::move(args));
}

std::vector<Atom> Apply(const Substitution& sub,
                        const std::vector<Atom>& atoms) {
  std::vector<Atom> out;
  out.reserve(atoms.size());
  for (const Atom& a : atoms) out.push_back(Apply(sub, a));
  return out;
}

ConjunctiveQuery::ConjunctiveQuery(std::vector<Term> head,
                                   std::vector<Atom> body)
    : head_(std::move(head)), body_(std::move(body)) {
  for ([[maybe_unused]] const Atom& a : body_) {
    assert(!a.MentionsKind(TermKind::kNull) && "query bodies contain no nulls");
  }
}

std::optional<Term> ConjunctiveQuery::UnboundHeadVariable() const {
  for (Term h : head_) {
    if (h.IsVariable() &&
        std::none_of(body_.begin(), body_.end(),
                     [h](const Atom& a) { return a.Mentions(h); })) {
      return h;
    }
  }
  return std::nullopt;
}

std::vector<Term> ConjunctiveQuery::Variables() const {
  std::vector<AtomView> atoms;
  QueryFreezer freezer;
  freezer.Number(QueryView::Of(*this, &atoms));
  return std::move(freezer).variables();
}

std::vector<Term> ConjunctiveQuery::FreeVariables() const {
  std::vector<Term> out;
  std::unordered_set<Term> seen;
  for (Term h : head_) {
    if (h.IsVariable() && seen.insert(h).second) out.push_back(h);
  }
  return out;
}

std::vector<Term> ConjunctiveQuery::ExistentialVariables() const {
  std::unordered_set<Term> free;
  for (Term h : head_) free.insert(h);
  std::vector<Term> out;
  std::unordered_set<Term> seen;
  for (const Atom& a : body_) {
    for (Term t : a.args()) {
      if (t.IsVariable() && !free.count(t) && seen.insert(t).second) {
        out.push_back(t);
      }
    }
  }
  return out;
}

std::vector<std::vector<int>> ConjunctiveQuery::ConnectedComponents() const {
  const int n = static_cast<int>(body_.size());
  std::vector<int> comp(n, -1);
  // Union-find over atom indices, joined through shared variables.
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::unordered_map<Term, int> first_atom_with;
  for (int i = 0; i < n; ++i) {
    for (Term t : body_[i].args()) {
      if (!t.IsVariable()) continue;
      auto [it, inserted] = first_atom_with.emplace(t, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  std::unordered_map<int, int> root_to_comp;
  std::vector<std::vector<int>> out;
  for (int i = 0; i < n; ++i) {
    int r = find(i);
    auto [it, inserted] = root_to_comp.emplace(r, out.size());
    if (inserted) out.emplace_back();
    comp[i] = it->second;
    out[it->second].push_back(i);
  }
  return out;
}

ConjunctiveQuery ConjunctiveQuery::Substitute(const Substitution& sub) const {
  std::vector<Term> head;
  head.reserve(head_.size());
  for (Term h : head_) head.push_back(Apply(sub, h));
  return ConjunctiveQuery(std::move(head), Apply(sub, body_));
}

ConjunctiveQuery ConjunctiveQuery::RenameApart() const {
  Substitution sub;
  for (Term v : Variables()) sub[v] = FreshVariable();
  return Substitute(sub);
}

size_t ConjunctiveQuery::ApproxBytes() const {
  size_t bytes = sizeof(ConjunctiveQuery) + head_.size() * sizeof(Term);
  for (const Atom& a : body_) bytes += sizeof(Atom) + a.arity() * sizeof(Term);
  return bytes;
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = "q(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ",";
    out += head_[i].ToQuotedString();
  }
  out += ") :- ";
  out += AtomsToString(body_);
  return out;
}

namespace {
std::atomic<uint64_t> g_fresh_var_counter{0};
std::atomic<uint64_t> g_fresh_const_counter{0};
}  // namespace

Term FreshVariable() {
  return Term::Variable("v$" + std::to_string(g_fresh_var_counter.fetch_add(1)));
}

QueryView QueryView::Of(const ConjunctiveQuery& q,
                        std::vector<AtomView>* atoms) {
  atoms->clear();
  atoms->reserve(q.body().size());
  for (const Atom& a : q.body()) atoms->push_back(AtomView::Of(a));
  return {q.head().data(), q.arity(), atoms->data(), atoms->size()};
}

ConjunctiveQuery QueryView::ToQuery() const {
  std::vector<Atom> atoms;
  atoms.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    atoms.emplace_back(body[i].pred,
                       std::vector<Term>(body[i].args,
                                         body[i].args + body[i].arity));
  }
  return ConjunctiveQuery(std::vector<Term>(head, head + arity),
                          std::move(atoms));
}

size_t QueryFreezer::Number(QueryView q) {
  size_t terms = q.arity;
  for (size_t i = 0; i < q.size; ++i) terms += q.body[i].arity;
  ids_.Clear();
  ids_.Reserve(terms);
  vars_.clear();
  vars_.reserve(terms);
  // A variable's group is its number: groups count up from 0.
  auto add = [&](Term t) {
    if (t.IsVariable() && ids_.Insert(t.raw_bits()) == vars_.size()) {
      vars_.push_back(t);
    }
  };
  for (size_t i = 0; i < q.arity; ++i) add(q.head[i]);
  for (size_t i = 0; i < q.size; ++i) {
    for (size_t pos = 0; pos < q.body[i].arity; ++pos) add(q.body[i].args[pos]);
  }
  return vars_.size();
}

void QueryFreezer::Write(QueryView q, const Term* images, Instance* instance,
                         std::vector<Term>* frozen_head) const {
  auto image = [&](Term t) {
    return t.IsVariable() ? images[ids_.Find(t.raw_bits())] : t;
  };
  for (size_t i = 0; i < q.size; ++i) {
    const AtomView& a = q.body[i];
    std::vector<Term> args(a.arity);
    for (size_t pos = 0; pos < a.arity; ++pos) args[pos] = image(a.args[pos]);
    instance->Insert(Atom(a.pred, std::move(args)));
  }
  frozen_head->resize(q.arity);
  for (size_t i = 0; i < q.arity; ++i) (*frozen_head)[i] = image(q.head[i]);
}

FrozenQuery Freeze(const ConjunctiveQuery& q, TermKind freeze_kind) {
  std::vector<AtomView> atoms;
  const QueryView view = QueryView::Of(q, &atoms);
  QueryFreezer freezer;
  const size_t n = freezer.Number(view);
  std::vector<Term> images(n);
  FrozenQuery out;
  out.var_to_frozen.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const Term v = freezer.variables()[k];
    if (freeze_kind == TermKind::kConstant) {
      // Distinct canonical constants per freeze call: c(x) must be fresh so
      // that two frozen queries never share canonical constants.
      images[k] = Term::Constant(
          "@" + std::to_string(g_fresh_const_counter.fetch_add(1)) + ":" +
          v.name());
    } else {
      images[k] = Term::FreshNull();
    }
    out.var_to_frozen[v] = images[k];
  }
  out.instance.Reserve(q.body().size());
  freezer.Write(view, images.data(), &out.instance, &out.frozen_head);
  return out;
}

ConjunctiveQuery QueryFromAtoms(const std::vector<Atom>& atoms,
                                const std::vector<Term>& head_terms) {
  Substitution rename;
  auto var_of = [&rename](Term t) -> Term {
    if (t.IsConstant() && !t.IsFrozenNull()) return t;  // real constant
    auto it = rename.find(t);
    if (it != rename.end()) return it->second;
    Term v = FreshVariable();
    rename.emplace(t, v);
    return v;
  };
  std::vector<Atom> body;
  body.reserve(atoms.size());
  for (const Atom& a : atoms) {
    std::vector<Term> args;
    args.reserve(a.arity());
    for (Term t : a.args()) args.push_back(var_of(t));
    body.emplace_back(a.predicate(), std::move(args));
  }
  std::vector<Term> head;
  head.reserve(head_terms.size());
  for (Term t : head_terms) head.push_back(var_of(t));
  return ConjunctiveQuery(std::move(head), std::move(body));
}

ConjunctiveQuery QueryFromInstance(const Instance& instance,
                                   const std::vector<Term>& head_terms) {
  return QueryFromAtoms(instance.atoms(), head_terms);
}

UnionQuery::UnionQuery(std::vector<ConjunctiveQuery> disjuncts)
    : disjuncts_(std::move(disjuncts)) {
#ifndef NDEBUG
  for (size_t i = 1; i < disjuncts_.size(); ++i) {
    assert(disjuncts_[i].arity() == disjuncts_[0].arity());
  }
#endif
}

size_t UnionQuery::Height() const {
  size_t h = 0;
  for (const auto& q : disjuncts_) h = std::max(h, q.size());
  return h;
}

std::string UnionQuery::ToString() const {
  std::string out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out += "\n  UNION ";
    out += disjuncts_[i].ToString();
  }
  return out;
}

}  // namespace semacyc
