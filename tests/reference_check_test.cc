// Independent reference checks for the decision pipeline: every YES
// witness the engine's strategies return, and every exact NO on tiny
// inputs. The reference shares no code with the fast paths that produced
// the answers — no ContainmentOracle, no incremental homomorphism or
// classifier, no canonical fingerprints. Containment is re-derived by
// chasing (ChaseQuery / ContainedUnder) plus from-scratch
// FindHomomorphisms (Lemma 1), and class membership by the brute-force
// deciders of acyclic/oracle.h, which implement Fagin's definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "acyclic/oracle.h"
#include "chase/query_chase.h"
#include "core/homomorphism.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

using acyclic::AcyclicityClass;

const AcyclicityClass kAllTargets[] = {
    AcyclicityClass::kAlpha, AcyclicityClass::kBeta, AcyclicityClass::kGamma,
    AcyclicityClass::kBerge};

// ------------------------------------------------------ the reference --

acyclic::Hypergraph BodyHypergraph(const std::vector<Atom>& body) {
  return ToAcyclicHypergraph(
      Hypergraph::FromAtoms(body, ConnectingTerms::kVariables));
}

/// The tightest class of a query body by the brute-force deciders.
AcyclicityClass ReferenceClass(const std::vector<Atom>& body) {
  return acyclic::OracleClassify(BodyHypergraph(body));
}

/// Membership in one class by its brute-force decider alone.
bool ReferenceMeets(const std::vector<Atom>& body, AcyclicityClass target) {
  acyclic::Hypergraph hg = BodyHypergraph(body);
  switch (target) {
    case AcyclicityClass::kCyclic:
      return true;
    case AcyclicityClass::kAlpha:
      return acyclic::OracleAlpha(hg);
    case AcyclicityClass::kBeta:
      return acyclic::OracleBeta(hg);
    case AcyclicityClass::kGamma:
      return acyclic::OracleGamma(hg);
    case AcyclicityClass::kBerge:
      return acyclic::OracleBerge(hg);
  }
  return false;
}

/// Binds `head` position-wise onto `target` (constants must match, a
/// repeated variable must see one target term). False when impossible.
bool BindHead(const std::vector<Term>& head, const std::vector<Term>& target,
              Substitution* fixed) {
  if (head.size() != target.size()) return false;
  for (size_t i = 0; i < head.size(); ++i) {
    if (!head[i].IsVariable()) {
      if (head[i] != target[i]) return false;
      continue;
    }
    auto [it, inserted] = fixed->emplace(head[i], target[i]);
    if (!inserted && it->second != target[i]) return false;
  }
  return true;
}

/// q2 maps into `chase` with its head bound onto chase's frozen head —
/// a from-scratch backtracking search.
bool MapsInto(const std::vector<Atom>& body, const std::vector<Term>& head,
              const QueryChaseResult& chase) {
  HomOptions options;
  if (!BindHead(head, chase.frozen_head, &options.fixed)) return false;
  return FindHomomorphisms(body, chase.instance, options).found;
}

/// q1 ⊆Σ q2 by Lemma 1: chase q1, then look for q2 in the chase.
Tri ChaseAndMap(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                const DependencySet& sigma) {
  QueryChaseResult chase = ChaseQuery(q1, sigma);
  if (chase.failed) return Tri::kYes;  // q1 is empty on every model of Σ
  if (MapsInto(q2.body(), q2.head(), chase)) return Tri::kYes;
  return chase.saturated ? Tri::kNo : Tri::kUnknown;
}

/// q1 ⊆Σ q2 derived twice, through ContainedUnder and through
/// ChaseAndMap; both must say yes.
testing::AssertionResult ContainedTwice(const ConjunctiveQuery& q1,
                                        const ConjunctiveQuery& q2,
                                        const DependencySet& sigma) {
  Tri under = ContainedUnder(q1, q2, sigma);
  Tri mapped = ChaseAndMap(q1, q2, sigma);
  if (under == Tri::kYes && mapped == Tri::kYes) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << q1.ToString() << " ⊆Σ " << q2.ToString()
         << ": ContainedUnder=" << ToString(under)
         << " ChaseAndMap=" << ToString(mapped);
}

/// Checks one YES decision of q under Σ against `target`: the witness
/// meets the target class and the class the engine reported, q ≡Σ
/// witness in both directions, and the printed witness (constants quoted)
/// parses back to the same query. A YES without a witness must come from
/// a failing chase.
testing::AssertionResult CheckYes(const ConjunctiveQuery& q,
                                  const DependencySet& sigma,
                                  const SemAcResult& r,
                                  AcyclicityClass target) {
  if (r.answer != SemAcAnswer::kYes) {
    return testing::AssertionFailure() << "not a YES";
  }
  if (!r.witness.has_value()) {
    if (r.strategy == Strategy::kFailingChase && ChaseQuery(q, sigma).failed) {
      return testing::AssertionSuccess();
    }
    return testing::AssertionFailure()
           << "YES without witness from " << ToString(r.strategy);
  }
  const ConjunctiveQuery& w = *r.witness;
  AcyclicityClass cls = ReferenceClass(w.body());
  if (!acyclic::AtLeast(cls, target)) {
    return testing::AssertionFailure()
           << "witness " << w.ToString() << " is " << acyclic::ToString(cls)
           << ", below target " << acyclic::ToString(target);
  }
  if (cls != r.witness_class) {
    return testing::AssertionFailure()
           << "witness " << w.ToString() << " is " << acyclic::ToString(cls)
           << " but reported " << acyclic::ToString(r.witness_class);
  }
  ParseResult<ConjunctiveQuery> parsed = ParseQuery(w.ToString());
  if (!parsed.ok()) {
    return testing::AssertionFailure()
           << "printed witness " << w.ToString()
           << " does not parse: " << parsed.error;
  }
  if (!(*parsed == w)) {
    return testing::AssertionFailure()
           << "printed witness " << w.ToString() << " parses as "
           << parsed->ToString();
  }
  testing::AssertionResult forward = ContainedTwice(q, w, sigma);
  if (!forward) return forward;
  return ContainedTwice(w, q, sigma);
}

// ------------------------------------------------------- workloads --

struct Workload {
  std::string name;
  DependencySet sigma;
  std::vector<ConjunctiveQuery> queries;
};

/// Every generator family under each schema class the paper studies:
/// guarded, non-recursive, sticky, and egds (K2 keys, Example 4, the
/// Figure 4 grid keys), plus the paper's worked examples.
std::vector<Workload> Workloads() {
  Generator gen(29);
  std::vector<Workload> out;
  {
    Workload w{"guarded", MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)"),
               {}};
    w.queries.push_back(MustParseQuery("T(x,y), E(y,z), E(z,x)"));
    w.queries.push_back(MustParseQuery("q(x) :- T(x,y), E(y,z), E(z,x)"));
    w.queries.push_back(gen.CycleQuery(3));
    w.queries.push_back(gen.CycleQuery(4));
    w.queries.push_back(gen.CliqueQuery(3));
    w.queries.push_back(gen.RandomAcyclicQuery(4, 2, 2, "E"));
    w.queries.push_back(gen.AlphaNotBetaQuery(1));
    w.queries.push_back(gen.BetaNotGammaQuery(1));
    w.queries.push_back(gen.GammaNotBergeQuery(1));
    w.queries.push_back(gen.BergeTreeQuery(5));
    out.push_back(std::move(w));
  }
  {
    Workload w{"nr",
               MustParseDependencySet("B1(x,y), B2(y,z) -> B3(z,x)"), {}};
    w.queries.push_back(MustParseQuery("B1(x,y), B2(y,z), B3(z,x)"));
    w.queries.push_back(MustParseQuery("q(x,z) :- B1(x,y), B2(y,z), B3(z,x)"));
    w.queries.push_back(MustParseQuery("B1(x,y), B2(y,x)"));
    w.queries.push_back(gen.CycleQuery(3, "B3"));
    w.queries.push_back(gen.BetaNotGammaQuery(1));
    out.push_back(std::move(w));
  }
  {
    MusicStoreWorkload music = MakeMusicStoreWorkload(5, 4, 4, 2, 0.5);
    Workload w{"example1", music.sigma, {music.q}};
    w.queries.push_back(
        MustParseQuery("q(x) :- Interest(x,z), Class(y,z), Owns(x,y)"));
    out.push_back(std::move(w));
  }
  {
    // Figure 1's sticky set.
    Workload w{"sticky",
               MustParseDependencySet(
                   "T(x,y,z) -> S(y,w). R(x,y), P(y,z) -> T(x,y,w)."),
               {}};
    w.queries.push_back(MustParseQuery("R(x,y), P(y,z), T(x,y,w), S(y,u)"));
    w.queries.push_back(
        MustParseQuery("q(x) :- R(x,y), P(y,z), T(x,y,w), T(z,y,w)"));
    w.queries.push_back(MustParseQuery("R(x,y), P(y,x), T(x,y,w)"));
    out.push_back(std::move(w));
  }
  {
    // Example 2's sticky tgd: the implied R-cycle disappears.
    CliqueChaseWorkload clique = MakeCliqueChaseWorkload(3);
    Workload w{"example2", clique.sigma, {clique.q}};
    w.queries.push_back(MustParseQuery("P(x), P(y), Rclq(x,y), Rclq(y,x)"));
    w.queries.push_back(MustParseQuery(
        "P(x), P(y), P(z), Rclq(x,y), Rclq(y,z), Rclq(z,x)"));
    out.push_back(std::move(w));
  }
  {
    StickyBlowupWorkload blowup = MakeStickyBlowupWorkload(2);
    out.push_back({"example3", blowup.sigma, {blowup.q}});
  }
  {
    Workload w{"egd-k2", MustParseDependencySet("R(a,b), R(a,c) -> b = c"),
               {}};
    w.queries.push_back(MustParseQuery("R(x,y), R(x,z), E(y,z)"));
    w.queries.push_back(MustParseQuery("q(x) :- R(x,y), R(x,z), E(y,z)"));
    w.queries.push_back(MustParseQuery("E(a,b), E(b,c), E(c,a)"));
    w.queries.push_back(MustParseQuery("R(x,y), E(y,y)"));
    out.push_back(std::move(w));
  }
  {
    KeySquareWorkload square = MakeKeySquareWorkload();
    out.push_back({"example4", square.sigma, {square.q}});
  }
  {
    KeyGridWorkload grid = MakeKeyGridWorkload(1);
    out.push_back({"figure4", grid.sigma, {grid.q}});
  }
  {
    // Constants in queries and witnesses: read back as variables, 'a'
    // would join E(x,a) and E(a,x) into a Berge cycle.
    Workload w{"constants", MustParseDependencySet("E(x,y) -> E(y,x)"), {}};
    w.queries.push_back(MustParseQuery("q(x) :- E(x,'a'), E('a',x), E(x,x)"));
    w.queries.push_back(
        MustParseQuery("q(x,y) :- E(x,y), E(y,x), R(x,'a'), R(y,'b')"));
    w.queries.push_back(
        MustParseQuery("q('c',x) :- E(x,y), E(y,'c'), E('c',x)"));
    out.push_back(std::move(w));
  }
  {
    EvalWorkload star = MakeStarEvalWorkload(3, 3, 4, 2, 4);
    out.push_back({"star", DependencySet{}, {star.q, gen.CliqueQuery(3)}});
  }
  return out;
}

/// Per-strategy switches: the full pipeline, and each witness strategy
/// alone so every strategy's YES witnesses reach the checker.
struct StrategyMask {
  const char* name;
  bool images, subsets, exhaustive;
};

const StrategyMask kMasks[] = {{"all", true, true, true},
                               {"images", true, false, false},
                               {"subsets", false, true, false},
                               {"exhaustive", false, false, true}};

SemAcOptions Options(const StrategyMask& mask, AcyclicityClass target,
                     size_t threads) {
  SemAcOptions options;
  options.subset_budget = 1000;
  options.exhaustive_budget = 1000;
  options.target_class = target;
  options.enable_images = mask.images;
  options.enable_subsets = mask.subsets;
  options.enable_exhaustive = mask.exhaustive;
  options.decide_threads = threads;
  return options;
}

/// The variables of q renamed apart (r_<name>): an isomorphic variant
/// that the decision cache serves from q's entry.
ConjunctiveQuery RenamedVariant(const ConjunctiveQuery& q) {
  Substitution rename;
  for (Term v : q.Variables()) {
    rename.emplace(v, Term::Variable("r_" + v.name()));
  }
  std::vector<Term> head;
  for (Term t : q.head()) head.push_back(Apply(rename, t));
  return ConjunctiveQuery(std::move(head), Apply(rename, q.body()));
}

// ------------------------------------------------- YES witness sweep --

TEST(ReferenceCheckTest, EveryYesWitnessChecksOut) {
  size_t checked = 0;
  std::vector<Strategy> strategies_seen;
  for (const Workload& w : Workloads()) {
    for (AcyclicityClass target : kAllTargets) {
      for (const StrategyMask& mask : kMasks) {
        for (size_t threads : {size_t{1}, size_t{2}}) {
          if (threads > 1 && !mask.subsets && !mask.exhaustive) continue;
          Engine engine(w.sigma, Options(mask, target, threads));
          for (const ConjunctiveQuery& q : w.queries) {
            SemAcResult r = engine.Decide(q);
            if (r.answer != SemAcAnswer::kYes) continue;
            EXPECT_TRUE(CheckYes(q, w.sigma, r, target))
                << w.name << " / " << q.ToString() << " target "
                << acyclic::ToString(target) << " mask " << mask.name
                << " @ " << threads << " threads, strategy "
                << ToString(r.strategy);
            ++checked;
            strategies_seen.push_back(r.strategy);
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
  // Every strategy that can produce a witness did produce one.
  for (Strategy s :
       {Strategy::kAlreadyAcyclic, Strategy::kCore, Strategy::kChaseCompaction,
        Strategy::kImages, Strategy::kSubsets, Strategy::kExhaustive}) {
    EXPECT_NE(std::find(strategies_seen.begin(), strategies_seen.end(), s),
              strategies_seen.end())
        << "no YES witness from " << ToString(s);
  }
}

/// The decision cache serves an isomorphic query the cached result
/// verbatim; that witness must check out against the variant too.
TEST(ReferenceCheckTest, DecisionCacheIsomorphicHitWitnessChecksOut) {
  size_t hits = 0;
  for (const Workload& w : Workloads()) {
    Engine engine(w.sigma, Options(kMasks[0], AcyclicityClass::kAlpha, 1));
    for (const ConjunctiveQuery& q : w.queries) {
      SemAcResult first = engine.Decide(q);
      ConjunctiveQuery variant = RenamedVariant(q);
      size_t hits_before = engine.Stats().hits;
      SemAcResult served = engine.Decide(variant);
      ASSERT_EQ(engine.Stats().hits, hits_before + 1)
          << q.ToString();
      ASSERT_EQ(served.answer, first.answer);
      if (served.answer != SemAcAnswer::kYes) continue;
      EXPECT_TRUE(CheckYes(variant, w.sigma, served, AcyclicityClass::kAlpha))
          << w.name << " / " << variant.ToString();
      ++hits;
    }
  }
  EXPECT_GT(hits, 10u);
}

// ---------------------------------------------- exact NOs, tiny inputs --

/// Naive brute force over every constant-free CQ with at most `max_atoms`
/// atoms over `preds` (complete up to variable renaming: the head is a
/// restricted-growth tuple, body atoms strictly increase in a fixed order,
/// and a variable may appear only after every lower-numbered one — the
/// lexicographically least renaming of any query has this shape). A
/// candidate q' is a witness when it meets `target` (Fagin's definitions),
/// q' ⊆Σ q (ContainedUnder), and q ⊆Σ q' (Lemma 1: q' maps into chase(q)
/// with the head bound). The last test is hereditary over body subsets,
/// so prefixes that do not map are pruned — exact when chase(q)
/// saturates, which the caller guarantees.
class BruteForceWitnessSearch {
 public:
  BruteForceWitnessSearch(const ConjunctiveQuery& q, const DependencySet& sigma,
                          std::vector<Predicate> preds, size_t max_atoms,
                          AcyclicityClass target)
      : q_(q),
        sigma_(sigma),
        preds_(std::move(preds)),
        max_atoms_(max_atoms),
        target_(target),
        chase_(ChaseQuery(q, sigma)) {}

  /// A witness, if one exists within the bound.
  std::optional<ConjunctiveQuery> Run() {
    EXPECT_TRUE(chase_.saturated && !chase_.failed) << q_.ToString();
    std::vector<int> head_vars;
    Heads(&head_vars, 0);
    return found_;
  }

  size_t candidates() const { return candidates_; }

 private:
  static Term Var(int i) { return Term::Variable("b" + std::to_string(i)); }

  void Heads(std::vector<int>* head_vars, int next_var) {
    if (found_.has_value()) return;
    if (head_vars->size() == q_.head().size()) {
      head_.clear();
      for (int v : *head_vars) head_.push_back(Var(v));
      body_.clear();
      Grow(next_var);
      return;
    }
    for (int v = 0; v <= next_var; ++v) {
      head_vars->push_back(v);
      Heads(head_vars, std::max(next_var, v + 1));
      head_vars->pop_back();
    }
  }

  /// Extends body_ by every atom above its last one, in order.
  void Grow(int next_var) {
    if (found_.has_value()) return;
    if (!body_.empty()) Test();
    if (body_.size() >= max_atoms_) return;
    for (size_t p = 0; p < preds_.size(); ++p) {
      std::vector<int> args;
      Args(p, &args, next_var);
      if (found_.has_value()) return;
    }
  }

  void Args(size_t p, std::vector<int>* args, int next_var) {
    if (args->size() == static_cast<size_t>(preds_[p].arity())) {
      std::vector<int> key = {static_cast<int>(p)};
      key.insert(key.end(), args->begin(), args->end());
      if (!keys_.empty() && key <= keys_.back()) return;  // strictly increasing
      std::vector<Term> terms;
      for (int v : *args) terms.push_back(Var(v));
      body_.emplace_back(preds_[p], std::move(terms));
      keys_.push_back(std::move(key));
      if (MapsInto(body_, head_, chase_)) Grow(next_var);
      keys_.pop_back();
      body_.pop_back();
      return;
    }
    for (int v = 0; v <= next_var; ++v) {
      args->push_back(v);
      Args(p, args, std::max(next_var, v + 1));
      args->pop_back();
      if (found_.has_value()) return;
    }
  }

  void Test() {
    for (Term h : head_) {
      bool occurs = false;
      for (const Atom& a : body_) occurs = occurs || a.Mentions(h);
      if (!occurs) return;  // unsafe head
    }
    if (!ReferenceMeets(body_, target_)) return;
    ++candidates_;
    ConjunctiveQuery candidate(head_, body_);
    Tri back = ContainedUnder(candidate, q_, sigma_);
    EXPECT_NE(back, Tri::kUnknown) << candidate.ToString();
    if (back == Tri::kYes) found_ = candidate;
  }

  const ConjunctiveQuery& q_;
  const DependencySet& sigma_;
  std::vector<Predicate> preds_;
  size_t max_atoms_;
  AcyclicityClass target_;
  QueryChaseResult chase_;
  std::vector<Term> head_;
  std::vector<Atom> body_;
  std::vector<std::vector<int>> keys_;
  size_t candidates_ = 0;
  std::optional<ConjunctiveQuery> found_;
};

/// The predicates a witness may use: those of q and of Σ's tgd heads (no
/// other predicate can occur in chase(q)).
std::vector<Predicate> WitnessPredicates(const ConjunctiveQuery& q,
                                         const DependencySet& sigma) {
  std::vector<Predicate> out;
  auto add = [&out](Predicate p) {
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  };
  for (const Atom& a : q.body()) add(a.predicate());
  for (const Tgd& t : sigma.tgds) {
    for (const Atom& a : t.head()) add(a.predicate());
  }
  return out;
}

/// Tiny inputs: at most 3 atoms over at most 2 binary predicates, no
/// constants, and a Σ whose chase terminates (∅, egd-only, NR). Every
/// exact NO the engine emits — full pipeline and exhaustive-only — is
/// re-proved by brute force up to the engine's small-query bound; every
/// YES is checked like the sweep above.
TEST(ReferenceCheckTest, ExactNosAgreeWithBruteForceOnTinyInputs) {
  struct Tiny {
    const char* sigma;
    std::vector<const char*> queries;
  };
  const Tiny tiny[] = {
      {"", {"E(x,y), E(y,z), E(z,x)", "E(x,y), E(y,x), E(x,x)"}},
      {"E(x,y), E(x,z) -> y = z",
       {"E(x,y), E(y,z), E(z,x)", "E(x,y), E(x,z), F(y,z)",
        "q(x) :- E(x,y), F(y,z), F(z,x)"}},
      {"E(x,y), E(y,z) -> F(z,x)",
       {"E(x,y), E(y,z), F(z,x)", "q(x) :- E(x,y), E(y,z), F(z,x)"}},
      {"F(x,y) -> E(y,x)",
       {"E(x,y), E(y,z), E(z,x)", "E(x,y), F(y,z), E(z,x)"}},
  };
  size_t exact_nos = 0;
  size_t yeses = 0;
  for (const Tiny& t : tiny) {
    DependencySet sigma = MustParseDependencySet(t.sigma);
    for (const char* text : t.queries) {
      ConjunctiveQuery q = MustParseQuery(text);
      // The brute force runs once per input, on its first exact NO.
      std::optional<std::optional<ConjunctiveQuery>> brute_witness;
      for (const StrategyMask& mask : {kMasks[0], kMasks[3]}) {
        SemAcOptions options = Options(mask, AcyclicityClass::kAlpha, 1);
        options.exhaustive_budget = 2000000;
        Engine engine(sigma, options);
        SemAcResult r = engine.Decide(q);
        std::string context = std::string(t.sigma) + " / " + text +
                              " mask " + mask.name + " strategy " +
                              ToString(r.strategy);
        if (r.answer == SemAcAnswer::kYes) {
          EXPECT_TRUE(CheckYes(q, sigma, r, AcyclicityClass::kAlpha))
              << context;
          ++yeses;
          continue;
        }
        ASSERT_EQ(r.answer, SemAcAnswer::kNo) << context;
        ASSERT_TRUE(r.exact) << context;
        if (!brute_witness.has_value()) {
          BruteForceWitnessSearch brute(q, sigma, WitnessPredicates(q, sigma),
                                        r.small_query_bound,
                                        AcyclicityClass::kAlpha);
          brute_witness = brute.Run();
          EXPECT_GT(brute.candidates(), 0u) << context;
        }
        EXPECT_FALSE(brute_witness->has_value())
            << context << ": brute force found " << (*brute_witness)->ToString();
        ++exact_nos;
      }
    }
  }
  EXPECT_GE(exact_nos, 10u);
  EXPECT_GE(yeses, 6u);
}

}  // namespace
}  // namespace semacyc
