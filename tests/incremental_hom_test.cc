// Tests for the incremental chase-homomorphism checker
// (core/incremental_hom): exact parity with a from-scratch
// FindHomomorphisms at every step of random push/pop walks (found flag AND
// witness validity).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "chase/query_chase.h"
#include "core/homomorphism.h"
#include "core/incremental_hom.h"
#include "core/parser.h"
#include "gen/generators.h"

namespace {
/// Heap allocations made by this thread, counted by this binary's
/// replacement of the global operator new (the steady-state test below).
thread_local uint64_t t_allocations = 0;
}  // namespace

// The replaced global allocation functions behind the count; the array
// and nothrow forms forward here.
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace semacyc {
namespace {

/// One (query, schema) pair whose chase is the walk target.
struct ChaseCase {
  std::string name;
  ConjunctiveQuery q;
  DependencySet sigma;
};

std::vector<ChaseCase> ChaseCases() {
  Generator gen(41);
  std::vector<ChaseCase> cases;
  cases.push_back({"cycle6-chain", gen.CycleQuery(6),
                   MustParseDependencySet(
                       "E(x,y) -> F(x,y). F(x,y) -> G(x,y).")});
  cases.push_back({"clique4-copy", gen.CliqueQuery(4),
                   MustParseDependencySet("E(x,y) -> F(x,y).")});
  cases.push_back({"alpha-not-beta", gen.AlphaNotBetaQuery(2),
                   MustParseDependencySet("E(x,y) -> E(y,x).")});
  cases.push_back({"beta-not-gamma", gen.BetaNotGammaQuery(2),
                   MustParseDependencySet("P(x,y) -> T(x,y,y).")});
  cases.push_back(
      {"berge-tree", gen.BergeTreeQuery(8), DependencySet{}});
  cases.push_back({"full-tgd",
                   MustParseQuery("E(x,y), E(y,z), E(z,x), A(x)"),
                   MustParseDependencySet("A(x) -> E(x,x)")});
  return cases;
}

/// Validates the session against the batch decider on the current stack:
/// identical found flag, and when found a witness under which every pushed
/// atom lands inside the target (with the fixed seeds respected verbatim).
void CheckAgainstBatch(IncrementalHomomorphism& hom,
                       const std::vector<Atom>& stack, const Instance& target,
                       const Substitution& fixed, const std::string& context) {
  HomOptions options;
  options.fixed = fixed;
  bool batch = FindHomomorphisms(stack, target, options).found;
  ASSERT_EQ(hom.found(), batch) << context;
  ASSERT_EQ(hom.depth(), stack.size()) << context;
  if (!hom.found()) return;
  Substitution witness = hom.Witness();
  for (const auto& [src, dst] : fixed) {
    auto it = witness.find(src);
    ASSERT_TRUE(it != witness.end()) << context << " fixed seed dropped";
    ASSERT_EQ(it->second, dst) << context << " fixed seed rebound";
  }
  for (const Atom& a : stack) {
    Atom image = Apply(witness, a);
    for (Term t : image.args()) {
      ASSERT_FALSE(t.IsVariable())
          << context << " unmapped variable in witness image of "
          << a.ToString();
    }
    ASSERT_TRUE(target.Contains(image))
        << context << " witness image " << image.ToString()
        << " not in target for " << a.ToString();
  }
}

TEST(IncrementalHomTest, RandomWalkMatchesBatchOverGeneratorFamilies) {
  std::mt19937_64 rng(53);
  ChaseOptions chase_options;
  for (const ChaseCase& c : ChaseCases()) {
    QueryChaseResult chase = ChaseQuery(c.q, c.sigma, chase_options);
    ASSERT_FALSE(chase.failed) << c.name;
    const Instance& target = chase.instance;
    std::vector<Predicate> preds = target.Predicates();
    ASSERT_FALSE(preds.empty()) << c.name;
    // A predicate absent from the chase: pushes over it must fail exactly.
    Predicate alien = Predicate::Get("IncHomAlien", 2);
    std::vector<Term> chase_terms = target.ActiveDomain();
    std::vector<Term> pool;
    for (int i = 0; i < 6; ++i) {
      pool.push_back(Term::Variable("ih$" + std::to_string(i)));
    }
    // Fixed seeds mirror the enumerator: head variables bound to the
    // frozen head, position-wise.
    Substitution fixed;
    for (size_t i = 0; i < c.q.head().size(); ++i) {
      Term h = c.q.head()[i];
      if (h.IsVariable()) fixed.emplace(h, chase.frozen_head[i]);
    }
    std::vector<Term> head_vars;
    for (const auto& [src, dst] : fixed) head_vars.push_back(src);

    auto random_atom = [&]() {
      Predicate p = rng() % 16 == 0
                        ? alien
                        : preds[rng() % preds.size()];
      std::vector<Term> args;
      for (int i = 0; i < p.arity(); ++i) {
        uint64_t kind = rng() % 8;
        if (kind == 0 && !chase_terms.empty()) {
          // Ground argument (a chase term, possibly a frozen null).
          args.push_back(chase_terms[rng() % chase_terms.size()]);
        } else if (kind == 1 && !head_vars.empty()) {
          args.push_back(head_vars[rng() % head_vars.size()]);
        } else {
          args.push_back(pool[rng() % pool.size()]);
        }
      }
      return Atom(p, std::move(args));
    };

    const DenseTarget dense_target(target);
    IncrementalHomomorphism hom(dense_target);
    for (int walk = 0; walk < 25; ++walk) {
      bool with_fixed = walk % 2 == 0;
      const Substitution& seeds = with_fixed ? fixed : Substitution{};
      hom.Reset(seeds);
      std::vector<Atom> stack;
      for (int step = 0; step < 24; ++step) {
        bool push = stack.empty() || rng() % 3 != 0;
        if (push) {
          Atom a = random_atom();
          stack.push_back(a);
          hom.PushAtom(AtomView::Of(a));
        } else {
          stack.pop_back();
          hom.PopAtom();
        }
        CheckAgainstBatch(hom, stack, target, seeds,
                          c.name + " walk " + std::to_string(walk) +
                              " step " + std::to_string(step));
        if (HasFatalFailure()) return;
      }
      while (!stack.empty()) {
        stack.pop_back();
        hom.PopAtom();
        CheckAgainstBatch(hom, stack, target, seeds,
                          c.name + " unwind to " +
                              std::to_string(stack.size()));
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(hom.depth(), 0u);
    }
    // The walk must have exercised every absorption path at least once
    // across the case (pushes, forward-checking rejections, extensions).
    EXPECT_GT(hom.stats().pushes, 0u) << c.name;
    EXPECT_GT(hom.stats().fc_rejects, 0u) << c.name;
    EXPECT_GT(hom.stats().extends, 0u) << c.name;
  }
}

TEST(IncrementalHomTest, RepeatedVariableAndGroundEdgeCases) {
  // Hand-picked shapes around the scan's corner cases: repeated variables
  // inside one atom, ground positions, and fixed seeds outside the target.
  Instance target;
  Predicate e = Predicate::Get("E", 2);
  Term a = Term::Constant("a");
  Term b = Term::Constant("b");
  target.InsertAll({Atom(e, {a, b}), Atom(e, {b, b})});

  Term x = Term::Variable("ehx");
  Term y = Term::Variable("ehy");
  const DenseTarget dense_target(target);
  IncrementalHomomorphism hom(dense_target);
  hom.Reset();
  // E(x,x) only maps onto E(b,b).
  EXPECT_TRUE(hom.PushAtom(AtomView::Of(Atom(e, {x, x}))));
  EXPECT_EQ(hom.Witness().at(x), b);
  // E(x,y) with x=b forces y=b; then ground E(a,a) is impossible.
  EXPECT_TRUE(hom.PushAtom(AtomView::Of(Atom(e, {x, y}))));
  EXPECT_FALSE(hom.PushAtom(AtomView::Of(Atom(e, {a, a}))));
  hom.PopAtom();
  EXPECT_TRUE(hom.found());
  hom.PopAtom();
  hom.PopAtom();
  EXPECT_EQ(hom.depth(), 0u);

  // A fixed seed mapping outside the target: the empty conjunction still
  // maps, but any atom mentioning the seed is exactly refuted.
  Substitution fixed;
  fixed.emplace(x, Term::Constant("elsewhere"));
  hom.Reset(fixed);
  EXPECT_TRUE(hom.found());
  EXPECT_FALSE(hom.PushAtom(AtomView::Of(Atom(e, {x, y}))));
  hom.PopAtom();
  // The seed is unused: fine.
  EXPECT_TRUE(hom.PushAtom(AtomView::Of(Atom(e, {y, y}))));
  EXPECT_EQ(hom.Witness().at(x), Term::Constant("elsewhere"));
}

/// A target rebuilt by Instance::ReplaceTerm, as the egd chase merges
/// terms: merged atoms collapse, so atom ids shift.
Instance ReplaceTermTarget() {
  Predicate e = Predicate::Get("RtE", 2);
  Predicate f = Predicate::Get("RtF", 2);
  Term a = Term::Constant("rta");
  Term b = Term::Constant("rtb");
  Term c = Term::Constant("rtc");
  Term n1 = Term::FreshNull();
  Term n2 = Term::FreshNull();
  Term n3 = Term::FreshNull();
  Instance target;
  target.InsertAll({Atom(e, {a, n1}), Atom(e, {a, n2}), Atom(e, {n1, b}),
                    Atom(e, {n2, b}), Atom(e, {b, n3}), Atom(f, {n2, a}),
                    Atom(f, {n1, a}), Atom(e, {n3, n3}), Atom(f, {b, b}),
                    Atom(e, {c, a})});
  EXPECT_EQ(target.ReplaceTerm(n2, n1), 3u);  // three atoms merge away
  EXPECT_EQ(target.ReplaceTerm(n3, c), 2u);
  EXPECT_EQ(target.size(), 7u);
  return target;
}

std::vector<uint32_t> Ids(hom::TupleSpan span) {
  return std::vector<uint32_t>(span.data, span.data + span.size);
}

/// Checks every lookup of a DenseTarget of `target` against the
/// Instance's own index: each target predicate's list equals AtomsOf, and
/// each (predicate, position, term) bucket — over every target term and
/// one term outside the target — equals FindCandidates, ids and order
/// alike (a missing bucket is empty).
void ExpectDirectoryMatches(const Instance& target, const std::string& name) {
  const DenseTarget dense(target);
  std::vector<Term> terms = target.ActiveDomain();
  ASSERT_EQ(dense.num_terms(), terms.size()) << name;
  terms.push_back(Term::Constant("dirAbsent"));
  for (Predicate p : target.Predicates()) {
    const uint32_t lp = dense.LocalPred(p);
    ASSERT_NE(lp, DenseTarget::kNone) << name << " " << p.ToString();
    EXPECT_EQ(Ids(dense.AtomsOf(lp)), target.AtomsOf(p))
        << name << " " << p.ToString();
    for (size_t pos = 0; pos < static_cast<size_t>(p.arity()); ++pos) {
      for (Term t : terms) {
        const std::vector<uint32_t>* bucket =
            target.FindCandidates(p, pos, t);
        EXPECT_EQ(Ids(dense.Bucket(lp, pos, dense.DenseOf(t))),
                  bucket == nullptr ? std::vector<uint32_t>{} : *bucket)
            << name << " " << p.ToString() << " position " << pos << " "
            << t.ToString();
      }
    }
  }
}

TEST(IncrementalHomTest, DirectoryMatchesTheInstanceIndex) {
  ChaseOptions chase_options;
  for (const ChaseCase& c : ChaseCases()) {
    QueryChaseResult chase = ChaseQuery(c.q, c.sigma, chase_options);
    ASSERT_FALSE(chase.failed) << c.name;
    ExpectDirectoryMatches(chase.instance, c.name);
  }
  ExpectDirectoryMatches(ReplaceTermTarget(), "replace-term");
}

TEST(IncrementalHomTest, DirectoryEdgeCases) {
  // A pushed predicate the target lacks, and a ground constant it lacks:
  // both have no local id resp. dense id, empty lists, and a push over
  // them is refuted by forward checking.
  Predicate e = Predicate::Get("DeE", 2);
  Predicate absent = Predicate::Get("DeAbsent", 2);
  Term a = Term::Constant("dea");
  Term b = Term::Constant("deb");
  Term gone = Term::Constant("deGone");
  Term x = Term::Variable("dex");
  Instance target;
  target.InsertAll({Atom(e, {a, b}), Atom(e, {b, a})});
  const DenseTarget dense(target);
  const uint32_t lp = dense.LocalPred(e);
  ASSERT_NE(lp, DenseTarget::kNone);
  EXPECT_EQ(dense.LocalPred(absent), DenseTarget::kNone);
  EXPECT_EQ(dense.AtomsOf(DenseTarget::kNone).size, 0u);
  EXPECT_EQ(dense.DenseOf(gone), DenseTarget::kNone);
  EXPECT_EQ(dense.Bucket(lp, 0, DenseTarget::kNone).size, 0u);
  EXPECT_EQ(dense.Bucket(DenseTarget::kNone, 0, dense.DenseOf(a)).size, 0u);
  EXPECT_EQ(Ids(dense.Bucket(lp, 1, dense.DenseOf(a))),
            std::vector<uint32_t>{1});

  IncrementalHomomorphism hom(dense);
  hom.Reset();
  EXPECT_FALSE(hom.PushAtom(AtomView::Of(Atom(absent, {x, x}))));
  hom.PopAtom();
  EXPECT_FALSE(hom.PushAtom(AtomView::Of(Atom(e, {gone, x}))));
  hom.PopAtom();
  EXPECT_TRUE(hom.PushAtom(AtomView::Of(Atom(e, {a, x}))));
  EXPECT_EQ(hom.Witness().at(x), b);
  EXPECT_EQ(hom.stats().fc_rejects, 2u);
}

TEST(IncrementalHomTest, DirectoryIsLinearInTheArguments) {
  // 64 binary predicates over 1,000 terms, 40 atoms each: 5,120
  // arguments. A predicates x positions x terms table would take 128,000
  // entries; the term-major directory stays within a few words per
  // argument.
  std::mt19937_64 rng(67);
  std::vector<Term> terms;
  for (int i = 0; i < 1000; ++i) {
    terms.push_back(Term::Constant("dl" + std::to_string(i)));
  }
  Instance target;
  size_t arguments = 0;
  for (int p = 0; p < 64; ++p) {
    Predicate pred = Predicate::Get("DirL" + std::to_string(p), 2);
    for (int i = 0; i < 40; ++i) {
      if (target.Insert(Atom(pred, {terms[rng() % terms.size()],
                                    terms[rng() % terms.size()]}))) {
        arguments += 2;
      }
    }
  }
  const DenseTarget dense(target);
  EXPECT_LE(dense.DirectoryBytes(), 5 * sizeof(uint32_t) * arguments);
  ExpectDirectoryMatches(target, "64-predicates");
}

TEST(IncrementalHomTest, RandomWalkOverATargetRebuiltByReplaceTerm) {
  // The session interns the rebuilt target, whose (predicate, position,
  // term) index ReplaceTerm rebuilt.
  const Instance target = ReplaceTermTarget();
  ASSERT_EQ(target.size(), 7u);
  Predicate e = Predicate::Get("RtE", 2);
  Predicate f = Predicate::Get("RtF", 2);
  Term a = Term::Constant("rta");
  Term b = Term::Constant("rtb");
  Term c = Term::Constant("rtc");

  // Ground arguments: the target's constants, and one it lacks.
  std::vector<Term> ground = {a, b, c, Term::Constant("rtAbsent")};
  std::vector<Term> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(Term::Variable("rt$" + std::to_string(i)));
  }
  Substitution fixed = {{pool[0], a}};
  std::mt19937_64 rng(61);
  auto random_atom = [&]() {
    std::vector<Term> args;
    for (int i = 0; i < 2; ++i) {
      args.push_back(rng() % 4 == 0 ? ground[rng() % ground.size()]
                                    : pool[rng() % pool.size()]);
    }
    return Atom(rng() % 2 == 0 ? e : f, std::move(args));
  };

  const DenseTarget dense_target(target);
  IncrementalHomomorphism hom(dense_target);
  for (int walk = 0; walk < 40; ++walk) {
    const Substitution& seeds = walk % 2 == 0 ? fixed : Substitution{};
    hom.Reset(seeds);
    std::vector<Atom> stack;
    for (int step = 0; step < 20; ++step) {
      if (stack.empty() || rng() % 3 != 0) {
        stack.push_back(random_atom());
        hom.PushAtom(AtomView::Of(stack.back()));
      } else {
        stack.pop_back();
        hom.PopAtom();
      }
      CheckAgainstBatch(hom, stack, target, seeds,
                        "walk " + std::to_string(walk) + " step " +
                            std::to_string(step));
      if (HasFatalFailure()) return;
    }
    while (!stack.empty()) {
      stack.pop_back();
      hom.PopAtom();
      CheckAgainstBatch(hom, stack, target, seeds,
                        "unwind to " + std::to_string(stack.size()));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(hom.stats().fc_rejects, 0u);
  EXPECT_GT(hom.stats().extends, 0u);
  EXPECT_GT(hom.stats().repairs, 0u);
}

TEST(IncrementalHomTest, FailingRepairIsLinearOnAPath) {
  // A triangle pushed onto a long directed path: forward checking keeps
  // every domain large, the prefix witness cannot close the cycle, and the
  // repair must refute it. Through the target's index a bound variable
  // selects one tuple per level, so the failing repair tries O(n) tuples
  // (a scan of each level's whole tuple list per partial binding would be
  // quadratic).
  constexpr size_t kPath = 20000;
  Predicate g = Predicate::Get("G", 2);
  Instance target;
  std::vector<Atom> path;
  for (size_t i = 0; i < kPath; ++i) {
    path.emplace_back(g, std::vector<Term>{
                             Term::Constant("lp" + std::to_string(i)),
                             Term::Constant("lp" + std::to_string(i + 1))});
  }
  target.InsertAll(path);
  Term x = Term::Variable("lpx");
  Term y = Term::Variable("lpy");
  Term z = Term::Variable("lpz");
  const DenseTarget dense_target(target);
  IncrementalHomomorphism hom(dense_target);
  hom.Reset();
  EXPECT_TRUE(hom.PushAtom(AtomView::Of(Atom(g, {x, y}))));
  EXPECT_TRUE(hom.PushAtom(AtomView::Of(Atom(g, {y, z}))));
  EXPECT_FALSE(hom.PushAtom(AtomView::Of(Atom(g, {z, x}))));
  EXPECT_FALSE(hom.found());
  EXPECT_EQ(hom.stats().repairs, 1u);
  EXPECT_EQ(hom.stats().repair_fails, 1u);
  EXPECT_LE(hom.stats().repair_steps, 4 * kPath);
}

/// Checks the argument forward check's masks against the domains. For
/// every term in `live`, the bit of column (lp, pos) is set iff some
/// domain value has a non-empty Bucket(lp, pos, value), and no bit past
/// the target's columns is set; a term in `unmentioned` (a variable no
/// pushed atom holds) has every column open. Targets of at most 64
/// columns only.
void ExpectMasksMatchDomains(const IncrementalHomomorphism& hom,
                             const DenseTarget& dense,
                             const std::vector<Predicate>& preds,
                             const std::vector<Term>& live,
                             const std::vector<Term>& unmentioned,
                             const std::string& context) {
  size_t columns = 0;
  for (Predicate p : preds) columns += static_cast<size_t>(p.arity());
  ASSERT_LE(columns, DenseTarget::kMaskColumns);
  for (Term t : live) {
    const uint64_t mask = hom.ColumnMask(t);
    const std::vector<uint32_t> domain = hom.Domain(t);
    if (columns < 64) {
      ASSERT_EQ(mask >> columns, 0u) << context << " " << t.ToString();
    }
    for (Predicate p : preds) {
      const uint32_t lp = dense.LocalPred(p);
      for (size_t pos = 0; pos < static_cast<size_t>(p.arity()); ++pos) {
        bool occurs = false;
        for (uint32_t d : domain) {
          occurs = occurs || dense.Bucket(lp, pos, d).size > 0;
        }
        ASSERT_EQ((mask & dense.ColumnBit(lp, pos)) != 0, occurs)
            << context << " " << t.ToString() << " at " << p.ToString()
            << " position " << pos;
      }
    }
  }
  for (Term t : unmentioned) {
    ASSERT_EQ(hom.ColumnMask(t), ~uint64_t{0})
        << context << " " << t.ToString();
  }
}

TEST(IncrementalHomTest, ColumnMasksTrackTheDomainsThroughPushAndPop) {
  // Random small targets over unary, binary and ternary predicates (six
  // columns), random push/pop walks over pool variables, a head variable
  // seeded into the target, a seed whose image is outside it, target
  // constants and a constant outside the target. Whenever the stack maps,
  // every variable's mask must equal the OR of its domain's columns — so
  // a mask left shrunk by a pop, or not narrowed by a push, shows.
  std::mt19937_64 rng(71);
  const std::vector<Predicate> preds = {Predicate::Get("CmA", 1),
                                        Predicate::Get("CmB", 2),
                                        Predicate::Get("CmC", 3)};
  std::vector<Term> constants;
  for (int i = 0; i < 6; ++i) {
    constants.push_back(Term::Constant("cm" + std::to_string(i)));
  }
  const Term outside = Term::Constant("cmOutside");
  const Term head = Term::Variable("cmHead");
  const Term gone = Term::Variable("cmGone");
  std::vector<Term> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(Term::Variable("cm$" + std::to_string(i)));
  }
  size_t checks = 0;
  size_t shrinking_pops = 0;
  for (int round = 0; round < 30; ++round) {
    Instance target;
    const int atoms = 4 + static_cast<int>(rng() % 12);
    for (int i = 0; i < atoms; ++i) {
      const Predicate p = preds[rng() % preds.size()];
      std::vector<Term> args;
      // The last constant is rarely used, so it is often outside.
      for (int a = 0; a < p.arity(); ++a) {
        args.push_back(constants[rng() % (rng() % 8 == 0 ? 6 : 5)]);
      }
      target.Insert(Atom(p, std::move(args)));
    }
    const DenseTarget dense(target);
    const std::vector<Predicate> present = target.Predicates();
    const std::string name = "round " + std::to_string(round);

    // A constant's mask is its own columns, 0 outside the target.
    IncrementalHomomorphism hom(dense);
    hom.Reset();
    EXPECT_EQ(hom.ColumnMask(outside), 0u) << name;
    EXPECT_EQ(dense.TermColumnMask(outside), 0u) << name;
    for (Term c : constants) {
      const uint32_t d = dense.DenseOf(c);
      EXPECT_EQ(hom.ColumnMask(c),
                d == DenseTarget::kNone ? 0 : dense.ColumnMask(d))
          << name << " " << c.ToString();
    }

    const std::vector<Term> domain_terms = target.ActiveDomain();
    for (int walk = 0; walk < 16; ++walk) {
      Substitution seeds;
      if (walk % 2 == 1) {
        seeds.emplace(head, domain_terms[rng() % domain_terms.size()]);
        seeds.emplace(gone, outside);
      }
      hom.Reset(seeds);
      if (!seeds.empty()) {
        // A seed outside the target has no column open.
        EXPECT_EQ(hom.ColumnMask(gone), 0u) << name;
      }
      std::vector<Atom> stack;
      auto check = [&](const std::string& context) {
        if (!hom.found()) return;
        std::vector<Term> live, unmentioned;
        std::vector<Term> vars = pool;
        for (Term v : {head, gone}) {
          (seeds.count(v) != 0 ? live : vars).push_back(v);
        }
        for (Term v : vars) {
          bool mentioned = false;
          for (const Atom& a : stack) {
            for (Term t : a.args()) mentioned = mentioned || t == v;
          }
          (mentioned ? live : unmentioned).push_back(v);
        }
        ExpectMasksMatchDomains(hom, dense, present, live, unmentioned,
                                context);
        ++checks;
      };
      for (int step = 0; step < 16; ++step) {
        const std::string context = name + " walk " + std::to_string(walk) +
                                    " step " + std::to_string(step);
        if (stack.empty() || rng() % 3 != 0) {
          const Predicate p = present[rng() % present.size()];
          std::vector<Term> args;
          for (int a = 0; a < p.arity(); ++a) {
            const uint64_t kind = rng() % 10;
            args.push_back(kind == 0   ? constants[rng() % constants.size()]
                           : kind == 1 ? outside
                           : kind == 2 ? head
                           : kind == 3 ? gone
                                       : pool[rng() % pool.size()]);
          }
          stack.emplace_back(p, std::move(args));
          hom.PushAtom(AtomView::Of(stack.back()));
        } else {
          // Count the pops that widen an older variable's domain again:
          // the check after them catches a mask the trail left narrow.
          std::vector<std::vector<uint32_t>> domains;
          for (Term v : pool) domains.push_back(hom.Domain(v));
          stack.pop_back();
          hom.PopAtom();
          for (size_t i = 0; i < pool.size(); ++i) {
            if (hom.Domain(pool[i]).size() > domains[i].size() &&
                !domains[i].empty()) {
              ++shrinking_pops;
            }
          }
        }
        check(context);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(checks, 500u);
  EXPECT_GT(shrinking_pops, 20u);
}

TEST(IncrementalHomTest, ColumnMasksFallBackToAllOnesPastSixtyFourColumns) {
  // 33 binary predicates make 66 columns, more than a mask word holds:
  // every target term's mask is all ones and every column bit is bit 0,
  // so only a term outside the target (or a seed mapped there) has a
  // column closed. Pushes stay exact regardless.
  Instance target;
  std::vector<Predicate> preds;
  for (int i = 0; i < 33; ++i) {
    preds.push_back(Predicate::Get("FbP" + std::to_string(i), 2));
    target.Insert(Atom(preds.back(),
                       {Term::Constant("fb" + std::to_string(i)),
                        Term::Constant("fb" + std::to_string(i + 1))}));
  }
  const DenseTarget dense(target);
  for (Predicate p : preds) {
    const uint32_t lp = dense.LocalPred(p);
    ASSERT_NE(lp, DenseTarget::kNone);
    EXPECT_EQ(dense.ColumnBit(lp, 0), 1u);
    EXPECT_EQ(dense.ColumnBit(lp, 1), 1u);
  }
  for (uint32_t d = 0; d < dense.num_terms(); ++d) {
    EXPECT_EQ(dense.ColumnMask(d), ~uint64_t{0});
  }
  const Term outside = Term::Constant("fbOutside");
  EXPECT_EQ(dense.TermColumnMask(outside), 0u);

  Term x = Term::Variable("fbx");
  Term y = Term::Variable("fby");
  Term seed = Term::Variable("fbSeed");
  IncrementalHomomorphism hom(dense);
  hom.Reset({{seed, outside}});
  EXPECT_EQ(hom.ColumnMask(seed), 0u);
  EXPECT_EQ(hom.ColumnMask(outside), 0u);
  EXPECT_EQ(hom.ColumnMask(x), ~uint64_t{0});
  EXPECT_TRUE(hom.PushAtom(AtomView::Of(Atom(preds[0], {x, y}))));
  EXPECT_EQ(hom.ColumnMask(x), ~uint64_t{0});
  EXPECT_EQ(hom.Domain(x).size(), 1u);
  // x is fb0, which no FbP5 tuple has first: the open mask does not
  // prune it, and the push refutes it exactly.
  EXPECT_NE(hom.ColumnMask(x) & dense.ColumnBit(dense.LocalPred(preds[5]), 0),
            0u);
  EXPECT_FALSE(hom.PushAtom(AtomView::Of(Atom(preds[5], {x, y}))));
}

TEST(IncrementalHomTest, SteadyStatePushPopCyclesAllocateNothing) {
  // One push/pop cycle that takes every push path with fresh variables:
  // E(x,y) extends the witness (x=a, y=b), E(y,z) forces a repair (y
  // must move to e), E(z,w) is refuted by forward checking (f has no
  // successor). After one warm-up cycle the pooled levels, domains and
  // scratch hold their capacity, so a further cycle — whose variables are
  // interned afresh — must not touch the heap.
  Predicate e = Predicate::Get("E", 2);
  auto c = [](const char* name) { return Term::Constant(name); };
  Instance target;
  target.InsertAll({Atom(e, {c("sa"), c("sb")}), Atom(e, {c("sd"), c("se")}),
                    Atom(e, {c("se"), c("sf")})});
  Term x = Term::Variable("ssx");
  Term y = Term::Variable("ssy");
  Term z = Term::Variable("ssz");
  Term w = Term::Variable("ssw");
  const std::vector<Atom> cycle = {Atom(e, {x, y}), Atom(e, {y, z}),
                                   Atom(e, {z, w})};
  const DenseTarget dense_target(target);
  IncrementalHomomorphism hom(dense_target);
  hom.Reset();
  auto run_cycle = [&] {
    bool ok = hom.PushAtom(AtomView::Of(cycle[0]));
    ok = hom.PushAtom(AtomView::Of(cycle[1])) && ok;
    ok = !hom.PushAtom(AtomView::Of(cycle[2])) && ok;
    for (size_t i = 0; i < cycle.size(); ++i) hom.PopAtom();
    return ok;
  };
  ASSERT_TRUE(run_cycle());
  ASSERT_EQ(hom.stats().extends, 1u);
  ASSERT_EQ(hom.stats().repairs, 1u);
  ASSERT_EQ(hom.stats().repair_fails, 0u);
  ASSERT_EQ(hom.stats().fc_rejects, 1u);
  const uint64_t before = t_allocations;
  const bool ok = run_cycle();
  const uint64_t allocations = t_allocations - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(hom.stats().repairs, 2u);
  EXPECT_EQ(hom.depth(), 0u);
}

}  // namespace
}  // namespace semacyc
