#include "semacyc/witness_search.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <memory>
#include <unordered_set>

#include "acyclic/incremental.h"
#include "core/canonical.h"
#include "core/homomorphism.h"
#include "core/incremental_hom.h"
#include "core/hypergraph.h"
#include "deps/classify.h"
#include "deps/nonrecursive.h"
#include "deps/weakly_acyclic.h"
#include "rewrite/rewrite_containment.h"

namespace semacyc {

SchemaFacts SchemaFacts::Compute(const DependencySet& sigma) {
  SchemaFacts facts;
  // Static guarantees for the chase-based path: egd-only chases always
  // terminate; weakly acyclic tgd sets (which subsume NR and all full
  // sets) guarantee tgd-chase termination.
  if (!sigma.HasTgds()) {
    facts.chase_exact = true;
  } else if (!sigma.HasEgds() && IsWeaklyAcyclic(sigma.tgds)) {
    facts.chase_exact = true;
  }
  if (sigma.HasTgds()) {
    const TgdClassification cls = Classify(sigma.tgds);
    facts.rewritable = cls.non_recursive || cls.sticky || cls.linear;
    facts.guarded = cls.guarded;
    facts.nr_or_sticky = cls.non_recursive || cls.sticky;
  }
  // Vacuously true on an egd-free set, matching SmallQueryBound's
  // egd-only branch for Σ = ∅.
  facts.egds_bounded = IsK2Set(sigma.egds) || IsUnaryFdSet(sigma.egds);
  for (const Tgd& t : sigma.tgds) {
    for (const Atom& h : t.head()) {
      facts.tgd_head_preds.insert(h.predicate().id());
      for (const Atom& b : t.body()) {
        facts.reverse_pred_edges[h.predicate().id()].push_back(
            b.predicate().id());
      }
    }
  }
  return facts;
}

namespace {

/// The chase-free check's view of the search: q's compiled atoms against
/// the candidate's body, each q atom's base list being the body atoms of
/// its predicate. No index (a bucket is the base list), no filter, no
/// cancellation.
struct CandidateBodyTarget {
  const hom::CompiledTerms& q;
  const AtomView* body;
  const std::vector<std::vector<uint32_t>>& base;

  hom::CompiledAtom<Term> AtomAt(uint32_t i) const { return q.atom(i); }
  hom::TupleSpan Base(uint32_t i) const { return hom::SpanOf(&base[i]); }
  hom::TupleSpan Bucket(uint32_t i, size_t, Term) const { return Base(i); }
  Term Arg(uint32_t tuple, size_t pos) const { return body[tuple].args[pos]; }
  bool Admits(uint32_t, Term) const { return true; }
  bool Poll() const { return false; }
  bool Emit() const { return true; }
};

/// The containment oracle's per-thread state, pooled across checks and
/// oracles: nothing an oracle check calls re-enters the oracle. Each
/// buffer keeps its capacity; the instance is cleared after every check
/// (Instance::Clear releases a large one).
struct OracleScratch {
  /// Lemma 1 check: the candidate's numbering, null k freezing its
  /// variable k, its frozen body and head, and the verdict's search.
  QueryFreezer freezer;
  std::vector<Term> nulls;
  Instance instance;
  std::vector<Term> head;
  std::vector<Term> binding;
  hom::Scratch search;
  /// Chase-free check: the search's undo stack and per q atom the
  /// candidate body atoms of its predicate.
  std::vector<uint32_t> undo;
  std::vector<std::vector<uint32_t>> base;
  /// The body views of a candidate handed over as a ConjunctiveQuery.
  std::vector<AtomView> views;
};
thread_local OracleScratch t_oracle;

}  // namespace

ContainmentOracle::ContainmentOracle(const ConjunctiveQuery& q,
                                     const DependencySet& sigma,
                                     const ChaseOptions& chase_options,
                                     const RewriteOptions& rewrite_options,
                                     const SchemaFacts& facts,
                                     obs::MetricsRegistry* metrics)
    : q_(q),
      sigma_(sigma),
      chase_options_(chase_options),
      tgds_(sigma.tgds),
      metrics_(metrics) {
  exact_ = facts.chase_exact;
  // Rewriting is only worth its (possibly exponential) construction cost
  // when the chase may diverge — i.e. outside the weakly acyclic classes.
  if (!exact_ && !sigma.HasEgds() && facts.rewritable) {
    RewriteResult rewriting = RewriteToUcq(q, sigma.tgds, rewrite_options);
    if (rewriting.complete) {
      rewriting_ =
          std::make_unique<const RewriteResult>(std::move(rewriting));
      exact_ = true;
    }
  }
  // Predicate-reachability prefilter. Sound for kNo only when the
  // candidate's chase cannot fail, i.e. Σ has no egds: tgds never invent
  // predicates outside the body→head predicate graph, so a q predicate
  // unreachable from every candidate predicate can never appear in
  // chase(candidate, Σ).
  if (!sigma.HasEgds()) {
    // Chase-free degeneration: tgds only ever add atoms whose predicate is
    // some tgd head predicate. If none of those occur in q, the
    // q-homomorphism into chase(candidate, Σ) can only use candidate's own
    // atoms, so containment is the classical Chandra–Merlin test.
    chase_free_ = true;
    for (const Atom& a : q.body()) {
      if (facts.tgd_head_preds.count(a.predicate().id())) {
        chase_free_ = false;
        break;
      }
    }
    if (chase_free_) {
      for (uint32_t i = 0; i < q.body().size(); ++i) {
        Predicate p = q.body()[i].predicate();
        auto it = std::find_if(q_atoms_of_.begin(), q_atoms_of_.end(),
                               [p](const auto& e) { return e.first == p; });
        if (it == q_atoms_of_.end()) it = q_atoms_of_.insert(it, {p, {}});
        it->second.push_back(i);
      }
    }
    prefilter_ = true;
    std::unordered_set<uint32_t> q_preds;
    for (const Atom& a : q.body()) q_preds.insert(a.predicate().id());
    for (uint32_t p : q_preds) {
      std::unordered_set<uint32_t> sources;
      std::vector<uint32_t> stack = {p};
      sources.insert(p);
      while (!stack.empty()) {
        uint32_t cur = stack.back();
        stack.pop_back();
        auto it = facts.reverse_pred_edges.find(cur);
        if (it == facts.reverse_pred_edges.end()) continue;
        for (uint32_t src : it->second) {
          if (sources.insert(src).second) stack.push_back(src);
        }
      }
      q_pred_sources_.push_back(std::move(sources));
    }
  }
  q_compiled_.Compile(q.body(), {});
  std::vector<Term> head_bound(q_compiled_.slot_term.size());
  for (Term h : q.head()) {
    uint32_t slot = q_compiled_.SlotOf(h);
    q_head_slots_.push_back(slot);
    if (slot != hom::kGround) head_bound[slot] = h;
  }
  if (chase_free_) {
    // Ordered once, before any candidate is seen: bound-first, ties to
    // the lower index (every base list counts as empty here).
    std::vector<std::vector<uint32_t>> no_base(q.body().size());
    hom::Scratch scratch;
    hom::OrderAtoms(CandidateBodyTarget{q_compiled_, nullptr, no_base},
                    q.body().size(), head_bound, Term(), &scratch);
    chase_free_order_ = std::move(scratch.order);
  }
}

bool ContainmentOracle::PassesPredicateFilter(QueryView candidate) const {
  for (const auto& sources : q_pred_sources_) {
    bool reachable = false;
    for (size_t i = 0; i < candidate.size; ++i) {
      if (sources.count(candidate.body[i].pred.id())) {
        reachable = true;
        break;
      }
    }
    if (!reachable) return false;
  }
  return true;
}

bool ContainmentOracle::BindHead(const Term* tuple,
                                 std::vector<Term>* binding) const {
  binding->assign(q_compiled_.slot_term.size(), Term());
  const std::vector<Term>& head = q_.head();
  for (size_t i = 0; i < head.size(); ++i) {
    const Term c = tuple[i];
    const uint32_t v = q_head_slots_[i];
    if (v != hom::kGround) {
      if ((*binding)[v].IsValid() && (*binding)[v] != c) return false;
      (*binding)[v] = c;
      continue;
    }
    // A constant must meet itself; a variable the body lacks only its own
    // other head positions.
    if (!head[i].IsVariable()) {
      if (head[i] != c) return false;
      continue;
    }
    for (size_t j = 0; j < i; ++j) {
      if (head[j] == head[i] && tuple[j] != c) return false;
    }
  }
  return true;
}

Tri ContainmentOracle::DecideByChase(QueryView candidate,
                                     CancelToken* cancel) const {
  assert(candidate.arity == q_.arity());
  OracleScratch& s = t_oracle;
  // Freeze: candidate variable k becomes the thread's null k.
  const size_t vars = s.freezer.Number(candidate);
  while (s.nulls.size() < vars) s.nulls.push_back(Term::FreshNull());
  s.freezer.Write(candidate, s.nulls.data(), &s.instance, &s.head);
  ChaseOptions options = chase_options_;
  options.cancel = cancel;
  ChaseResult chased = Chase(std::move(s.instance), sigma_, tgds_, options);
  // Lemma1Verdict over the pooled chase.
  Tri answer;
  if (chased.failed) {
    answer = Tri::kYes;  // the candidate is empty on every model of Σ
  } else {
    for (Term& t : s.head) t = chased.Resolve(t);
    if (BindHead(s.head.data(), &s.binding) &&
        hom::SearchInstance(q_compiled_, chased.instance, &s.binding, cancel,
                            &s.search, [] { return true; })) {
      answer = Tri::kYes;  // a found homomorphism is sound when cancelled
    } else if (cancel != nullptr && cancel->triggered()) {
      answer = Tri::kUnknown;  // the hom search may have been truncated
    } else {
      answer = chased.saturated ? Tri::kNo : Tri::kUnknown;
    }
  }
  s.instance = std::move(chased.instance);
  s.instance.Clear();
  return answer;
}

Tri ContainmentOracle::DecideChaseFree(QueryView candidate) const {
  // Chandra–Merlin against the candidate body itself: its variables act as
  // the frozen canonical constants (rigid instance terms), no freezing or
  // chase needed. Exact in both directions. This is the per-candidate
  // inner loop of exhaustive witness search, so it must not allocate or
  // hash: scratch is thread_local (retaining capacity across calls), so
  // concurrent workers of a parallel search never contend — the compiled
  // q side they read is immutable.
  OracleScratch& s = t_oracle;
  if (!BindHead(candidate.head, &s.binding)) return Tri::kNo;
  s.base.resize(q_.body().size());
  for (std::vector<uint32_t>& list : s.base) list.clear();
  for (uint32_t j = 0; j < candidate.size; ++j) {
    for (const auto& [pred, q_atoms] : q_atoms_of_) {
      if (pred != candidate.body[j].pred) continue;
      for (uint32_t i : q_atoms) s.base[i].push_back(j);
      break;
    }
  }
  CandidateBodyTarget target{q_compiled_, candidate.body, s.base};
  return hom::HomSearch<Term, CandidateBodyTarget>(
             &target, chase_free_order_, &s.binding, &s.undo, Term())
                 .Run()
             ? Tri::kYes
             : Tri::kNo;
}

Tri ContainmentOracle::ContainedInQ(QueryView candidate,
                                    CancelToken* cancel) const {
  SEMACYC_FAILPOINT("oracle.candidate", cancel);
  if (cancel != nullptr && cancel->Poll()) return Tri::kUnknown;
  // Every path reads only state frozen at construction (plus relaxed
  // counter bumps and thread_local scratch), so concurrent workers never
  // contend.
  if (prefilter_ && !PassesPredicateFilter(candidate)) {
    metrics_->Add(obs::Counter::kOraclePrefiltered, 1);
    return Tri::kNo;
  }
  if (chase_free_) return DecideChaseFree(candidate);
  // Rewriting evaluation is one frozen-query UCQ check — cheap relative
  // to the per-candidate poll granularity, so it runs to completion.
  Tri answer = rewriting_ != nullptr
                   ? RewriteContained(candidate.ToQuery(), *rewriting_)
                   : DecideByChase(candidate, cancel);
  // An answer computed under a fired token may rest on a truncated chase
  // or hom search.
  if (cancel != nullptr && cancel->triggered()) return Tri::kUnknown;
  return answer;
}

Tri ContainmentOracle::ContainedInQ(const ConjunctiveQuery& candidate,
                                    CancelToken* cancel) const {
  return ContainedInQ(QueryView::Of(candidate, &t_oracle.views), cancel);
}

namespace {

/// A constant of q or Σ, as opposed to a frozen variable or a labeled
/// null: candidates keep it as a constant.
bool IsGenuineConstant(Term t) { return t.IsConstant() && !t.IsFrozenNull(); }

/// Read-only view of the subsets search space, precomputed once per
/// search over one vertex numbering of the chase's terms: the connecting
/// vertices per chase atom (for every classifier session), and the
/// candidate key's per-position vertices per chase atom and per frozen
/// head position (genuine constants, which PoolSubset keeps as
/// constants, are -1). Nothing here mutates after construction, so
/// parallel workers share it.
struct SubsetsSpace {
  const std::vector<Atom>* atoms;
  std::vector<std::vector<int>> atom_verts;
  std::vector<std::vector<int>> key_verts;
  std::vector<int> head_verts;

  explicit SubsetsSpace(const QueryChaseResult& chase)
      : atoms(&chase.instance.atoms()) {
    const size_t m = atoms->size();
    atom_verts.resize(m);
    key_verts.resize(m);
    std::unordered_map<Term, int, TermHash> vertex_of;
    auto vertex = [&](Term t) {
      return vertex_of.emplace(t, static_cast<int>(vertex_of.size()))
          .first->second;
    };
    for (size_t i = 0; i < m; ++i) {
      // kAllTerms: in a frozen-query chase every term connects.
      for (Term t : (*atoms)[i].DistinctTerms()) {
        atom_verts[i].push_back(vertex(t));
      }
      for (Term t : (*atoms)[i].args()) {
        key_verts[i].push_back(IsGenuineConstant(t) ? -1 : vertex(t));
      }
    }
    // A head term no chase atom mentions gets a vertex no push ever
    // counts, so no subset covers it.
    for (Term t : chase.frozen_head) {
      head_verts.push_back(IsGenuineConstant(t) ? -1 : vertex(t));
    }
  }
};

/// Enumeration signature of the exhaustive strategy: the predicates that
/// can occur in chase(q,Σ), the constants available to candidates, and
/// the ordered fresh-variable pool. The construction
/// ORDER of these vectors fixes the enumeration order — the sequential
/// enumerator and the parallel unit plan must agree on it exactly (the
/// parity suite pins this), hence the single shared builder.
struct EnumSignature {
  std::vector<Predicate> predicates;
  /// Per predicate, read per DFS node (Predicate::arity() takes the
  /// predicate table's lock).
  std::vector<size_t> arities;
  std::vector<Term> constants;
  std::vector<Term> pool;

  EnumSignature(const ConjunctiveQuery& q, const DependencySet& sigma,
                size_t max_atoms) {
    // Predicates of q plus head predicates of Σ's tgds (only those can
    // occur in chase(q,Σ), hence in any witness); first-seen order.
    std::unordered_set<uint32_t> seen;
    for (const Atom& a : q.body()) {
      if (seen.insert(a.predicate().id()).second) {
        predicates.push_back(a.predicate());
      }
    }
    for (const Tgd& t : sigma.tgds) {
      for (const Atom& a : t.head()) {
        if (seen.insert(a.predicate().id()).second) {
          predicates.push_back(a.predicate());
        }
      }
    }
    // Constants available to candidates: those of q and Σ.
    std::unordered_set<Term> cseen;
    for (const Atom& a : q.body()) {
      for (Term t : a.args()) {
        if (t.IsConstant() && cseen.insert(t).second) constants.push_back(t);
      }
    }
    for (const Tgd& t : sigma.tgds) {
      for (const Atom& a : t.body()) {
        for (Term arg : a.args()) {
          if (arg.IsConstant() && cseen.insert(arg).second) {
            constants.push_back(arg);
          }
        }
      }
      for (const Atom& a : t.head()) {
        for (Term arg : a.args()) {
          if (arg.IsConstant() && cseen.insert(arg).second) {
            constants.push_back(arg);
          }
        }
      }
    }
    int max_arity = 1;
    for (Predicate p : predicates) {
      arities.push_back(static_cast<size_t>(p.arity()));
      max_arity = std::max(max_arity, p.arity());
    }
    // Variable pool: enough for max_atoms atoms of maximal arity.
    size_t n = max_atoms * static_cast<size_t>(max_arity);
    for (size_t i = 0; i < n; ++i) {
      pool.push_back(Term::Variable("w$" + std::to_string(i)));
    }
  }
};

/// Candidate dedup is modulo the 128-bit canonical key (core/canonical.h:
/// CanonicalFingerprint128 of a built candidate, IncrementalCandidateKey
/// along a DFS path; both fold the same key) kept in a Key128Set.
/// Conflations are never resolved.
/// Hash collisions are negligible (~n²/2¹²⁸), but the invariant itself
/// gives some non-isomorphic candidates equal keys (ExhaustiveWitnessSearch
/// in the header), so a dropped candidate can be one never tested.
using Key128 = Key128Set::Key;

/// One candidate test, logged by the worker that ran its unit. The
/// official candidates_tested counts the distinct keys among the events
/// of the official prefix (ParallelSearchPool::Result::InPrefix).
struct CandidateEvent {
  size_t unit;
  uint64_t local_visit;
  Key128 key;
};

/// The per-worker half shared by both budgeted strategies: the visit
/// prefix (failpoint, allowance cap, count, cancel poll), the candidate
/// test (worker-wide dedup, event log, shared NO-set, oracle) and the
/// unit's outcome. `shared_no` is null for a lone worker, whose own dedup
/// already covers every repeat. Each worker owns a child cancel token for
/// its polls and oracle calls (CancelToken::Poll is single-caller);
/// failpoints take the PARENT token (RequestCancel is thread-safe), and a
/// tripped child cancels the parent, so every cancel a worker sees aborts
/// the whole decision. Without a parent the worker is not cancellable.
class UnitWorker {
 public:
  UnitWorker(const ContainmentOracle& oracle, acyclic::AcyclicityClass target,
             CancelToken* parent, ConcurrentFingerprintSet* shared_no)
      : oracle_(oracle),
        parent_(parent),
        cancel_(parent != nullptr ? &child_ : nullptr),
        shared_no_(shared_no),
        inc_(target) {
    if (parent != nullptr) child_.SetParent(parent);
  }

  const std::vector<CandidateEvent>& events() const { return events_; }

  /// The witness this worker found in `unit`, if any.
  std::optional<ConjunctiveQuery> TakeWitness(size_t unit) {
    for (auto& [u, witness] : witnesses_) {
      if (u == unit) return std::move(witness);
    }
    return std::nullopt;
  }

  void AddStats(WitnessSearchOutcome* outcome) const {
    outcome->classifier_pushes += inc_.pushes();
    outcome->classifier_pops += inc_.pops();
    outcome->alpha_gyo_runs += inc_.alpha_gyo_runs();
    outcome->alpha_inherited += inc_.alpha_inherited();
    outcome->oracle_calls += oracle_calls_;
    outcome->oracle_check_ns += oracle_sampled_ns_ * kOracleSample;
    outcome->shared_set_locks += shared_set_locks_;
  }

 protected:
  void BeginUnit(size_t unit, ParallelSearchPool::WorkerContext& ctx) {
    SEMACYC_FAILPOINT("parallel.steal", parent_);
    unit_ = unit;
    ctx_ = &ctx;
    visits_ = 0;
    truncated_ = false;
    cancelled_ = false;
    found_ = false;
  }

  /// One DFS node. Cap() stands in for the budget: it can only be too
  /// generous while earlier units are in flight, so a capped unit provably
  /// overran its final allowance. False stops the unit (not exhausted).
  bool Visit(const char* failpoint) {
    SEMACYC_FAILPOINT(failpoint, parent_);
    if (visits_ >= ctx_->Cap()) {
      truncated_ = true;
      return false;
    }
    ++visits_;
    if (cancel_ != nullptr && cancel_->Poll()) {
      truncated_ = cancelled_ = true;
      return false;
    }
    return true;
  }

  /// Whether the visit's candidate, with key `key`, is to be tested: the
  /// key is new to this worker and the path meets the target. The probe
  /// runs first and is exact: seen_ only holds keys of candidates that met
  /// the target, so a hit is a candidate Test would drop anyway — and it
  /// skips the α verdict on every repeat.
  bool Admits(const Key128& key) {
    return !seen_.Contains(key) && inc_.Meets();
  }

  /// Tests the admitted candidate with key `key`, handed over as the view
  /// `candidate`; true on a witness. The worker-wide dedup never drops an
  /// event the official count needs: a worker claims units in index
  /// order, so the earlier test of the same key is in the official prefix
  /// whenever this one is. The shared NO-set only suppresses oracle CALLS
  /// for candidates other workers refuted (kYes stops the search, kUnknown
  /// is never inserted — answer-invariant). A query is built only for a
  /// witness.
  bool Test(const Key128& key, QueryView candidate) {
    seen_.Insert(key);
    events_.push_back({unit_, visits_, key});
    if (shared_no_ != nullptr) {
      ++shared_set_locks_;
      if (shared_no_->Contains(key)) return false;
    }
    Tri r = TimedOracleCall(candidate);
    if (r == Tri::kYes) {
      found_ = true;
      found_at_ = visits_;
      witnesses_.emplace_back(unit_, candidate.ToQuery());
      return true;
    }
    if (r == Tri::kNo && shared_no_ != nullptr) {
      ++shared_set_locks_;
      shared_no_->Insert(key);
    }
    return false;
  }

  /// One oracle call; every kOracleSample-th call of a worker (the first
  /// included) is timed, so the sampled time times kOracleSample
  /// estimates the worker's oracle time at two clock reads per sample.
  Tri TimedOracleCall(QueryView candidate) {
    if (oracle_calls_++ % kOracleSample != 0) {
      return oracle_.ContainedInQ(candidate, cancel_);
    }
    const auto start = std::chrono::steady_clock::now();
    const Tri r = oracle_.ContainedInQ(candidate, cancel_);
    oracle_sampled_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return r;
  }
  static constexpr uint64_t kOracleSample = 16;

  SearchUnitOutcome EndUnit() {
    // A trip during the unit's last oracle check may have hidden an
    // answer (kUnknown reads as "not contained"), so the unit never counts
    // as exhausted; and the decision aborts, whatever tripped the token.
    if (cancel_ != nullptr && child_.triggered()) {
      // A unit the cap stopped first stays a budget truncation.
      cancelled_ = cancelled_ || !truncated_;
      truncated_ = true;
      parent_->RequestCancel();
    }
    SearchUnitOutcome out;
    out.visits = visits_;
    out.cancelled = cancelled_;
    out.found = found_;
    out.found_at = found_ ? found_at_ : 0;
    out.exhausted = !found_ && !truncated_;
    return out;
  }

  const ContainmentOracle& oracle_;
  CancelToken* const parent_;
  CancelToken child_;
  CancelToken* const cancel_;
  ConcurrentFingerprintSet* const shared_no_;
  acyclic::IncrementalClassifier inc_;
  ParallelSearchPool::WorkerContext* ctx_ = nullptr;
  uint64_t visits_ = 0;
  bool truncated_ = false;
  bool cancelled_ = false;  // the token, not the cap, stopped the unit
  bool found_ = false;

 private:
  size_t unit_ = 0;
  uint64_t found_at_ = 0;
  size_t oracle_calls_ = 0;
  uint64_t oracle_sampled_ns_ = 0;
  size_t shared_set_locks_ = 0;
  Key128Set seen_;
  std::vector<CandidateEvent> events_;
  std::vector<std::pair<size_t, ConjunctiveQuery>> witnesses_;
};

/// Runs an ordered unit list through the pool on `threads` workers, each
/// built by `make_worker(shared_no)` on its own thread at its first claim,
/// and folds the official result into one outcome: answer and witness of
/// the official YES, official visits, candidates_tested counted over the
/// official prefix's events, and the workers' session totals.
template <typename Worker, typename MakeWorker>
WitnessSearchOutcome RunUnits(size_t units, size_t threads, size_t budget,
                              CancelToken* cancel,
                              const MakeWorker& make_worker) {
  ParallelSearchPool pool(units, threads, budget);
  ConcurrentFingerprintSet shared_no;
  ConcurrentFingerprintSet* shared =
      pool.workers() > 1 ? &shared_no : nullptr;
  std::vector<std::unique_ptr<Worker>> workers(pool.workers());
  ParallelSearchPool::Result res =
      pool.Run([&](size_t u, ParallelSearchPool::WorkerContext& ctx) {
        std::unique_ptr<Worker>& w = workers[ctx.worker()];
        if (w == nullptr) w = make_worker(shared);
        return w->RunUnit(u, ctx);
      });
  WitnessSearchOutcome outcome;
  // A token fired during the last oracle check truncates the search even
  // when no later DFS poll ran to observe it.
  bool truncated =
      res.truncated || (cancel != nullptr && cancel->triggered());
  // Keys are distinct within one worker's log, so only the keys of
  // earlier logs need remembering.
  Key128Set earlier;
  for (size_t i = 0; i < workers.size(); ++i) {
    Worker* w = workers[i].get();
    if (w == nullptr) continue;
    if (res.found && !outcome.witness.has_value()) {
      outcome.witness = w->TakeWitness(res.final_unit);
    }
    for (const CandidateEvent& e : w->events()) {
      if (!res.InPrefix(e.unit, e.local_visit) || earlier.Contains(e.key)) {
        continue;
      }
      ++outcome.candidates_tested;
      if (i + 1 < workers.size()) earlier.Insert(e.key);
    }
    w->AddStats(&outcome);
  }
  if (res.found) {
    outcome.answer = Tri::kYes;
  } else {
    outcome.exhausted = !truncated;
  }
  outcome.visits = res.official_visits;
  outcome.parallel = pool.stats();
  return outcome;
}

}  // namespace

WitnessSearchOutcome FindWitnessInQueryImages(const ConjunctiveQuery& q,
                                              const QueryChaseResult& chase,
                                              const ContainmentOracle& oracle,
                                              size_t max_homs,
                                              acyclic::AcyclicityClass target,
                                              CancelToken* cancel) {
  WitnessSearchOutcome outcome;
  Substitution fixed;
  for (size_t i = 0; i < q.head().size(); ++i) {
    Term h = q.head()[i];
    if (!h.IsVariable()) continue;
    fixed.emplace(h, chase.frozen_head[i]);
  }
  HomOptions options;
  options.fixed = fixed;
  options.max_solutions = max_homs;
  options.cancel = cancel;
  HomResult homs = FindHomomorphisms(q.body(), chase.instance, options);
  outcome.exhausted = !homs.budget_exhausted &&
                      (max_homs == 0 || homs.solutions.size() < max_homs);
  Key128Set tested;
  for (const Substitution& h : homs.solutions) {
    if (cancel != nullptr && cancel->Poll()) {
      outcome.exhausted = false;
      return outcome;
    }
    Instance image;
    for (const Atom& a : q.body()) image.Insert(Apply(h, a));
    if (!MeetsAcyclicityClass(image.atoms(), ConnectingTerms::kAllTerms,
                              target)) {
      continue;
    }
    ConjunctiveQuery candidate = QueryFromInstance(image, chase.frozen_head);
    if (!tested.Insert(CanonicalFingerprint128(candidate))) continue;
    ++outcome.candidates_tested;
    if (oracle.ContainedInQ(candidate, cancel) == Tri::kYes) {
      outcome.answer = Tri::kYes;
      outcome.witness = std::move(candidate);
      return outcome;
    }
  }
  if (cancel != nullptr && cancel->triggered()) outcome.exhausted = false;
  return outcome;
}

namespace {

/// One subtree-root unit of the subsets DFS, in preorder: the root visit
/// of an iterative-deepening round (first < 0), or the subtree rooted at
/// subset = {first} within that round.
struct SubsetsUnit {
  size_t limit;
  int64_t first;
};

/// One worker of the subsets search: own classifier session, candidate
/// key and variable pool over the shared immutable SubsetsSpace. A
/// push/pop classifier and key threaded along the DFS path (the key's
/// vertex counts give the head cover) make a DFS node cost one key fold
/// plus a lookup instead of an Instance build, a from-scratch
/// classification and a fingerprint.
class SubsetsWorker : public UnitWorker {
 public:
  SubsetsWorker(const std::vector<SubsetsUnit>& units,
                const SubsetsSpace& space, const QueryChaseResult& chase,
                const ContainmentOracle& oracle,
                acyclic::AcyclicityClass target, CancelToken* parent,
                ConcurrentFingerprintSet* shared_no)
      : UnitWorker(oracle, target, parent, shared_no),
        units_(units),
        space_(space),
        chase_(chase) {
    key_.Reset(space.head_verts);
  }

  SearchUnitOutcome RunUnit(size_t unit,
                            ParallelSearchPool::WorkerContext& ctx) {
    BeginUnit(unit, ctx);
    const SubsetsUnit& u = units_[unit];
    if (u.first < 0) {
      // The round's root visit: subset is empty, nothing is tested.
      Visit("subsets.visit");
    } else {
      // Replay the unit's prefix: push the first atom exactly as the
      // preorder child loop would, a pruned prefix yielding a zero-visit
      // exhausted unit.
      SEMACYC_FAILPOINT("parallel.replay", parent_);
      ctx.NoteReplay();
      const size_t i = static_cast<size_t>(u.first);
      Push(i);
      if (!inc_.CannotRecover()) Dfs(i + 1, u.limit);
      Pop();
    }
    return EndUnit();
  }

 private:
  void Push(size_t i) {
    subset_.push_back(static_cast<uint32_t>(i));
    key_.Push(AtomView::Of((*space_.atoms)[i]), space_.key_verts[i].data());
    inc_.PushEdge(space_.atom_verts[i]);
  }

  void Pop() {
    inc_.PopEdge();
    key_.Pop();
    subset_.pop_back();
  }

  /// Whether the subset mentions every head term but the genuine
  /// constants, so the head is expressible.
  bool Covered() const {
    for (int v : space_.head_verts) {
      if (v >= 0 && key_.Count(v) == 0) return false;
    }
    return true;
  }

  /// The candidate of subset_, inverse-frozen over a stable variable pool
  /// into per-worker buffers and viewed there (written only for a
  /// candidate Test runs): fresh per-candidate names would intern a new
  /// symbol for every variable of every candidate; reusing "s$<i>" across
  /// candidates interns each name exactly once per process, and every
  /// worker writes bitwise-identical candidates for the same subset.
  /// Subsets hold at most max_atoms atoms, so the renaming is a flat
  /// table with a linear lookup.
  QueryView PoolSubset() {
    rename_.clear();
    auto var_of = [&](Term t) -> Term {
      if (IsGenuineConstant(t)) return t;
      for (const auto& [from, to] : rename_) {
        if (from == t) return to;
      }
      if (rename_.size() == var_pool_.size()) {
        var_pool_.push_back(
            Term::Variable("s$" + std::to_string(var_pool_.size())));
      }
      Term v = var_pool_[rename_.size()];
      rename_.emplace_back(t, v);
      return v;
    };
    args_.clear();
    for (uint32_t i : subset_) {
      for (Term t : (*space_.atoms)[i].args()) args_.push_back(var_of(t));
    }
    head_.clear();
    for (Term t : chase_.frozen_head) head_.push_back(var_of(t));
    views_.clear();
    const Term* args = args_.data();
    for (uint32_t i : subset_) {
      const Atom& a = (*space_.atoms)[i];
      views_.push_back({a.predicate(), args, a.arity()});
      args += a.arity();
    }
    return {head_.data(), head_.size(), views_.data(), views_.size()};
  }

  /// DFS over index-increasing subsets, testing each acyclic subset that
  /// covers the head.
  bool Dfs(size_t next, size_t limit) {
    if (!Visit("subsets.visit")) return false;
    if (!subset_.empty() && Covered()) {
      const Key128 key = key_.Key();
      if (Admits(key)) {
        if (Test(key, PoolSubset())) return true;
      }
    }
    if (subset_.size() >= limit) return false;
    const size_t m = space_.atoms->size();
    for (size_t i = next; i < m; ++i) {
      Push(i);
      // β/γ/Berge are hereditary: a violated prefix can never recover, so
      // the whole subtree (including this subset itself) is dead.
      bool found = !inc_.CannotRecover() && Dfs(i + 1, limit);
      Pop();
      if (found) return true;
      if (truncated_) return false;
    }
    return false;
  }

  const std::vector<SubsetsUnit>& units_;
  const SubsetsSpace& space_;
  const QueryChaseResult& chase_;
  IncrementalCandidateKey key_;
  std::vector<uint32_t> subset_;
  std::vector<Term> var_pool_;
  /// PoolSubset's renaming, the candidate's arguments, head and body
  /// views (capacity kept across candidates).
  std::vector<std::pair<Term, Term>> rename_;
  std::vector<Term> args_;
  std::vector<Term> head_;
  std::vector<AtomView> views_;
};

}  // namespace

WitnessSearchOutcome FindWitnessInChaseSubsets(
    const QueryChaseResult& chase, const ContainmentOracle& oracle,
    size_t max_atoms, size_t budget, size_t threads,
    acyclic::AcyclicityClass target, CancelToken* cancel) {
  const SubsetsSpace space(chase);
  const size_t m = space.atoms->size();
  // Small subsets first, through iterative deepening on the subset size:
  // per round, the root visit, then one subtree per first chase atom.
  std::vector<SubsetsUnit> units;
  for (size_t limit = 1; limit <= max_atoms; ++limit) {
    units.push_back({limit, -1});
    for (size_t i = 0; i < m; ++i) {
      units.push_back({limit, static_cast<int64_t>(i)});
    }
  }
  return RunUnits<SubsetsWorker>(
      units.size(), threads, budget, cancel,
      [&](ConcurrentFingerprintSet* shared_no) {
        return std::make_unique<SubsetsWorker>(units, space, chase, oracle,
                                               target, cancel, shared_no);
      });
}

namespace {

/// Fixed total order on atoms for canonical-growth enumeration: predicate
/// id, then argument handles lexicographically. Views, so a tuple is
/// ordered before any atom is built for it. A predicate fixes its arity,
/// so order-equal atoms are identical: "strictly above the last atom"
/// also rules out duplicates. The plan builder tests it on whole tuples;
/// the workers' argument walk decides it position by position.
bool AtomOrderLess(AtomView a, AtomView b) {
  if (a.pred != b.pred) return a.pred.id() < b.pred.id();
  for (size_t i = 0; i < a.arity && i < b.arity; ++i) {
    if (a.args[i] != b.args[i]) {
      return a.args[i].raw_bits() < b.args[i].raw_bits();
    }
  }
  return a.arity < b.arity;
}

/// Per-head-pattern invariants of the exhaustive enumeration.
struct HpPlan {
  std::vector<Term> head;
  Substitution fixed;
  /// The distinct head variables, in first-occurrence order.
  std::vector<Term> head_vars;
  /// Per head position: the vertex of its variable (its index in
  /// head_vars).
  std::vector<int> head_verts;
};

/// The argument choices at one atom position, in enumeration order: the
/// distinct head variables, the pool variables up to the next fresh one
/// (fresh variables are introduced in order; `used` is the frontier of
/// pool variables consumed so far), then the known constants. Calls
/// fn(term, frontier after the term, classifier vertex of the term, choice
/// index of the term): head variable j is vertex j, pool variable i is
/// vertex |head_vars| + i, and constants (which never connect) are -1.
/// The choice index numbers the constants first, so it does not depend on
/// the head pattern: constant c is choice c, pool variable i is choice
/// |constants| + i and head variable j is choice |constants| + |pool| +
/// j. The plan builder and the workers share this walk, so they enumerate
/// in the same order.
template <typename Fn>
void ForEachChoice(const HpPlan& hp, const EnumSignature& sig, size_t used,
                   Fn&& fn) {
  const size_t heads = hp.head_vars.size();
  const size_t constants = sig.constants.size();
  const size_t head_choice = constants + sig.pool.size();
  for (size_t j = 0; j < heads; ++j) {
    fn(hp.head_vars[j], used, static_cast<int>(j), head_choice + j);
  }
  const size_t usable = std::min(used + 1, sig.pool.size());
  for (size_t i = 0; i < usable; ++i) {
    fn(sig.pool[i], std::max(used, i + 1), static_cast<int>(heads + i),
       constants + i);
  }
  for (size_t c = 0; c < constants; ++c) fn(sig.constants[c], used, -1, c);
}

/// One prefix atom of the unit plan, with what the DFS knows when it
/// pushes the atom: the pool frontier after it and each position's vertex
/// (ForEachChoice's numbering, -1 for a constant).
struct PlanAtom {
  Atom atom;
  size_t frontier;
  std::vector<int> verts;
};

/// One unit of the exhaustive search: the node of head pattern `hp` at
/// prefix [a1, a2] (indices into ExhaustivePlan::atoms; kNoAtom ends the
/// prefix early), either that node's visit alone or its whole subtree.
struct ExhUnit {
  static constexpr uint32_t kNoAtom = static_cast<uint32_t>(-1);
  uint32_t hp;
  uint32_t a1;
  uint32_t a2;
  bool subtree;
};

struct ExhaustivePlan {
  std::vector<HpPlan> hps;
  std::vector<PlanAtom> atoms;
  std::vector<ExhUnit> units;
};

/// Builds the ordered unit plan combinatorially, without running any
/// search or session: head patterns in restricted-growth order (set
/// partitions of head positions refining the equality pattern of the
/// frozen head); per pattern the root visit, then per first atom the [a1]
/// node, then per valid second atom the full [a1,a2] subtree — the
/// concatenation is exactly the DFS preorder. Classifier/hom pruning is
/// NOT evaluated here; pruned prefixes become zero-visit units discovered
/// by whichever worker claims them. Past kSplitBudget units the
/// decomposition degrades to whole-[a1] and then whole-pattern units —
/// granularity only, the commit protocol keeps the official outcome exact
/// at any split.
ExhaustivePlan BuildExhaustivePlan(const ConjunctiveQuery& q,
                                   const QueryChaseResult& chase,
                                   const EnumSignature& sig,
                                   size_t max_atoms) {
  constexpr size_t kSplitBudget = 4096;
  constexpr uint32_t kNoAtom = ExhUnit::kNoAtom;
  ExhaustivePlan plan;
  const size_t k = q.head().size();
  std::vector<int> block(k, -1);
  std::function<void(size_t, int)> patterns = [&](size_t pos, int num_blocks) {
    if (pos == k) {
      // One "h$<b>" variable per block; head variables map to the frozen
      // head position-wise.
      HpPlan hp;
      hp.head.resize(k);
      std::vector<Term> block_var(static_cast<size_t>(num_blocks));
      for (int b = 0; b < num_blocks; ++b) {
        block_var[b] = Term::Variable("h$" + std::to_string(b));
      }
      for (size_t i = 0; i < k; ++i) hp.head[i] = block_var[block[i]];
      for (size_t i = 0; i < k; ++i) {
        hp.fixed[hp.head[i]] = chase.frozen_head[i];
      }
      for (Term h : hp.head) {
        auto it = std::find(hp.head_vars.begin(), hp.head_vars.end(), h);
        hp.head_verts.push_back(static_cast<int>(it - hp.head_vars.begin()));
        if (it == hp.head_vars.end()) hp.head_vars.push_back(h);
      }
      plan.hps.push_back(std::move(hp));
      return;
    }
    for (int b = 0; b <= num_blocks; ++b) {
      // Refinement constraint: same block => equal frozen head terms.
      bool ok = true;
      for (size_t j = 0; j < pos; ++j) {
        if (block[j] == b && chase.frozen_head[j] != chase.frozen_head[pos]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      block[pos] = b;
      patterns(pos + 1, std::max(num_blocks, b + 1));
      block[pos] = -1;
    }
  };
  patterns(0, 0);

  // Argument-tuple enumeration, exactly as BuildArgs walks it: the
  // `used` frontier threaded down the positions, the vertices recorded.
  auto for_each_atom = [&](Predicate p, const HpPlan& hp, size_t used0,
                           const std::function<void(PlanAtom&&)>& fn) {
    std::vector<Term> args(static_cast<size_t>(p.arity()));
    std::vector<int> verts;
    std::function<void(size_t, size_t)> go = [&](size_t pos, size_t used) {
      if (pos == args.size()) {
        fn({Atom(p, args), used, verts});
        return;
      }
      ForEachChoice(hp, sig, used,
                    [&](Term t, size_t next_used, int vertex, size_t) {
                      args[pos] = t;
                      verts.push_back(vertex);
                      go(pos + 1, next_used);
                      verts.pop_back();
                    });
    };
    go(0, used0);
  };
  auto add_atom = [&](PlanAtom&& a) {
    plan.atoms.push_back(std::move(a));
    return static_cast<uint32_t>(plan.atoms.size() - 1);
  };

  for (uint32_t h = 0; h < plan.hps.size(); ++h) {
    if (plan.units.size() >= kSplitBudget) {
      plan.units.push_back({h, kNoAtom, kNoAtom, true});
      continue;
    }
    // The root visit; with max_atoms == 0 it is the whole pattern.
    plan.units.push_back({h, kNoAtom, kNoAtom, false});
    if (max_atoms == 0) continue;
    const HpPlan& hp = plan.hps[h];
    for (Predicate p : sig.predicates) {
      for_each_atom(p, hp, 0, [&](PlanAtom&& a1) {
        const size_t f1 = a1.frontier;
        const uint32_t i1 = add_atom(std::move(a1));
        if (plan.units.size() >= kSplitBudget) {
          plan.units.push_back({h, i1, kNoAtom, true});
          return;
        }
        // The [a1] node alone; with max_atoms == 1 it is the subtree.
        plan.units.push_back({h, i1, kNoAtom, false});
        if (max_atoms == 1) return;
        for (Predicate p2 : sig.predicates) {
          for_each_atom(p2, hp, f1, [&](PlanAtom&& a2) {
            // Canonical growth: strictly increasing atom order (the
            // BuildArgs rejection at depth 1).
            if (!AtomOrderLess(AtomView::Of(plan.atoms[i1].atom),
                               AtomView::Of(a2.atom))) {
              return;
            }
            plan.units.push_back({h, i1, add_atom(std::move(a2)), true});
          });
        }
      });
    }
  }
  return plan;
}

/// One worker of the exhaustive search (see the header for the
/// completeness contract): canonical enumeration of acyclic candidate
/// queries below the unit's prefix, with its own classifier, incremental
/// chase-homomorphism session and candidate key. Consecutive units replay
/// only the suffix where their prefixes differ, so one worker running
/// every unit in order pushes each prefix atom exactly once, like a
/// single DFS.
class ExhaustiveWorker : public UnitWorker {
 public:
  ExhaustiveWorker(const ExhaustivePlan& plan, const EnumSignature& sig,
                   const DenseTarget& chase,
                   const ContainmentOracle& oracle, size_t max_atoms,
                   acyclic::AcyclicityClass target, CancelToken* parent,
                   ConcurrentFingerprintSet* shared_no)
      : UnitWorker(oracle, target, parent, shared_no),
        plan_(plan),
        sig_(sig),
        max_atoms_(max_atoms),
        chase_(chase),
        hom_(chase),
        path_(max_atoms) {
    // The incremental session bails from repair search once the token
    // fires; RunUnit then reports the unit truncated.
    hom_.SetCancel(cancel_);
    // One row of choice masks per DFS depth, allocated here once. The
    // constants' masks lead every row and never change.
    size_t heads = 0;
    for (const HpPlan& hp : plan.hps) {
      heads = std::max(heads, hp.head_vars.size());
    }
    mask_stride_ = sig.constants.size() + sig.pool.size() + heads;
    choice_masks_.resize(max_atoms * mask_stride_);
    for (size_t d = 0; d < max_atoms; ++d) {
      for (size_t c = 0; c < sig.constants.size(); ++c) {
        choice_masks_[d * mask_stride_ + c] =
            chase.TermColumnMask(sig.constants[c]);
      }
    }
  }

  SearchUnitOutcome RunUnit(size_t unit,
                            ParallelSearchPool::WorkerContext& ctx) {
    BeginUnit(unit, ctx);
    // Once this worker's token fired, its hom session bails spuriously —
    // a prefix push could masquerade as a prune and mis-report the unit
    // as exhausted. EndUnit reports it truncated instead.
    if (cancel_ != nullptr && cancel_->PollNow()) return EndUnit();
    const ExhUnit& u = plan_.units[unit];
    if (EnterPrefix(u, ctx)) {
      if (u.subtree) {
        Search();
      } else if (Visit("exhaustive.visit")) {
        TestCandidate();
      }
    }
    return EndUnit();
  }

  void AddStats(WitnessSearchOutcome* outcome) const {
    UnitWorker::AddStats(outcome);
    const IncrementalHomomorphism::Stats& hs = hom_.stats();
    outcome->hom.pushes += hs.pushes;
    outcome->hom.fc_rejects += hs.fc_rejects;
    outcome->hom.extends += hs.extends;
    outcome->hom.repairs += hs.repairs;
    outcome->hom.repair_fails += hs.repair_fails;
    outcome->hom.repair_steps += hs.repair_steps;
    outcome->hom.dead_prefix += hs.dead_prefix;
    outcome->hom.arg_prunes += arg_prunes_;
  }

 private:
  /// The atom at one DFS depth: its predicate and argument tuple, with
  /// each position's classifier vertex (-1 for a constant). The vectors
  /// keep their capacity, so writing an atom here allocates nothing.
  struct ArgSlot {
    Predicate pred;
    std::vector<Term> args;
    std::vector<int> verts;

    AtomView view() const { return {pred, args.data(), args.size()}; }
  };

  /// Brings the sessions to the unit's head pattern and prefix, popping
  /// and pushing only where it differs from the previous unit's. False =
  /// the prefix is pruned exactly where the DFS prunes it (a zero-visit
  /// exhausted unit). Each plan atom index sits under exactly one parent
  /// prefix, so a remembered dead index prunes the other units below it
  /// without another push.
  bool EnterPrefix(const ExhUnit& u, ParallelSearchPool::WorkerContext& ctx) {
    const uint32_t want[2] = {u.a1, u.a2};
    size_t depth = 0;
    if (hp_ == u.hp) {
      while (depth < prefix_.size() && prefix_[depth] == want[depth]) ++depth;
    }
    PopTo(depth);
    if (hp_ != u.hp) {
      Replay(ctx);
      const HpPlan& h = plan_.hps[u.hp];
      hp_plan_ = &h;
      hom_.Reset(h.fixed);
      key_.Reset(h.head_verts);
      hp_ = u.hp;
    }
    for (; depth < 2 && want[depth] != ExhUnit::kNoAtom; ++depth) {
      if (want[depth] == dead_) return false;
      Replay(ctx);
      if (!PushPrefixAtom(plan_.atoms[want[depth]])) {
        dead_ = want[depth];
        return false;
      }
      prefix_.push_back(want[depth]);
    }
    return true;
  }

  /// Counts one prefix rebuild (a head-pattern switch or a prefix push).
  void Replay(ParallelSearchPool::WorkerContext& ctx) {
    SEMACYC_FAILPOINT("parallel.replay", parent_);
    ctx.NoteReplay();
  }

  /// Pushes one prefix atom, copied into the path, with the DFS push
  /// nesting (classifier first, then hom, then the key). False = pruned,
  /// with every session restored.
  bool PushPrefixAtom(const PlanAtom& pa) {
    ArgSlot& slot = path_[depth_];
    slot.pred = pa.atom.predicate();
    slot.args.assign(pa.atom.args().begin(), pa.atom.args().end());
    slot.verts.assign(pa.verts.begin(), pa.verts.end());
    const AtomView atom = slot.view();
    inc_.PushEdge(slot.verts);
    bool ok = !inc_.CannotRecover();
    if (ok) {
      ok = hom_.PushAtom(atom);
      if (!ok) hom_.PopAtom();
    }
    if (!ok) {
      inc_.PopEdge();
      return false;
    }
    key_.Push(atom, slot.verts.data());
    frontier_stack_.push_back(used_frontier_);
    used_frontier_ = pa.frontier;
    ++depth_;
    return true;
  }

  void PopTo(size_t depth) {
    while (prefix_.size() > depth) {
      key_.Pop();
      hom_.PopAtom();
      inc_.PopEdge();
      --depth_;
      used_frontier_ = frontier_stack_.back();
      frontier_stack_.pop_back();
      prefix_.pop_back();
    }
  }

  /// Head variable j is vertex j.
  bool HeadCovered() const {
    for (size_t j = 0; j < hp_plan_->head_vars.size(); ++j) {
      if (key_.Count(static_cast<int>(j)) == 0) return false;
    }
    return true;
  }

  /// Tests the path's candidate, handed to the oracle as views of the
  /// path's slots under the pattern's head.
  void TestCandidate() {
    if (depth_ == 0 || !HeadCovered()) return;
    const Key128 key = key_.Key();
    if (!Admits(key)) return;
    views_.clear();
    for (size_t d = 0; d < depth_; ++d) views_.push_back(path_[d].view());
    Test(key, {hp_plan_->head.data(), hp_plan_->head.size(), views_.data(),
               depth_});
  }

  void Search() {
    if (!Visit("exhaustive.visit")) return;
    TestCandidate();
    if (found_ || depth_ >= max_atoms_) return;
    // Search runs below max_atoms_ atoms, so its depth has a slot.
    ArgSlot& slot = path_[depth_];
    FillChoiceMasks();
    const ArgSlot* last = depth_ > 0 ? &path_[depth_ - 1] : nullptr;
    for (size_t k = 0; k < sig_.predicates.size(); ++k) {
      const Predicate p = sig_.predicates[k];
      // Canonical growth: no tuple of a predicate below the last atom's
      // is above the last atom.
      if (last != nullptr && p.id() < last->pred.id()) continue;
      // No chase atom has the predicate: every push of it is refuted.
      const uint32_t lp = chase_.LocalPred(p);
      if (lp == DenseTarget::kNone) continue;
      slot.pred = p;
      slot.args.resize(sig_.arities[k]);
      slot.verts.resize(sig_.arities[k]);
      BuildArgs(slot, lp, 0, used_frontier_,
                last != nullptr && p == last->pred);
      if (truncated_ || found_) return;
    }
  }

  /// The argument forward check's masks at this node, in depth_'s row
  /// after the constants' (written once by the constructor): the columns
  /// the hom session still allows each pool and head variable. Pool
  /// variables past the path's frontier are in no pushed atom, so every
  /// column is open to them.
  void FillChoiceMasks() {
    uint64_t* pool_masks = &choice_masks_[depth_ * mask_stride_] +
                           sig_.constants.size();
    for (size_t i = 0; i < sig_.pool.size(); ++i) {
      pool_masks[i] =
          i < used_frontier_ ? hom_.ColumnMask(sig_.pool[i]) : ~uint64_t{0};
    }
    uint64_t* head_masks = pool_masks + sig_.pool.size();
    for (size_t j = 0; j < hp_plan_->head_vars.size(); ++j) {
      head_masks[j] = hom_.ColumnMask(hp_plan_->head_vars[j]);
    }
  }

  /// Fills `slot` (the path's next depth, of chase predicate `lp`)
  /// position by position; a full tuple above the path's last atom is
  /// pushed and searched below. Canonical growth (strictly increasing
  /// AtomOrderLess, so no duplicate atoms) is decided position by
  /// position: `tight` says the slot has the last atom's predicate and
  /// the arguments so far equal its prefix, so a choice below the last
  /// atom's argument at `pos` starts no tuple above it, an equal one
  /// stays tight and a greater one frees the remaining positions; a tuple
  /// still tight when complete is the last atom itself. A choice whose
  /// mask lacks its position's column bit is skipped too: every atom
  /// completing it would be refuted by the hom push's scan (no chase tuple
  /// has a candidate of the term at that column). Either way no visit,
  /// candidate or truncation point moves — only tuples that would be
  /// dropped or pushes that would fail are saved.
  void BuildArgs(ArgSlot& slot, uint32_t lp, size_t pos, size_t used,
                 bool tight) {
    if (truncated_ || found_) return;
    if (pos == slot.args.size()) {
      if (tight) return;
      const AtomView atom = slot.view();
      size_t saved_frontier = used_frontier_;
      used_frontier_ = used;
      // The classifier push costs nanoseconds (scratch deciders), so it
      // runs before the chase homomorphism: a hereditarily violated prefix
      // can never recover, and pruning it here skips the hom for the whole
      // subtree.
      inc_.PushEdge(slot.verts);
      if (!inc_.CannotRecover()) {
        // Incremental per-atom chase check, mirroring the classifier's
        // push/pop discipline: the session's stack tracks the path, so
        // this push costs O(what the atom changed) instead of a
        // from-scratch backtracking search. The key follows only the
        // pushes the DFS descends into.
        if (hom_.PushAtom(atom)) {
          key_.Push(atom, slot.verts.data());
          ++depth_;
          Search();
          --depth_;
          key_.Pop();
        }
        hom_.PopAtom();
      }
      inc_.PopEdge();
      used_frontier_ = saved_frontier;
      return;
    }
    // `used` carries the frontier (pool variables consumed by the path
    // plus the args prefix) down the recursion instead of rescanning the
    // path and prefix.
    const uint64_t* masks = &choice_masks_[depth_ * mask_stride_];
    const uint64_t bit = chase_.ColumnBit(lp, pos);
    const uint32_t bound = tight ? path_[depth_ - 1].args[pos].raw_bits() : 0;
    ForEachChoice(*hp_plan_, sig_, used,
                  [&](Term t, size_t next_used, int vertex, size_t choice) {
                    if (tight && t.raw_bits() < bound) return;
                    if ((masks[choice] & bit) == 0) {
                      ++arg_prunes_;
                      return;
                    }
                    slot.args[pos] = t;
                    slot.verts[pos] = vertex;
                    BuildArgs(slot, lp, pos + 1, next_used,
                              tight && t.raw_bits() == bound);
                  });
  }

  const ExhaustivePlan& plan_;
  const EnumSignature& sig_;
  const size_t max_atoms_;
  const DenseTarget& chase_;
  /// Incremental chase-homomorphism session: PushAtom/PopAtom mirror inc_'s
  /// PushEdge/PopEdge along the DFS path — the certificate that the
  /// candidate maps into the chase with the head bound position-wise.
  IncrementalHomomorphism hom_;
  /// The candidate key of the path at every visit (ForEachChoice's vertex
  /// numbering; its counts give the head cover).
  IncrementalCandidateKey key_;
  /// The current head pattern's invariants (owned by the plan).
  uint32_t hp_ = ExhUnit::kNoAtom;
  const HpPlan* hp_plan_ = nullptr;
  /// The pushed unit prefix (plan atom indices), and the last prefix atom
  /// whose push was pruned.
  std::vector<uint32_t> prefix_;
  uint32_t dead_ = ExhUnit::kNoAtom;
  /// The DFS path: its atoms are path_[0 .. depth_), one slot per depth
  /// below max_atoms_ (the unit prefix's atoms are copied in).
  std::vector<ArgSlot> path_;
  size_t depth_ = 0;
  /// The candidate's body views (TestCandidate).
  std::vector<AtomView> views_;
  /// Pool variables consumed by the path (the in-order-introduction
  /// frontier), maintained incrementally across atom pushes/pops.
  size_t used_frontier_ = 0;
  std::vector<size_t> frontier_stack_;
  /// The argument forward check (BuildArgs): per DFS depth, a row of
  /// mask_stride_ masks, one per choice (ForEachChoice's index), and the
  /// count of choices it skipped.
  size_t mask_stride_ = 0;
  std::vector<uint64_t> choice_masks_;
  size_t arg_prunes_ = 0;
};

}  // namespace

WitnessSearchOutcome ExhaustiveWitnessSearch(
    const ConjunctiveQuery& q, const DependencySet& sigma,
    const QueryChaseResult& chase, const ContainmentOracle& oracle,
    size_t max_atoms, size_t budget, size_t threads,
    acyclic::AcyclicityClass target, CancelToken* cancel) {
  const EnumSignature sig(q, sigma, max_atoms);
  const ExhaustivePlan plan = BuildExhaustivePlan(q, chase, sig, max_atoms);
  // One read-only directory of the chase for every worker's hom session.
  const DenseTarget dense_chase(chase.instance);
  return RunUnits<ExhaustiveWorker>(
      plan.units.size(), threads, budget, cancel,
      [&](ConcurrentFingerprintSet* shared_no) {
        return std::make_unique<ExhaustiveWorker>(plan, sig, dense_chase,
                                                  oracle, max_atoms, target,
                                                  cancel, shared_no);
      });
}

}  // namespace semacyc
