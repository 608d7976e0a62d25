#include "semacyc/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "core/canonical.h"
#include "core/core_min.h"
#include "core/hypergraph.h"
#include "semacyc/compaction.h"

namespace semacyc {

namespace {

/// Name tables handed to the MetricsRegistry (core/obs stays below the
/// decider's enums; the registry indexes rows by the enum values).
std::vector<std::string> StrategyNames() {
  std::vector<std::string> out;
  for (int i = 0; i <= static_cast<int>(Strategy::kDeadlineExceeded); ++i) {
    out.emplace_back(ToString(static_cast<Strategy>(i)));
  }
  return out;
}

std::vector<std::string> AnswerNames() {
  return {ToString(SemAcAnswer::kYes), ToString(SemAcAnswer::kNo),
          ToString(SemAcAnswer::kUnknown)};
}

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

Engine::Engine(DependencySet sigma, SemAcOptions options,
               size_t decision_cache_bytes)
    : options_(options),
      decisions_(decision_cache_bytes),
      metrics_(StrategyNames(), AnswerNames()) {
  obs::PhaseTimer timer(&metrics_, nullptr, obs::Phase::kSchemaAnalyze);
  sigma_ = std::move(sigma);
  facts_ = SchemaFacts::Compute(sigma_);
}

PreparedQuery Engine::Prepare(const ConjunctiveQuery& q) const {
  obs::PhaseTimer timer(&metrics_, nullptr, obs::Phase::kPrepare);
  PreparedQuery out;
  out.q_ = q;
  if (std::optional<Term> h = q.UnboundHeadVariable()) {
    out.unsafe_ = "unsafe query: head variable '" + h->ToString() +
                  "' does not occur in the body";
  }
  out.fp_ = CanonicalFingerprint(q);
  out.cls_ = ClassifyQuery(q);
  out.bound_ = SmallQueryBound(q, sigma_, facts_, &out.bound_justified_);
  return out;
}

CancelToken* Engine::WithDeadline(CancelToken* cancel,
                                  CancelToken* local) const {
  if (cancel == nullptr) {
    if (options_.deadline_ms <= 0) return nullptr;
    cancel = local;
  }
  cancel->SetDeadlineInMs(options_.deadline_ms);
  return cancel;
}

SemAcResult Engine::Decide(const ConjunctiveQuery& q,
                           CancelToken* cancel) const {
  return Decide(Prepare(q), cancel);
}

SemAcResult Engine::Decide(const PreparedQuery& q, CancelToken* cancel) const {
  CancelToken local;
  return DecideWithToken(q, WithDeadline(cancel, &local));
}

SemAcResult Engine::DecideWithToken(const PreparedQuery& q,
                                    CancelToken* cancel,
                                    const QueryChaseResult* prechased) const {
  obs::TraceSink* sink = options_.trace_sink;
  std::optional<obs::DecisionTracer> tracer;
  // Root-span decision-cache and oracle-prefilter delta baselines, read
  // only when tracing. Exact for serial callers; under concurrent
  // decisions the deltas include the other threads' traffic (documented
  // in docs/OBSERVABILITY.md).
  size_t dec_h0 = 0, prefiltered0 = 0;
  if (sink != nullptr) {
    tracer.emplace();
    dec_h0 = decisions_.hits();
    prefiltered0 = metrics_.Count(obs::Counter::kOraclePrefiltered);
  }
  auto t0 = std::chrono::steady_clock::now();
  bool computed = false;
  std::shared_ptr<const SemAcResult> aborted;
  std::shared_ptr<const SemAcResult> result = decisions_.GetOrCompute(
      q.fingerprint(), q.query(),
      [&]() -> std::shared_ptr<const SemAcResult> {
        computed = true;
        SemAcResult r;
        try {
          r = DecideUncached(q, tracer.has_value() ? &*tracer : nullptr,
                             cancel, prechased);
        } catch (const std::bad_alloc&) {
          // Allocation failure (injected or genuine) mid-pipeline: RAII
          // already unwound the phase spans; surface the same graceful
          // abort as an elapsed deadline instead of tearing the caller.
          r = SemAcResult();
          r.answer = SemAcAnswer::kUnknown;
          r.strategy = Strategy::kDeadlineExceeded;
          r.exact = false;
        }
        if (r.strategy == Strategy::kDeadlineExceeded || !q.unsafe_.empty()) {
          // Aborted results are never cached (a later call must get the
          // real answer), nor are an unsafe query's; carried out via the
          // side channel instead.
          aborted = std::make_shared<const SemAcResult>(std::move(r));
          return nullptr;
        }
        return std::make_shared<const SemAcResult>(std::move(r));
      });
  if (result == nullptr) result = aborted;
  int64_t ns = ElapsedNs(t0);
  metrics_.RecordDecision(static_cast<size_t>(result->strategy),
                          static_cast<size_t>(result->answer), ns, !computed);
  metrics_.RecordPhase(obs::Phase::kDecision, ns);
  if (tracer.has_value()) {
    auto delta = [](size_t now, size_t before) {
      return static_cast<int64_t>(now - before);
    };
    tracer->AddCounter(0, "candidates_tested",
                       static_cast<int64_t>(result->candidates_tested));
    tracer->AddCounter(
        0, "oracle_prefiltered",
        delta(metrics_.Count(obs::Counter::kOraclePrefiltered), prefiltered0));
    tracer->AddCounter(0, "decision_cache_hits",
                       delta(decisions_.hits(), dec_h0));
    obs::DecisionTrace trace =
        tracer->Finish(q.query().ToString(), ToString(result->answer),
                       ToString(result->strategy), !computed);
    sink->Consume(trace);
    metrics_.Add(obs::Counter::kTracesEmitted, 1);
  }
  return *result;
}

SemAcResult Engine::DecideUncached(const PreparedQuery& pq,
                                   obs::DecisionTracer* tracer,
                                   CancelToken* cancel,
                                   const QueryChaseResult* prechased) const {
  const ConjunctiveQuery& q = pq.query();
  const DependencySet& sigma = sigma_;
  const acyclic::AcyclicityClass target = options_.target_class;

  SemAcResult result;
  result.small_query_bound = pq.small_query_bound();
  result.bound_justified = pq.bound_justified();

  // Graceful abort: kUnknown with the evidence gathered so far. The
  // caller (DecideWithToken) never caches it.
  auto abort_result = [&result]() -> SemAcResult {
    result.answer = SemAcAnswer::kUnknown;
    result.strategy = Strategy::kDeadlineExceeded;
    result.exact = false;
    result.witness.reset();
    return result;
  };
  // Phase boundaries poll unamortized (PollNow): one clock read between
  // phases is noise, and a deadline is then honored even when the next
  // phase would stall before its first in-loop poll.
  SEMACYC_FAILPOINT("decide.start", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();
  if (!pq.unsafe_.empty()) {
    // No strategy's answer is certified for an unsafe query.
    result.answer = SemAcAnswer::kUnknown;
    result.exact = false;
    return result;
  }

  // Records a witness together with its (tightest) classification. Every
  // YES witness of every strategy passes through here, so this is the one
  // place its pooled variable names become parseable.
  auto accept = [&result](const ConjunctiveQuery& witness, Strategy strategy) {
    result.witness_class = ClassifyQuery(witness).cls;
    result.answer = SemAcAnswer::kYes;
    result.witness = WithParseableVariables(witness);
    result.strategy = strategy;
    result.exact = true;
  };

  // Strategy 0: q itself reaches the target class (precomputed in
  // Prepare — the prepared classification is the tightest class).
  if (pq.MeetsTarget(target)) {
    accept(q, Strategy::kAlreadyAcyclic);
    return result;
  }

  // Strategy 1: the core of q reaches the target class. Complete for
  // Σ = ∅ and *every* target: constraint-free equivalence preserves cores
  // up to isomorphism, and β/γ/Berge-acyclicity are hereditary under atom
  // removal, so any witness q' ≡ q yields the (isomorphic) core of q as a
  // witness too. (For α the same completeness is the §1 classical result.)
  {
    obs::PhaseTimer timer(&metrics_, tracer, obs::Phase::kCore);
    ConjunctiveQuery core = ComputeCore(q);
    if (MeetsAcyclicityClass(core.body(), ConnectingTerms::kVariables,
                             target)) {
      accept(core, Strategy::kCore);
      return result;
    }
    if (sigma.size() == 0) {
      result.answer = SemAcAnswer::kNo;
      result.strategy = Strategy::kCore;
      result.exact = true;
      return result;
    }
  }
  SEMACYC_FAILPOINT("decide.after_core", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();

  // Chase once (unless the caller already did); shared by the remaining
  // strategies. A chase cut short by the token leaves the token fired, so
  // the poll below aborts.
  std::optional<QueryChaseResult> own_chase;
  if (prechased == nullptr) {
    obs::PhaseTimer timer(&metrics_, tracer, obs::Phase::kChase);
    ChaseOptions chase_options = options_.chase;
    chase_options.cancel = cancel;
    own_chase = ChaseQuery(q, sigma, chase_options);
    prechased = &*own_chase;
    timer.Counter("steps", static_cast<int64_t>(own_chase->steps));
    timer.Counter("saturated", own_chase->saturated ? 1 : 0);
    timer.Counter("atoms",
                  static_cast<int64_t>(own_chase->instance.atoms().size()));
  }
  const QueryChaseResult& chase = *prechased;
  SEMACYC_FAILPOINT("decide.after_chase", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();
  if (chase.failed) {
    // q is unsatisfiable on every model of Σ; any acyclic query that is
    // also unsatisfiable under Σ is equivalent to it. Verifying emptiness
    // generically is involved, so report YES with no witness and flag it.
    result.answer = SemAcAnswer::kYes;
    result.strategy = Strategy::kFailingChase;
    result.exact = true;
    return result;
  }

  // The decision's compiled q-side containment test (Lemma 1's chase
  // check or the Prop 15 UCQ rewriting). A rewriting build cut short by
  // the token leaves the oracle inexact; the poll below then aborts.
  std::optional<ContainmentOracle> oracle;
  {
    obs::PhaseTimer timer(&metrics_, tracer, obs::Phase::kOracle);
    RewriteOptions rewrite = options_.rewrite;
    rewrite.cancel = cancel;
    oracle.emplace(q, sigma, options_.chase, rewrite, facts_, &metrics_);
    if (const RewriteResult* rw = oracle->rewriting()) {
      metrics_.RecordPhase(obs::Phase::kRewrite, rw->build_ns);
      if (tracer != nullptr) {
        tracer->CounterSpan(
            obs::Phase::kRewrite,
            {{"build_ns", rw->build_ns},
             {"disjuncts", static_cast<int64_t>(rw->ucq.disjuncts().size())},
             {"complete", rw->complete ? 1 : 0}});
      }
    }
    timer.Counter("exact", oracle->exact() ? 1 : 0);
  }
  SEMACYC_FAILPOINT("decide.after_oracle", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();

  // Strategy 2: the chase itself is acyclic -> compact it (Lemma 9). The
  // compaction preserves α-acyclicity only, so for stricter targets the
  // compacted witness is re-classified and kept only when it qualifies.
  if (chase.saturated) {
    obs::PhaseTimer timer(&metrics_, tracer, obs::Phase::kCompaction);
    if (IsAcyclic(chase.instance.atoms(), ConnectingTerms::kAllTerms)) {
      std::optional<CompactionResult> compact =
          CompactAcyclicWitness(q, chase.instance, chase.frozen_head);
      if (compact.has_value() &&
          MeetsAcyclicityClass(compact->witness.body(),
                               ConnectingTerms::kVariables, target)) {
        accept(compact->witness, Strategy::kChaseCompaction);
        return result;
      }
    }
  }
  SEMACYC_FAILPOINT("decide.after_compaction", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();

  size_t bound = std::min<size_t>(result.small_query_bound,
                                  options_.witness_atoms_cap);
  result.bound_used = bound;

  // Books one witness strategy's work: the decision's candidate total,
  // the registry counters, and the counters of the strategy's phase span
  // (plus a counter-only HOM_CHECK child span when the strategy ran the
  // incremental hom session: its per-push work is the hot loop, so it is
  // harvested once from the strategy's own bookkeeping instead of timing
  // individual pushes). `budget` is the strategy's visit budget; images
  // has none and reports whether it exhausted its homomorphisms instead.
  auto book = [&](const WitnessSearchOutcome& o, std::optional<size_t> budget,
                  obs::PhaseTimer& timer) {
    result.candidates_tested += o.candidates_tested;
    metrics_.Add(obs::Counter::kCandidatesTested, o.candidates_tested);
    metrics_.Add(obs::Counter::kEnumVisits, o.visits);
    metrics_.Add(obs::Counter::kClassifierPushes, o.classifier_pushes);
    metrics_.Add(obs::Counter::kClassifierPops, o.classifier_pops);
    metrics_.Add(obs::Counter::kHomPushes, o.hom.pushes);
    metrics_.Add(obs::Counter::kHomDomainWipeouts, o.hom.fc_rejects);
    metrics_.Add(obs::Counter::kHomExtends, o.hom.extends);
    metrics_.Add(obs::Counter::kHomRepairs, o.hom.repairs);
    metrics_.Add(obs::Counter::kHomRepairFails, o.hom.repair_fails);
    metrics_.Add(obs::Counter::kHomDeadPrefix, o.hom.dead_prefix);
    metrics_.Add(obs::Counter::kParallelUnits, o.parallel.units_claimed);
    metrics_.Add(obs::Counter::kParallelSteals, o.parallel.steals);
    metrics_.Add(obs::Counter::kParallelReplays, o.parallel.replays);
    metrics_.Add(obs::Counter::kParallelWastedVisits, o.parallel.wasted_visits);
    metrics_.Add(obs::Counter::kParallelCommitWaits, o.parallel.commit_waits);
    timer.Counter("candidates_tested",
                  static_cast<int64_t>(o.candidates_tested));
    if (!budget.has_value()) {
      timer.Counter("exhausted", o.exhausted ? 1 : 0);
    } else {
      timer.Counter("visits", static_cast<int64_t>(o.visits));
      timer.Counter("classifier_pushes",
                    static_cast<int64_t>(o.classifier_pushes));
      timer.Counter("classifier_pops", static_cast<int64_t>(o.classifier_pops));
      timer.Counter("alpha_gyo_runs", static_cast<int64_t>(o.alpha_gyo_runs));
      timer.Counter("alpha_inherited",
                    static_cast<int64_t>(o.alpha_inherited));
      timer.Counter("budget", static_cast<int64_t>(*budget));
      timer.Counter("budget_remaining",
                    static_cast<int64_t>(*budget -
                                         std::min(o.visits, *budget)));
      timer.Counter("oracle_calls", static_cast<int64_t>(o.oracle_calls));
      timer.Counter("oracle_check_us",
                    static_cast<int64_t>(o.oracle_check_ns / 1000));
    }
    if (tracer != nullptr && o.hom.pushes > 0) {
      tracer->CounterSpan(
          obs::Phase::kHomCheck,
          {{"pushes", static_cast<int64_t>(o.hom.pushes)},
           {"domain_wipeouts", static_cast<int64_t>(o.hom.fc_rejects)},
           {"extends", static_cast<int64_t>(o.hom.extends)},
           {"repairs", static_cast<int64_t>(o.hom.repairs)},
           {"repair_fails", static_cast<int64_t>(o.hom.repair_fails)},
           {"repair_steps", static_cast<int64_t>(o.hom.repair_steps)},
           {"dead_prefix", static_cast<int64_t>(o.hom.dead_prefix)},
           {"arg_prunes", static_cast<int64_t>(o.hom.arg_prunes)}});
    }
  };

  // Strategy 3: homomorphic images of q inside the chase.
  if (options_.enable_images) {
    obs::PhaseTimer timer(&metrics_, tracer, obs::Phase::kImages);
    WitnessSearchOutcome images = FindWitnessInQueryImages(
        q, chase, *oracle, options_.image_homs, target, cancel);
    book(images, std::nullopt, timer);
    if (images.answer == Tri::kYes) {
      accept(*images.witness, Strategy::kImages);
      return result;
    }
  }
  SEMACYC_FAILPOINT("decide.after_images", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();

  // Strategy 4: target-acyclic sub-instances of the chase.
  if (options_.enable_subsets) {
    obs::PhaseTimer timer(&metrics_, tracer, obs::Phase::kSubsets);
    WitnessSearchOutcome subsets = FindWitnessInChaseSubsets(
        chase, *oracle, bound, options_.subset_budget,
        options_.decide_threads, target, cancel);
    book(subsets, options_.subset_budget, timer);
    if (subsets.answer == Tri::kYes) {
      accept(*subsets.witness, Strategy::kSubsets);
      return result;
    }
  }
  SEMACYC_FAILPOINT("decide.after_subsets", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();

  // Strategy 5: exhaustive canonical enumeration up to the bound.
  if (options_.enable_exhaustive) {
    obs::PhaseTimer timer(&metrics_, tracer, obs::Phase::kEnumerate);
    WitnessSearchOutcome exhaustive = ExhaustiveWitnessSearch(
        q, sigma, chase, *oracle, bound, options_.exhaustive_budget,
        options_.decide_threads, target, cancel);
    book(exhaustive, options_.exhaustive_budget, timer);
    if (exhaustive.answer == Tri::kYes) {
      accept(*exhaustive.witness, Strategy::kExhaustive);
      return result;
    }
    // A definitive NO needs: full enumeration, saturated chase, exact
    // oracle, an uncapped theoretical bound, and the α target (the
    // small-query theorems only cover α-acyclic witnesses).
    if (exhaustive.exhausted && chase.saturated && oracle->exact() &&
        result.bound_justified && bound >= result.small_query_bound &&
        target == acyclic::AcyclicityClass::kAlpha) {
      result.answer = SemAcAnswer::kNo;
      result.strategy = Strategy::kExhaustive;
      result.exact = true;
      return result;
    }
  }
  SEMACYC_FAILPOINT("decide.after_exhaustive", cancel);
  if (cancel != nullptr && cancel->PollNow()) return abort_result();

  result.answer = SemAcAnswer::kUnknown;
  result.strategy = Strategy::kBudgetExhausted;
  result.exact = false;
  return result;
}

std::vector<SemAcResult> Engine::DecideBatch(
    const std::vector<PreparedQuery>& batch, size_t threads) const {
  return DecideBatch(batch, threads, BatchDeadlines{});
}

std::vector<SemAcResult> Engine::DecideBatch(
    const std::vector<PreparedQuery>& batch, size_t threads,
    const BatchDeadlines& deadlines) const {
  std::vector<SemAcResult> out(batch.size());
  // The batch deadline is one shared token; each query chains a child off
  // it so a blown batch budget aborts every remaining decision while a
  // blown per-query budget hurts only its own.
  const bool timed = deadlines.batch_ms > 0 || deadlines.per_query_ms > 0;
  CancelToken batch_token;
  if (deadlines.batch_ms > 0) batch_token.SetDeadlineInMs(deadlines.batch_ms);
  auto decide_one = [&](size_t i) {
    if (!timed) {
      out[i] = Decide(batch[i]);
      return;
    }
    CancelToken token;
    token.SetParent(&batch_token);
    if (deadlines.per_query_ms > 0) {
      token.SetDeadlineInMs(deadlines.per_query_ms);
    }
    out[i] = Decide(batch[i], &token);
  };
  threads = std::min(threads, batch.size());
  if (threads <= 1) {
    for (size_t i = 0; i < batch.size(); ++i) decide_one(i);
    return out;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i; (i = next.fetch_add(1)) < batch.size();) {
      decide_one(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return out;
}

UcqSemAcResult Engine::DecideUcq(const UnionQuery& Q) const {
  UcqSemAcResult result;
  const auto& disjuncts = Q.disjuncts();
  result.disjuncts.resize(disjuncts.size());
  result.exact = true;

  // deadline_ms bounds the whole UCQ decision: the redundancy pass and
  // every kept disjunct's decision run under this one token.
  CancelToken local;
  CancelToken* cancel = WithDeadline(nullptr, &local);
  ChaseOptions chase_options = options_.chase;
  chase_options.cancel = cancel;

  // Redundancy pass (UCQ minimization under Σ): q_i is redundant when some
  // other kept disjunct contains it (Lemma 1 off the disjunct's chase,
  // built at most once, on first use, and handed on to the disjunct's
  // decision). Mutually equivalent disjuncts keep the one with the
  // smaller index. A chase the token cut short leaves the token fired, so
  // its verdicts read kUnknown and the disjunct's decision aborts.
  std::vector<std::optional<QueryChaseResult>> chases(disjuncts.size());
  auto contained = [&](size_t a, size_t b) {
    if (!chases[a].has_value()) {
      obs::PhaseTimer timer(&metrics_, nullptr, obs::Phase::kChase);
      chases[a] = ChaseQuery(disjuncts[a], sigma_, chase_options);
    }
    return Lemma1Verdict(*chases[a], &disjuncts[b], 1, cancel);
  };
  std::vector<bool> redundant(disjuncts.size(), false);
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    for (size_t j = 0; j < disjuncts.size(); ++j) {
      if (i == j || redundant[j]) continue;
      Tri forward = contained(i, j);
      if (forward != Tri::kYes) {
        if (forward == Tri::kUnknown) result.exact = false;
        continue;
      }
      Tri backward = contained(j, i);
      if (backward == Tri::kYes && j > i) continue;  // keep the earlier one
      redundant[i] = true;
      break;
    }
    result.disjuncts[i].redundant = redundant[i];
  }

  std::vector<ConjunctiveQuery> witness_disjuncts;
  bool all_yes = true;
  bool any_unknown = false;
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (redundant[i]) continue;
    SemAcResult decision =
        DecideWithToken(Prepare(disjuncts[i]), cancel,
                        chases[i].has_value() ? &*chases[i] : nullptr);
    result.disjuncts[i].decision = decision;
    if (decision.answer == SemAcAnswer::kYes) {
      // A witness-less YES (failing chase) means the disjunct is empty
      // under Σ: dropping it from the union preserves equivalence.
      if (decision.witness.has_value()) {
        witness_disjuncts.push_back(*decision.witness);
      }
    } else if (decision.answer == SemAcAnswer::kNo) {
      all_yes = false;
      if (!decision.exact) result.exact = false;
    } else {
      all_yes = false;
      any_unknown = true;
    }
  }

  if (all_yes) {
    result.answer = SemAcAnswer::kYes;
    // Every kept disjunct empty under Σ leaves nothing to assemble: the
    // UCQ itself is empty under Σ, a witness-less YES like the CQ case.
    if (!witness_disjuncts.empty()) {
      result.witness = UnionQuery(std::move(witness_disjuncts));
    }
  } else if (any_unknown || !result.exact) {
    result.answer = SemAcAnswer::kUnknown;
    result.exact = false;
  } else {
    result.answer = SemAcAnswer::kNo;
  }
  return result;
}

ApproximateOutcome Engine::Approximate(const PreparedQuery& pq) const {
  ApproximateOutcome out;
  if (!pq.unsafe_.empty()) {
    out.status = Status::Unsupported(pq.unsafe_);
    return out;
  }
  // Constants in q block the generic fallback witness (footnote in §8.2).
  for (const Atom& a : pq.query().body()) {
    if (a.MentionsKind(TermKind::kConstant)) {
      out.status = Status::Unsupported(
          "acyclic approximation needs a constant-free query (§8.2)");
      return out;
    }
  }

  SemAcResult decision = Decide(pq);
  if (decision.strategy == Strategy::kDeadlineExceeded) {
    out.status = Status::DeadlineExceeded(
        "decision aborted by deadline before an approximation was built");
    return out;
  }
  // If q is semantically acyclic, its witness is the (exact)
  // approximation. Otherwise no acyclic chase sub-instance q' is worth
  // collecting: q ⊆Σ q' holds for each (Lemma 1), so one with q' ⊆Σ q
  // would be a witness, and `subsets` searched for exactly those under the
  // same bound and budget. What is left is the §8.2 fallback.
  if (decision.answer == SemAcAnswer::kYes && decision.witness.has_value()) {
    out.result.approximation = *decision.witness;
    out.result.is_exact = true;
    return out;
  }
  out.result.approximation = TrivialAcyclicUnderApproximation(pq.query());
  return out;
}

bool Engine::EvalPrologue(const PreparedQuery& q, CancelToken* cancel,
                          EvalOutcome* out,
                          std::optional<JoinTreeView>* tree) const {
  if (!q.unsafe_.empty()) {
    out->status = Status::Unsupported(q.unsafe_);
    return false;
  }
  SemAcResult decision = DecideWithToken(q, cancel);
  if (decision.strategy == Strategy::kDeadlineExceeded) {
    out->status = Status::DeadlineExceeded(
        "decision aborted by deadline before a reformulation was found");
    return false;
  }
  if (decision.answer != SemAcAnswer::kYes || !decision.witness.has_value()) {
    out->status = Status::NotFound(
        decision.answer == SemAcAnswer::kYes
            ? "q is empty under the schema (failing chase); its answer set "
              "is empty on every database satisfying it"
            : "no acyclic reformulation found within the budgets");
    return false;
  }
  out->reformulated = true;
  out->witness = *decision.witness;
  // View-based join tree over the witness body: the view references the
  // outcome's own witness (already in place above), so nothing is copied.
  *tree = BuildJoinTreeView(out->witness.body(), ConnectingTerms::kVariables);
  if (!tree->has_value()) {
    // Unreachable for a verified witness; fail soft rather than crash.
    out->reformulated = false;
    out->status = Status::NotFound("witness unexpectedly cyclic");
    return false;
  }
  // Root at a head-covering atom so the answer-assembly DP stays linear
  // (join_tree.h RerootForHead) — both evaluation paths use this view.
  **tree = RerootForHead(**tree, out->witness.head());
  return true;
}

EvalOutcome Engine::Eval(const PreparedQuery& q,
                         const Instance& database) const {
  return Eval(q, database, EvalOptions{});
}

EvalOutcome Engine::Eval(const PreparedQuery& q, const Instance& database,
                         const EvalOptions& opts) const {
  if (opts.path == EvalOptions::Path::kColumnar) {
    return Eval(q, data::ColumnarInstance::FromInstance(database), opts);
  }
  EvalOutcome out;
  // deadline_ms bounds the decision and the evaluation together.
  CancelToken local;
  CancelToken* cancel = WithDeadline(opts.cancel, &local);
  std::optional<JoinTreeView> tree;
  if (!EvalPrologue(q, cancel, &out, &tree)) return out;
  obs::PhaseTimer timer(&metrics_, nullptr, obs::Phase::kEval);
  out.evaluation = EvaluateAcyclic(out.witness, *tree, database);
  metrics_.Add(obs::Counter::kEvalSemijoinProbes,
               out.evaluation.semijoin_probes);
  return out;
}

EvalOutcome Engine::Eval(const PreparedQuery& q,
                         const data::ColumnarInstance& database,
                         const EvalOptions& opts) const {
  EvalOutcome out;
  CancelToken local;
  CancelToken* cancel = WithDeadline(opts.cancel, &local);
  std::optional<JoinTreeView> tree;
  if (!EvalPrologue(q, cancel, &out, &tree)) return out;
  obs::PhaseTimer timer(&metrics_, nullptr, obs::Phase::kEval);
  data::SemiJoinProgram program =
      data::SemiJoinProgram::Compile(out.witness, *tree);
  data::ExecOptions exec;
  exec.cancel = cancel;
  data::ColumnarEvalResult result;
  if (out.witness.head().empty()) {
    // A Boolean query is decided by the bottom-up reduction alone: no
    // top-down pass, no answer DP.
    int verdict = program.ExecuteBoolean(database, exec, &result.stats);
    result.aborted = verdict < 0;
    if (verdict > 0) result.answers.emplace_back();
  } else {
    result = program.Execute(database, exec);
  }
  out.exec_stats = result.stats;
  metrics_.Add(obs::Counter::kEvalRowsScanned, result.stats.rows_scanned);
  metrics_.Add(obs::Counter::kEvalSemijoinProbes,
               result.stats.semijoin_probes);
  metrics_.Add(obs::Counter::kEvalDpRows, result.stats.dp_rows);
  if (result.aborted) {
    out.status = Status::DeadlineExceeded(
        "evaluation aborted by deadline/cancellation mid-program; the "
        "engine stays reusable");
    return out;
  }
  out.columnar = true;
  out.evaluation.ok = true;
  out.evaluation.answers = std::move(result.answers);
  out.evaluation.semijoin_probes = result.stats.semijoin_probes;
  return out;
}

CacheStats Engine::Stats() const { return decisions_.Stats(); }

void Engine::TrimCaches() const { decisions_.Clear(); }

}  // namespace semacyc
