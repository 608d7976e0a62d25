#include "core/obs.h"

#include <cstdio>
#include <sstream>

namespace semacyc::obs {

const char* ToString(Phase p) {
  switch (p) {
    case Phase::kDecision:
      return "DECISION";
    case Phase::kSchemaAnalyze:
      return "SCHEMA_ANALYZE";
    case Phase::kPrepare:
      return "PREPARE";
    case Phase::kCore:
      return "CORE";
    case Phase::kChase:
      return "CHASE";
    case Phase::kRewrite:
      return "REWRITE";
    case Phase::kOracle:
      return "ORACLE";
    case Phase::kCompaction:
      return "COMPACTION";
    case Phase::kImages:
      return "IMAGES";
    case Phase::kSubsets:
      return "SUBSETS";
    case Phase::kEnumerate:
      return "ENUMERATE";
    case Phase::kHomCheck:
      return "HOM_CHECK";
    case Phase::kEval:
      return "EVAL";
  }
  return "?";
}

const char* ToString(Counter c) {
  switch (c) {
    case Counter::kCandidatesTested:
      return "candidates_tested";
    case Counter::kEnumVisits:
      return "enum_visits";
    case Counter::kClassifierPushes:
      return "classifier_pushes";
    case Counter::kClassifierPops:
      return "classifier_pops";
    case Counter::kHomPushes:
      return "hom_pushes";
    case Counter::kHomDomainWipeouts:
      return "hom_domain_wipeouts";
    case Counter::kHomExtends:
      return "hom_extends";
    case Counter::kHomRepairs:
      return "hom_repairs";
    case Counter::kHomRepairFails:
      return "hom_repair_fails";
    case Counter::kHomDeadPrefix:
      return "hom_dead_prefix";
    case Counter::kOraclePrefiltered:
      return "oracle_prefiltered";
    case Counter::kTracesEmitted:
      return "traces_emitted";
    case Counter::kEvalRowsScanned:
      return "eval_rows_scanned";
    case Counter::kEvalSemijoinProbes:
      return "eval_semijoin_probes";
    case Counter::kEvalDpRows:
      return "eval_dp_rows";
    case Counter::kParallelUnits:
      return "parallel_units";
    case Counter::kParallelSteals:
      return "parallel_steals";
    case Counter::kParallelReplays:
      return "parallel_replays";
    case Counter::kParallelWastedVisits:
      return "parallel_wasted_visits";
    case Counter::kParallelCommitWaits:
      return "parallel_commit_waits";
  }
  return "?";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// DecisionTracer / DecisionTrace
// ---------------------------------------------------------------------------

DecisionTracer::DecisionTracer() : start_(std::chrono::steady_clock::now()) {
  spans_.push_back(Span{});  // kDecision root, parent -1, start 0
  open_.push_back(0);
}

int64_t DecisionTracer::ElapsedNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

size_t DecisionTracer::OpenSpan(Phase phase) {
  Span s;
  s.phase = phase;
  s.parent = static_cast<int32_t>(open_.back());
  s.start_ns = ElapsedNs();
  spans_.push_back(std::move(s));
  size_t index = spans_.size() - 1;
  open_.push_back(index);
  return index;
}

void DecisionTracer::CloseSpan(size_t index) {
  spans_[index].end_ns = ElapsedNs();
  // Spans close in stack discipline; tolerate out-of-order closes by
  // popping through (never happens with RAII PhaseTimers).
  while (open_.size() > 1 && open_.back() >= index) open_.pop_back();
}

void DecisionTracer::AddCounter(size_t index, const char* name,
                                int64_t value) {
  spans_[index].counters.push_back(SpanCounter{name, value});
}

void DecisionTracer::CounterSpan(Phase phase,
                                 std::vector<SpanCounter> counters) {
  Span s;
  s.phase = phase;
  s.parent = static_cast<int32_t>(open_.back());
  s.start_ns = s.end_ns = ElapsedNs();
  s.counters = std::move(counters);
  spans_.push_back(std::move(s));
}

DecisionTrace DecisionTracer::Finish(std::string query, const char* answer,
                                     const char* strategy, bool cached) {
  spans_[0].end_ns = ElapsedNs();
  DecisionTrace trace;
  trace.query = std::move(query);
  trace.answer = answer;
  trace.strategy = strategy;
  trace.cached = cached;
  trace.total_ns = spans_[0].end_ns;
  trace.spans = std::move(spans_);
  spans_.clear();
  open_.clear();
  return trace;
}

std::string DecisionTrace::ToJson() const {
  std::ostringstream os;
  os << "{\"query\": \"" << JsonEscape(query) << "\", \"answer\": \""
     << JsonEscape(answer) << "\", \"strategy\": \"" << JsonEscape(strategy)
     << "\", \"cached\": " << (cached ? "true" : "false")
     << ", \"total_ns\": " << total_ns << ", \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i != 0) os << ", ";
    os << "{\"phase\": \"" << ToString(s.phase) << "\", \"parent\": " << s.parent
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"counters\": {";
    for (size_t j = 0; j < s.counters.size(); ++j) {
      if (j != 0) os << ", ";
      os << "\"" << s.counters[j].name << "\": " << s.counters[j].value;
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

void JsonLinesSink::Consume(const DecisionTrace& trace) {
  std::string line = trace.ToJson();  // render outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out_, "{\"trace\": %s}\n", line.c_str());
  std::fflush(out_);
}

void CollectingSink::Consume(const DecisionTrace& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_back(trace);
}

std::vector<DecisionTrace> CollectingSink::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DecisionTrace> out = std::move(traces_);
  traces_.clear();
  return out;
}

size_t CollectingSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

// ---------------------------------------------------------------------------
// LatencyHistogram / MetricsRegistry
// ---------------------------------------------------------------------------

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  s.max_ns = max_ns_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

MetricsRegistry::MetricsRegistry(std::vector<std::string> strategy_names,
                                 std::vector<std::string> answer_names)
    : strategy_names_(std::move(strategy_names)),
      answer_names_(std::move(answer_names)) {
  strategy_decisions_.reserve(strategy_names_.size());
  strategy_latency_.reserve(strategy_names_.size());
  for (size_t i = 0; i < strategy_names_.size(); ++i) {
    strategy_decisions_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    strategy_latency_.push_back(std::make_unique<LatencyHistogram>());
  }
  answer_decisions_.reserve(answer_names_.size());
  for (size_t i = 0; i < answer_names_.size(); ++i) {
    answer_decisions_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
}

void MetricsRegistry::RecordDecision(size_t strategy, size_t answer,
                                     int64_t ns, bool cached) {
  decisions_total_.fetch_add(1, std::memory_order_relaxed);
  if (cached) decisions_cached_.fetch_add(1, std::memory_order_relaxed);
  if (answer < answer_decisions_.size()) {
    answer_decisions_[answer]->fetch_add(1, std::memory_order_relaxed);
  }
  if (strategy < strategy_decisions_.size()) {
    strategy_decisions_[strategy]->fetch_add(1, std::memory_order_relaxed);
    // Cached decisions skip the latency histogram: a hash lookup's few µs
    // would drown the strategy's real cost distribution.
    if (!cached) strategy_latency_[strategy]->Record(ns);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot s;
  s.decisions_total = decisions_total_.load(std::memory_order_relaxed);
  s.decisions_cached = decisions_cached_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < answer_names_.size(); ++i) {
    s.answers.emplace_back(answer_names_[i],
                           answer_decisions_[i]->load(std::memory_order_relaxed));
  }
  for (size_t i = 0; i < kNumCounters; ++i) {
    s.counters.emplace_back(ToString(static_cast<Counter>(i)),
                            counters_[i].load(std::memory_order_relaxed));
  }
  for (size_t i = 0; i < strategy_names_.size(); ++i) {
    MetricsSnapshot::StrategyRow row;
    row.name = strategy_names_[i];
    row.decisions = strategy_decisions_[i]->load(std::memory_order_relaxed);
    row.latency = strategy_latency_[i]->Snap();
    s.strategies.push_back(std::move(row));
  }
  for (size_t i = 0; i < kNumPhases; ++i) {
    MetricsSnapshot::PhaseRow row;
    row.name = ToString(static_cast<Phase>(i));
    row.latency = phase_latency_[i].Snap();
    s.phases.push_back(std::move(row));
  }
  return s;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot JSON
// ---------------------------------------------------------------------------

namespace {

void HistogramToJson(std::ostringstream& os,
                     const LatencyHistogram::Snapshot& h) {
  os << "{\"count\": " << h.count << ", \"sum_ns\": " << h.sum_ns
     << ", \"max_ns\": " << h.max_ns << ", \"buckets\": [";
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (i != 0) os << ", ";
    os << h.buckets[i];
  }
  os << "]}";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"decisions_total\": " << decisions_total
     << ", \"decisions_cached\": " << decisions_cached << ", \"answers\": {";
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << JsonEscape(answers[i].first) << "\": " << answers[i].second;
  }
  os << "}, \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << JsonEscape(counters[i].first)
       << "\": " << counters[i].second;
  }
  os << "}, \"strategies\": [";
  for (size_t i = 0; i < strategies.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"name\": \"" << JsonEscape(strategies[i].name)
       << "\", \"decisions\": " << strategies[i].decisions
       << ", \"latency\": ";
    HistogramToJson(os, strategies[i].latency);
    os << "}";
  }
  os << "], \"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"name\": \"" << JsonEscape(phases[i].name) << "\", \"latency\": ";
    HistogramToJson(os, phases[i].latency);
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace semacyc::obs
