#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "metric_names.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
  // Return freed heap to the system first, so the new window starts from
  // the live data rather than from what earlier phases left cached.
  malloc_trim(0);
  // "5" resets the peak resident set size (proc(5), clear_refs).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

int Tracer::Open(const char* name, const char* layer, int parent,
                 uint64_t request) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = NsBetween(origin_, Clock::now());
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::Close(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NsBetween(origin_, Clock::now());
}

int Tracer::Record(const char* name, const char* layer, int parent,
                   uint64_t request, Clock::time_point start,
                   Clock::time_point end) {
  int id = Open(name, layer, parent, request);
  if (id >= 0) {
    spans_[static_cast<size_t>(id)].start_ns = NsBetween(origin_, start);
    spans_[static_cast<size_t>(id)].end_ns = NsBetween(origin_, end);
  }
  return id;
}

void Tracer::Derived(const char* name, const char* layer, int parent,
                     uint64_t request, int64_t duration_ns) {
  if (!on_ || duration_ns <= 0) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = parent >= 0 ? spans_[static_cast<size_t>(parent)].start_ns : 0;
  s.end_ns = s.start_ns + duration_ns;
  s.parent = parent;
  s.request = request;
  s.derived = true;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    int64_t self = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    // Derived children are histogram deltas, not intervals; rounding can
    // make them exceed the span they sit under by a few microseconds.
    out[spans_[i].layer] += static_cast<double>(std::max<int64_t>(self, 0)) / 1e6;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"layer\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu, "
                 "\"derived\": %s}\n",
                 s.name.c_str(), s.layer.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request),
                 s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

bool MetricSet::Has(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second.first;
  }
  return 0.0;
}

EngineDelta EngineDelta::Of(const semacyc::obs::MetricsSnapshot& s) {
  EngineDelta d;
  for (const auto& [name, value] : s.counters) d.counters[name] = value;
  for (const auto& row : s.phases) d.phase_ns[row.name] = row.latency.sum_ns;
  d.decisions = s.decisions_total;
  d.decisions_cached = s.decisions_cached;
  return d;
}

EngineDelta EngineDelta::Minus(const EngineDelta& before) const {
  EngineDelta d = *this;
  for (auto& [name, value] : d.counters) value -= before.Counter(name);
  for (auto& [name, value] : d.phase_ns) {
    auto it = before.phase_ns.find(name);
    if (it != before.phase_ns.end()) value -= it->second;
  }
  d.decisions -= before.decisions;
  d.decisions_cached -= before.decisions_cached;
  return d;
}

void EngineDelta::Add(const EngineDelta& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.phase_ns) phase_ns[name] += value;
  decisions += other.decisions;
  decisions_cached += other.decisions_cached;
}

uint64_t EngineDelta::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double EngineDelta::PhaseMs(const std::string& name) const {
  auto it = phase_ns.find(name);
  return it == phase_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

namespace {

int64_t PhaseNs(const EngineDelta& d, const char* name) {
  auto it = d.phase_ns.find(name);
  return it == d.phase_ns.end() ? 0 : static_cast<int64_t>(it->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void AttachPhases(Tracer* tracer, int parent, uint64_t request,
                  const EngineDelta& d) {
  if (!tracer->on()) return;
  // The phases Engine::Decide runs in sequence; REWRITE happens inside
  // ORACLE (the oracle's construction builds the rewriting), so it is
  // attributed under it.
  struct PhaseLayer {
    const char* phase;
    const char* layer;
  };
  static const PhaseLayer kDecidePhases[] = {
      {"CORE", "semacyc"},       {"CHASE", "chase"},
      {"COMPACTION", "semacyc"}, {"IMAGES", "semacyc"},
      {"SUBSETS", "semacyc"},    {"ENUMERATE", "semacyc"},
  };
  int64_t decision_ns = PhaseNs(d, "DECISION");
  if (PhaseNs(d, "PREPARE") > 0) {
    tracer->Derived("Engine::Prepare", "semacyc", parent, request,
                    PhaseNs(d, "PREPARE"));
  }
  if (decision_ns <= 0) return;
  tracer->Derived("Engine::Decide", "semacyc", parent, request, decision_ns);
  int decide = static_cast<int>(tracer->size()) - 1;
  for (const PhaseLayer& p : kDecidePhases) {
    tracer->Derived(p.phase, p.layer, decide, request, PhaseNs(d, p.phase));
  }
  int64_t oracle_ns = PhaseNs(d, "ORACLE");
  if (oracle_ns > 0) {
    tracer->Derived("ORACLE", "semacyc", decide, request, oracle_ns);
    int oracle = static_cast<int>(tracer->size()) - 1;
    tracer->Derived("REWRITE", "rewrite", oracle, request,
                    std::min(PhaseNs(d, "REWRITE"), oracle_ns));
  }
  int64_t eval_ns = PhaseNs(d, "EVAL");
  if (eval_ns > 0) {
    tracer->Derived("EVAL", "eval", parent, request, eval_ns);
  }
}

void SetEngineLayerMetrics(const EngineDelta& d, double ops, MetricSet* out) {
  double n = std::max(ops, 1.0);
  double visits = static_cast<double>(d.Counter("enum_visits"));
  double cands = static_cast<double>(d.Counter("candidates_tested"));
  double enum_ms = d.PhaseMs("ENUMERATE");
  double subsets_ms = d.PhaseMs("SUBSETS");
  out->Set("semacyc.enumerate_ms", enum_ms / n, "ms/op");
  out->Set("semacyc.subsets_ms", subsets_ms / n, "ms/op");
  out->Set("semacyc.enum_visits", visits / n, "count/op");
  out->Set("semacyc.visits_per_s",
           Ratio(visits, (enum_ms + subsets_ms) / 1e3), "1/s");
  out->Set("semacyc.candidates_tested", cands / n, "count/op");
  out->Set("semacyc.candidates_per_kvisit", Ratio(cands, visits / 1e3),
           "ratio");
  double pushes = static_cast<double>(d.Counter("hom_pushes"));
  out->Set("core.hom_pushes", pushes / n, "count/op");
  out->Set("core.hom_wipeout_ratio",
           Ratio(static_cast<double>(d.Counter("hom_domain_wipeouts")), pushes),
           "ratio");
  out->Set("core.hom_repair_fail_ratio",
           Ratio(static_cast<double>(d.Counter("hom_repair_fails")),
                 static_cast<double>(d.Counter("hom_repairs"))),
           "ratio");
  out->Set("acyclic.classifier_pushes",
           static_cast<double>(d.Counter("classifier_pushes")) / n,
           "count/op");
  double memo_hits = static_cast<double>(d.Counter("oracle_memo_hits"));
  double memo_misses = static_cast<double>(d.Counter("oracle_memo_misses"));
  out->Set("semacyc.oracle_memo_hit_ratio",
           Ratio(memo_hits, memo_hits + memo_misses), "ratio");
  out->Set("semacyc.oracle_prefiltered",
           static_cast<double>(d.Counter("oracle_prefiltered")) / n,
           "count/op");
  out->Set("semacyc.prepare_us", d.PhaseMs("PREPARE") * 1e3 / n, "us/op");
  out->Set("semacyc.core_ms", d.PhaseMs("CORE") / n, "ms/op");
  out->Set("chase.chase_ms", d.PhaseMs("CHASE") / n, "ms/op");
  out->Set("semacyc.oracle_ms", d.PhaseMs("ORACLE") / n, "ms/op");
  out->Set("semacyc.compaction_ms", d.PhaseMs("COMPACTION") / n, "ms/op");
  out->Set("semacyc.images_ms", d.PhaseMs("IMAGES") / n, "ms/op");
  out->Set("semacyc.decide_ms", d.PhaseMs("DECISION") / n, "ms/op");
  out->Set("semacyc.decision_cache_hit_ratio",
           Ratio(static_cast<double>(d.decisions_cached),
                 static_cast<double>(d.decisions)),
           "ratio");
  out->Set("data.rows_scanned",
           static_cast<double>(d.Counter("eval_rows_scanned")) / n,
           "count/op");
  out->Set("data.semijoin_probes",
           static_cast<double>(d.Counter("eval_semijoin_probes")) / n,
           "count/op");
  out->Set("data.dp_rows", static_cast<double>(d.Counter("eval_dp_rows")) / n,
           "count/op");
  out->Set("eval.eval_ms", d.PhaseMs("EVAL") / n, "ms/op");
}

void FillMissingLayerMetrics(MetricSet* out) {
  for (const MetricName& m : kLayerMetrics) {
    if (!out->Has(m.name)) out->Set(m.name, 0.0, m.unit);
  }
}

void SetSelfTimes(const Tracer& tracer, double ops, MetricSet* out) {
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  double n = std::max(ops, 1.0);
  for (const char* layer :
       {"core", "semacyc", "chase", "data", "eval", "serve"}) {
    auto it = self.find(layer);
    out->Set(std::string(layer) + ".self_ms",
             it == self.end() ? 0.0 : it->second / n, "ms/op");
  }
  out->Set("trace.spans", static_cast<double>(tracer.size()) / n, "count/op");
}

}  // namespace perfbench
