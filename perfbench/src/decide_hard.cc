// decide-hard: cold decisions of α-cyclic queries whose answer comes out of
// witness search, through the CLI `--batch` line path
// (serve::BatchLineResponse: query line -> decision line).
//
// The queries come from a committed pool (pool.tsv, regenerated with
// `perfbench --make-pool`): per schema class (guarded, non-recursive,
// sticky, egd) and query size (3 and 4 atoms), the pool holds one PAIR of
// random α-cyclic queries with the same verdict and a similar cost at the
// commit that wrote the pool, plus a pair of YES queries where the class and
// size have them. A run's seed picks one member of every pair;
// the run then decides that draw in rounds, each in a fresh order with fresh
// variable names. Every draw has the same composition — the same number of
// decisions per class and size, the same verdict mix — so the figures of two
// seeds are comparable, while the committed verdicts give each query a known
// answer to regress against.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "acyclic/oracle.h"
#include "bench.h"
#include "chase/dependency.h"
#include "core/canonical.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "json_fields.h"
#include "semacyc/engine.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using semacyc::ConjunctiveQuery;
using semacyc::DependencySet;
using semacyc::Engine;
using semacyc::SemAcOptions;

struct HardSchema {
  const char* name;
  const char* sigma;
  std::vector<std::pair<const char*, int>> predicates;
};

/// One schema per class the paper decides SemAc for: guarded tgds
/// (chase-based oracle), a non-recursive set and a recursive sticky set
/// (UCQ-rewriting oracles), and a key (egd chase).
const std::vector<HardSchema>& Schemas() {
  static const std::vector<HardSchema> kSchemas = {
      {"guarded", "T(x,y) -> E(y,z), E(z,x).", {{"T", 2}, {"E", 2}}},
      {"nr", "B1(x,y), B2(y,z) -> B3(z,x).", {{"B1", 2}, {"B2", 2}, {"B3", 2}}},
      {"sticky", "R(x,y), P(y,z) -> P(y,x).", {{"R", 2}, {"P", 2}}},
      {"egd", "R(a,b), R(a,c) -> b = c.", {{"R", 2}, {"E", 2}}},
  };
  return kSchemas;
}

/// The workload's decision options: the production options with both
/// witness-search budgets cut thirtyfold (subsets 6.7k, exhaustive 10k
/// visits). A budget-exhausted decision then takes 30-90 ms instead of
/// 1-2 s, so a run decides every query about a hundred times and its best
/// time comes from many samples (README.md, "Why best-of"). The search runs
/// the same code per visit; only where it stops moves.
SemAcOptions DecideOptions() {
  SemAcOptions options;
  options.subset_budget /= 30;
  options.exhaustive_budget /= 30;
  return options;
}

const HardSchema* SchemaNamed(const std::string& name) {
  for (const HardSchema& s : Schemas()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// A random body of `atoms` atoms over the schema's predicates and the
/// variables x0..x<atoms-1>; callers keep only α-cyclic draws.
std::string RandomBody(const HardSchema& s, int atoms, std::mt19937_64* rng) {
  std::string body;
  for (int i = 0; i < atoms; ++i) {
    const auto& p = s.predicates[(*rng)() % s.predicates.size()];
    body += (i ? ", " : "") + std::string(p.first) + "(";
    for (int a = 0; a < p.second; ++a) {
      body += (a ? "," : "") + std::string("x") +
              std::to_string((*rng)() % static_cast<uint64_t>(atoms));
    }
    body += ")";
  }
  return body;
}

/// Renames every variable x<k> of a pool query to <prefix><k>. Pool
/// queries use no other identifiers in argument position, and the
/// rename keeps first-occurrence order, so the search runs the same steps.
std::string Rename(const std::string& text, const std::string& prefix) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    bool at_arg = i > 0 && (text[i - 1] == '(' || text[i - 1] == ',');
    if (at_arg && text[i] == 'x' && i + 1 < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
      out += prefix;
    } else {
      out += text[i];
    }
  }
  return out;
}

struct Verdict {
  std::string answer;
  bool exact = false;
  std::string strategy;
  uint64_t candidates = 0;
};

Verdict VerdictOf(const std::string& line) {
  Verdict v;
  v.answer = JsonString(line, "answer").value_or("");
  v.strategy = JsonString(line, "strategy").value_or("");
  v.exact = JsonToken(line, "exact").value_or("") == "true";
  v.candidates = std::stoull(JsonToken(line, "candidates").value_or("0"));
  return v;
}

bool Definitive(const Verdict& v) {
  return v.answer == "yes" || (v.answer == "no" && v.exact);
}

/// Strategies that answer before any witness search runs; the pool keeps
/// only queries that reach the search.
bool CheapStrategy(const std::string& s) {
  return s == "already-acyclic" || s == "core" || s == "failing-chase" ||
         s == "chase-compaction" || s == "images";
}

struct PoolEntry {
  std::string cls;
  int pair = 0;
  std::string query;
  Verdict verdict;
};

std::vector<PoolEntry> LoadPool(const std::string& path, std::string* error) {
  std::ifstream in(path);
  std::vector<PoolEntry> out;
  if (!in) {
    *error = "cannot read " + path;
    return out;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, '\t')) f.push_back(field);
    if (f.size() < 9 || SchemaNamed(f[0]) == nullptr) {
      *error = "malformed pool line: " + line;
      return {};
    }
    PoolEntry e;
    e.cls = f[0];
    e.pair = std::stoi(f[2]);
    e.query = f[4];
    e.verdict.answer = f[5];
    e.verdict.exact = f[6] == "1";
    e.verdict.strategy = f[7];
    e.verdict.candidates = std::stoull(f[8]);
    out.push_back(std::move(e));
  }
  return out;
}

/// The regression rule against the committed verdict: YES stays YES, an
/// exact NO stays an exact NO; an UNKNOWN may become anything definitive.
std::string RegressionOf(const Verdict& committed, const Verdict& now) {
  if (now.answer == "unknown" && committed.answer != "unknown") {
    return "definitive verdict regressed to unknown";
  }
  if (committed.answer == "yes" && now.answer != "yes") return "YES lost";
  if (committed.answer == "no" && committed.exact &&
      !(now.answer == "no" && now.exact)) {
    return "exact NO lost";
  }
  if (now.answer == "no" && !now.exact) return "inexact NO";
  return "";
}

/// Renames every variable of a rendered query to w<k>, one name per
/// distinct variable. Witnesses of the subsets and exhaustive strategies
/// carry the engine's pooled names ("s$3"), which ParseQuery does not
/// accept; the renaming keeps the query's shape.
std::string WithParseableVariables(const std::string& text) {
  std::map<std::string, std::string> names;
  std::string out;
  char last = 0;  // last non-blank character copied
  for (size_t i = 0; i < text.size();) {
    auto ident = [&](size_t k) {
      unsigned char c = static_cast<unsigned char>(text[k]);
      return std::isalnum(c) || c == '_' || c == '$';
    };
    bool variable = (last == '(' || last == ',') && ident(i) &&
                    !std::isdigit(static_cast<unsigned char>(text[i]));
    if (!variable) {
      if (!std::isspace(static_cast<unsigned char>(text[i]))) last = text[i];
      out += text[i++];
      continue;
    }
    size_t end = i;
    while (end < text.size() && ident(end)) ++end;
    std::string name = text.substr(i, end - i);
    auto it = names.emplace(name, "w" + std::to_string(names.size())).first;
    out += it->second;
    last = 'w';
    i = end;
  }
  return out;
}

/// A YES line's witness must parse and pass the brute-force α check of
/// acyclic/oracle.h (shares no code with the engine's classifier).
bool WitnessIsAlphaAcyclic(const std::string& line) {
  std::optional<std::string> w = JsonString(line, "witness");
  if (!w) return false;
  semacyc::ParseResult<ConjunctiveQuery> q =
      semacyc::ParseQuery(WithParseableVariables(*w));
  if (!q.ok()) return false;
  semacyc::Hypergraph hg = semacyc::Hypergraph::FromAtoms(
      q->body(), semacyc::ConnectingTerms::kVariables);
  return semacyc::acyclic::OracleAlpha(semacyc::ToAcyclicHypergraph(hg));
}

struct Op {
  size_t entry = 0;
  std::string text;
  std::string line;
  double ms = 0;          // the decision line
  double oneshot_ms = 0;  // parse Σ, build the engine, decide the line
};

}  // namespace

int MakePool(uint64_t pool_seed) {
  constexpr size_t kCandidates = 8;
  constexpr size_t kYesScreens = 200;
  std::printf(
      "# decide-hard pool: class, atoms, pair, member, query, answer, exact,\n"
      "# strategy, candidates_tested, ms (cold decision, the workload's\n"
      "# options: production with witness-search budgets cut thirtyfold,\n"
      "# on the host that wrote the pool). Per class and size: a pair with\n"
      "# the first draw's verdict, matched on cost, and a YES pair where the\n"
      "# draws have one. Written by `perfbench --make-pool %llu`; the cost\n"
      "# match follows the host's timing, so a rewrite may pick other pairs\n"
      "# of the same verdicts.\n",
      static_cast<unsigned long long>(pool_seed));
  int pair_id = 0;
  for (const HardSchema& schema : Schemas()) {
    DependencySet sigma = semacyc::MustParseDependencySet(schema.sigma);
    for (int atoms : {3, 4}) {
      std::mt19937_64 rng(pool_seed * 1000003ull + Fnv1a(schema.name) +
                          static_cast<uint64_t>(atoms));
      struct Candidate {
        std::string body;
        Verdict verdict;
        double ms = 0;
      };
      std::vector<Candidate> cands;
      std::vector<ConjunctiveQuery> seen;
      for (int draw = 0; draw < 2000 && cands.size() < kCandidates; ++draw) {
        std::string body = RandomBody(schema, atoms, &rng);
        ConjunctiveQuery q = semacyc::MustParseQuery(body);
        if (semacyc::ClassifyQuery(q).cls !=
            semacyc::acyclic::AcyclicityClass::kCyclic) {
          continue;
        }
        bool dup = false;
        for (const ConjunctiveQuery& s : seen) {
          dup = dup || semacyc::AreIsomorphic(s, q);
        }
        if (dup) continue;
        seen.push_back(q);
        Engine engine(sigma, DecideOptions());
        Clock::time_point t0 = Clock::now();
        std::string line =
            *semacyc::serve::BatchLineResponse(engine, body, 0, nullptr);
        double ms = SecondsSince(t0) * 1e3;
        Verdict v = VerdictOf(line);
        if (CheapStrategy(v.strategy)) continue;
        cands.push_back({body, v, ms});
      }
      // The pair: two candidates with the verdict of the first draw, the
      // two closest in cost among them.
      int best_i = -1, best_j = -1;
      double best_gap = 1e18;
      for (size_t i = 0; i < cands.size(); ++i) {
        for (size_t j = i + 1; j < cands.size(); ++j) {
          const Verdict& first = cands[0].verdict;
          if (cands[i].verdict.answer != first.answer ||
              cands[i].verdict.exact != first.exact ||
              cands[j].verdict.answer != first.answer ||
              cands[j].verdict.exact != first.exact) {
            continue;
          }
          double gap = std::abs(cands[i].ms - cands[j].ms) /
                       std::max(cands[i].ms, 1e-3);
          if (gap < best_gap) {
            best_gap = gap;
            best_i = static_cast<int>(i);
            best_j = static_cast<int>(j);
          }
        }
      }
      if (best_i < 0) {
        std::fprintf(stderr, "no same-verdict pair for %s/%d\n", schema.name,
                     atoms);
        return 1;
      }
      auto print_pair = [&](const Candidate& a, const Candidate& b) {
        int member = 0;
        for (const Candidate* c : {&a, &b}) {
          std::printf("%s\t%d\t%d\t%d\t%s\t%s\t%d\t%s\t%llu\t%.1f\n",
                      schema.name, atoms, pair_id, member++, c->body.c_str(),
                      c->verdict.answer.c_str(), c->verdict.exact ? 1 : 0,
                      c->verdict.strategy.c_str(),
                      static_cast<unsigned long long>(c->verdict.candidates),
                      c->ms);
        }
        std::fflush(stdout);
        ++pair_id;
      };
      print_pair(cands[static_cast<size_t>(best_i)],
                 cands[static_cast<size_t>(best_j)]);

      // The YES pair: the first two draws (of a stream of their own) that
      // the witness search answers YES, so the witness check runs on every
      // draw. Strata without two such draws get no YES pair.
      std::mt19937_64 yes_rng(pool_seed * 1000003ull + Fnv1a(schema.name) +
                              static_cast<uint64_t>(atoms) + 0x5e5);
      std::vector<Candidate> yes;
      std::vector<ConjunctiveQuery> yes_seen;
      for (int draw = 0; draw < 2000 && yes.size() < 2 &&
                         yes_seen.size() < kYesScreens;
           ++draw) {
        std::string body = RandomBody(schema, atoms, &yes_rng);
        ConjunctiveQuery q = semacyc::MustParseQuery(body);
        if (semacyc::ClassifyQuery(q).cls !=
            semacyc::acyclic::AcyclicityClass::kCyclic) {
          continue;
        }
        bool dup = false;
        for (const ConjunctiveQuery& s : yes_seen) {
          dup = dup || semacyc::AreIsomorphic(s, q);
        }
        if (dup) continue;
        yes_seen.push_back(q);
        Engine engine(sigma, DecideOptions());
        Clock::time_point t0 = Clock::now();
        std::string line =
            *semacyc::serve::BatchLineResponse(engine, body, 0, nullptr);
        double ms = SecondsSince(t0) * 1e3;
        Verdict v = VerdictOf(line);
        if (v.answer != "yes" || CheapStrategy(v.strategy)) continue;
        yes.push_back({body, v, ms});
      }
      if (yes.size() == 2) {
        print_pair(yes[0], yes[1]);
      } else {
        std::fprintf(stderr, "no YES pair for %s/%d\n", schema.name, atoms);
      }
    }
  }
  return 0;
}

RunResult RunDecideHard(const RunContext& ctx, Tracer* trace) {
  RunResult r;
  std::string error;
  std::vector<PoolEntry> pool = LoadPool(ctx.pool_path, &error);
  r.Check(!pool.empty(), "decide-hard pool: " + error);
  if (pool.empty()) return r;
  std::map<int, std::vector<size_t>> pairs;
  for (size_t i = 0; i < pool.size(); ++i) pairs[pool[i].pair].push_back(i);
  const SemAcOptions options = DecideOptions();

  // The draw: one member of every pair, picked by the seed.
  std::mt19937_64 rng(ctx.seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<size_t> draw;
  for (auto& [pair, members] : pairs) {
    r.Check(members.size() == 2, "pool pair " + std::to_string(pair) +
                                     " does not have two members");
    if (members.size() == 2) draw.push_back(members[rng() % 2]);
  }
  if (r.failed > 0) return r;

  // Set-up: schema analysis to a ready engine per class (the first request
  // of a one-shot CLI call). It is timed kSetupsPerDecision times before
  // every decision, so its samples spread over the host's phases like the
  // decisions do; the median is reported.
  constexpr int kSetupsPerDecision = 5;
  std::vector<double> setups;
  auto set_up = [&] {
    Clock::time_point t0 = Clock::now();
    for (const HardSchema& s : Schemas()) {
      Engine engine(semacyc::MustParseDependencySet(s.sigma), options);
      std::optional<std::string> line = semacyc::serve::BatchLineResponse(
          engine, "q(x) :- A(x,y), B(y,z)", 0, nullptr);
      if (setups.empty()) {
        r.Check(line && line->find("\"answer\": \"yes\"") != std::string::npos,
                "set-up probe did not answer yes");
      }
    }
    setups.push_back(SecondsSince(t0));
  };

  // Rounds over the draw — each in a fresh order, with fresh variable
  // names, every decision on a fresh engine — until --seconds have passed
  // (at least kMinRounds). A query's time is its best round: the host's
  // speed moves in phases, and the best of about a hundred rounds spread
  // over the run is what repeats from run to run (README.md).
  constexpr int kMinRounds = 2;
  std::vector<std::vector<Op>> rounds;
  EngineDelta total;
  std::vector<double> parse_us, render_us;
  ResetPeakRss();
  Clock::time_point start = Clock::now();
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         SecondsSince(start) < ctx.seconds) {
    std::vector<size_t> order(draw.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    std::string prefix = "v" + std::to_string(rng() % 100000) + "_";
    std::vector<Op> ops(draw.size());
    for (size_t slot : order) {
      const PoolEntry& e = pool[draw[slot]];
      Op& op = ops[slot];
      op.entry = draw[slot];
      op.text = Rename(e.query, prefix);
      for (int rep = 0; rep < kSetupsPerDecision; ++rep) set_up();
      // Cold, as one `semacyc_cli '<query>' '<deps>'` call: Σ parsed and
      // the engine built inside the one-shot time.
      Clock::time_point c0 = Clock::now();
      Engine engine(semacyc::MustParseDependencySet(SchemaNamed(e.cls)->sigma),
                    options);
      double build_ms = SecondsSince(c0) * 1e3;
      EngineDelta before = EngineDelta::Of(engine.Metrics());
      double parse_ns = 0;
      if (trace->on()) {
        Clock::time_point p0 = Clock::now();
        semacyc::ParseResult<ConjunctiveQuery> parsed =
            semacyc::ParseQuery(op.text);
        parse_ns = static_cast<double>(NsBetween(p0, Clock::now()));
        r.Check(parsed.ok(), "pool query does not parse: " + op.text);
      }
      uint64_t request = rounds.size() * draw.size() + slot + 1;
      Clock::time_point t0 = Clock::now();
      int span = trace->Open("serve::BatchLineResponse", "serve", -1, request);
      op.line = *semacyc::serve::BatchLineResponse(engine, op.text, 0, nullptr);
      trace->Close(span);
      op.ms = SecondsSince(t0) * 1e3;
      op.oneshot_ms = build_ms + op.ms;
      EngineDelta d = EngineDelta::Of(engine.Metrics()).Minus(before);
      if (trace->on()) {
        trace->Derived("ParseQuery", "core", span, request,
                       static_cast<int64_t>(parse_ns));
        AttachPhases(trace, span, request, d);
        parse_us.push_back(parse_ns / 1e3);
        render_us.push_back(op.ms * 1e3 - parse_ns / 1e3 -
                            (d.PhaseMs("PREPARE") + d.PhaseMs("DECISION")) *
                                1e3);
      }
      total.Add(d);
    }
    rounds.push_back(std::move(ops));
  }
  r.NotePeakRss();

  // Output checks: the first round against the committed verdicts; every
  // later round must repeat the first round's verdict and candidate count.
  size_t definitive = 0;
  std::vector<double> best_ms(draw.size()), best_oneshot_ms(draw.size());
  for (size_t slot = 0; slot < draw.size(); ++slot) {
    const Op& first = rounds[0][slot];
    Verdict v = VerdictOf(first.line);
    std::string regression = RegressionOf(pool[first.entry].verdict, v);
    r.Check(regression.empty(),
            regression + ": " + first.text + " -> " + first.line);
    if (Definitive(v)) ++definitive;
    std::vector<double> ms, oneshot_ms;
    for (const std::vector<Op>& round : rounds) {
      const Op& op = round[slot];
      Verdict again = VerdictOf(op.line);
      r.Check(again.answer == v.answer && again.exact == v.exact &&
                  again.strategy == v.strategy &&
                  again.candidates == v.candidates,
              "repeated decision differs: " + first.line + " vs " + op.line);
      if (again.answer == "yes") {
        r.Check(WitnessIsAlphaAcyclic(op.line),
                "YES witness fails the brute-force alpha check: " + op.line);
      }
      ms.push_back(op.ms);
      oneshot_ms.push_back(op.oneshot_ms);
    }
    best_ms[slot] = *std::min_element(ms.begin(), ms.end());
    best_oneshot_ms[slot] =
        *std::min_element(oneshot_ms.begin(), oneshot_ms.end());
  }
  double busy_s = 0, oneshot_s = 0;
  for (size_t slot = 0; slot < draw.size(); ++slot) {
    busy_s += best_ms[slot] / 1e3;
    oneshot_s += best_oneshot_ms[slot] / 1e3;
  }
  double decisions = static_cast<double>(draw.size());
  r.e2e.Set("setup_s", Median(setups), "s");
  r.e2e.Set("definitive_share", static_cast<double>(definitive) / decisions,
            "ratio");
  r.e2e.Set("ops_per_s", decisions / busy_s, "1/s");
  r.e2e.Set("op_p50_ms", Median(best_ms), "ms");
  r.e2e.Set("oneshot_s", oneshot_s, "s");

  double n = static_cast<double>(rounds.size() * draw.size());
  SetEngineLayerMetrics(total, n, &r.layer);
  if (trace->on()) {
    double sum_parse = 0, sum_render = 0;
    for (double v : parse_us) sum_parse += v;
    for (double v : render_us) sum_render += v;
    r.layer.Set("core.query_parse_us", sum_parse / n, "us/op");
    r.layer.Set("serve.render_us", sum_render / n, "us/op");
    SetSelfTimes(*trace, n, &r.layer);
  }
  return r;
}

}  // namespace perfbench
