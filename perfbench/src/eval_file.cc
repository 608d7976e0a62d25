// eval-file: the `semacyc_cli --eval --db FILE` path — fact file -> loaded
// columnar instance -> answers through serve::EvalResponse.
//
// Four seeded fact files of known shape, written by this file with quoted
// constants (the loader rejects bare identifiers as non-ground):
//   * star:  R1..R4(hub, spoke), 31.25k distinct rows each over 250 hubs
//            and 25k spokes;
//   * path:  E1..E4(a, b), 31.25k distinct edges each over 2.5k nodes;
//   * skew:  Rsk(x, y), Ssk(y, z), 62.5k rows each, y power-law distributed
//            (u^2 over 1.25k keys) — hot join keys;
//   * music: Example 1 — Interest, Class and Owns closed under the tgd
//            Interest(x,z), Class(y,z) -> Owns(x,y) (~2.5*10^4 rows), queried
//            with the cyclic Interest(x,z), Class(y,z), Owns(x,y), which
//            only evaluates through its acyclic reformulation.
// About 4*10^5 tuples in all: a file of 1.25*10^5 rows loads in ~0.13 s, so
// a run loads every file some seventy times (README.md, "Why best-of").
// Each file gets full-scan head variants, a Boolean variant and constant
// selections (constants drawn from the file); domains keep every answer
// set small enough to be rendered in full. Loading is the "write" side,
// repeated queries over the loaded instance the "read" side, so an index
// that moves cost between them shows in both metrics.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <fstream>
#include <set>
#include <unordered_set>

#include "bench.h"
#include "chase/dependency.h"
#include "core/hypergraph.h"
#include "core/join_tree.h"
#include "core/parser.h"
#include "data/columnar.h"
#include "data/semijoin_program.h"
#include "json_fields.h"
#include "semacyc/engine.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using semacyc::Engine;
using semacyc::data::ColumnarInstance;

constexpr size_t kMaxAnswers = 1000000;
constexpr const char* kMusicSigma = "Interest(x,z), Class(y,z) -> Owns(x,y).";

struct FactFile {
  std::string name;
  std::string sigma;  // dependency text ("" = none)
  std::string text;   // the fact file
  std::vector<std::string> queries;
};

void Fact(std::string* out, const char* pred, const std::string& a,
          const std::string& b) {
  *out += pred;
  *out += "('";
  *out += a;
  *out += "','";
  *out += b;
  *out += "')\n";
}

std::string Id(char prefix, uint64_t k) {
  return std::string(1, prefix) + std::to_string(k);
}

/// `rows` distinct pairs drawn by `draw`.
template <typename Draw>
std::vector<std::pair<uint64_t, uint64_t>> DistinctPairs(size_t rows,
                                                        Draw draw) {
  std::unordered_set<uint64_t> seen;
  seen.reserve(rows * 2);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(rows);
  while (out.size() < rows) {
    std::pair<uint64_t, uint64_t> p = draw();
    if (seen.insert(p.first * 4294967296ull + p.second).second) {
      out.push_back(p);
    }
  }
  return out;
}

FactFile Star(std::mt19937_64& rng) {
  constexpr size_t kRows = 31250;
  constexpr uint64_t kHubs = 250, kSpokes = 25000;
  FactFile f;
  f.name = "star";
  std::vector<std::pair<uint64_t, uint64_t>> first;
  for (int r = 0; r < 4; ++r) {
    auto rel = DistinctPairs(kRows, [&] {
      return std::make_pair(rng() % kHubs, rng() % kSpokes);
    });
    std::string pred = "R" + std::to_string(r + 1);
    for (const auto& [h, s] : rel) Fact(&f.text, pred.c_str(), Id('h', h), Id('s', s));
    if (r == 0) first = std::move(rel);
  }
  const auto& pick = first[rng() % kRows];
  std::string hub = Id('h', pick.first), spoke = Id('s', pick.second);
  f.queries = {
      "q(x) :- R1(x,y1), R2(x,y2), R3(x,y3), R4(x,y4)",
      "q() :- R1(x,y1), R2(x,y2), R3(x,y3), R4(x,y4)",
      "q(x) :- R1(x,y1), R2(x,y2), R3(x,y3)",
      "q(x) :- R2(x,y2), R3(x,y3), R4(x,y4), R1(x,'" + spoke + "')",
      "q(y4) :- R1('" + hub + "',y1), R4('" + hub + "',y4)",
  };
  return f;
}

FactFile Path(std::mt19937_64& rng) {
  constexpr size_t kRows = 31250;
  constexpr uint64_t kNodes = 2500;
  FactFile f;
  f.name = "path";
  std::vector<std::pair<uint64_t, uint64_t>> first;
  for (int r = 0; r < 4; ++r) {
    auto rel = DistinctPairs(kRows, [&] {
      return std::make_pair(rng() % kNodes, rng() % kNodes);
    });
    std::string pred = "E" + std::to_string(r + 1);
    for (const auto& [a, b] : rel) Fact(&f.text, pred.c_str(), Id('v', a), Id('v', b));
    if (r == 0) first = std::move(rel);
  }
  std::string start = Id('v', first[rng() % kRows].first);
  f.queries = {
      "q(x0) :- E1(x0,x1), E2(x1,x2), E3(x2,x3), E4(x3,x4)",
      "q() :- E1(x0,x1), E2(x1,x2), E3(x2,x3), E4(x3,x4)",
      "q(x3) :- E1(x0,x1), E2(x1,x2), E3(x2,x3)",
      "q(x4) :- E1('" + start + "',x1), E2(x1,x2), E3(x2,x3), E4(x3,x4)",
      "q(x2) :- E1('" + start + "',x1), E2(x1,x2)",
  };
  return f;
}

FactFile Skew(std::mt19937_64& rng) {
  constexpr size_t kRows = 62500;
  constexpr uint64_t kKeys = 1250, kLeft = 25000, kRight = 250;
  FactFile f;
  f.name = "skew";
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto hot = [&] {
    double x = u(rng);
    return static_cast<uint64_t>(static_cast<double>(kKeys) * x * x);
  };
  auto r = DistinctPairs(kRows, [&] {
    return std::make_pair(rng() % kLeft, hot());
  });
  auto s = DistinctPairs(kRows, [&] {
    return std::make_pair(hot(), rng() % kRight);
  });
  for (const auto& [x, y] : r) Fact(&f.text, "Rsk", Id('a', x), Id('k', y));
  for (const auto& [y, z] : s) Fact(&f.text, "Ssk", Id('k', y), Id('z', z));
  std::string z = Id('z', s[rng() % kRows].second);
  std::string key = Id('k', r[rng() % kRows].second);
  f.queries = {
      "q(z) :- Rsk(x,y), Ssk(y,z)",
      "q() :- Rsk(x,y), Ssk(y,z)",
      "q(y) :- Rsk(x,y), Ssk(y,'" + z + "')",
      "q(x) :- Rsk(x,'" + key + "'), Ssk('" + key + "',z)",
  };
  return f;
}

FactFile Music(std::mt19937_64& rng) {
  constexpr uint64_t kCustomers = 250, kStyles = 50, kRecords = 2500;
  FactFile f;
  f.name = "music";
  f.sigma = kMusicSigma;
  std::vector<std::vector<uint64_t>> records_of(kStyles);
  for (uint64_t r = 0; r < kRecords; ++r) {
    uint64_t s = rng() % kStyles;
    records_of[s].push_back(r);
    Fact(&f.text, "Class", Id('r', r), Id('s', s));
  }
  std::set<std::pair<uint64_t, uint64_t>> owns;
  for (uint64_t c = 0; c < kCustomers; ++c) {
    std::set<uint64_t> styles = {rng() % kStyles, rng() % kStyles};
    for (uint64_t s : styles) {
      Fact(&f.text, "Interest", Id('c', c), Id('s', s));
      for (uint64_t r : records_of[s]) owns.insert({c, r});  // the tgd
    }
    for (int extra = 0; extra < 10; ++extra) {
      owns.insert({c, rng() % kRecords});
    }
  }
  for (const auto& [c, r] : owns) Fact(&f.text, "Owns", Id('c', c), Id('r', r));
  std::string c = Id('c', rng() % kCustomers);
  std::string rec = Id('r', rng() % kRecords);
  f.queries = {
      "q(z) :- Interest(x,z), Class(y,z), Owns(x,y)",
      "q() :- Interest(x,z), Class(y,z), Owns(x,y)",
      "q(y) :- Interest('" + c + "',z), Class(y,z), Owns('" + c + "',y)",
      "q(x) :- Interest(x,z), Class('" + rec + "',z), Owns(x,'" + rec + "')",
  };
  return f;
}

/// Answer tuples of an EvalResponse line, each rendered "a|b|...".
std::vector<std::string> AnswersOf(const std::string& line) {
  std::vector<std::string> out;
  size_t pos = line.find("\"answers\": [");
  if (pos == std::string::npos) return out;
  pos += 12;
  std::string tuple;
  bool in_string = false, in_tuple = false;
  for (size_t i = pos; i < line.size(); ++i) {
    char c = line[i];
    if (in_string) {
      if (c == '\\' && i + 1 < line.size()) {
        tuple += line[++i];
      } else if (c == '"') {
        in_string = false;
      } else {
        tuple += c;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      in_tuple = true;
      tuple.clear();
    } else if (c == ',' && in_tuple) {
      tuple += '|';
    } else if (c == ']') {
      if (!in_tuple) break;
      in_tuple = false;
      out.push_back(tuple);
    }
  }
  return out;
}

uint64_t SetChecksum(const std::vector<std::string>& tuples) {
  uint64_t sum = 0;
  for (const std::string& t : tuples) sum += Fnv1a(t);
  return sum;
}

std::string RenderTuple(const std::vector<semacyc::Term>& t) {
  std::string s;
  for (size_t i = 0; i < t.size(); ++i) s += (i ? "|" : "") + t[i].ToString();
  return s;
}

/// Order-independent checksum of one relation's rows, over the interned
/// terms (equal terms are equal Term values across instances).
uint64_t RowsChecksum(const ColumnarInstance& db,
                      const ColumnarInstance::Relation& rel) {
  uint64_t sum = 0;
  for (size_t row = 0; row < rel.rows; ++row) {
    uint64_t h = 1469598103934665603ull;
    for (const auto& column : rel.columns) {
      h = (h ^ semacyc::TermHash{}(db.TermOf(column[row]))) * 1099511628211ull;
    }
    sum += h;
  }
  return sum;
}

/// FromText ≡ FromInstance on the ToInstance round trip: re-encoding the
/// decoded rows gives the same relations with the same rows.
bool RoundTrips(const ColumnarInstance& loaded,
                const semacyc::Instance& decoded) {
  ColumnarInstance again = ColumnarInstance::FromInstance(decoded);
  if (again.TotalRows() != loaded.TotalRows() ||
      again.relations().size() != loaded.relations().size() ||
      decoded.size() != loaded.TotalRows()) {
    return false;
  }
  for (const auto& rel : loaded.relations()) {
    const ColumnarInstance::Relation* other = again.RelationOf(rel.pred);
    if (other == nullptr || other->rows != rel.rows ||
        RowsChecksum(loaded, rel) != RowsChecksum(again, *other)) {
      return false;
    }
  }
  return true;
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

namespace {

/// One fact file across the run's passes.
struct FileRun {
  FactFile fact;  // queries and schema; the text is dropped once written
  std::string path;
  std::vector<double> best;  // best time per query, ms
  std::map<size_t, std::string> first_line;
  double best_oneshot_s = 1e300;
  double best_first_decide_ms = 1e300;
  double bytes_per_tuple = 0;
};

/// What the traced pass attributes per query.
struct EvalSplit {
  std::vector<double> compile_us, execute_ms, render_ms;
};

/// The traced split of one EvalResponse: compile and execute the witness
/// again as public calls to divide EVAL between the data plane and the
/// evaluator glue around it, and hang the engine's phases under the span.
void TraceEval(Tracer* trace, int span, uint64_t request, const Engine& engine,
               const ColumnarInstance& db, const std::string& text,
               const EngineDelta& d, double s, EvalSplit* split) {
  semacyc::SemAcResult decided =
      engine.Decide(engine.Prepare(semacyc::MustParseQuery(text)));
  double c_ns = 0, x_ns = 0;
  if (decided.witness) {
    std::optional<semacyc::JoinTreeView> tree = semacyc::BuildJoinTreeView(
        decided.witness->body(), semacyc::ConnectingTerms::kVariables);
    if (tree) {
      semacyc::JoinTreeView rooted =
          semacyc::RerootForHead(*tree, decided.witness->head());
      Clock::time_point c0 = Clock::now();
      semacyc::data::SemiJoinProgram program =
          semacyc::data::SemiJoinProgram::Compile(*decided.witness, rooted);
      Clock::time_point c1 = Clock::now();
      program.Execute(db);
      Clock::time_point c2 = Clock::now();
      c_ns = static_cast<double>(NsBetween(c0, c1));
      x_ns = static_cast<double>(NsBetween(c1, c2));
    }
  }
  EngineDelta phases = d;
  int64_t eval_ns = static_cast<int64_t>(d.PhaseMs("EVAL") * 1e6);
  phases.phase_ns["EVAL"] = static_cast<uint64_t>(
      std::max<int64_t>(eval_ns - static_cast<int64_t>(c_ns + x_ns), 0));
  AttachPhases(trace, span, request, phases);
  trace->Derived("SemiJoinProgram::Compile", "data", span, request,
                 static_cast<int64_t>(c_ns));
  trace->Derived("SemiJoinProgram::Execute", "data", span, request,
                 static_cast<int64_t>(x_ns));
  split->compile_us.push_back(c_ns / 1e3);
  split->execute_ms.push_back(x_ns / 1e6);
  split->render_ms.push_back(s * 1e3 - d.PhaseMs("PREPARE") -
                             d.PhaseMs("DECISION") - d.PhaseMs("EVAL"));
}

}  // namespace

RunResult RunEvalFile(const RunContext& ctx, Tracer* trace) {
  RunResult r;
  std::mt19937_64 rng(ctx.seed * 0xD1B54A32D192ED03ull + 3);
  FactFile (*const generators[])(std::mt19937_64&) = {Star, Path, Skew, Music};
  const char* const sigmas[] = {"", "", "", kMusicSigma};

  // Set-up: an engine per file's schema, ready (first probe decided). It
  // is timed kSetupsPerLoad times before every load of the run, so its
  // samples spread over the host's phases; the median is reported.
  constexpr int kSetupsPerLoad = 10;
  std::vector<double> setups;
  auto set_up = [&] {
    Clock::time_point t0 = Clock::now();
    for (const char* sigma : sigmas) {
      Engine engine(semacyc::MustParseDependencySet(sigma));
      std::optional<std::string> line = semacyc::serve::BatchLineResponse(
          engine, "q(x) :- A(x,y), B(y,z)", 0, nullptr);
      if (setups.empty()) r.Check(line.has_value(), "set-up probe failed");
    }
    setups.push_back(SecondsSince(t0));
  };

  // Files are generated and written one at a time, so only one is ever in
  // memory; they stay on disk for the later passes.
  std::vector<FileRun> files;
  for (FactFile (*generate)(std::mt19937_64&) : generators) {
    FileRun fr;
    fr.fact = generate(rng);
    fr.path = ctx.work_dir + "/" + fr.fact.name + "-" +
              std::to_string(ctx.seed) + ".facts";
    std::ofstream out(fr.path, std::ios::binary);
    out << fr.fact.text;
    out.close();
    r.Check(static_cast<bool>(out), "cannot write " + fr.path);
    if (!out) return r;
    fr.fact.text = std::string();
    fr.best.assign(fr.fact.queries.size(), 1e300);
    files.push_back(std::move(fr));
  }

  // Passes over the files until --seconds have been measured (at least
  // kMinPasses), so each query's repetitions and each file's one-shots fall
  // in different phases of the host. A pass loads each file with a fresh
  // engine that answers the file's first query (the one-shot --eval --db
  // call), then runs every query kRepsPerPass times in a seeded order. The
  // first pass ends each file with the output checks, which do not count
  // toward --seconds.
  constexpr int kMinPasses = 2;
  constexpr size_t kRepsPerPass = 2;
  std::vector<double> load_ms;
  EngineDelta total;
  EvalSplit split;
  double load_s = 0, tuples = 0;
  uint64_t request = 0;
  size_t ok_ops = 0, evaluated = 0;
  double check_s = 0;
  Clock::time_point start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || SecondsSince(start) - check_s < ctx.seconds;
       ++pass) {
    for (FileRun& fr : files) {
      const FactFile& f = fr.fact;
      for (int rep = 0; rep < kSetupsPerLoad; ++rep) set_up();
      ResetPeakRss();
      // The one-shot `--eval --db` call: Σ parsed and the engine built,
      // the file loaded, its first query answered.
      Clock::time_point t0 = Clock::now();
      Engine engine(semacyc::MustParseDependencySet(f.sigma));
      Clock::time_point l0 = Clock::now();
      int load_span = trace->Open("ColumnarInstance::FromFile", "data", -1,
                                  ++request);
      std::string error;
      std::optional<ColumnarInstance> db =
          ColumnarInstance::FromFile(fr.path, &error);
      trace->Close(load_span);
      double load = SecondsSince(l0);
      r.Check(db.has_value(), f.name + " does not load: " + error);
      if (!db) return r;
      EngineDelta before = EngineDelta::Of(engine.Metrics());
      std::string first = semacyc::serve::EvalResponse(
          engine, *db, f.queries[0], 0, nullptr, kMaxAnswers);
      fr.best_oneshot_s = std::min(fr.best_oneshot_s, SecondsSince(t0));
      fr.best_first_decide_ms =
          std::min(fr.best_first_decide_ms,
                   EngineDelta::Of(engine.Metrics()).Minus(before).PhaseMs(
                       "DECISION"));
      r.Check(JsonString(first, "status").value_or("") == "ok",
              f.name + ": first query failed: " + first);
      load_ms.push_back(load * 1e3);
      load_s += load;
      tuples += static_cast<double>(db->TotalRows());
      fr.bytes_per_tuple = static_cast<double>(db->ApproxBytes()) /
                           static_cast<double>(db->TotalRows());

      std::vector<size_t> order;
      for (size_t rep = 0; rep < kRepsPerPass; ++rep) {
        for (size_t i = 0; i < f.queries.size(); ++i) order.push_back(i);
      }
      std::shuffle(order.begin(), order.end(), rng);
      for (size_t qi : order) {
        const std::string& text = f.queries[qi];
        EngineDelta before_q = EngineDelta::Of(engine.Metrics());
        ++request;
        Clock::time_point s0 = Clock::now();
        int span = trace->Open("serve::EvalResponse", "serve", -1, request);
        std::string line = semacyc::serve::EvalResponse(engine, *db, text, 0,
                                                        nullptr, kMaxAnswers);
        trace->Close(span);
        double s = SecondsSince(s0);
        EngineDelta d = EngineDelta::Of(engine.Metrics()).Minus(before_q);
        if (JsonString(line, "status").value_or("") == "ok") ++ok_ops;
        ++evaluated;
        fr.best[qi] = std::min(fr.best[qi], s * 1e3);
        total.Add(d);
        auto it = fr.first_line.find(qi);
        if (it == fr.first_line.end()) {
          fr.first_line[qi] = line;
        } else {
          r.Check(line == it->second,
                  f.name + ": repeated query answered differently: " + text);
        }
        if (trace->on()) {
          TraceEval(trace, span, request, engine, *db, text, d, s, &split);
        }
      }
      r.NotePeakRss();
      if (pass > 0) continue;

      // Output checks: each distinct query's line is ok, renders its whole
      // answer set, and matches the row path on the same instance.
      Clock::time_point check_start = Clock::now();
      semacyc::Instance rows = db->ToInstance();
      r.Check(RoundTrips(*db, rows),
              f.name + ": FromText and FromInstance disagree on the round trip");
      for (const auto& [qi, line] : fr.first_line) {
        const std::string& text = f.queries[qi];
        std::vector<std::string> answers = AnswersOf(line);
        size_t count =
            std::stoull(JsonToken(line, "answer_count").value_or("0"));
        semacyc::EvalOptions row;
        row.path = semacyc::EvalOptions::Path::kRow;
        semacyc::EvalOutcome expected = engine.Eval(
            engine.Prepare(semacyc::MustParseQuery(text)), rows, row);
        std::vector<std::string> expected_tuples;
        for (const auto& t : expected.evaluation.answers) {
          expected_tuples.push_back(RenderTuple(t));
        }
        bool ok = JsonString(line, "status").value_or("") == "ok" &&
                  expected.status.ok() && count == answers.size() &&
                  count == expected_tuples.size() &&
                  SetChecksum(answers) == SetChecksum(expected_tuples);
        r.Check(ok, f.name + ": " + text + " differs from the row path (" +
                        std::to_string(count) + " vs " +
                        std::to_string(expected_tuples.size()) + " answers)");
      }
      check_s += SecondsSince(check_start);
    }
  }
  for (const FileRun& fr : files) std::remove(fr.path.c_str());

  // Per query its best repetition, per file its best one-shot: the host's
  // speed moves in phases, and the best of samples spread over the run is
  // what repeats from run to run.
  std::vector<double> lat, eval_decide_ms, bytes_per_tuple;
  double busy_s = 0, oneshot_s = 0;
  for (const FileRun& fr : files) {
    for (double ms : fr.best) {
      lat.push_back(ms);
      busy_s += ms / 1e3;
    }
    oneshot_s += fr.best_oneshot_s;
    eval_decide_ms.push_back(fr.best_first_decide_ms);
    bytes_per_tuple.push_back(fr.bytes_per_tuple);
  }
  double n = static_cast<double>(lat.size());
  r.e2e.Set("setup_s", Median(setups), "s");
  r.e2e.Set("definitive_share",
            static_cast<double>(ok_ops) / static_cast<double>(evaluated),
            "ratio");
  r.e2e.Set("ops_per_s", n / busy_s, "1/s");
  r.e2e.Set("op_p50_ms", Quantile(lat, 0.5), "ms");
  r.e2e.Set("oneshot_s", oneshot_s, "s");

  SetEngineLayerMetrics(total, static_cast<double>(evaluated), &r.layer);
  r.layer.Set("data.load_ms", Mean(load_ms), "ms/file");
  r.layer.Set("data.load_mtuples_per_s", tuples / load_s / 1e6, "Mtuple/s");
  r.layer.Set("data.bytes_per_tuple", Mean(bytes_per_tuple), "B/tuple");
  r.layer.Set("semacyc.eval_decide_ms", Mean(eval_decide_ms), "ms/file");
  if (trace->on()) {
    r.layer.Set("data.compile_us", Mean(split.compile_us), "us/op");
    r.layer.Set("data.execute_ms", Mean(split.execute_ms), "ms/op");
    r.layer.Set("serve.eval_render_ms", Mean(split.render_ms), "ms/op");
    SetSelfTimes(*trace, static_cast<double>(evaluated), &r.layer);
  }
  return r;
}

}  // namespace perfbench
