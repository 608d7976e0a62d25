// Columnar data plane vs. the row evaluator on the Prop 24 pipeline
// (docs/DATAPLANE.md).
//
// Claims demonstrated:
//  1. Parity: the compiled SemiJoinProgram over dictionary-encoded
//     columns returns answer sets byte-identical to the row-oriented
//     EvaluateAcyclic on every star / path / skew row, 10^4 to 10^6
//     tuples (the same invariant tests/columnar_eval_test pins on small
//     inputs, here at scale).
//  2. Throughput: on the million-tuple star and path rows the columnar
//     path is >= 3x faster than the row path — selection vectors and
//     64-bit packed keys beat tuple-at-a-time hash sets precisely where
//     the data no longer fits the cache.
//  3. Payoff (the point of the paper): on a music-store database
//     satisfying the compulsive-collector tgd, reformulate-then-evaluate
//     (cyclic q -> acyclic witness -> columnar Yannakakis) beats exact
//     backtracking evaluation of the cyclic q while returning the same
//     answers — semantic acyclicity converts into evaluation speed.
//  4. Load (reported, not gated): the `--eval --db` path from fact text at
//     ~10^6 tuples — FromText split into scan + encode and seal, then one
//     execute — next to the row path parsing the same text with ParseAtoms
//     into an Instance and evaluating it.
//
// `--gate` exits non-zero when a gated row misses its bound or any parity
// check fails (CI wires this into the tier-1 job). Self-timed; pass
// --json to emit BENCH_columnar_eval.json via bench_util's JsonReport.
// The full sweep, million-tuple rows included, takes about 40 s on a
// 4-vCPU VM.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "core/homomorphism.h"
#include "core/parser.h"
#include "data/columnar.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Canonical rendering of an answer set: one string per tuple, sorted —
/// "byte-identical" parity compares these, not set sizes.
std::vector<std::string> Canon(const std::vector<std::vector<Term>>& answers) {
  std::vector<std::string> out;
  out.reserve(answers.size());
  for (const auto& tuple : answers) {
    std::string row;
    for (const Term& t : tuple) {
      if (!row.empty()) row += ',';
      row += t.ToString();
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t TotalTuples(const Instance& db) { return db.size(); }

struct Row {
  EvalWorkload w;
  bool gate_speedup = false;  // the million-tuple star/path rows
  bool million = false;       // the ~10^6-tuple rows of each family
};

std::vector<Row> Rows() {
  std::vector<Row> rows;
  // Three relations per star/path workload, two per skew workload, so the
  // per-relation budgets below put the families at ~10^4 / 10^5 / 10^6
  // total tuples (insert-dedup can shave a few under small domains).
  for (size_t per_rel : {size_t{3334}, size_t{33334}, size_t{333334}}) {
    bool million = per_rel == 333334;
    rows.push_back({MakeStarEvalWorkload(/*seed=*/41, /*spokes=*/3, per_rel,
                                         /*hubs=*/400, /*spoke_domain=*/5000),
                    million, million});
    rows.push_back({MakePathEvalWorkload(/*seed=*/42, /*length=*/3, per_rel,
                                         /*domain=*/2000),
                    million, million});
  }
  for (size_t per_rel : {size_t{5000}, size_t{50000}, size_t{500000}}) {
    rows.push_back({MakeSkewEvalWorkload(/*seed=*/43, per_rel,
                                         /*domain=*/10000, /*skew=*/2.0),
                    false, per_rel == 500000});
  }
  return rows;
}

int ColumnarVsRowSection(const std::vector<Row>& rows,
                         bench::JsonReport* report, bool gate) {
  bench::Banner(
      "D-P1 - columnar vs row Yannakakis, star/path/skew at 10^4..10^6",
      "the compiled semi-join program over dictionary-encoded columns "
      "matches the row evaluator's answers byte-for-byte and is >= 3x "
      "faster on the million-tuple star/path rows");
  bench::Table table({"workload", "tuples", "encode ms", "mb", "row ms",
                      "col ms", "speedup", "parity", "answers"});
  int failures = 0;
  for (const Row& row : rows) {
    const EvalWorkload& w = row.w;
    size_t tuples = TotalTuples(w.database);

    auto start = Clock::now();
    data::ColumnarInstance cdb =
        data::ColumnarInstance::FromInstance(w.database);
    double encode_ms = MillisSince(start);
    double mb = static_cast<double>(cdb.ApproxBytes()) / (1024.0 * 1024.0);

    // No dependencies: the workload queries are acyclic by construction,
    // so Decide is trivial and cached — the timed reps measure only the
    // evaluation itself.
    Engine engine{DependencySet{}};
    PreparedQuery pq = engine.Prepare(w.q);
    EvalOptions row_opts;
    row_opts.path = EvalOptions::Path::kRow;

    EvalOutcome row_out = engine.Eval(pq, w.database, row_opts);
    EvalOutcome col_out = engine.Eval(pq, cdb);
    bool parity = row_out.status.ok() && col_out.status.ok() &&
                  Canon(row_out.evaluation.answers) ==
                      Canon(col_out.evaluation.answers);

    // Best-of-N: scheduler hiccups only ever make a rep slower.
    int reps = tuples >= 300000 ? 3 : 5;
    double row_ms = -1, col_ms = -1;
    for (int r = 0; r < reps; ++r) {
      start = Clock::now();
      row_out = engine.Eval(pq, w.database, row_opts);
      double ms = MillisSince(start);
      if (row_ms < 0 || ms < row_ms) row_ms = ms;
      start = Clock::now();
      col_out = engine.Eval(pq, cdb);
      ms = MillisSince(start);
      if (col_ms < 0 || ms < col_ms) col_ms = ms;
    }
    double speedup = row_ms / col_ms;
    bool speedup_ok = !row.gate_speedup || speedup >= 3.0;

    table.AddRow({w.name, std::to_string(tuples), std::to_string(encode_ms),
                  std::to_string(mb), std::to_string(row_ms),
                  std::to_string(col_ms), std::to_string(speedup),
                  parity ? "identical" : "MISMATCH",
                  std::to_string(col_out.evaluation.answers.size())});
    report->AddRow(
        "columnar_vs_row",
        {{"workload", bench::JsonReport::Str(w.name)},
         {"tuples", bench::JsonReport::Num(static_cast<double>(tuples))},
         {"encode_ms", bench::JsonReport::Num(encode_ms)},
         {"approx_mb", bench::JsonReport::Num(mb)},
         {"row_ms", bench::JsonReport::Num(row_ms)},
         {"columnar_ms", bench::JsonReport::Num(col_ms)},
         {"speedup", bench::JsonReport::Num(speedup)},
         {"parity", parity ? "true" : "false"},
         {"answers", bench::JsonReport::Num(
                         static_cast<double>(col_out.evaluation.answers.size()))},
         {"gated", row.gate_speedup ? "true" : "false"}});
    if (!parity) {
      std::printf("*** answer parity BROKEN on %s\n", w.name.c_str());
      ++failures;
    }
    if (!speedup_ok) {
      std::printf("*** speedup gate missed on %s: %.2fx < 3x\n",
                  w.name.c_str(), speedup);
      ++failures;
    }
  }
  table.Print();
  return gate ? failures : 0;
}

/// The database as a fact file: one `R('a','b')` line per tuple.
std::string FactText(const Instance& db) {
  std::string text;
  for (const Atom& a : db.atoms()) {
    text += a.predicate().name();
    text += '(';
    for (size_t c = 0; c < a.arity(); ++c) {
      if (c > 0) text += ',';
      text += '\'';
      text += a.arg(c).name();
      text += '\'';
    }
    text += ")\n";
  }
  return text;
}

/// The row path's reading of a fact file: the core parser on every line,
/// the atoms inserted into an Instance.
Instance ParseFactsIntoInstance(std::string_view text) {
  Instance db;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    ParseResult<std::vector<Atom>> atoms =
        ParseAtoms(text.substr(start, end - start));
    if (!atoms.ok()) {
      std::fprintf(stderr, "fact text does not parse: %s\n",
                   atoms.error.c_str());
      std::abort();
    }
    db.InsertAll(*atoms.value);
    start = end + 1;
  }
  return db;
}

int FactTextSection(const std::vector<Row>& rows, bench::JsonReport* report,
                    bool gate) {
  bench::Banner(
      "D-P3 - fact text to answers at 10^6 tuples (the --eval --db path)",
      "loading a fact file is linear in its size: FromText scans and "
      "encodes each line once and seals the sorted runs with a counting "
      "pass, so load + execute beats parsing the same text into rows and "
      "evaluating there (reported, not gated)");
  bench::Table table({"workload", "tuples", "text mb", "scan+encode ms",
                      "seal ms", "col execute ms", "col total ms",
                      "row parse ms", "row execute ms", "row total ms",
                      "speedup", "parity"});
  int failures = 0;
  for (const Row& row : rows) {
    if (!row.million) continue;
    const EvalWorkload& w = row.w;
    std::string text = FactText(w.database);

    // One rep each: at this size a load takes long enough to time once,
    // and CI runs the whole bench.
    data::ColumnarInstance::LoadTimes times;
    std::string error;
    std::optional<data::ColumnarInstance> cdb =
        data::ColumnarInstance::FromText(text, &error, &times);
    if (!cdb.has_value()) {
      std::printf("*** fact text of %s does not load: %s\n", w.name.c_str(),
                  error.c_str());
      ++failures;
      continue;
    }
    double scan_ms = static_cast<double>(times.scan_ns) / 1e6;
    double seal_ms = static_cast<double>(times.seal_ns) / 1e6;

    auto start = Clock::now();
    Instance db = ParseFactsIntoInstance(text);
    double parse_ms = MillisSince(start);

    Engine engine{DependencySet{}};
    PreparedQuery pq = engine.Prepare(w.q);
    EvalOptions row_opts;
    row_opts.path = EvalOptions::Path::kRow;
    engine.Decide(pq);  // the decision is not what this row times
    start = Clock::now();
    EvalOutcome col_out = engine.Eval(pq, *cdb);
    double col_exec_ms = MillisSince(start);
    start = Clock::now();
    EvalOutcome row_out = engine.Eval(pq, db, row_opts);
    double row_exec_ms = MillisSince(start);
    bool parity = col_out.status.ok() && row_out.status.ok() &&
                  Canon(col_out.evaluation.answers) ==
                      Canon(row_out.evaluation.answers);

    double col_total = scan_ms + seal_ms + col_exec_ms;
    double row_total = parse_ms + row_exec_ms;
    double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);
    table.AddRow({w.name, std::to_string(cdb->TotalRows()),
                  std::to_string(mb), std::to_string(scan_ms),
                  std::to_string(seal_ms), std::to_string(col_exec_ms),
                  std::to_string(col_total), std::to_string(parse_ms),
                  std::to_string(row_exec_ms), std::to_string(row_total),
                  std::to_string(row_total / col_total),
                  parity ? "identical" : "MISMATCH"});
    report->AddRow(
        "fact_text",
        {{"workload", bench::JsonReport::Str(w.name)},
         {"tuples",
          bench::JsonReport::Num(static_cast<double>(cdb->TotalRows()))},
         {"text_mb", bench::JsonReport::Num(mb)},
         {"scan_encode_ms", bench::JsonReport::Num(scan_ms)},
         {"seal_ms", bench::JsonReport::Num(seal_ms)},
         {"columnar_execute_ms", bench::JsonReport::Num(col_exec_ms)},
         {"columnar_total_ms", bench::JsonReport::Num(col_total)},
         {"row_parse_ms", bench::JsonReport::Num(parse_ms)},
         {"row_execute_ms", bench::JsonReport::Num(row_exec_ms)},
         {"row_total_ms", bench::JsonReport::Num(row_total)},
         {"speedup", bench::JsonReport::Num(row_total / col_total)},
         {"parity", parity ? "true" : "false"},
         {"gated", "false"}});
    if (!parity) {
      std::printf("*** fact-text answer parity BROKEN on %s\n",
                  w.name.c_str());
      ++failures;
    }
  }
  table.Print();
  return gate ? failures : 0;
}

int PayoffSection(bench::JsonReport* report, bool gate) {
  bench::Banner(
      "D-P2 - the Prop 24 payoff on the music store (Example 1)",
      "on a database satisfying the compulsive-collector tgd, "
      "reformulate + columnar Yannakakis answers the cyclic q faster "
      "than exact backtracking evaluation, with identical answers");
  MusicStoreWorkload w =
      MakeMusicStoreWorkload(/*seed=*/7, /*customers=*/600, /*records=*/1200,
                             /*styles=*/24, /*interest_prob=*/0.3);
  Engine engine(w.sigma);
  PreparedQuery pq = engine.Prepare(w.q);
  data::ColumnarInstance cdb = data::ColumnarInstance::FromInstance(w.database);

  // Warm the decision cache so timed pipeline reps measure reformulate
  // lookup + evaluation, which is the steady-state serving cost.
  EvalOutcome warm = engine.Eval(pq, cdb);
  std::vector<std::vector<Term>> exact = EvaluateQuery(w.q, w.database);
  bool parity = warm.status.ok() &&
                Canon(warm.evaluation.answers) == Canon(exact);

  double exact_ms = -1, pipeline_ms = -1;
  for (int r = 0; r < 3; ++r) {
    auto start = Clock::now();
    exact = EvaluateQuery(w.q, w.database);
    double ms = MillisSince(start);
    if (exact_ms < 0 || ms < exact_ms) exact_ms = ms;
    start = Clock::now();
    warm = engine.Eval(pq, cdb);
    ms = MillisSince(start);
    if (pipeline_ms < 0 || ms < pipeline_ms) pipeline_ms = ms;
  }
  double speedup = exact_ms / pipeline_ms;

  bench::Table table({"database", "exact ms", "reformulate+columnar ms",
                      "speedup", "parity", "answers"});
  std::string db_desc = std::to_string(w.customers) + " customers / " +
                        std::to_string(TotalTuples(w.database)) + " tuples";
  table.AddRow({db_desc, std::to_string(exact_ms),
                std::to_string(pipeline_ms), std::to_string(speedup),
                parity ? "identical" : "MISMATCH",
                std::to_string(exact.size())});
  table.Print();
  report->AddRow(
      "payoff",
      {{"database", bench::JsonReport::Str(db_desc)},
       {"exact_ms", bench::JsonReport::Num(exact_ms)},
       {"pipeline_ms", bench::JsonReport::Num(pipeline_ms)},
       {"speedup", bench::JsonReport::Num(speedup)},
       {"parity", parity ? "true" : "false"},
       {"answers",
        bench::JsonReport::Num(static_cast<double>(exact.size()))}});
  if (!parity) {
    std::printf("*** payoff parity BROKEN: pipeline answers differ from "
                "exact evaluation\n");
    return gate ? 1 : 0;
  }
  return 0;
}

}  // namespace
}  // namespace semacyc

int main(int argc, char** argv) {
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }
  semacyc::bench::JsonReport report(argc, argv, "columnar_eval");
  std::vector<semacyc::Row> rows = semacyc::Rows();
  int failures = semacyc::ColumnarVsRowSection(rows, &report, gate) +
                 semacyc::FactTextSection(rows, &report, gate) +
                 semacyc::PayoffSection(&report, gate);
  return failures == 0 ? 0 : 1;
}
