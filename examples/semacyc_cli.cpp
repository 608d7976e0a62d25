// Command-line driver: decide semantic acyclicity for queries under a
// dependency set.
//
// One-shot mode (one query, human-readable report):
//   semacyc_cli '<query>' '<dependencies>'
//   semacyc_cli 'q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)' \
//               'Interest(x,z), Class(y,z) -> Owns(x,y).'
//
// Batch mode (many queries against one schema file, one JSON line per
// decision, a single Engine shared by every call):
//   semacyc_cli [--stats] [--cache-mb <n>] --batch <schema-file> [<queries-file>]
// The schema file holds a dependency set ('%' comments allowed); queries
// come one per line from <queries-file> or stdin (blank lines and '%'
// comment lines skipped).
//
// Batch flags:
//   --stats       after the run, print Engine::Stats() (the decision
//                 cache's entries, bytes, hits/misses/inserts/evictions)
//                 plus the aggregate counters as one JSON object line on
//                 stdout.
//   --cache-mb N  bound the decision cache to exactly N MiB (one LRU;
//                 resident bytes never exceed it). Default: unbounded.
//   --trace[=F]   emit one {"trace": ...} JSON line per decision (nested
//                 phase spans + counters, core/obs.h) to stdout, or to
//                 file F; each trace line precedes its decision line.
//   --metrics     after the run, print Engine::Metrics() (per-strategy /
//                 per-phase latency histograms + lifetime counters) as
//                 one {"metrics": ...} JSON line on stdout.
//   --deadline-ms N  wall-clock budget per decision (one-shot and batch):
//                 an elapsed deadline aborts that decision gracefully —
//                 answer "unknown", strategy "deadline-exceeded" — and the
//                 batch continues with the next line.
//   --decide-threads N  worker threads for the subsets/exhaustive witness
//                 searches of each single decision (core/worksteal.h);
//                 answers, strategies and witnesses are bitwise identical
//                 to one thread. Default 1 (the calling thread only).
//
// Serve mode (the semacycd network server as a CLI flag; one setup path,
// docs/SERVING.md):
//   semacyc_cli [--cache-mb <n>] [--deadline-ms <n>] --serve <port> <schema>
//
// Eval mode (Prop 24 FPT evaluation over a fact file, docs/DATAPLANE.md;
// the database is loaded and dictionary-encoded once, then every query
// runs the compiled semi-join program over it):
//   semacyc_cli --eval --db <fact-file> '<query>' '<dependencies>'
//   semacyc_cli --eval --db <fact-file> [--max-answers <n>] \
//               --batch <schema-file> [<queries-file>]
//
// Exit code, one-shot: 0 = yes, 1 = no, 2 = unknown, 3 = usage/parse error.
// Exit code, batch: 0 once the schema parsed (per-line errors are reported
// as JSON on the line that failed), 3 on usage/schema errors.
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/core_min.h"
#include "core/hypergraph.h"
#include "core/obs.h"
#include "core/parser.h"
#include "data/columnar.h"
#include "deps/classify.h"
#include "semacyc/engine.h"
#include "semacyc/witness_search.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace semacyc;

namespace {

void PrintStatsJson(const Engine& engine) {
  std::printf("{\"stats\": %s}\n", serve::EngineStatsJson(engine).c_str());
}

/// `trace` enables per-decision trace lines; `trace_path` (optional)
/// redirects them to a file instead of stdout. `print_metrics` dumps
/// Engine::Metrics() as one JSON line after the batch. A non-null
/// `eval_db` switches every line from decide to eval (--eval --db):
/// the same loop, with serve::EvalLineResponse rendering each line.
int RunBatch(const char* schema_path, const char* queries_path,
             bool print_stats, size_t cache_mb, bool trace,
             const char* trace_path, bool print_metrics,
             int64_t deadline_ms, size_t decide_threads,
             const data::ColumnarInstance* eval_db,
             size_t max_answers) {
  std::ifstream schema_file(schema_path);
  if (!schema_file) {
    std::fprintf(stderr, "cannot open schema file: %s\n", schema_path);
    return 3;
  }
  std::stringstream schema_text;
  schema_text << schema_file.rdbuf();
  ParseResult<DependencySet> sigma = ParseDependencySet(schema_text.str());
  if (!sigma.ok()) {
    std::fprintf(stderr, "schema parse error: %s\n", sigma.error.c_str());
    return 3;
  }

  std::ifstream queries_file;
  if (queries_path != nullptr) {
    queries_file.open(queries_path);
    if (!queries_file) {
      std::fprintf(stderr, "cannot open queries file: %s\n", queries_path);
      return 3;
    }
  }
  std::istream& in = queries_path != nullptr
                         ? static_cast<std::istream&>(queries_file)
                         : std::cin;

  // One Engine for the whole stream: Σ is analyzed once and every
  // repeated (or isomorphic) query is served from the decision cache.
  SemAcOptions options;
  options.deadline_ms = deadline_ms;
  options.decide_threads = decide_threads;
  std::FILE* trace_out = nullptr;
  std::optional<obs::JsonLinesSink> sink;
  if (trace) {
    if (trace_path != nullptr) {
      trace_out = std::fopen(trace_path, "w");
      if (trace_out == nullptr) {
        std::fprintf(stderr, "cannot open trace file: %s\n", trace_path);
        return 3;
      }
    }
    sink.emplace(trace_out != nullptr ? trace_out : stdout);
    options.trace_sink = &*sink;
  }
  Engine engine(*sigma.value, options, cache_mb * size_t{1024} * 1024);
  std::string line;
  while (std::getline(in, line)) {
    // Exactly the line handler the semacycd server runs (parse errors and
    // internal errors come back as the two-field JSON shape; blank and
    // comment lines produce nothing) — one rendering path for both
    // surfaces, so the batch and server schemas cannot drift.
    std::optional<std::string> response =
        eval_db != nullptr
            ? serve::EvalLineResponse(engine, *eval_db, line, deadline_ms,
                                      nullptr, max_answers)
            : serve::BatchLineResponse(engine, line, deadline_ms, nullptr);
    if (!response.has_value()) continue;
    std::printf("%s\n", response->c_str());
    std::fflush(stdout);
  }

  std::fprintf(stderr, "decided %" PRIu64 " (cache hits: %zu decision)\n",
               engine.Metrics().decisions_total, engine.Stats().hits);
  if (print_stats) PrintStatsJson(engine);
  if (print_metrics) {
    std::printf("{\"metrics\": %s}\n", engine.Metrics().ToJson().c_str());
  }
  if (trace_out != nullptr) std::fclose(trace_out);
  return 0;
}

int RunOneShot(const char* query_text, const char* sigma_text,
               int64_t deadline_ms, size_t decide_threads) {
  ParseResult<ConjunctiveQuery> q = ParseQuery(query_text);
  if (!q.ok()) {
    std::fprintf(stderr, "query parse error: %s\n", q.error.c_str());
    return 3;
  }
  ParseResult<DependencySet> sigma = ParseDependencySet(sigma_text);
  if (!sigma.ok()) {
    std::fprintf(stderr, "dependency parse error: %s\n", sigma.error.c_str());
    return 3;
  }

  std::printf("query:      %s\n", q->ToString().c_str());
  std::printf("acyclic:    %s\n", IsAcyclic(*q.value) ? "yes" : "no");
  ConjunctiveQuery core = ComputeCore(*q.value);
  std::printf("core size:  %zu (of %zu)\n", core.size(), q->size());
  if (sigma->HasTgds()) {
    std::printf("tgd classes: %s\n", Classify(sigma->tgds).ToString().c_str());
  }
  if (sigma->HasEgds()) {
    std::printf("egds:       %zu%s\n", sigma->egds.size(),
                IsK2Set(sigma->egds) ? " (K2: keys over arity <= 2)" : "");
  }

  SemAcOptions semac;
  semac.deadline_ms = deadline_ms;
  semac.decide_threads = decide_threads;
  SemAcResult result = DecideSemanticAcyclicity(*q.value, *sigma.value, semac);
  if (result.strategy == Strategy::kDeadlineExceeded) {
    // A rerun is only promised an exact answer when the small-query bound
    // holds and Σ's chase terminates (conservative: a rewritable Σ may
    // still decide exactly); a recursive guarded Σ, say, may end unknown
    // however long it runs.
    bool exact_on_rerun = result.bound_justified &&
                          SchemaFacts::Compute(*sigma.value).chase_exact;
    std::printf("deadline:   exceeded after %lld ms (answer is unknown; %s)\n",
                static_cast<long long>(deadline_ms),
                exact_on_rerun
                    ? "retry without --deadline-ms for the exact result"
                    : "a rerun without --deadline-ms may still end unknown");
  }
  std::printf(
      "semantically acyclic: %s (strategy: %s, exact: %s, bound %zu%s)\n",
      ToString(result.answer), ToString(result.strategy),
      result.exact ? "yes" : "no", result.small_query_bound,
      result.bound_justified ? "" : " [heuristic]");
  if (result.witness.has_value()) {
    std::printf("witness:    %s\n", result.witness->ToString().c_str());
  }
  switch (result.answer) {
    case SemAcAnswer::kYes:
      return 0;
    case SemAcAnswer::kNo:
      return 1;
    case SemAcAnswer::kUnknown:
      return 2;
  }
  return 2;
}

/// One-shot eval: decide + reformulate + run the compiled semi-join
/// program over `db`, printing the same JSON eval line the batch mode
/// emits (one rendering path, serve::EvalResponse). The exit code maps
/// the "status" field onto the one-shot convention: 0 ok, 1 not_found,
/// 2 deadline_exceeded/unsupported, 3 parse/internal error.
int RunEvalOneShot(const char* query_text, const char* sigma_text,
                   const data::ColumnarInstance& db, int64_t deadline_ms,
                   size_t max_answers) {
  ParseResult<DependencySet> sigma = ParseDependencySet(sigma_text);
  if (!sigma.ok()) {
    std::fprintf(stderr, "dependency parse error: %s\n", sigma.error.c_str());
    return 3;
  }
  SemAcOptions options;
  options.deadline_ms = deadline_ms;
  Engine engine(*sigma.value, options);
  std::string line =
      serve::EvalResponse(engine, db, query_text, deadline_ms,
                          /*cancel=*/nullptr, max_answers);
  std::printf("%s\n", line.c_str());
  // The renderer is the single source of the "status" literals below
  // (serve_test pins them); match on the rendered field rather than
  // re-running the evaluation just to learn the exit code.
  if (line.find("\"status\": \"ok\"") != std::string::npos) return 0;
  if (line.find("\"status\": \"not_found\"") != std::string::npos) return 1;
  if (line.find("\"status\": \"deadline_exceeded\"") != std::string::npos ||
      line.find("\"status\": \"unsupported\"") != std::string::npos) {
    return 2;
  }
  return 3;
}

/// The flag reference, shared by `--help` (stdout, exit 0) and usage
/// errors (stderr, exit 3). docs/CLI.md documents the same flags — keep
/// the two in sync.
void PrintUsage(FILE* out, const char* prog) {
  std::fprintf(out,
               "usage: %s [--deadline-ms <n>] [--decide-threads <n>] "
               "'<query>' '<dependencies>'\n"
               "       %s [--stats] [--metrics] [--trace[=FILE]] "
               "[--cache-mb <n>]\n"
               "          [--deadline-ms <n>] [--decide-threads <n>] "
               "--batch <schema-file> "
               "[<queries-file>]\n"
               "       %s [--cache-mb <n>] [--deadline-ms <n>] "
               "--serve <port> <schema-file>\n"
               "       %s --eval --db <fact-file> [--max-answers <n>] "
               "[--deadline-ms <n>]\n"
               "          '<query>' '<dependencies>'   |   --batch "
               "<schema-file> [<queries-file>]\n"
               "       %s --help\n"
               "  query:        q(x,y) :- R(x,z), S(z,y)   (head optional)\n"
               "  dependencies: tgds 'body -> head' and egds 'body -> x = "
               "y',\n"
               "                separated by '.'; may be empty ('')\n"
               "  --batch:      one query per line from <queries-file> or "
               "stdin,\n"
               "                one JSON line per decision, a single "
               "prepared\n"
               "                schema shared by the whole run (see "
               "docs/CLI.md\n"
               "                for the JSON output schema)\n"
               "  --stats:      print Engine::Stats() as one JSON line "
               "after the batch\n"
               "  --cache-mb:   exact decision-cache budget in MiB, LRU "
               "eviction;\n"
               "                default: unbounded\n"
               "  --trace:      one {\"trace\": ...} JSON line per "
               "decision (phase spans\n"
               "                + counters) on stdout, or to FILE with "
               "--trace=FILE; each\n"
               "                trace line precedes its decision line\n"
               "  --metrics:    print Engine::Metrics() (latency "
               "histograms by strategy\n"
               "                and phase, lifetime counters) as one JSON "
               "line after the batch\n"
               "  --deadline-ms: wall-clock budget per decision in ms; an "
               "elapsed\n"
               "                deadline aborts that decision gracefully "
               "(answer unknown,\n"
               "                strategy deadline-exceeded) and the run "
               "continues;\n"
               "                default: none\n"
               "  --decide-threads: worker threads for the witness "
               "searches of each\n"
               "                single decision (one-shot and batch); "
               "answers, strategies\n"
               "                and witnesses are bitwise identical to 1 "
               "thread — threads\n"
               "                buy latency only; default 1 (no extra thread)\n"
               "  --serve:      run the semacycd network server on "
               "127.0.0.1:<port>\n"
               "                (0 = ephemeral) over <schema-file> — the "
               "same JSON-lines\n"
               "                protocol and server setup as the semacycd "
               "binary\n"
               "                (docs/SERVING.md); --cache-mb and "
               "--deadline-ms apply,\n"
               "                SIGTERM drains gracefully\n"
               "  --eval:       evaluate instead of just deciding: "
               "reformulate each\n"
               "                query to an acyclic witness, then run the "
               "vectorized\n"
               "                semi-join program over the --db facts "
               "(docs/DATAPLANE.md);\n"
               "                one JSON line per query with status, "
               "witness, answer_count,\n"
               "                answers (capped) and cost counters\n"
               "  --db:         fact file for --eval, one ground atom "
               "R('a',42) per line\n"
               "                ('%%' comments allowed); loaded and "
               "dictionary-encoded once\n"
               "  --max-answers: cap on tuples in each line's \"answers\" "
               "array (0 = count\n"
               "                only; answer_count is always the full "
               "size); default 20\n"
               "  --help:       print this reference and exit\n"
               "exit codes, one-shot: 0 yes, 1 no, 2 unknown, 3 "
               "usage/parse error\n"
               "            (--eval:  0 ok, 1 not_found, 2 "
               "deadline/unsupported, 3 error)\n"
               "exit codes, batch:    0 once the schema parsed, 3 on "
               "usage/schema errors\n",
               prog, prog, prog, prog, prog);
}

int Usage(const char* prog) {
  PrintUsage(stderr, prog);
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  bool batch = false;
  bool serve = false;
  uint16_t serve_port = 0;
  bool print_stats = false;
  bool trace = false;
  bool print_metrics = false;
  const char* trace_path = nullptr;
  size_t cache_mb = 0;
  int64_t deadline_ms = 0;
  size_t decide_threads = 1;
  bool eval_mode = false;
  const char* db_path = nullptr;
  size_t max_answers = 20;
  bool max_answers_set = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout, argv[0]);
      return 0;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      const char* text = argv[++i];
      // Digits only, 0 allowed (0 = ephemeral port, printed on stderr).
      if (*text == '\0') return Usage(argv[0]);
      for (const char* c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9') return Usage(argv[0]);
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long n = std::strtoull(text, &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0' || n > 65535) {
        return Usage(argv[0]);
      }
      serve = true;
      serve_port = static_cast<uint16_t>(n);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      print_stats = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace = true;
      trace_path = argv[i] + 8;
      if (*trace_path == '\0') return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--cache-mb") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      const char* text = argv[++i];
      // Digits only: strtoull would silently wrap "-1" to ULLONG_MAX.
      if (*text == '\0') return Usage(argv[0]);
      for (const char* c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9') return Usage(argv[0]);
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long n = std::strtoull(text, &end, 10);
      // Reject zero (the default is already unbounded; an explicit 0 is
      // more likely a typo than a request for it), out-of-range input,
      // and budgets whose MiB conversion would overflow size_t.
      if (errno != 0 || end == nullptr || *end != '\0' || n == 0 ||
          n > (SIZE_MAX >> 20)) {
        return Usage(argv[0]);
      }
      cache_mb = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--decide-threads") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      const char* text = argv[++i];
      // Same validation shape as --cache-mb: digits only (strtoull would
      // silently wrap "-1"), no zero (1 already means no extra thread; 0 is
      // more likely a typo), no absurd widths.
      if (*text == '\0') return Usage(argv[0]);
      for (const char* c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9') return Usage(argv[0]);
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long n = std::strtoull(text, &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0' || n == 0 ||
          n > 1024) {
        return Usage(argv[0]);
      }
      decide_threads = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--eval") == 0) {
      eval_mode = true;
    } else if (std::strcmp(argv[i], "--db") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      db_path = argv[++i];
      if (*db_path == '\0') return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--max-answers") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      const char* text = argv[++i];
      // Digits only (strtoull would silently wrap "-1"); 0 is meaningful
      // here — it asks for answer_count without the answers array.
      if (*text == '\0') return Usage(argv[0]);
      for (const char* c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9') return Usage(argv[0]);
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long n = std::strtoull(text, &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0') {
        return Usage(argv[0]);
      }
      max_answers = static_cast<size_t>(n);
      max_answers_set = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      const char* text = argv[++i];
      // Same validation shape as --cache-mb: digits only (strtoull would
      // silently wrap "-1"), no zero (0 already means "no deadline"), no
      // values that overflow the int64 the options carry.
      if (*text == '\0') return Usage(argv[0]);
      for (const char* c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9') return Usage(argv[0]);
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long n = std::strtoull(text, &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0' || n == 0 ||
          n > static_cast<unsigned long long>(INT64_MAX)) {
        return Usage(argv[0]);
      }
      deadline_ms = static_cast<int64_t>(n);
    } else {
      positional.push_back(argv[i]);
    }
  }
  // --eval needs --db (and vice versa: a fact file without --eval is a
  // typo); --max-answers only means anything under --eval; the server
  // speaks the decide protocol only.
  if (eval_mode != (db_path != nullptr)) return Usage(argv[0]);
  if (max_answers_set && !eval_mode) return Usage(argv[0]);
  if (eval_mode && serve) return Usage(argv[0]);
  std::optional<data::ColumnarInstance> eval_db;
  if (eval_mode) {
    std::string error;
    eval_db = data::ColumnarInstance::FromFile(db_path, &error);
    if (!eval_db.has_value()) {
      std::fprintf(stderr, "cannot load fact file %s: %s\n", db_path,
                   error.c_str());
      return 3;
    }
  }
  if (serve) {
    // Thin wrapper over the semacycd server setup: same protocol, same
    // ServeForever loop (docs/SERVING.md). The batch-only output flags
    // have no meaning here.
    if (batch || positional.size() != 1 || print_stats || trace ||
        print_metrics) {
      return Usage(argv[0]);
    }
    std::ifstream schema_file(positional[0]);
    if (!schema_file) {
      std::fprintf(stderr, "cannot open schema file: %s\n", positional[0]);
      return 3;
    }
    std::stringstream schema_text;
    schema_text << schema_file.rdbuf();
    ParseResult<DependencySet> sigma = ParseDependencySet(schema_text.str());
    if (!sigma.ok()) {
      std::fprintf(stderr, "schema parse error: %s\n", sigma.error.c_str());
      return 3;
    }
    serve::ServerOptions options;
    options.port = serve_port;
    options.cache_mb = cache_mb;
    options.default_deadline_ms = deadline_ms;
    return serve::ServeForever(*sigma.value, options);
  }
  if (batch) {
    if (positional.empty() || positional.size() > 2) return Usage(argv[0]);
    return RunBatch(positional[0],
                    positional.size() >= 2 ? positional[1] : nullptr,
                    print_stats, cache_mb, trace, trace_path, print_metrics,
                    deadline_ms, decide_threads,
                    eval_db.has_value() ? &*eval_db : nullptr, max_answers);
  }
  if (positional.size() != 2 || print_stats || cache_mb > 0 || trace ||
      print_metrics) {
    return Usage(argv[0]);
  }
  if (eval_mode) {
    return RunEvalOneShot(positional[0], positional[1], *eval_db,
                          deadline_ms, max_answers);
  }
  return RunOneShot(positional[0], positional[1], deadline_ms,
                    decide_threads);
}
