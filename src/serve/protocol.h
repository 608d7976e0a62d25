#ifndef SEMACYC_SERVE_PROTOCOL_H_
#define SEMACYC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/interrupt.h"
#include "core/obs.h"
#include "semacyc/engine.h"

namespace semacyc::serve {

/// The JSON-lines protocol shared by `semacyc_cli --batch` and `semacycd`
/// (docs/CLI.md "JSON output schema", docs/SERVING.md). Exactly one
/// rendering path exists for a decision line — both the CLI batch loop
/// and the server worker call DecideResponse — so the two surfaces cannot
/// drift; serve_test pins byte-identical output through both.

/// The one JSON string escaper (core/obs.h), shared with the trace and
/// metrics serializers.
using obs::JsonEscape;

/// One parsed request line. Raw (non-JSON) lines are decide requests
/// carrying the line verbatim as query text — the `--batch` input format.
/// JSON object lines ({"op": ..., ...}) address the built-in endpoints
/// and per-request options:
///
///   {"query": "q(x) :- R(x,y)"}                      decide (op optional)
///   {"op": "decide", "query": "...", "deadline_ms": 50, "tenant": "t1"}
///   {"op": "stats"}      |  stats                    engine + server stats
///   {"op": "health"}     |  health                   liveness probe
///
/// A malformed JSON line (or an unknown op / field / wrong type) parses
/// to kBad with a message; the connection survives and answers with an
/// error line.
struct Request {
  enum class Kind { kDecide, kStats, kHealth, kBad };
  Kind kind = Kind::kDecide;
  std::string query;       // kDecide: the query text
  int64_t deadline_ms = 0; // kDecide: per-request deadline (0 = server default)
  std::string tenant;      // kDecide: tenant label ("" = default tenant)
  std::string error;       // kBad: what was wrong with the line
};

/// Parses one request line (no trailing newline). Blank and '%'-comment
/// lines return std::nullopt — they take no response slot, matching the
/// `--batch` convention. The bare words `stats` / `health` are accepted
/// as a convenience alias for their JSON forms.
std::optional<Request> ParseRequest(const std::string& line);

/// Decides `query_text` on `engine` and renders the decision as one JSON
/// line (no trailing newline) — the exact `--batch` output schema of
/// docs/CLI.md, including the two-field parse-error / internal-error
/// shapes. `reported_deadline_ms > 0` adds the "deadline_ms" field;
/// `cancel` (may be null, not owned) bounds the decision — the caller
/// configures its deadline/parent before the call.
std::string DecideResponse(const Engine& engine, const std::string& query_text,
                           int64_t reported_deadline_ms, CancelToken* cancel);

/// Raw-line semantics on top of DecideResponse: std::nullopt for blank
/// and '%'-comment lines, a decision line otherwise. The CLI batch loop
/// is exactly this per line.
std::optional<std::string> BatchLineResponse(const Engine& engine,
                                             const std::string& line,
                                             int64_t reported_deadline_ms,
                                             CancelToken* cancel);

/// Evaluates `query_text` on `engine` over the preloaded columnar
/// database (the Prop 24 pipeline: reformulate, then the compiled
/// semi-join program) and renders one JSON line (no trailing newline) —
/// the `--eval` output schema of docs/CLI.md:
///
///   {"query": ..., "status": "ok", "witness": ..., "columnar": true,
///    "answer_count": N, "answers": [["'a'","'b'"], ...],
///    "rows_scanned": ..., "semijoin_probes": ..., "dp_rows": ...}
///
/// `answers` carries at most `max_answers` tuples (0 = answer_count
/// only); the count is always the full answer-set size. Non-ok statuses
/// ("not_found" — no acyclic reformulation; "deadline_exceeded";
/// "unsupported") carry a "message" instead of answers; parse and
/// internal errors use the same two-field shapes as DecideResponse.
std::string EvalResponse(const Engine& engine,
                         const data::ColumnarInstance& db,
                         const std::string& query_text,
                         int64_t reported_deadline_ms, CancelToken* cancel,
                         size_t max_answers);

/// Raw-line semantics on top of EvalResponse: std::nullopt for blank and
/// '%'-comment lines, an eval line otherwise (`semacyc_cli --eval
/// --batch` is exactly this per line).
std::optional<std::string> EvalLineResponse(const Engine& engine,
                                            const data::ColumnarInstance& db,
                                            const std::string& line,
                                            int64_t reported_deadline_ms,
                                            CancelToken* cancel,
                                            size_t max_answers);

/// Renders the `--stats` payload object for one engine (the value of the
/// "stats" key: prepares/decisions/oracle counters from Engine::Metrics()
/// + the decision cache's CacheStats from Engine::Stats()). Shared by the CLI's
/// trailing {"stats": ...} line and the server's stats endpoint.
std::string EngineStatsJson(const Engine& engine);

/// The immediate load-shedding response (docs/SERVING.md): sent instead
/// of queueing when the worker queue is at its high-water mark or the
/// server is draining.
std::string OverloadedResponse();

/// The health endpoint payload.
std::string HealthResponse();

}  // namespace semacyc::serve

#endif  // SEMACYC_SERVE_PROTOCOL_H_
