#include "serve/protocol.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/parser.h"

namespace semacyc::serve {

namespace {

/// One value of a flat request object. Requests are intentionally flat —
/// strings, integers, bools, null — so a full JSON tree is overkill;
/// nested containers are rejected as unsupported.
struct JsonValue {
  enum class Kind { kString, kInt, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string str;
  int64_t num = 0;
  bool boolean = false;
};

/// Strict parser for one flat JSON object line. Returns false with a
/// message on any syntax error, trailing garbage, duplicate key, or
/// nested container.
class FlatObjectParser {
 public:
  explicit FlatObjectParser(const std::string& text) : text_(text) {}

  bool Parse(std::vector<std::pair<std::string, JsonValue>>* out,
             std::string* error) {
    SkipSpace();
    if (!Consume('{')) return Fail(error, "expected '{'");
    SkipSpace();
    if (Consume('}')) return AtEnd(error);
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return Fail(error, "expected string key");
      for (const auto& [seen, value] : *out) {
        (void)value;
        if (seen == key) return Fail(error, "duplicate key \"" + key + "\"");
      }
      SkipSpace();
      if (!Consume(':')) return Fail(error, "expected ':'");
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, error)) return false;
      out->emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return AtEnd(error);
      return Fail(error, "expected ',' or '}'");
    }
  }

 private:
  bool AtEnd(std::string* error) {
    SkipSpace();
    if (pos_ != text_.size()) return Fail(error, "trailing characters");
    return true;
  }

  bool Fail(std::string* error, const std::string& what) {
    char at[32];
    std::snprintf(at, sizeof(at), " at offset %zu", pos_);
    *error = what + at;
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            // Only the escapes JsonEscape emits (control characters, all
            // below 0x80) are accepted; that keeps round-trips exact
            // without a UTF-16 decoder.
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (code > 0x7f) return false;
            *out += static_cast<char>(code);
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out, std::string* error) {
    char c = pos_ < text_.size() ? text_[pos_] : '\0';
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      if (!ParseString(&out->str)) return Fail(error, "bad string value");
      return true;
    }
    if (c == '{' || c == '[') {
      return Fail(error, "nested containers are not supported");
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      bool negative = c == '-';
      if (negative) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail(error, "bad number");
      }
      int64_t value = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        int digit = text_[pos_] - '0';
        if (value > (INT64_MAX - digit) / 10) {
          return Fail(error, "number out of range");
        }
        value = value * 10 + digit;
        ++pos_;
      }
      if (pos_ < text_.size() &&
          (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
        return Fail(error, "only integers are supported");
      }
      out->kind = JsonValue::Kind::kInt;
      out->num = negative ? -value : value;
      return true;
    }
    return Fail(error, "bad value");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Request BadRequest(std::string why) {
  Request out;
  out.kind = Request::Kind::kBad;
  out.error = std::move(why);
  return out;
}

Request ParseJsonRequest(const std::string& line) {
  std::vector<std::pair<std::string, JsonValue>> fields;
  std::string error;
  if (!FlatObjectParser(line).Parse(&fields, &error)) {
    return BadRequest("bad request: " + error);
  }
  Request out;
  std::string op = "decide";
  bool have_query = false;
  for (const auto& [key, value] : fields) {
    if (key == "op") {
      if (value.kind != JsonValue::Kind::kString) {
        return BadRequest("bad request: \"op\" must be a string");
      }
      op = value.str;
    } else if (key == "query") {
      if (value.kind != JsonValue::Kind::kString) {
        return BadRequest("bad request: \"query\" must be a string");
      }
      out.query = value.str;
      have_query = true;
    } else if (key == "deadline_ms") {
      if (value.kind != JsonValue::Kind::kInt || value.num < 0) {
        return BadRequest(
            "bad request: \"deadline_ms\" must be a non-negative integer");
      }
      out.deadline_ms = value.num;
    } else if (key == "tenant") {
      if (value.kind != JsonValue::Kind::kString) {
        return BadRequest("bad request: \"tenant\" must be a string");
      }
      out.tenant = value.str;
    } else {
      return BadRequest("bad request: unknown field \"" + key + "\"");
    }
  }
  if (op == "stats") {
    out.kind = Request::Kind::kStats;
    return out;
  }
  if (op == "health") {
    out.kind = Request::Kind::kHealth;
    return out;
  }
  if (op != "decide") {
    return BadRequest("bad request: unknown op \"" + op + "\"");
  }
  if (!have_query) {
    return BadRequest("bad request: decide needs a \"query\" field");
  }
  out.kind = Request::Kind::kDecide;
  return out;
}

}  // namespace

std::optional<Request> ParseRequest(const std::string& line) {
  size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '%') return std::nullopt;
  if (line[first] == '{') return ParseJsonRequest(line);
  size_t last = line.find_last_not_of(" \t\r");
  std::string word = line.substr(first, last - first + 1);
  if (word == "stats") {
    Request out;
    out.kind = Request::Kind::kStats;
    return out;
  }
  if (word == "health") {
    Request out;
    out.kind = Request::Kind::kHealth;
    return out;
  }
  // Anything else is the raw --batch line format: the line is the query.
  Request out;
  out.kind = Request::Kind::kDecide;
  out.query = line;
  return out;
}

std::string DecideResponse(const Engine& engine, const std::string& query_text,
                           int64_t reported_deadline_ms, CancelToken* cancel) {
  ParseResult<ConjunctiveQuery> q = ParseQuery(query_text);
  if (!q.ok()) {
    return "{\"query\": \"" + JsonEscape(query_text) + "\", \"error\": \"" +
           JsonEscape(q.error) + "\"}";
  }
  // A malformed-but-parseable query (e.g. arity drift across atoms) that
  // trips an internal invariant must not take the stream or the
  // connection down: report it as a structured error, exactly like a
  // parse failure.
  try {
    PreparedQuery pq = engine.Prepare(*q.value);
    SemAcResult result = engine.Decide(pq, cancel);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\", \"answer\": \"%s\", \"strategy\": \"%s\", "
                  "\"exact\": %s, \"class\": \"%s\", \"bound\": %zu, "
                  "\"bound_justified\": %s, \"candidates\": %zu",
                  ToString(result.answer), ToString(result.strategy),
                  result.exact ? "true" : "false",
                  ToString(pq.acyclicity_class()), result.small_query_bound,
                  result.bound_justified ? "true" : "false",
                  result.candidates_tested);
    std::string line = "{\"query\": \"" + JsonEscape(q->ToString()) + buf;
    if (reported_deadline_ms > 0) {
      std::snprintf(buf, sizeof(buf), ", \"deadline_ms\": %lld",
                    static_cast<long long>(reported_deadline_ms));
      line += buf;
    }
    if (result.witness.has_value()) {
      line += ", \"witness\": \"" + JsonEscape(result.witness->ToString()) +
              "\", \"witness_class\": \"" +
              std::string(ToString(result.witness_class)) + "\"";
    }
    line += "}";
    return line;
  } catch (const std::exception& e) {
    return "{\"query\": \"" + JsonEscape(query_text) +
           "\", \"error\": \"internal: " + JsonEscape(e.what()) + "\"}";
  }
}

std::optional<std::string> BatchLineResponse(const Engine& engine,
                                             const std::string& line,
                                             int64_t reported_deadline_ms,
                                             CancelToken* cancel) {
  size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '%') return std::nullopt;
  return DecideResponse(engine, line, reported_deadline_ms, cancel);
}

std::string EvalResponse(const Engine& engine,
                         const data::ColumnarInstance& db,
                         const std::string& query_text,
                         int64_t reported_deadline_ms, CancelToken* cancel,
                         size_t max_answers) {
  ParseResult<ConjunctiveQuery> q = ParseQuery(query_text);
  if (!q.ok()) {
    return "{\"query\": \"" + JsonEscape(query_text) + "\", \"error\": \"" +
           JsonEscape(q.error) + "\"}";
  }
  try {
    PreparedQuery pq = engine.Prepare(*q.value);
    EvalOptions opts;
    opts.cancel = cancel;
    EvalOutcome out = engine.Eval(pq, db, opts);
    std::string line = "{\"query\": \"" + JsonEscape(q->ToString()) + "\"";
    char buf[256];
    if (reported_deadline_ms > 0) {
      std::snprintf(buf, sizeof(buf), ", \"deadline_ms\": %lld",
                    static_cast<long long>(reported_deadline_ms));
      line += buf;
    }
    if (!out.status.ok()) {
      const char* status = "unsupported";
      switch (out.status.code) {
        case Status::Code::kNotFound:
          status = "not_found";
          break;
        case Status::Code::kDeadlineExceeded:
          status = "deadline_exceeded";
          break;
        default:
          break;
      }
      line += ", \"status\": \"" + std::string(status) + "\", \"message\": \"" +
              JsonEscape(out.status.message) + "\"}";
      return line;
    }
    line += ", \"status\": \"ok\", \"witness\": \"" +
            JsonEscape(out.witness.ToString()) + "\", \"columnar\": " +
            (out.columnar ? "true" : "false");
    std::snprintf(buf, sizeof(buf),
                  ", \"answer_count\": %zu, \"rows_scanned\": %zu, "
                  "\"semijoin_probes\": %zu, \"dp_rows\": %zu",
                  out.evaluation.answers.size(), out.exec_stats.rows_scanned,
                  out.exec_stats.semijoin_probes, out.exec_stats.dp_rows);
    line += buf;
    if (max_answers > 0) {
      line += ", \"answers\": [";
      size_t shown = std::min(max_answers, out.evaluation.answers.size());
      for (size_t i = 0; i < shown; ++i) {
        if (i > 0) line += ", ";
        line += "[";
        const std::vector<Term>& tuple = out.evaluation.answers[i];
        for (size_t j = 0; j < tuple.size(); ++j) {
          if (j > 0) line += ", ";
          line += "\"" + JsonEscape(tuple[j].ToString()) + "\"";
        }
        line += "]";
      }
      line += "]";
      if (shown < out.evaluation.answers.size()) {
        std::snprintf(buf, sizeof(buf), ", \"answers_truncated\": %zu",
                      out.evaluation.answers.size() - shown);
        line += buf;
      }
    }
    line += "}";
    return line;
  } catch (const std::exception& e) {
    return "{\"query\": \"" + JsonEscape(query_text) +
           "\", \"error\": \"internal: " + JsonEscape(e.what()) + "\"}";
  }
}

std::optional<std::string> EvalLineResponse(const Engine& engine,
                                            const data::ColumnarInstance& db,
                                            const std::string& line,
                                            int64_t reported_deadline_ms,
                                            CancelToken* cancel,
                                            size_t max_answers) {
  size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '%') return std::nullopt;
  return EvalResponse(engine, db, line, reported_deadline_ms, cancel,
                      max_answers);
}

std::string EngineStatsJson(const Engine& engine) {
  obs::MetricsSnapshot metrics = engine.Metrics();
  CacheStats cache = engine.Stats();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"prepares\": %" PRIu64 ", \"decisions\": %" PRIu64
      ", \"oracle_prefiltered\": %" PRIu64
      ", \"deadline_ms\": %lld, \"caches\": {\"decisions\": {"
      "\"entries\": %zu, \"bytes\": %zu, \"hits\": %zu, \"misses\": %zu, "
      "\"inserts\": %zu, \"evictions\": %zu, \"max_bytes\": %zu}}}",
      metrics.phases[static_cast<size_t>(obs::Phase::kPrepare)].latency.count,
      metrics.decisions_total, metrics.Count(obs::Counter::kOraclePrefiltered),
      static_cast<long long>(engine.options().deadline_ms), cache.entries,
      cache.bytes, cache.hits, cache.misses, cache.inserts, cache.evictions,
      cache.max_bytes);
  return buf;
}

std::string OverloadedResponse() { return "{\"status\": \"overloaded\"}"; }

std::string HealthResponse() { return "{\"status\": \"ok\"}"; }

}  // namespace semacyc::serve
