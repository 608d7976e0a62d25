// semacycd: the long-running semantic-acyclicity decision service.
//
//   semacycd --schema <file> [--port N] [--workers N] [--queue N]
//            [--deadline-ms N] [--cache-mb N] [--tenants a,b,c]
//            [--drain-ms N]
//
// Binds 127.0.0.1:<port> (0 = ephemeral; the bound port is printed to
// stderr as "semacycd listening on 127.0.0.1:<port>") and serves the
// JSON-lines protocol of docs/SERVING.md over persistent connections:
// raw `--batch` query lines or {"op": ...} JSON requests in, one JSON
// decision line out per request, plus the built-in `stats` and `health`
// endpoints. One shared Engine per tenant over the schema; decide
// requests run on a fixed worker pool and are shed with an immediate
// {"status": "overloaded"} line when the queue is at its high-water
// mark. SIGTERM/SIGINT shut down gracefully: stop accepting, drain
// in-flight decisions under --drain-ms, cancel stragglers, exit 0.
//
// `semacyc_cli --serve PORT <schema-file>` runs the same server setup
// (both binaries call serve::ServeForever).
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "chase/dependency.h"
#include "serve/server.h"

using namespace semacyc;

namespace {

void PrintUsage(FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s --schema <file> [--port N] [--workers N] [--queue N]\n"
      "       %*s [--deadline-ms N] [--cache-mb N] [--tenants a,b,c]\n"
      "       %*s [--drain-ms N]\n"
      "  --schema FILE   dependency set served by this instance (required;\n"
      "                  '%%' comments allowed)\n"
      "  --port N        TCP port on 127.0.0.1; 0 (default) binds an\n"
      "                  ephemeral port, printed on stderr\n"
      "  --workers N     decision worker threads (default 4)\n"
      "  --queue N       worker-queue high-water mark; requests beyond it\n"
      "                  are shed with {\"status\": \"overloaded\"}\n"
      "                  (default 64)\n"
      "  --deadline-ms N server-wide per-request deadline default; a\n"
      "                  request's own deadline_ms field overrides it\n"
      "                  (default: none)\n"
      "  --cache-mb N    total decision-cache budget in MiB, split evenly\n"
      "                  across tenant engines (default: unbounded)\n"
      "  --tenants LIST  comma-separated tenant names, each with its own\n"
      "                  engine + budget share; the default tenant always\n"
      "                  exists (requests without \"tenant\" use it)\n"
      "  --drain-ms N    graceful-shutdown drain budget per phase\n"
      "                  (default 2000)\n"
      "protocol and endpoints: docs/SERVING.md; JSON decision schema:\n"
      "docs/CLI.md (shared with semacyc_cli --batch)\n",
      prog, static_cast<int>(std::strlen(prog)), "",
      static_cast<int>(std::strlen(prog)), "");
}

/// Digits-only positive-int parse shared by every numeric flag (strtoull
/// would silently wrap "-1"); `max` guards the target type's range.
bool ParseCount(const char* text, unsigned long long max,
                unsigned long long* out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long n = std::strtoull(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || n > max) return false;
  *out = n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* schema_path = nullptr;
  serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](unsigned long long max, unsigned long long* out) {
      if (i + 1 >= argc) return false;
      return ParseCount(argv[++i], max, out);
    };
    unsigned long long n = 0;
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout, argv[0]);
      return 0;
    } else if (std::strcmp(argv[i], "--schema") == 0) {
      if (i + 1 >= argc) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      schema_path = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!next(65535, &n)) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      options.port = static_cast<uint16_t>(n);
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      if (!next(1024, &n) || n == 0) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      options.workers = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      if (!next(1u << 20, &n) || n == 0) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      options.queue_high_water = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (!next(INT64_MAX, &n) || n == 0) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      options.default_deadline_ms = static_cast<int64_t>(n);
    } else if (std::strcmp(argv[i], "--cache-mb") == 0) {
      if (!next(SIZE_MAX >> 20, &n) || n == 0) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      options.cache_mb = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--drain-ms") == 0) {
      if (!next(INT64_MAX, &n)) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      options.drain_ms = static_cast<int64_t>(n);
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      if (i + 1 >= argc) {
        PrintUsage(stderr, argv[0]);
        return 3;
      }
      std::string list = argv[++i];
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) {
          options.tenants.push_back(list.substr(start, comma - start));
        }
        start = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      PrintUsage(stderr, argv[0]);
      return 3;
    }
  }
  if (schema_path == nullptr) {
    PrintUsage(stderr, argv[0]);
    return 3;
  }

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
  return serve::ServeForever(*sigma.value, options);
}
