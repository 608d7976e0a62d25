#ifndef PERFBENCH_JSON_FIELDS_H_
#define PERFBENCH_JSON_FIELDS_H_

#include <optional>
#include <string>

/// Field extraction from the flat one-line JSON objects the protocol
/// renders (serve/protocol.h). Enough for the benchmark's output checks;
/// not a general JSON parser.
namespace perfbench {

/// The string value of `"key": "..."` (unescaped), if present.
inline std::optional<std::string> JsonString(const std::string& line,
                                             const std::string& key) {
  std::string probe = "\"" + key + "\": \"";
  size_t pos = line.find(probe);
  if (pos == std::string::npos) return std::nullopt;
  std::string out;
  for (size_t i = pos + probe.size(); i < line.size(); ++i) {
    char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      char e = line[++i];
      out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
    } else if (c == '"') {
      return out;
    } else {
      out += c;
    }
  }
  return std::nullopt;
}

/// The raw (unquoted) token of `"key": <token>` — numbers and booleans.
inline std::optional<std::string> JsonToken(const std::string& line,
                                            const std::string& key) {
  std::string probe = "\"" + key + "\": ";
  size_t pos = line.find(probe);
  if (pos == std::string::npos) return std::nullopt;
  size_t start = pos + probe.size();
  size_t end = line.find_first_of(",}", start);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(start, end - start);
}

}  // namespace perfbench

#endif  // PERFBENCH_JSON_FIELDS_H_
