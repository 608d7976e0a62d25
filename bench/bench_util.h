#ifndef SEMACYC_BENCH_BENCH_UTIL_H_
#define SEMACYC_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/obs.h"

namespace semacyc::bench {

/// Minimal fixed-width table printer for the "shape reports" every bench
/// emits before the google-benchmark timings: the rows that mirror what
/// the paper's figure/example/claim predicts vs. what this build measured.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Dumps the rows into a JsonReport section, keyed by the column
  /// headers (all values as JSON strings) — the one-line way to make a
  /// shape report machine-readable. Declared after JsonReport below.
  template <typename Report>
  void WriteTo(Report* report, const std::string& section) const;

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c) {
      for (size_t i = 0; i < widths[c] + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void Banner(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

/// Machine-readable result sink: when the binary is invoked with `--json`
/// (or `--json=<path>`), collected rows are written as
/// `BENCH_<name>.json` — an object of named sections, each an array of
/// flat key/value rows — so CI and scripts can diff bench results without
/// scraping tables. Without the flag this is a no-op.
///
/// Usage:
///   JsonReport report(argc, argv, "acyclic_hierarchy");
///   report.AddRow("gyo", {{"edges", JsonReport::Num(5000)},
///                         {"speedup", JsonReport::Num(ratio)}});
///   ...  // file is written by the destructor
class JsonReport {
 public:
  using Row = std::vector<std::pair<std::string, std::string>>;

  JsonReport(int argc, char** argv, const std::string& name)
      : path_("BENCH_" + name + ".json"), name_(name) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        enabled_ = true;
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        enabled_ = true;
        path_ = argv[i] + 7;
      }
    }
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { Write(); }

  bool enabled() const { return enabled_; }

  /// Renders a JSON number or string value. Non-finite doubles have no
  /// JSON representation and become null so the file always parses.
  static std::string Num(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream out;
    out << std::setprecision(12) << v;
    return out.str();
  }
  static std::string Str(const std::string& s) {
    return "\"" + obs::JsonEscape(s) + "\"";
  }

  void AddRow(const std::string& section, Row row) {
    if (!enabled_) return;
    for (auto& [name, rows] : sections_) {
      if (name == section) {
        rows.push_back(std::move(row));
        return;
      }
    }
    sections_.push_back({section, {std::move(row)}});
  }

 private:
  void Write() {
    if (!enabled_ || written_) return;
    written_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": %s", Str(name_).c_str());
    for (const auto& [name, rows] : sections_) {
      std::fprintf(f, ",\n  %s: [", Str(name).c_str());
      for (size_t r = 0; r < rows.size(); ++r) {
        std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
        for (size_t k = 0; k < rows[r].size(); ++k) {
          std::fprintf(f, "%s%s: %s", k == 0 ? "" : ", ",
                       Str(rows[r][k].first).c_str(), rows[r][k].second.c_str());
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "\n  ]");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path_.c_str());
  }

  bool enabled_ = false;
  bool written_ = false;
  std::string path_;
  std::string name_;
  std::vector<std::pair<std::string, std::vector<Row>>> sections_;
};

template <typename Report>
void Table::WriteTo(Report* report, const std::string& section) const {
  for (const auto& row : rows_) {
    typename Report::Row out;
    for (size_t c = 0; c < headers_.size() && c < row.size(); ++c) {
      out.push_back({headers_[c], Report::Str(row[c])});
    }
    report->AddRow(section, std::move(out));
  }
}

}  // namespace semacyc::bench

#endif  // SEMACYC_BENCH_BENCH_UTIL_H_
