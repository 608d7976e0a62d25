#include "data/columnar.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "core/parser.h"

namespace semacyc::data {

uint32_t ColumnarInstance::Intern(Term t) {
  uint32_t vid = value_ids_.Insert(t.raw_bits());
  if (vid == dictionary_.size()) dictionary_.push_back(t);
  return vid;
}

ColumnarInstance::Relation& ColumnarInstance::RelationFor(Predicate p) {
  uint32_t index = relation_ids_.Insert(p.id());
  if (index == relations_.size()) {
    Relation rel;
    rel.pred = p;
    rel.arity = static_cast<uint32_t>(p.arity());
    rel.columns.resize(rel.arity);
    relations_.push_back(std::move(rel));
  }
  return relations_[index];
}

ColumnarInstance ColumnarInstance::FromInstance(const Instance& db) {
  ColumnarInstance out;
  out.dictionary_.reserve(db.size());
  for (const Atom& a : db.atoms()) {
    Relation& rel = out.RelationFor(a.predicate());
    for (size_t c = 0; c < a.arity(); ++c) {
      rel.columns[c].push_back(out.Intern(a.arg(c)));
    }
    ++rel.rows;
    ++out.total_rows_;
  }
  out.Seal();
  return out;
}

std::optional<ColumnarInstance> ColumnarInstance::FromFile(
    const std::string& path, std::string* error) {
  auto fail = [&](const char* what) -> std::optional<ColumnarInstance> {
    if (error != nullptr) {
      *error = std::string(what) + " fact file: " + path + " (" +
               std::strerror(errno) + ")";
    }
    return std::nullopt;
  };
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail("cannot open");
  // One read into a buffer of the file's size (a regular file's st_size;
  // pipes and other streams grow it as they deliver). Reading a directory
  // fails with EISDIR like any other read error.
  struct stat st;
  std::string text;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    text.resize(static_cast<size_t>(st.st_size));
  }
  size_t filled = 0;
  while (true) {
    char probe[4096];
    bool at_capacity = filled == text.size();
    ssize_t got = at_capacity
                      ? ::read(fd, probe, sizeof(probe))
                      : ::read(fd, text.data() + filled, text.size() - filled);
    if (got < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      errno = saved;
      return fail("cannot read");
    }
    if (got == 0) break;
    if (at_capacity) text.append(probe, static_cast<size_t>(got));
    filled += static_cast<size_t>(got);
  }
  ::close(fd);
  text.resize(filled);  // a file that shrank since fstat
  return FromText(text, error);
}

namespace {

/// Words the error for a line the fact scanner rejected, exactly as the
/// core parser words it: the parser's own message for a malformed line,
/// the groundness message for a well-formed line with a variable.
std::string RejectionReason(std::string_view line) {
  ParseResult<std::vector<Atom>> atoms = ParseAtoms(line);
  if (!atoms.ok()) return atoms.error;
  for (const Atom& a : *atoms.value) {
    if (a.MentionsKind(TermKind::kVariable)) {
      return "facts must be ground (got " + a.ToString() +
             "; quote constants: 'a', or use numbers)";
    }
  }
  return "the fact scanner rejected a line the parser accepts";
}

/// The core lexer's character classes, one table lookup per byte instead
/// of a <cctype> call. Built from those same calls at the first load, so
/// the two agree in any locale the process does not switch afterwards.
enum CharClass : uint8_t {
  kSpace = 1,       // std::isspace
  kDigit = 2,       // std::isdigit
  kIdentStart = 4,  // std::isalpha or '_'
  kIdentChar = 8,   // std::isalnum or '_'
};

const std::array<uint8_t, 256>& CharClasses() {
  static const std::array<uint8_t, 256> table = [] {
    std::array<uint8_t, 256> t{};
    for (int c = 0; c < 256; ++c) {
      t[c] = (std::isspace(c) ? kSpace : 0) | (std::isdigit(c) ? kDigit : 0) |
             (std::isalpha(c) || c == '_' ? kIdentStart : 0) |
             (std::isalnum(c) || c == '_' ? kIdentChar : 0);
    }
    return t;
  }();
  return table;
}

/// (text, tag) keys as FlatKeyTable groups, each with the id `make` gave
/// it. A key is its FNV-1a hash, and a group matches only its own text and
/// tag, so a hash collision never merges two keys. The texts are views
/// into the text being loaded, which must outlive the keys.
struct TextIds {
  struct Key {
    std::string_view text;
    uint32_t tag;
    uint32_t id;
  };
  FlatKeyTable groups;
  std::vector<Key> keys;  // per group

  /// The id of (text, tag); calls `make()` for the id of a new key.
  template <typename Make>
  uint32_t GetOrAdd(std::string_view text, uint32_t tag, Make make) {
    uint64_t hash = 0xcbf29ce484222325ull ^ tag;
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 0x100000001b3ull;
    }
    uint32_t g = groups.Insert(hash, [&](uint32_t k) {
      return keys[k].text == text && keys[k].tag == tag;
    });
    if (g == keys.size()) keys.push_back({text, tag, make()});
    return keys[g].id;
  }
};

}  // namespace

/// Scans fact lines in place, straight into the instance's columns, with
/// the core lexer's grammar (core/parser.cc): a predicate starts with a
/// letter or '_' and continues alphanumerically; a constant is a digit run
/// or a '...' / "..." quoted text (no escapes), keyed by its text alone, so
/// 42, '42' and "42" are one constant; any isspace character separates
/// tokens, and '%' outside quotes ends the line. Constant texts and
/// (name, arity) pairs are TextIds keys, views into the loaded text. Each
/// distinct constant reaches Term::Constant and Intern once per load, each
/// distinct (name, arity) Predicate::Get and RelationFor; every later
/// occurrence is one FlatKeyTable probe and one comparison of the views.
class ColumnarInstance::FactScanner {
 public:
  explicit FactScanner(ColumnarInstance* out) : out_(out) {}

  /// Appends the atoms of `line` — a comma-separated atom list with an
  /// optional trailing '.' — and returns true; returns false when the line
  /// is not such a list of ground atoms (the load then fails, so rows
  /// already appended from the line do not matter).
  bool ScanLine(std::string_view line) {
    line_ = line;
    pos_ = 0;
    do {
      if (!ScanAtom()) return false;
      SkipBlanks();
    } while (Consume(','));
    if (Consume('.')) SkipBlanks();
    return pos_ == line_.size();
  }

 private:
  bool Is(size_t pos, CharClass cls) const {
    return (classes_[static_cast<unsigned char>(line_[pos])] & cls) != 0;
  }

  bool Consume(char c) {
    if (pos_ == line_.size() || line_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void SkipBlanks() {
    while (pos_ < line_.size()) {
      if (Is(pos_, kSpace)) {
        ++pos_;
      } else if (line_[pos_] == '%') {
        pos_ = line_.size();
      } else {
        break;
      }
    }
  }

  bool ScanAtom() {
    SkipBlanks();
    size_t start = pos_;
    if (pos_ == line_.size() || !Is(pos_, kIdentStart)) return false;
    while (++pos_ < line_.size() && Is(pos_, kIdentChar)) {
    }
    std::string_view name = line_.substr(start, pos_ - start);
    SkipBlanks();
    if (!Consume('(')) return false;
    args_.clear();
    SkipBlanks();
    if (!Consume(')')) {
      while (true) {
        SkipBlanks();
        std::optional<std::string_view> text = ScanConstant();
        if (!text.has_value()) return false;
        args_.push_back(values_.GetOrAdd(*text, 0, [&] {
          return out_->Intern(Term::Constant(std::string(*text)));
        }));
        SkipBlanks();
        if (Consume(',')) continue;
        if (Consume(')')) break;
        return false;
      }
    }
    uint32_t arity = static_cast<uint32_t>(args_.size());
    uint32_t index = predicates_.GetOrAdd(name, arity, [&] {
      Predicate p = Predicate::Get(std::string(name), static_cast<int>(arity));
      return static_cast<uint32_t>(&out_->RelationFor(p) -
                                   out_->relations_.data());
    });
    Relation& rel = out_->relations_[index];
    for (uint32_t c = 0; c < arity; ++c) rel.columns[c].push_back(args_[c]);
    ++rel.rows;
    ++out_->total_rows_;
    return true;
  }

  /// The text of a numeric or quoted constant at pos_; nullopt for
  /// anything else (an identifier would be a variable).
  std::optional<std::string_view> ScanConstant() {
    if (pos_ == line_.size()) return std::nullopt;
    size_t start = pos_;
    if (Is(pos_, kDigit)) {
      while (++pos_ < line_.size() && Is(pos_, kDigit)) {
      }
      return line_.substr(start, pos_ - start);
    }
    char quote = line_[pos_];
    if (quote != '\'' && quote != '"') return std::nullopt;
    size_t close = line_.find(quote, start + 1);
    if (close == std::string_view::npos) return std::nullopt;
    pos_ = close + 1;
    return line_.substr(start + 1, close - start - 1);
  }

  ColumnarInstance* out_;
  const std::array<uint8_t, 256>& classes_ = CharClasses();
  std::string_view line_;
  size_t pos_ = 0;
  std::vector<uint32_t> args_;  // value ids of the atom being scanned
  TextIds values_;              // constant text -> value id
  TextIds predicates_;          // (name, arity) -> index in relations_
};

std::optional<ColumnarInstance> ColumnarInstance::FromText(
    std::string_view text, std::string* error, LoadTimes* times) {
  using Clock = std::chrono::steady_clock;
  auto nanos_since = [](Clock::time_point start) {
    return static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };
  Clock::time_point start_scan = Clock::now();
  ColumnarInstance out;
  {
    FactScanner scanner(&out);
    size_t line_no = 0;
    size_t start = 0;
    while (start <= text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string_view::npos) end = text.size();
      std::string_view line = text.substr(start, end - start);
      start = end + 1;
      ++line_no;
      // Skip blanks and '%' comment lines without invoking the scanner.
      size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string_view::npos || line[first] == '%') {
        if (end == text.size()) break;
        continue;
      }
      if (!scanner.ScanLine(line)) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) + ": " +
                   RejectionReason(line);
        }
        return std::nullopt;
      }
      if (end == text.size()) break;
    }
  }  // the scanner's tables go before Seal allocates
  int64_t scan_ns = nanos_since(start_scan);
  Clock::time_point start_seal = Clock::now();
  out.Seal();
  if (times != nullptr) *times = {scan_ns, nanos_since(start_seal)};
  return out;
}

// Seal is one stable counting sort of every cell of the instance by value
// id, then one pass that deals the sorted cells out to their columns:
//   1. count the cells of each value id            O(cells)
//   2. prefix-sum the counts into bucket starts    O(values)
//   3. place each cell as (column slot, row), walking slots in order and
//      rows ascending within a slot — stable, so inside a bucket the cells
//      stay in (slot, row) order                   O(cells)
//   4. walk the buckets in value order, appending each row to its slot's
//      run                                         O(cells)
// Each run thus receives its rows by ascending value and, within a value,
// ascending row: exactly the (columns[c][row], row) order. Total
// O(cells + values + columns) time and memory; the only array sized by the
// dictionary is allocated once per instance, never per column, so a file
// of many tiny relations over a large dictionary stays linear.
void ColumnarInstance::Seal() {
  std::vector<size_t> bucket(dictionary_.size() + 1, 0);
  std::vector<std::vector<uint32_t>*> runs;
  size_t cells = 0;
  for (Relation& rel : relations_) {
    rel.sorted_runs.resize(rel.arity);
    for (uint32_t c = 0; c < rel.arity; ++c) {
      for (uint32_t v : rel.columns[c]) ++bucket[v + 1];
      rel.sorted_runs[c].reserve(rel.rows);
      runs.push_back(&rel.sorted_runs[c]);
      cells += rel.rows;
    }
  }
  for (size_t v = 1; v < bucket.size(); ++v) bucket[v] += bucket[v - 1];
  std::vector<std::pair<uint32_t, uint32_t>> sorted(cells);  // (slot, row)
  uint32_t slot = 0;
  for (const Relation& rel : relations_) {
    for (uint32_t c = 0; c < rel.arity; ++c, ++slot) {
      const std::vector<uint32_t>& col = rel.columns[c];
      for (size_t r = 0; r < rel.rows; ++r) {
        sorted[bucket[col[r]]++] = {slot, static_cast<uint32_t>(r)};
      }
    }
  }
  for (const auto& [s, row] : sorted) runs[s]->push_back(row);
}

std::pair<const uint32_t*, const uint32_t*> ColumnarInstance::EqualRange(
    const Relation& rel, size_t pos, uint32_t vid) const {
  const std::vector<uint32_t>& run = rel.sorted_runs[pos];
  const std::vector<uint32_t>& col = rel.columns[pos];
  auto lo = std::lower_bound(run.begin(), run.end(), vid,
                             [&col](uint32_t row, uint32_t v) {
                               return col[row] < v;
                             });
  auto hi = std::upper_bound(lo, run.end(), vid,
                             [&col](uint32_t v, uint32_t row) {
                               return v < col[row];
                             });
  return {run.data() + (lo - run.begin()), run.data() + (hi - run.begin())};
}

Instance ColumnarInstance::ToInstance() const {
  Instance out;
  out.Reserve(total_rows_);
  for (const Relation& rel : relations_) {
    for (size_t r = 0; r < rel.rows; ++r) {
      std::vector<Term> args;
      args.reserve(rel.arity);
      for (uint32_t c = 0; c < rel.arity; ++c) {
        args.push_back(dictionary_[rel.columns[c][r]]);
      }
      out.Insert(Atom(rel.pred, std::move(args)));
    }
  }
  return out;
}

size_t ColumnarInstance::ApproxBytes() const {
  size_t bytes = sizeof(ColumnarInstance);
  bytes += dictionary_.size() * sizeof(Term) + value_ids_.ApproxBytes() +
           relation_ids_.ApproxBytes();
  for (const Relation& rel : relations_) {
    bytes += sizeof(Relation);
    // Data columns and sorted runs: 4 bytes per cell each.
    bytes += rel.rows * rel.arity * 2 * sizeof(uint32_t);
  }
  return bytes;
}

std::string ColumnarInstance::ToString() const {
  std::string out = "ColumnarInstance{values=" +
                    std::to_string(dictionary_.size()) + ", rows=" +
                    std::to_string(total_rows_);
  for (const Relation& rel : relations_) {
    out += ", " + rel.pred.name() + "/" + std::to_string(rel.arity) + ":" +
           std::to_string(rel.rows);
  }
  return out + "}";
}

}  // namespace semacyc::data
