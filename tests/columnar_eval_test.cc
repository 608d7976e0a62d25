#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "core/homomorphism.h"
#include "core/hypergraph.h"
#include "core/join_tree.h"
#include "core/parser.h"
#include "data/columnar.h"
#include "core/flat_table.h"
#include "data/semijoin_program.h"
#include "eval/yannakakis.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

Term C(const std::string& s) { return Term::Constant(s); }

Instance Db(const std::string& atoms) {
  Instance inst;
  inst.InsertAll(MustParseAtoms(atoms));
  return inst;
}

std::set<std::vector<Term>> AsSet(std::vector<std::vector<Term>> v) {
  return std::set<std::vector<Term>>(v.begin(), v.end());
}

/// The core differential check: the compiled columnar program and the
/// row-path evaluator agree on the full answer set, and the Boolean fast
/// paths agree too.
void ExpectColumnarMatchesRow(const ConjunctiveQuery& q, const Instance& db) {
  std::optional<JoinTreeView> tree =
      BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value()) << "query unexpectedly cyclic";
  data::ColumnarInstance col = data::ColumnarInstance::FromInstance(db);
  data::SemiJoinProgram prog = data::SemiJoinProgram::Compile(q, *tree);
  data::ColumnarEvalResult res = prog.Execute(col);
  ASSERT_FALSE(res.aborted);
  YannakakisResult row = EvaluateAcyclic(q, *tree, db);
  ASSERT_TRUE(row.ok);
  EXPECT_EQ(AsSet(res.answers), AsSet(row.answers));

  ConjunctiveQuery boolean_q({}, q.body());
  data::SemiJoinProgram bool_prog =
      data::SemiJoinProgram::Compile(boolean_q, *tree);
  EXPECT_EQ(bool_prog.ExecuteBoolean(col),
            EvaluateAcyclicBoolean(boolean_q, *tree, db));
}

TEST(ColumnarInstanceTest, FromInstanceRoundTrips) {
  Instance db = Db("E('a','b'), E('b','c'), P('a'), F('a','b','c')");
  data::ColumnarInstance col = data::ColumnarInstance::FromInstance(db);
  EXPECT_EQ(col.TotalRows(), db.size());
  EXPECT_EQ(col.relations().size(), 3u);
  Instance back = col.ToInstance();
  EXPECT_EQ(back.size(), db.size());
  for (const Atom& a : db.atoms()) EXPECT_TRUE(back.Contains(a));
  EXPECT_GT(col.ApproxBytes(), 0u);
}

TEST(ColumnarInstanceTest, DictionaryAndEqualRange) {
  Instance db = Db("E('a','b'), E('a','c'), E('b','c')");
  data::ColumnarInstance col = data::ColumnarInstance::FromInstance(db);
  uint32_t a = col.ValueIdOf(C("a"));
  ASSERT_NE(a, data::kNoValue);
  EXPECT_EQ(col.TermOf(a), C("a"));
  EXPECT_EQ(col.ValueIdOf(C("zzz")), data::kNoValue);
  const data::ColumnarInstance::Relation* rel =
      col.RelationOf(Predicate::Get("E", 2));
  ASSERT_NE(rel, nullptr);
  auto [lo, hi] = col.EqualRange(*rel, 0, a);
  EXPECT_EQ(hi - lo, 2);  // two E-rows with 'a' in position 0
  for (const uint32_t* r = lo; r != hi; ++r) {
    EXPECT_EQ(rel->columns[0][*r], a);
  }
}

TEST(ColumnarInstanceTest, FromTextParsesGroundFacts) {
  std::string error;
  std::optional<data::ColumnarInstance> col = data::ColumnarInstance::FromText(
      "% a comment line\n"
      "E('a','b'), E('b','c')\n"
      "\n"
      "P(42)\n",
      &error);
  ASSERT_TRUE(col.has_value()) << error;
  EXPECT_EQ(col->TotalRows(), 3u);
  Instance back = col->ToInstance();
  EXPECT_TRUE(back.Contains(MustParseAtoms("E('a','b')")[0]));
  EXPECT_TRUE(back.Contains(MustParseAtoms("P(42)")[0]));
}

TEST(ColumnarInstanceTest, FromTextRejectsVariablesWithLineNumber) {
  std::string error;
  std::optional<data::ColumnarInstance> col = data::ColumnarInstance::FromText(
      "E('a','b')\nE(x,'c')\n", &error);
  EXPECT_FALSE(col.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("ground"), std::string::npos) << error;
}

TEST(ColumnarInstanceTest, FromTextReportsParseErrors) {
  std::string error;
  std::optional<data::ColumnarInstance> col =
      data::ColumnarInstance::FromText("E('a','b')\nE('a',\n", &error);
  EXPECT_FALSE(col.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Fact-file loading: FromText against a reference loader, sorted runs,
// FromFile's I/O errors.

/// Everything a load determines, in a form both loaders can fill.
struct LoadedRelation {
  Predicate pred;
  uint32_t arity = 0;
  size_t rows = 0;
  std::vector<std::vector<uint32_t>> columns;
  std::vector<std::vector<uint32_t>> sorted_runs;
  bool operator==(const LoadedRelation& o) const {
    return pred == o.pred && arity == o.arity && rows == o.rows &&
           columns == o.columns && sorted_runs == o.sorted_runs;
  }
};
struct Loaded {
  std::vector<Term> dictionary;
  std::vector<LoadedRelation> relations;
};

Loaded Snapshot(const data::ColumnarInstance& col) {
  Loaded out;
  for (size_t v = 0; v < col.NumValues(); ++v) {
    out.dictionary.push_back(col.TermOf(static_cast<uint32_t>(v)));
  }
  for (const data::ColumnarInstance::Relation& rel : col.relations()) {
    out.relations.push_back(
        {rel.pred, rel.arity, rel.rows, rel.columns, rel.sorted_runs});
  }
  return out;
}

/// The loader FromText replaced, kept as the reference: one core-parser
/// ParseAtoms call per non-blank line, every cell interned through a
/// Term-keyed map, each sorted run built by an indirect comparison sort.
std::optional<Loaded> ReferenceLoad(std::string_view text,
                                    std::string* error) {
  Loaded out;
  std::map<Term, uint32_t> ids;
  std::map<Predicate, size_t> rel_of;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string_view::npos && line[first] != '%') {
      ParseResult<std::vector<Atom>> atoms = ParseAtoms(line);
      if (!atoms.ok()) {
        *error = "line " + std::to_string(line_no) + ": " + atoms.error;
        return std::nullopt;
      }
      for (const Atom& a : *atoms.value) {
        if (a.MentionsKind(TermKind::kVariable)) {
          *error = "line " + std::to_string(line_no) +
                   ": facts must be ground (got " + a.ToString() +
                   "; quote constants: 'a', or use numbers)";
          return std::nullopt;
        }
        auto [rit, fresh_rel] = rel_of.emplace(a.predicate(),
                                               out.relations.size());
        if (fresh_rel) {
          LoadedRelation rel;
          rel.pred = a.predicate();
          rel.arity = static_cast<uint32_t>(a.arity());
          rel.columns.resize(a.arity());
          out.relations.push_back(std::move(rel));
        }
        LoadedRelation& rel = out.relations[rit->second];
        for (size_t c = 0; c < a.arity(); ++c) {
          auto [vit, fresh] = ids.emplace(
              a.arg(c), static_cast<uint32_t>(out.dictionary.size()));
          if (fresh) out.dictionary.push_back(a.arg(c));
          rel.columns[c].push_back(vit->second);
        }
        ++rel.rows;
      }
    }
    if (end == text.size()) break;
  }
  for (LoadedRelation& rel : out.relations) {
    for (const std::vector<uint32_t>& col : rel.columns) {
      std::vector<uint32_t> run(rel.rows);
      for (size_t r = 0; r < rel.rows; ++r) run[r] = static_cast<uint32_t>(r);
      std::sort(run.begin(), run.end(), [&col](uint32_t a, uint32_t b) {
        return col[a] != col[b] ? col[a] < col[b] : a < b;
      });
      rel.sorted_runs.push_back(std::move(run));
    }
  }
  return out;
}

/// FromText and the reference agree on acceptance, on the error string,
/// and on relation order, columns, dictionary order and sorted runs.
void ExpectLoadsLikeReference(std::string_view text) {
  std::string want_error, got_error;
  std::optional<Loaded> want = ReferenceLoad(text, &want_error);
  std::optional<data::ColumnarInstance> got =
      data::ColumnarInstance::FromText(text, &got_error);
  ASSERT_EQ(got.has_value(), want.has_value())
      << "text: " << text << "\nreference: " << want_error
      << "\nFromText: " << got_error;
  if (!want.has_value()) {
    EXPECT_EQ(got_error, want_error) << "text: " << text;
    return;
  }
  Loaded snap = Snapshot(*got);
  EXPECT_TRUE(snap.dictionary == want->dictionary) << "text: " << text;
  EXPECT_TRUE(snap.relations == want->relations) << "text: " << text;
  size_t rows = 0;
  for (const LoadedRelation& rel : want->relations) rows += rel.rows;
  EXPECT_EQ(got->TotalRows(), rows);
}

TEST(FactLoadTest, AdversarialCorpusMatchesReferenceLoader) {
  const char* corpus[] = {
      // Accepted.
      "",
      "\n\n",
      "% only a comment",
      "E('a','b'), E('b','c'), F('c')\nE('c','a').\n",
      "E('a','b') .   \nE ( 'b' , 'c' ) , F('x')  .  % trailing comment\n",
      "\tE('a',\t'b')\r\nE('b','c')\r\n\r\n",
      "P()\nP( )\nQ(), P().\n",
      "S(''), S(\"\"), S('')\n",
      "S(\"a'b\"), S('a\"b'), S('%'), S(' spaced ')\n",
      "N(42), N('42'), N(\"42\"), N(042), N(7)\n",
      "R('a'), R('a','b'), R('a','b','c')\nR('b'), R('x','y')\n",
      "E('a','b')\nE('b','c')",  // last line without '\n'
      "_p(1), p_2(2), P3x(3)\n",
      "E('a','b') % E(x,y) is commented out\n",
      "   % indented comment\n\t\r\nE('z','a')\n",
      "E('a','b')\f\n",
      // Rejected: each error class the core parser words.
      "E('a','b')\nE('a,'b')\n",             // stray quote
      "E('a','b\n",                          // unterminated quote
      "E(\"a)\n",                            // unterminated double quote
      "E('a','b')\nE(x,'c')\n",              // variable argument
      "E('a'), F(y)\n",                      // variable in a later atom
      "E('a',)\n",                           // missing argument
      "E('a') x\n",                          // trailing identifier
      "E(42abc)\n",                          // number then identifier
      "E('a'),\n",                           // trailing comma
      "E('a') ..\n",                         // two dots
      "E('a') . E('b')\n",                   // input after the dot
      "E 'a'\n",                             // missing '('
      "('a')\n",                             // missing predicate
      "1E('a')\n",                           // predicate is a number
      "E('a' 'b')\n",                        // missing ','
      "E(('a'))\n",                          // nested '('
      "E(-1)\n",                             // '-' is not a sign
      "E(1.5)\n",                            // no decimals
      "E('a') -> F('a')\n",                  // a dependency, not a fact
      "E('a')\n\v\n",                        // a vertical tab is no blank
      "E('a') % fine\nE('b' % not closed\n",  // comment eats the ')'
      "E('a'\n'b')\n",                       // an atom across lines
      "E(\xc3\xa9)\n",                       // a non-ASCII byte
  };
  for (const char* text : corpus) ExpectLoadsLikeReference(text);
  // An embedded NUL is an unexpected character outside quotes and
  // ordinary text inside them.
  ExpectLoadsLikeReference(std::string_view("E('a\0b')\n", 9));
  ExpectLoadsLikeReference(std::string_view("E('a')\0\n", 8));
}

TEST(FactLoadTest, RandomLinesMatchReferenceLoader) {
  // Grammar-built lines, some with one character mutated: near-valid input
  // is where a hand-written scanner and the parser would drift apart.
  const std::vector<std::string> names = {"E", "P", "_q", "R2"};
  const std::vector<std::string> constants = {
      "'a'", "'b'", "\"a\"", "''", "42", "'42'", "7", "'x y'", "'%'"};
  const std::string alphabet = "EPx4'\"(),. \t\r\v%_-\xc3";
  std::mt19937 rng(2016);
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  for (int round = 0; round < 4000; ++round) {
    std::string text;
    size_t lines = 1 + pick(3);
    for (size_t l = 0; l < lines; ++l) {
      size_t atoms = 1 + pick(3);
      for (size_t a = 0; a < atoms; ++a) {
        if (a > 0) text += pick(2) == 0 ? "," : " , ";
        text += names[pick(names.size())] + "(";
        size_t arity = pick(4);
        for (size_t c = 0; c < arity; ++c) {
          if (c > 0) text += pick(3) == 0 ? " ," : ",";
          text += constants[pick(constants.size())];
        }
        text += ")";
      }
      if (pick(3) == 0) text += ".";
      if (pick(4) == 0) text += " % note";
      text += pick(5) == 0 ? "\r\n" : "\n";
    }
    if (pick(2) == 0) {
      size_t at = pick(text.size());
      switch (pick(3)) {
        case 0:
          text[at] = alphabet[pick(alphabet.size())];
          break;
        case 1:
          text.insert(text.begin() + at, alphabet[pick(alphabet.size())]);
          break;
        default:
          text.erase(text.begin() + at);
      }
    }
    ExpectLoadsLikeReference(text);
    if (HasFatalFailure()) return;
  }
}

/// Every run of `col` orders its rows by (value, row), and EqualRange
/// returns exactly the rows holding each value.
void ExpectSortedRunsExact(const data::ColumnarInstance& col) {
  for (const data::ColumnarInstance::Relation& rel : col.relations()) {
    ASSERT_EQ(rel.sorted_runs.size(), rel.arity);
    for (uint32_t c = 0; c < rel.arity; ++c) {
      const std::vector<uint32_t>& run = rel.sorted_runs[c];
      const std::vector<uint32_t>& column = rel.columns[c];
      ASSERT_EQ(run.size(), rel.rows);
      for (size_t i = 1; i < run.size(); ++i) {
        ASSERT_TRUE(std::make_pair(column[run[i - 1]], run[i - 1]) <
                    std::make_pair(column[run[i]], run[i]))
            << rel.pred.ToString() << " position " << c;
      }
      std::map<uint32_t, std::vector<uint32_t>> rows_of;
      for (size_t r = 0; r < rel.rows; ++r) {
        rows_of[column[r]].push_back(static_cast<uint32_t>(r));
      }
      for (const auto& [vid, rows] : rows_of) {
        auto [lo, hi] = col.EqualRange(rel, c, vid);
        EXPECT_EQ(std::vector<uint32_t>(lo, hi), rows);
      }
      // A value absent from this column (but perhaps elsewhere) has an
      // empty range; a few per column suffice.
      size_t stride = std::max<size_t>(7, col.NumValues() / 8);
      for (size_t vid = c; vid < col.NumValues(); vid += stride) {
        if (rows_of.count(vid) != 0) continue;
        auto [lo, hi] = col.EqualRange(rel, c, static_cast<uint32_t>(vid));
        EXPECT_EQ(lo, hi);
      }
    }
  }
}

TEST(FactLoadTest, SortedRunsOrderRowsByValueThenRow) {
  std::mt19937 rng(24);
  for (int round = 0; round < 20; ++round) {
    std::string text;
    size_t relations = 1 + rng() % 6;
    size_t domain = 1 + rng() % 40;
    for (size_t p = 0; p < relations; ++p) {
      size_t arity = rng() % 4;
      size_t rows = p == 0 ? 1 : 1 + rng() % 60;  // always a 1-row relation
      for (size_t r = 0; r < rows; ++r) {
        text += "R" + std::to_string(p) + "(";
        for (size_t c = 0; c < arity; ++c) {
          if (c > 0) text += ",";
          text += "'v" + std::to_string(rng() % domain) + "'";
        }
        text += ")\n";
      }
    }
    std::string error;
    std::optional<data::ColumnarInstance> col =
        data::ColumnarInstance::FromText(text, &error);
    ASSERT_TRUE(col.has_value()) << error;
    ExpectSortedRunsExact(*col);
    ExpectLoadsLikeReference(text);
    // FromInstance shares Seal.
    ExpectSortedRunsExact(data::ColumnarInstance::FromInstance(
        col->ToInstance()));
  }
}

TEST(FactLoadTest, ManySingleRowRelationsOverALargeDictionary) {
  // 20k one-row relations over 40k values: a seal that did work sized by
  // the dictionary per column would do 1.6*10^9 steps here.
  std::string text;
  for (size_t p = 0; p < 20000; ++p) {
    text += "Single" + std::to_string(p) + "('u" + std::to_string(p) +
            "','w" + std::to_string(p) + "')\n";
  }
  std::string error;
  std::optional<data::ColumnarInstance> col =
      data::ColumnarInstance::FromText(text, &error);
  ASSERT_TRUE(col.has_value()) << error;
  EXPECT_EQ(col->relations().size(), 20000u);
  EXPECT_EQ(col->NumValues(), 40000u);
  ExpectSortedRunsExact(*col);
}

TEST(FactLoadTest, FromFileReportsUnreadablePaths) {
  std::string dir = ::testing::TempDir();
  std::string error;
  EXPECT_FALSE(data::ColumnarInstance::FromFile(
                   dir + "/no-such-dir/no-such.facts", &error)
                   .has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(data::ColumnarInstance::FromFile(dir, &error).has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

TEST(FactLoadTest, FromFileLoadsEmptyAndNonEmptyFiles) {
  std::string path = ::testing::TempDir() + "/columnar_eval_test.facts";
  std::string error;
  { std::ofstream out(path, std::ios::binary); }
  std::optional<data::ColumnarInstance> empty =
      data::ColumnarInstance::FromFile(path, &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_EQ(empty->TotalRows(), 0u);
  EXPECT_TRUE(empty->relations().empty());

  const std::string text = "E('a','b')\nE('b','c'), P(42)\nE('c','a')";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::optional<data::ColumnarInstance> col =
      data::ColumnarInstance::FromFile(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(col.has_value()) << error;
  std::optional<data::ColumnarInstance> same =
      data::ColumnarInstance::FromText(text, &error);
  ASSERT_TRUE(same.has_value()) << error;
  Loaded a = Snapshot(*col), b = Snapshot(*same);
  EXPECT_TRUE(a.dictionary == b.dictionary);
  EXPECT_TRUE(a.relations == b.relations);
  EXPECT_EQ(col->TotalRows(), 4u);
}

// ---------------------------------------------------------------------------
// FlatKeyTable: the hash kernel behind semi-joins, DP joins, dedup and the
// dictionary.

TEST(FlatKeyTableTest, GroupIdsInFirstInsertOrder) {
  FlatKeyTable table(4);
  const uint64_t kMax = ~uint64_t{0};
  // 0 and ~0 are ordinary keys: emptiness lives in the slot, not the key.
  EXPECT_EQ(table.Insert(5), 0u);
  EXPECT_EQ(table.Insert(0), 1u);
  EXPECT_EQ(table.Insert(kMax), 2u);
  EXPECT_EQ(table.Insert(5), 0u);
  EXPECT_EQ(table.Insert(7), 3u);
  EXPECT_EQ(table.Insert(0), 1u);
  EXPECT_EQ(table.Insert(kMax), 2u);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.Find(0), 1u);
  EXPECT_EQ(table.Find(kMax), 2u);
  EXPECT_EQ(table.Find(kMax - 1), FlatKeyTable::kNone);
  EXPECT_EQ(table.Find(6), FlatKeyTable::kNone);
}

TEST(FlatKeyTableTest, EmptyAndOneKeyTables) {
  FlatKeyTable empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.capacity(), 0u);  // nothing allocated until an insert
  EXPECT_EQ(empty.Find(0), FlatKeyTable::kNone);
  EXPECT_EQ(empty.Find(~uint64_t{0}), FlatKeyTable::kNone);
  EXPECT_EQ(empty.Insert(3), 0u);  // grows on demand
  EXPECT_EQ(empty.Find(3), 0u);

  FlatKeyTable one(1);
  EXPECT_GE(one.capacity(), 2u);
  EXPECT_EQ(one.Find(9), FlatKeyTable::kNone);
  EXPECT_EQ(one.Insert(9), 0u);
  EXPECT_EQ(one.Find(9), 0u);
  EXPECT_EQ(one.Find(10), FlatKeyTable::kNone);
}

TEST(FlatKeyTableTest, ForcedEqualHashesKeepDistinctGroups) {
  // Hashed keys: every tuple below gets the same 64-bit key, and only
  // `same` tells them apart. A collision must never merge two tuples.
  const std::vector<std::vector<uint32_t>> tuples = {
      {1, 2, 3}, {1, 2, 4}, {0, 0, 0}, {~0u, ~0u, ~0u}};
  FlatKeyTable table(tuples.size());
  std::vector<size_t> tuple_of;  // group -> index into `tuples`
  auto same_as = [&](const std::vector<uint32_t>& t) {
    return [&](uint32_t g) { return tuples[tuple_of[g]] == t; };
  };
  const uint64_t kKey = 42;
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < tuples.size(); ++i) {
      uint32_t g = table.Insert(kKey, same_as(tuples[i]));
      if (g == tuple_of.size()) tuple_of.push_back(i);
      EXPECT_EQ(g, i) << "round " << round;
    }
  }
  EXPECT_EQ(table.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(table.Find(kKey, same_as(tuples[i])), i);
  }
  EXPECT_EQ(table.Find(kKey, same_as({1, 2, 5})), FlatKeyTable::kNone);
  EXPECT_EQ(table.Find(kKey + 1, same_as(tuples[0])),
            FlatKeyTable::kNone);
}

TEST(FlatKeyTableTest, ProbeRunsWrapAroundAndSurviveGrowth) {
  // Four keys whose home is the last slot of an 8-slot table fill slots
  // 7, 0, 1, 2: a probe run across the wrap-around.
  FlatKeyTable table(4);
  ASSERT_EQ(table.capacity(), 8u);
  std::vector<uint64_t> last_slot;
  for (uint64_t k = 0; last_slot.size() < 6; ++k) {
    if ((FlatKeyTable::Mix(k) & 7) == 7) last_slot.push_back(k);
  }
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(table.Insert(last_slot[i]), i);
  EXPECT_EQ(table.capacity(), 8u);  // no growth at half load
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(table.Find(last_slot[i]), i);
  // An absent key with the same home walks the whole run to slot 3.
  EXPECT_EQ(table.Find(last_slot[4]), FlatKeyTable::kNone);

  // Growth rehashes every key and keeps its group id.
  EXPECT_EQ(table.Insert(last_slot[4]), 4u);
  EXPECT_GT(table.capacity(), 8u);
  std::vector<uint64_t> keys(last_slot.begin(), last_slot.begin() + 5);
  for (uint64_t k = 1000; keys.size() < 1000; ++k) {
    EXPECT_EQ(table.Insert(k), keys.size());
    keys.push_back(k);
  }
  EXPECT_GE(table.capacity(), 2 * keys.size());
  for (size_t g = 0; g < keys.size(); ++g) EXPECT_EQ(table.Find(keys[g]), g);
  EXPECT_EQ(table.Find(last_slot[5]), FlatKeyTable::kNone);
}

TEST(FlatKeyTableTest, DenseSmallKeysSpreadOverTheTable) {
  // One-column keys are dense value ids; unmixed they would fill one run.
  FlatKeyTable table(1 << 12);
  for (uint64_t k = 0; k < (1 << 12); ++k) table.Insert(k);
  std::vector<bool> used(table.capacity());
  size_t longest = 0, run = 0;
  for (uint64_t k = 0; k < (1 << 12); ++k) {
    used[FlatKeyTable::Mix(k) & (table.capacity() - 1)] = true;
  }
  for (bool u : used) {
    run = u ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_LT(longest, 64u);
}

TEST(SemiJoinProgramTest, SimplePath) {
  ExpectColumnarMatchesRow(MustParseQuery("q(x,z) :- E(x,y), E(y,z)"),
                           Db("E('a','b'), E('b','c'), E('c','d')"));
}

TEST(SemiJoinProgramTest, ConstantsInAtoms) {
  ExpectColumnarMatchesRow(MustParseQuery("q(x) :- E(x,'b')"),
                           Db("E('a','b'), E('c','b'), E('c','d')"));
}

TEST(SemiJoinProgramTest, ConstantAbsentFromInstance) {
  // The constant never occurs in the database: the dictionary lookup
  // fails and the whole program short-circuits to empty.
  ExpectColumnarMatchesRow(MustParseQuery("q(x) :- E(x,'nope')"),
                           Db("E('a','b')"));
}

TEST(SemiJoinProgramTest, RepeatedVariableInAtom) {
  ExpectColumnarMatchesRow(
      MustParseQuery("q(x,y) :- E(x,x), F(x,y)"),
      Db("E('a','a'), E('a','b'), E('c','c'), F('a','u'), F('c','v')"));
}

TEST(SemiJoinProgramTest, HeadConstants) {
  ConjunctiveQuery parsed = MustParseQuery("q(x) :- E(x,y), E(y,z)");
  // Head mixes a constant slot with a variable slot.
  std::vector<Term> head = {C("tag"), parsed.head()[0]};
  ExpectColumnarMatchesRow(ConjunctiveQuery(head, parsed.body()),
                           Db("E('a','b'), E('b','c')"));
}

TEST(SemiJoinProgramTest, EmptyRelationShortCircuits) {
  // Z has no facts at all: the match op finds no relation and exits
  // before any semi-join work.
  ExpectColumnarMatchesRow(MustParseQuery("q(x) :- E(x,y), Z(y)"),
                           Db("E('a','b')"));
}

TEST(SemiJoinProgramTest, DisconnectedQueryCrossProduct) {
  ExpectColumnarMatchesRow(MustParseQuery("q(u,v) :- A(u), B(v)"),
                           Db("A('x'), B('y'), B('z')"));
  // And the empty side clears the product.
  ExpectColumnarMatchesRow(MustParseQuery("q(u,v) :- A(u), B(v)"),
                           Db("A('x'), C('y')"));
}

TEST(SemiJoinProgramTest, StarQueryPrunesDanglingTuples) {
  ExpectColumnarMatchesRow(
      MustParseQuery("q(u) :- R(u,v), S(v,s), R(u,w), T(w,t)"),
      Db("R('a','b'), R('a','c'), S('b','x1'), T('c','y1'), "
         "R('q','w'), S('w','x2')"));
}

TEST(SemiJoinProgramTest, WideAtomHashedKeys) {
  // A 4-column connector forces the hashed (collision-verified) key path.
  ExpectColumnarMatchesRow(
      MustParseQuery("q(a) :- G(a,b,c,d,e), H(b,c,d,e)"),
      Db("G('1','2','3','4','5'), G('1','2','3','4','6'), "
         "G('7','8','9','a','b'), H('2','3','4','5'), H('2','3','4','6'), "
         "H('8','9','a','b')"));
  // No key matches in any column order: only the column check, not the
  // hash, lets the bottom-up reduction (and ExecuteBoolean) answer false.
  ExpectColumnarMatchesRow(
      MustParseQuery("q(a) :- G(a,b,c,d,e), H(b,c,d,e)"),
      Db("G('1','2','3','4','5'), G('1','5','4','3','2'), "
         "H('2','3','4','6'), H('3','2','4','5'), H('5','4','3','3')"));
}

TEST(SemiJoinProgramTest, AbortsOnFiredToken) {
  ConjunctiveQuery q = MustParseQuery("q(x,z) :- E(x,y), E(y,z)");
  Instance db = Db("E('a','b'), E('b','c')");
  std::optional<JoinTreeView> tree =
      BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value());
  data::ColumnarInstance col = data::ColumnarInstance::FromInstance(db);
  data::SemiJoinProgram prog = data::SemiJoinProgram::Compile(q, *tree);
  CancelToken token;
  token.RequestCancel();
  data::ExecOptions opts;
  opts.cancel = &token;
  data::ColumnarEvalResult res = prog.Execute(col, opts);
  EXPECT_TRUE(res.aborted);
  EXPECT_TRUE(res.answers.empty());
  EXPECT_EQ(prog.ExecuteBoolean(col, opts), -1);
  // The program is immutable: a clean re-run succeeds.
  data::ColumnarEvalResult again = prog.Execute(col);
  EXPECT_FALSE(again.aborted);
  EXPECT_EQ(again.answers.size(), 1u);
}

/// Differential sweep over random acyclic queries and databases — the
/// columnar program must agree with both the row path and the exact
/// backtracking evaluator.
class ColumnarSweep : public ::testing::TestWithParam<int> {};

TEST_P(ColumnarSweep, AgreesWithRowPathAndBruteForce) {
  Generator gen(static_cast<uint64_t>(GetParam()) + 97);
  ConjunctiveQuery shape = gen.RandomAcyclicQuery(5, 2, 2, "Y");
  std::vector<Term> vars = shape.Variables();
  std::vector<Term> head;
  for (size_t i = 0; i < vars.size() && head.size() < 2; i += 3) {
    head.push_back(vars[i]);
  }
  ConjunctiveQuery q(head, shape.body());
  std::vector<Predicate> preds = {Predicate::Get("Y0", 2),
                                  Predicate::Get("Y1", 2)};
  Instance db = gen.RandomDatabase(preds, 40, 5);
  ExpectColumnarMatchesRow(q, db);

  std::optional<JoinTreeView> tree =
      BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value());
  data::ColumnarInstance col = data::ColumnarInstance::FromInstance(db);
  data::SemiJoinProgram prog = data::SemiJoinProgram::Compile(q, *tree);
  EXPECT_EQ(AsSet(prog.Execute(col).answers), AsSet(EvaluateQuery(q, db)));
}

/// A random acyclic query over predicates of arity 3–4 whose atoms share
/// one to all of their columns with a parent atom (sometimes repeating a
/// variable), so semi-join, DP-join and dedup keys of three or more
/// columns take the hashed path.
ConjunctiveQuery WideAcyclicQuery(std::mt19937* rng, int atoms,
                                  const std::vector<Predicate>& preds) {
  auto pick = [rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
  };
  int fresh = 0;
  std::vector<Atom> body;
  for (int i = 0; i < atoms; ++i) {
    Predicate p = preds[pick(preds.size())];
    std::vector<Term> args;
    std::vector<Term> inherited;
    if (i > 0) {
      // Shared variables come from one parent atom only, so the parent
      // links form a join tree.
      const Atom& parent = body[pick(body.size())];
      size_t shared = 1 + pick(static_cast<size_t>(p.arity()));
      for (size_t k = 0; k < shared; ++k) {
        inherited.push_back(parent.arg(pick(parent.arity())));
      }
    }
    for (int c = 0; c < p.arity(); ++c) {
      args.push_back(Term::Variable("w" + std::to_string(fresh++)));
    }
    for (size_t k = 0; k < inherited.size(); ++k) {
      args[pick(args.size())] = inherited[k];
    }
    body.emplace_back(p, std::move(args));
  }
  ConjunctiveQuery shape({}, body);
  std::vector<Term> vars = shape.Variables();
  std::vector<Term> head;
  size_t width = pick(5);  // 0 (Boolean) to 4 head variables
  for (size_t i = 0; i < width && i < vars.size(); ++i) {
    head.push_back(vars[pick(vars.size())]);
  }
  return ConjunctiveQuery(head, body);
}

TEST_P(ColumnarSweep, WideKeysAgreeWithRowPathAndBruteForce) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) + 3000);
  Generator gen(static_cast<uint64_t>(GetParam()) + 211);
  std::vector<Predicate> preds = {Predicate::Get("W3", 3),
                                  Predicate::Get("W4", 4)};
  ConjunctiveQuery q = WideAcyclicQuery(&rng, 2 + GetParam() % 3, preds);
  ASSERT_TRUE(IsAcyclic(q)) << q.ToString();
  Instance db = gen.RandomDatabase(preds, 60, 3);
  SCOPED_TRACE(q.ToString());
  ExpectColumnarMatchesRow(q, db);

  std::optional<JoinTreeView> tree =
      BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value());
  data::ColumnarInstance col = data::ColumnarInstance::FromInstance(db);
  data::SemiJoinProgram prog = data::SemiJoinProgram::Compile(q, *tree);
  std::vector<std::vector<Term>> answers = prog.Execute(col).answers;
  EXPECT_EQ(AsSet(answers).size(), answers.size()) << "duplicate answers";
  EXPECT_EQ(AsSet(answers), AsSet(EvaluateQuery(q, db)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarSweep, ::testing::Range(0, 20));

TEST(ColumnarWorkloadTest, StarFamilyMatchesRowPath) {
  EvalWorkload w = MakeStarEvalWorkload(3, 3, 2000, 50, 100);
  ExpectColumnarMatchesRow(w.q, w.database);
}

TEST(ColumnarWorkloadTest, PathFamilyMatchesRowPath) {
  EvalWorkload w = MakePathEvalWorkload(4, 3, 2000, 60);
  ExpectColumnarMatchesRow(w.q, w.database);
}

TEST(ColumnarWorkloadTest, SkewFamilyMatchesRowPath) {
  EvalWorkload w = MakeSkewEvalWorkload(5, 2000, 100, 3.0);
  ExpectColumnarMatchesRow(w.q, w.database);
}

/// Columnar vs row path vs brute force on every query over `db`.
void ExpectAllAgree(const std::vector<std::string>& queries,
                    const Instance& db) {
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    ConjunctiveQuery q = MustParseQuery(text);
    ExpectColumnarMatchesRow(q, db);
    std::optional<JoinTreeView> tree =
        BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
    ASSERT_TRUE(tree.has_value());
    data::SemiJoinProgram prog = data::SemiJoinProgram::Compile(q, *tree);
    data::ColumnarEvalResult res =
        prog.Execute(data::ColumnarInstance::FromInstance(db));
    EXPECT_EQ(AsSet(res.answers).size(), res.answers.size());
    EXPECT_EQ(AsSet(res.answers), AsSet(EvaluateQuery(q, db)));
  }
}

TEST(ColumnarWorkloadTest, HotKeyDatabase) {
  // One join value carries 90% of the rows on both sides of each join, in
  // a one-column key (R–S) and a three-column key (G–H).
  std::mt19937 rng(7);
  Instance db;
  Predicate r = Predicate::Get("Rh", 2), s = Predicate::Get("Sh", 2);
  Predicate g = Predicate::Get("Gh", 4), h = Predicate::Get("Hh", 4);
  auto val = [](const std::string& p, size_t i) {
    return C(p + std::to_string(i));
  };
  for (size_t i = 0; i < 400; ++i) {
    bool hot = rng() % 10 != 0;
    size_t key = hot ? 0 : 1 + rng() % 30;
    db.Insert(Atom(r, {val("x", rng() % 50), val("k", key)}));
    db.Insert(Atom(s, {val("k", hot ? 0 : 1 + rng() % 30),
                       val("z", rng() % 40)}));
    db.Insert(Atom(g, {val("a", rng() % 60), val("b", hot ? 0 : rng() % 4),
                       val("c", hot ? 0 : rng() % 4),
                       val("d", hot ? 0 : rng() % 4)}));
    db.Insert(Atom(h, {val("b", hot ? 0 : rng() % 4),
                       val("c", hot ? 0 : rng() % 4),
                       val("d", hot ? 0 : rng() % 4), val("e", rng() % 5)}));
  }
  ExpectAllAgree({"q(x,z) :- Rh(x,y), Sh(y,z)", "q(z) :- Rh(x,y), Sh(y,z)",
                  "q() :- Rh(x,y), Sh(y,z)",
                  "q(a,e) :- Gh(a,b,c,d), Hh(b,c,d,e)",
                  "q(b,c,d) :- Gh(a,b,c,d), Hh(b,c,d,e)",
                  "q(a,b,c,d,e) :- Gh(a,b,c,d), Hh(b,c,d,e)"},
                 db);
}

TEST(ColumnarWorkloadTest, ManyDpRowsProjectOntoFewCarryTuples) {
  // Thousands of joined rows, but the carries keep two x values, three
  // (u,v,w) triples and one Boolean row: dedup does nearly all the work.
  Instance db;
  Predicate r = Predicate::Get("Rf", 2), s = Predicate::Get("Sf", 2);
  Predicate t = Predicate::Get("Tf", 4);
  for (size_t i = 0; i < 600; ++i) {
    db.Insert(Atom(r, {C(i % 2 == 0 ? "x0" : "x1"),
                       C("y" + std::to_string(i % 200))}));
    db.Insert(Atom(s, {C("y" + std::to_string(i % 200)),
                       C("z" + std::to_string(i))}));
    db.Insert(Atom(t, {C("u" + std::to_string(i % 3)),
                       C("v" + std::to_string(i % 3)),
                       C("w" + std::to_string(i % 3)),
                       C("y" + std::to_string(i % 200))}));
  }
  ExpectAllAgree({"q(x) :- Rf(x,y), Sf(y,z)", "q() :- Rf(x,y), Sf(y,z)",
                  "q(u,v,w) :- Tf(u,v,w,y), Sf(y,z)",
                  "q(x,u,v,w) :- Rf(x,y), Tf(u,v,w,y), Sf(y,z)",
                  "q(z) :- Rf('x0',y), Sf(y,z)"},
                 db);
}

TEST(ColumnarWorkloadTest, OneRowRelations) {
  ExpectAllAgree({"q(x,z) :- E(x,y), F(y,z)", "q() :- E(x,y), F(y,z)",
                  "q(y) :- E(x,y), F(y,y)"},
                 Db("E('a','b'), F('b','c')"));
  ExpectAllAgree({"q(x) :- E(x,y), F(y,z)"}, Db("E('a','b'), F('c','d')"));
}

/// One compiled program over one shared instance, run from four threads:
/// every run's answers equal the single-thread answers, in order. Under
/// ThreadSanitizer this is the race check of the execution kernels.
TEST(SemiJoinProgramTest, SharedProgramIsThreadSafe) {
  EvalWorkload star = MakeStarEvalWorkload(5, 3, 3000, 40, 200);
  std::vector<Predicate> preds = {Predicate::Get("W3", 3),
                                  Predicate::Get("W4", 4)};
  Instance wide_db = Generator(5).RandomDatabase(preds, 400, 4);
  struct Case {
    ConjunctiveQuery q;
    data::ColumnarInstance db;
  };
  std::vector<Case> cases;
  cases.push_back({star.q, data::ColumnarInstance::FromInstance(star.database)});
  cases.push_back(
      {MustParseQuery("q(a,b,c) :- W4(a,b,c,d), W3(b,c,d), W4(b,c,d,e)"),
       data::ColumnarInstance::FromInstance(wide_db)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.q.ToString());
    std::optional<JoinTreeView> tree =
        BuildJoinTreeView(c.q.body(), ConnectingTerms::kVariables);
    ASSERT_TRUE(tree.has_value());
    const data::SemiJoinProgram prog = data::SemiJoinProgram::Compile(
        c.q, RerootForHead(*tree, c.q.head()));
    const data::ColumnarEvalResult want = prog.Execute(c.db);
    const int want_bool = prog.ExecuteBoolean(c.db);
    ASSERT_FALSE(want.answers.empty());

    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int run = 0; run < 3; ++run) {
          data::ColumnarEvalResult got = prog.Execute(c.db);
          if (got.aborted || got.answers != want.answers ||
              got.stats.rows_scanned != want.stats.rows_scanned ||
              got.stats.semijoin_probes != want.stats.semijoin_probes ||
              got.stats.dp_rows != want.stats.dp_rows ||
              prog.ExecuteBoolean(c.db) != want_bool) {
            ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    }
  }
}

TEST(RerootForHeadTest, RootCoversHeadAndAnswersUnchanged) {
  // Chain E1-E2-E3 with the head variable at the far end: GYO may root
  // the tree at E3, which would make the answer DP carry x0 through every
  // join (Θ(|D|·|answers|) intermediates). RerootForHead must move the
  // root to E1 and leave the answer set untouched on both paths.
  ConjunctiveQuery q = MustParseQuery(
      "q(x0) :- E1(x0,x1), E2(x1,x2), E3(x2,x3)");
  std::optional<JoinTreeView> tree =
      BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value());
  JoinTreeView rooted = RerootForHead(*tree, q.head());
  EXPECT_TRUE(rooted.atom(rooted.root()).Mentions(Term::Variable("x0")));
  EXPECT_TRUE(rooted.Validate({Term::Variable("x0"), Term::Variable("x1"),
                               Term::Variable("x2"), Term::Variable("x3")}));

  Instance db = Db(
      "E1('a','m'), E1('b','m'), E1('c','n'), "
      "E2('m','u'), E2('n','u'), E2('n','w'), "
      "E3('u','z'), E3('w','z')");
  data::ColumnarInstance col = data::ColumnarInstance::FromInstance(db);
  auto on_tree = [&](const JoinTreeView& t) {
    data::SemiJoinProgram prog = data::SemiJoinProgram::Compile(q, t);
    data::ColumnarEvalResult res = prog.Execute(col);
    EXPECT_FALSE(res.aborted);
    YannakakisResult row = EvaluateAcyclic(q, t, db);
    EXPECT_TRUE(row.ok);
    EXPECT_EQ(AsSet(res.answers), AsSet(row.answers));
    return AsSet(res.answers);
  };
  EXPECT_EQ(on_tree(*tree), on_tree(rooted));
  EXPECT_EQ(on_tree(rooted), AsSet(EvaluateQuery(q, db)));

  // Boolean heads (no variables) keep the tree as-is.
  ConjunctiveQuery boolean_q({}, q.body());
  JoinTreeView same = RerootForHead(*tree, boolean_q.head());
  EXPECT_EQ(same.root(), tree->root());
}

TEST(EngineEvalTest, ColumnarIsDefaultAndMatchesRowPath) {
  MusicStoreWorkload w = MakeMusicStoreWorkload(11, 6, 8, 3, 0.4);
  Engine engine(w.sigma);
  PreparedQuery pq = engine.Prepare(w.q);

  EvalOutcome columnar = engine.Eval(pq, w.database);
  ASSERT_TRUE(columnar.status.ok()) << columnar.status.message;
  ASSERT_TRUE(columnar.reformulated);
  EXPECT_TRUE(columnar.columnar);
  ASSERT_TRUE(columnar.evaluation.ok);

  EvalOptions row_opts;
  row_opts.path = EvalOptions::Path::kRow;
  EvalOutcome row = engine.Eval(pq, w.database, row_opts);
  ASSERT_TRUE(row.status.ok());
  EXPECT_FALSE(row.columnar);
  EXPECT_EQ(AsSet(columnar.evaluation.answers), AsSet(row.evaluation.answers));
  EXPECT_EQ(AsSet(columnar.evaluation.answers),
            AsSet(EvaluateQuery(w.q, w.database)));
  // The EVAL phase shows up in the engine's metrics.
  obs::MetricsSnapshot snap = engine.Metrics();
  bool saw_eval = false;
  for (const auto& phase : snap.phases) {
    if (phase.name == "EVAL" && phase.latency.count > 0) saw_eval = true;
  }
  EXPECT_TRUE(saw_eval);
}

TEST(EngineEvalTest, BooleanQueryTakesTheReductionOnlyPath) {
  // q() over the star family: the bottom-up reduction decides it, so the
  // columnar path materializes no DP rows, and answers {()} or {} exactly
  // like the row path.
  EvalWorkload star = MakeStarEvalWorkload(3, 4, 2000, 50, 100);
  Engine engine(DependencySet{});
  for (bool satisfiable : {true, false}) {
    SCOPED_TRACE(satisfiable ? "true" : "false");
    std::vector<Atom> body = star.q.body();
    if (!satisfiable) {
      body.push_back(Atom(Predicate::Get("R1", 2),
                          {Term::Constant("absent"), Term::Variable("bz")}));
    }
    ConjunctiveQuery boolean_q({}, body);
    PreparedQuery pq = engine.Prepare(boolean_q);
    EvalOutcome columnar = engine.Eval(pq, star.database);
    ASSERT_TRUE(columnar.status.ok()) << columnar.status.message;
    ASSERT_TRUE(columnar.columnar);
    EXPECT_EQ(columnar.exec_stats.dp_rows, 0u);
    if (satisfiable) EXPECT_GT(columnar.exec_stats.rows_scanned, 0u);
    EvalOptions row_opts;
    row_opts.path = EvalOptions::Path::kRow;
    EvalOutcome row = engine.Eval(pq, star.database, row_opts);
    ASSERT_TRUE(row.status.ok());
    EXPECT_EQ(columnar.evaluation.answers, row.evaluation.answers);
    EXPECT_EQ(columnar.evaluation.answers.size(), satisfiable ? 1u : 0u);
  }
}

TEST(EngineEvalTest, PreEncodedColumnarDatabase) {
  MusicStoreWorkload w = MakeMusicStoreWorkload(12, 5, 6, 3, 0.5);
  Engine engine(w.sigma);
  PreparedQuery pq = engine.Prepare(w.q);
  data::ColumnarInstance col =
      data::ColumnarInstance::FromInstance(w.database);
  EvalOutcome out = engine.Eval(pq, col);
  ASSERT_TRUE(out.status.ok()) << out.status.message;
  EXPECT_TRUE(out.columnar);
  EXPECT_EQ(AsSet(out.evaluation.answers),
            AsSet(EvaluateQuery(w.q, w.database)));
}

TEST(EngineEvalTest, CancelledEvalLeavesEngineReusable) {
  MusicStoreWorkload w = MakeMusicStoreWorkload(13, 6, 8, 3, 0.4);
  Engine engine(w.sigma);
  PreparedQuery pq = engine.Prepare(w.q);
  // Warm the decision cache so the abort lands in the evaluation itself.
  ASSERT_TRUE(engine.Eval(pq, w.database).status.ok());

  CancelToken token;
  token.RequestCancel();
  EvalOptions opts;
  opts.cancel = &token;
  EvalOutcome aborted = engine.Eval(pq, w.database, opts);
  EXPECT_EQ(aborted.status.code, Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(aborted.evaluation.answers.empty());

  // The engine is immediately reusable for the exact answer.
  EvalOutcome retry = engine.Eval(pq, w.database);
  ASSERT_TRUE(retry.status.ok());
  EXPECT_EQ(AsSet(retry.evaluation.answers),
            AsSet(EvaluateQuery(w.q, w.database)));
}

TEST(EngineEvalTest, NonSemAcQueryReportsNotFound) {
  Generator gen(8);
  Engine engine(DependencySet{});
  PreparedQuery pq = engine.Prepare(gen.CycleQuery(3));
  EvalOutcome out = engine.Eval(pq, Db("E('a','b')"));
  EXPECT_EQ(out.status.code, Status::Code::kNotFound);
  EXPECT_FALSE(out.reformulated);
}

}  // namespace
}  // namespace semacyc
