#include "data/semijoin_program.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "core/flat_table.h"

namespace semacyc::data {
namespace {

using Relation = ColumnarInstance::Relation;

/// Keys of zero, one or two value ids pack losslessly into 64 bits (value
/// ids are 32-bit). Wider keys are hashes, which the tables re-verify
/// column by column (FlatKeyTable's `same`), so collisions never change
/// answers.
inline bool ExactKey(size_t n) { return n <= 2; }

/// The 64-bit key over `n` value ids, `cell(i)` being the i-th.
template <typename Cell>
inline uint64_t KeyOf(size_t n, Cell cell) {
  switch (n) {
    case 0:
      return 0;
    case 1:
      return cell(0);
    case 2:
      return (uint64_t{cell(0)} << 32) | cell(1);
    default: {
      size_t seed = 0x9e3779b97f4a7c15ull ^ n;
      for (size_t i = 0; i < n; ++i) HashCombine(&seed, cell(i));
      return seed;
    }
  }
}

/// Flat row-major table of value ids (DP answer assembly). `nrows` is
/// explicit because Boolean carries have width 0.
struct VidRows {
  size_t width = 0;
  size_t nrows = 0;
  std::vector<uint32_t> data;

  const uint32_t* row(size_t r) const { return data.data() + r * width; }
  /// Appends `n` rows and returns the first of them, to be filled in.
  /// `data` grows geometrically, so it may hold more than nrows rows.
  uint32_t* Append(size_t n) {
    size_t begin = nrows * width;
    nrows += n;
    if (nrows * width > data.size()) {
      data.resize(std::max(nrows * width, data.size() * 2));
    }
    return data.data() + begin;
  }
};

inline bool PollEvery(size_t i, CancelToken* cancel) {
  return (i & 4095) == 0 && cancel != nullptr && cancel->Poll();
}

}  // namespace

SemiJoinProgram SemiJoinProgram::Compile(const ConjunctiveQuery& q,
                                         const JoinTreeView& tree) {
  SemiJoinProgram p;
  p.head_ = q.head();
  const std::vector<Atom>& body = q.body();
  if (body.empty()) {
    // The empty conjunction is true with the (constant-only) head.
    p.trivial_true_ = true;
    for (Term h : q.head()) {
      AnswerSlot slot;
      slot.is_const = true;
      slot.constant = h;
      p.answer_.push_back(slot);
    }
    return p;
  }

  const size_t n = body.size();
  assert(tree.size() == n);
  // Per-node variable layout: distinct variables in first-occurrence order
  // (the same order the row path's MatchAtom uses), each mapped to its
  // first column; later occurrences become column-equality filters and
  // non-variables become column-constant filters.
  std::vector<std::vector<Term>> vars(n);
  p.nodes_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Atom& atom = body[i];
    NodeSpec& spec = p.nodes_[i];
    spec.pred = atom.predicate();
    for (size_t c = 0; c < atom.arity(); ++c) {
      Term t = atom.arg(c);
      if (!t.IsVariable()) {
        spec.const_cols.push_back({static_cast<uint32_t>(c), t});
        continue;
      }
      auto it = std::find(vars[i].begin(), vars[i].end(), t);
      if (it == vars[i].end()) {
        vars[i].push_back(t);
        spec.var_cols.push_back(static_cast<uint32_t>(c));
      } else {
        spec.eq_cols.push_back(
            {static_cast<uint32_t>(c),
             spec.var_cols[static_cast<size_t>(it - vars[i].begin())]});
      }
    }
  }

  // Semi-join key columns for a tree edge: the shared variables in the
  // target's variable order, resolved to first-occurrence columns on both
  // sides. Empty keys (chained disconnected components) keep the row
  // path's "clear target iff source empty" semantics.
  auto shared_op = [&](int target, int source) {
    SemiJoinOp op;
    op.target = target;
    op.source = source;
    for (size_t vi = 0; vi < vars[target].size(); ++vi) {
      auto it = std::find(vars[source].begin(), vars[source].end(),
                          vars[target][vi]);
      if (it != vars[source].end()) {
        op.target_cols.push_back(p.nodes_[target].var_cols[vi]);
        op.source_cols.push_back(
            p.nodes_[source]
                .var_cols[static_cast<size_t>(it - vars[source].begin())]);
      }
    }
    return op;
  };
  for (int node : tree.BottomUpOrder()) {
    int parent = tree.parent()[node];
    if (parent >= 0) p.bottom_up_.push_back(shared_op(parent, node));
  }
  for (int node : tree.TopDownOrder()) {
    for (int child : tree.children()[node]) {
      p.top_down_.push_back(shared_op(child, node));
    }
  }

  // Answer-assembly DP, variable layouts resolved statically: acc starts
  // as the node's own variables, each child join appends the child carry's
  // new variables, and the projection keeps head variables plus the
  // connector to the parent *atom* (exactly the row path's keep set).
  std::unordered_set<Term> free_vars;
  for (Term h : q.head()) {
    if (h.IsVariable()) free_vars.insert(h);
  }
  std::vector<std::vector<Term>> carry(n);
  for (int node : tree.BottomUpOrder()) {
    DpSpec spec;
    spec.node = node;
    std::vector<Term> acc_vars = vars[static_cast<size_t>(node)];
    for (int child : tree.children()[node]) {
      JoinStep step;
      step.child = child;
      const std::vector<Term>& cv = carry[static_cast<size_t>(child)];
      for (size_t i = 0; i < acc_vars.size(); ++i) {
        auto it = std::find(cv.begin(), cv.end(), acc_vars[i]);
        if (it != cv.end()) {
          step.left_pos.push_back(static_cast<uint32_t>(i));
          step.right_pos.push_back(static_cast<uint32_t>(it - cv.begin()));
        }
      }
      for (size_t i = 0; i < cv.size(); ++i) {
        if (std::find(acc_vars.begin(), acc_vars.end(), cv[i]) ==
            acc_vars.end()) {
          step.extra_pos.push_back(static_cast<uint32_t>(i));
          acc_vars.push_back(cv[i]);
        }
      }
      spec.joins.push_back(std::move(step));
    }
    int parent = tree.parent()[node];
    for (size_t i = 0; i < acc_vars.size(); ++i) {
      bool keep = free_vars.count(acc_vars[i]) > 0;
      if (!keep && parent >= 0) {
        const std::vector<Term>& pv = vars[static_cast<size_t>(parent)];
        keep = std::find(pv.begin(), pv.end(), acc_vars[i]) != pv.end();
      }
      if (keep) {
        spec.proj_pos.push_back(static_cast<uint32_t>(i));
        carry[static_cast<size_t>(node)].push_back(acc_vars[i]);
      }
    }
    p.dp_.push_back(std::move(spec));
  }
  p.root_ = tree.root();

  const std::vector<Term>& root_carry = carry[static_cast<size_t>(p.root_)];
  for (Term h : q.head()) {
    AnswerSlot slot;
    if (!h.IsVariable()) {
      slot.is_const = true;
      slot.constant = h;
    } else {
      auto it = std::find(root_carry.begin(), root_carry.end(), h);
      if (it == root_carry.end()) {
        // Unreachable for connected queries; mirror the row path's
        // defensive empty-answer behavior rather than crash.
        p.head_unreachable_ = true;
      } else {
        slot.root_pos = static_cast<uint32_t>(it - root_carry.begin());
      }
    }
    p.answer_.push_back(slot);
  }
  return p;
}

int SemiJoinProgram::Reduce(const ColumnarInstance& db,
                            const ExecOptions& opts,
                            std::vector<std::vector<uint32_t>>* sel,
                            ExecStats* stats) const {
  CancelToken* cancel = opts.cancel;
  const size_t n = nodes_.size();
  sel->assign(n, {});

  // Match ops.
  for (size_t i = 0; i < n; ++i) {
    if (cancel != nullptr && cancel->PollNow()) return -1;
    const NodeSpec& spec = nodes_[i];
    std::vector<uint32_t>& out = (*sel)[i];
    const Relation* rel = db.RelationOf(spec.pred);
    if (rel == nullptr || rel->rows == 0) return 0;  // empty relation
    // Resolve constants against the dictionary once per execution.
    std::vector<std::pair<uint32_t, uint32_t>> const_vids;
    bool absent = false;
    for (const auto& [col, term] : spec.const_cols) {
      uint32_t vid = db.ValueIdOf(term);
      if (vid == kNoValue) {
        absent = true;
        break;
      }
      const_vids.push_back({col, vid});
    }
    if (absent) return 0;
    auto row_ok = [&](uint32_t r) {
      for (const auto& [col, vid] : const_vids) {
        if (rel->columns[col][r] != vid) return false;
      }
      for (const auto& [col, first] : spec.eq_cols) {
        if (rel->columns[col][r] != rel->columns[first][r]) return false;
      }
      return true;
    };
    if (!const_vids.empty()) {
      // Index path: the run is ordered by row id within one value, so the
      // selection vector stays ascending like the scan path's.
      auto [lo, hi] = db.EqualRange(*rel, const_vids[0].first,
                                    const_vids[0].second);
      stats->rows_scanned += static_cast<size_t>(hi - lo);
      for (const uint32_t* r = lo; r != hi; ++r) {
        if (PollEvery(static_cast<size_t>(r - lo), cancel)) return -1;
        if (row_ok(*r)) out.push_back(*r);
      }
    } else {
      stats->rows_scanned += rel->rows;
      if (spec.eq_cols.empty()) {
        // Unconstrained atom: the selection is the identity.
        out.resize(rel->rows);
        for (size_t r = 0; r < rel->rows; ++r) {
          out[r] = static_cast<uint32_t>(r);
        }
      } else {
        for (size_t r = 0; r < rel->rows; ++r) {
          if (PollEvery(r, cancel)) return -1;
          if (row_ok(static_cast<uint32_t>(r))) {
            out.push_back(static_cast<uint32_t>(r));
          }
        }
      }
    }
    if (out.empty()) return 0;
  }

  // Bottom-up semi-joins (parent ⋉ child).
  for (const SemiJoinOp& op : bottom_up_) {
    if (cancel != nullptr && cancel->PollNow()) return -1;
    if (!ExecSemiJoin(db, op, sel, cancel, stats)) return -1;
    if ((*sel)[static_cast<size_t>(op.target)].empty()) return 0;
  }
  return 1;
}

bool SemiJoinProgram::ExecSemiJoin(const ColumnarInstance& db,
                                   const SemiJoinOp& op,
                                   std::vector<std::vector<uint32_t>>* sel,
                                   CancelToken* cancel,
                                   ExecStats* stats) const {
  std::vector<uint32_t>& tsel = (*sel)[static_cast<size_t>(op.target)];
  std::vector<uint32_t>& ssel = (*sel)[static_cast<size_t>(op.source)];
  if (op.target_cols.empty()) {
    // Chained disconnected components share no variables: the semi-join
    // degenerates to "clear the target iff the source is empty".
    if (ssel.empty()) tsel.clear();
    return true;
  }
  if (ssel.empty()) {
    tsel.clear();
    return true;
  }
  if (tsel.empty()) return true;
  const Relation& trel =
      *db.RelationOf(nodes_[static_cast<size_t>(op.target)].pred);
  const Relation& srel =
      *db.RelationOf(nodes_[static_cast<size_t>(op.source)].pred);
  const size_t kn = op.target_cols.size();
  const bool exact = ExactKey(kn);
  std::vector<const uint32_t*> tcols, scols;
  for (size_t c = 0; c < kn; ++c) {
    tcols.push_back(trel.columns[op.target_cols[c]].data());
    scols.push_back(srel.columns[op.source_cols[c]].data());
  }

  // One group per distinct source key. Hashed keys keep each group's first
  // source row and compare against it column by column, on insert and on
  // probe.
  FlatKeyTable groups(ssel.size());
  std::vector<uint32_t> first_row;
  auto same_as = [&](const std::vector<const uint32_t*>& cols, uint32_t row) {
    return [&, row](uint32_t g) {
      for (size_t c = 0; c < kn; ++c) {
        if (cols[c][row] != scols[c][first_row[g]]) return false;
      }
      return true;
    };
  };
  if (!exact) first_row.reserve(ssel.size());
  for (size_t i = 0; i < ssel.size(); ++i) {
    if (PollEvery(i, cancel)) return false;
    uint32_t row = ssel[i];
    uint64_t k = KeyOf(kn, [&](size_t c) { return scols[c][row]; });
    if (exact) {
      groups.Insert(k);
    } else if (groups.Insert(k, same_as(scols, row)) == first_row.size()) {
      first_row.push_back(row);
    }
  }

  size_t kept = 0;
  for (size_t i = 0; i < tsel.size(); ++i) {
    if (PollEvery(i, cancel)) return false;
    ++stats->semijoin_probes;
    uint32_t row = tsel[i];
    uint64_t k = KeyOf(kn, [&](size_t c) { return tcols[c][row]; });
    uint32_t g = exact ? groups.Find(k) : groups.Find(k, same_as(tcols, row));
    if (g != FlatKeyTable::kNone) tsel[kept++] = row;
  }
  tsel.resize(kept);
  return true;
}

ColumnarEvalResult SemiJoinProgram::Execute(const ColumnarInstance& db,
                                            const ExecOptions& opts) const {
  ColumnarEvalResult result;
  if (trivial_true_) {
    std::vector<Term> answer;
    answer.reserve(answer_.size());
    for (const AnswerSlot& slot : answer_) answer.push_back(slot.constant);
    result.answers.push_back(std::move(answer));
    return result;
  }
  if (head_unreachable_) return result;

  CancelToken* cancel = opts.cancel;
  std::vector<std::vector<uint32_t>> sel;
  int reduced = Reduce(db, opts, &sel, &result.stats);
  if (reduced < 0) {
    result.aborted = true;
    return result;
  }
  if (reduced == 0) return result;

  // Top-down semi-joins (child ⋉ parent).
  for (const SemiJoinOp& op : top_down_) {
    if (cancel != nullptr && cancel->PollNow()) {
      result.aborted = true;
      return result;
    }
    if (!ExecSemiJoin(db, op, &sel, cancel, &result.stats)) {
      result.aborted = true;
      return result;
    }
    if (sel[static_cast<size_t>(op.target)].empty()) return result;
  }

  // Answer assembly: bottom-up DP over flat value-id tables.
  std::vector<VidRows> dp(nodes_.size());
  for (const DpSpec& spec : dp_) {
    if (cancel != nullptr && cancel->PollNow()) {
      result.aborted = true;
      return result;
    }
    const NodeSpec& ns = nodes_[static_cast<size_t>(spec.node)];
    const Relation& rel = *db.RelationOf(ns.pred);
    const std::vector<uint32_t>& s = sel[static_cast<size_t>(spec.node)];

    VidRows acc;
    acc.width = ns.var_cols.size();
    std::vector<const uint32_t*> columns;
    for (uint32_t c : ns.var_cols) columns.push_back(rel.columns[c].data());
    uint32_t* cell = acc.Append(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
      if (PollEvery(i, cancel)) {
        result.aborted = true;
        return result;
      }
      for (const uint32_t* column : columns) *cell++ = column[s[i]];
    }
    result.stats.dp_rows += acc.nrows;

    for (const JoinStep& step : spec.joins) {
      if (cancel != nullptr && cancel->PollNow()) {
        result.aborted = true;
        return result;
      }
      const VidRows& child = dp[static_cast<size_t>(step.child)];
      const size_t kn = step.left_pos.size();
      const bool exact = ExactKey(kn);
      auto key_of = [kn](const uint32_t* row, const std::vector<uint32_t>& pos) {
        return KeyOf(kn, [&](size_t c) { return row[pos[c]]; });
      };

      // Child index: one group per distinct join key (a cross product,
      // kn == 0, has one), its child rows listed in CSR form in insertion
      // order, so every acc row meets its partners in child-row order.
      // Hashed keys compare against each group's first child row.
      FlatKeyTable index(child.nrows);
      std::vector<uint32_t> group_of(child.nrows);
      std::vector<uint32_t> first_row;
      auto same_as = [&](const uint32_t* row,
                         const std::vector<uint32_t>& pos) {
        return [&, row](uint32_t g) {
          const uint32_t* have = child.row(first_row[g]);
          for (size_t c = 0; c < kn; ++c) {
            if (row[pos[c]] != have[step.right_pos[c]]) return false;
          }
          return true;
        };
      };
      if (!exact) first_row.reserve(child.nrows);
      for (size_t cr = 0; cr < child.nrows; ++cr) {
        if (PollEvery(cr, cancel)) {
          result.aborted = true;
          return result;
        }
        const uint32_t* crow = child.row(cr);
        uint64_t k = key_of(crow, step.right_pos);
        uint32_t g = exact ? index.Insert(k)
                           : index.Insert(k, same_as(crow, step.right_pos));
        if (!exact && g == first_row.size()) {
          first_row.push_back(static_cast<uint32_t>(cr));
        }
        group_of[cr] = g;
      }
      // Inclusive prefix counts, then a backward fill: offsets[g] ends at
      // group g's first row, and rows stay ascending within a group.
      std::vector<uint32_t> offsets(index.size() + 1, 0);
      for (uint32_t g : group_of) ++offsets[g];
      for (size_t g = 1; g < offsets.size(); ++g) offsets[g] += offsets[g - 1];
      std::vector<uint32_t> rows(child.nrows);
      for (size_t cr = child.nrows; cr-- > 0;) {
        rows[--offsets[group_of[cr]]] = static_cast<uint32_t>(cr);
      }

      // Every reduced acc row has a partner, so acc.nrows rows is a floor.
      VidRows joined;
      joined.width = acc.width + step.extra_pos.size();
      joined.data.resize(acc.nrows * joined.width);
      for (size_t ar = 0; ar < acc.nrows; ++ar) {
        if (PollEvery(ar, cancel)) {
          result.aborted = true;
          return result;
        }
        const uint32_t* arow = acc.row(ar);
        uint64_t k = key_of(arow, step.left_pos);
        uint32_t g = exact ? index.Find(k)
                           : index.Find(k, same_as(arow, step.left_pos));
        if (g == FlatKeyTable::kNone) continue;
        uint32_t* cell = joined.Append(offsets[g + 1] - offsets[g]);
        for (uint32_t i = offsets[g]; i < offsets[g + 1]; ++i) {
          const uint32_t* crow = child.row(rows[i]);
          cell = std::copy(arow, arow + acc.width, cell);
          for (uint32_t ep : step.extra_pos) *cell++ = crow[ep];
        }
      }
      result.stats.dp_rows += joined.nrows;
      acc = std::move(joined);
    }

    // Project to the carry and dedup: a new tuple's group id is its row
    // in `out`, and hashed keys compare against that row.
    VidRows out;
    out.width = spec.proj_pos.size();
    const bool exact = ExactKey(out.width);
    const std::vector<uint32_t>& proj = spec.proj_pos;
    FlatKeyTable seen(acc.nrows);
    for (size_t ar = 0; ar < acc.nrows; ++ar) {
      if (PollEvery(ar, cancel)) {
        result.aborted = true;
        return result;
      }
      const uint32_t* arow = acc.row(ar);
      uint64_t k = KeyOf(out.width, [&](size_t i) { return arow[proj[i]]; });
      auto same_tuple = [&](uint32_t g) {
        const uint32_t* have = out.row(g);
        for (size_t i = 0; i < out.width; ++i) {
          if (have[i] != arow[proj[i]]) return false;
        }
        return true;
      };
      uint32_t g = exact ? seen.Insert(k) : seen.Insert(k, same_tuple);
      if (g == out.nrows) {
        uint32_t* cell = out.Append(1);
        for (uint32_t p : proj) *cell++ = arow[p];
      }
    }
    dp[static_cast<size_t>(spec.node)] = std::move(out);
  }

  // Assemble answers from the root carry. Carry tuples are distinct over
  // the distinct head variables, so the assembled answers are distinct.
  const VidRows& root = dp[static_cast<size_t>(root_)];
  result.answers.reserve(root.nrows);
  for (size_t r = 0; r < root.nrows; ++r) {
    if (PollEvery(r, cancel)) {
      result.aborted = true;
      result.answers.clear();
      return result;
    }
    std::vector<Term> answer;
    answer.reserve(answer_.size());
    const uint32_t* row = root.row(r);
    for (const AnswerSlot& slot : answer_) {
      answer.push_back(slot.is_const ? slot.constant
                                     : db.TermOf(row[slot.root_pos]));
    }
    result.answers.push_back(std::move(answer));
  }
  return result;
}

int SemiJoinProgram::ExecuteBoolean(const ColumnarInstance& db,
                                    const ExecOptions& opts,
                                    ExecStats* stats) const {
  if (trivial_true_) return 1;
  ExecStats local;
  std::vector<std::vector<uint32_t>> sel;
  return Reduce(db, opts, &sel, stats != nullptr ? stats : &local);
}

std::string SemiJoinProgram::ToString() const {
  std::string out;
  auto cols = [](const std::vector<uint32_t>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(v[i]);
    }
    return s + "]";
  };
  if (trivial_true_) return "trivial-true\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodeSpec& ns = nodes_[i];
    out += "match " + std::to_string(i) + ": " + ns.pred.ToString() +
           " vars@" + cols(ns.var_cols);
    for (const auto& [col, term] : ns.const_cols) {
      out += " col" + std::to_string(col) + "==" + term.ToString();
    }
    for (const auto& [col, first] : ns.eq_cols) {
      out += " col" + std::to_string(col) + "==col" + std::to_string(first);
    }
    out += "\n";
  }
  for (const SemiJoinOp& op : bottom_up_) {
    out += "semijoin-up " + std::to_string(op.target) + " ⋉ " +
           std::to_string(op.source) + " on " + cols(op.target_cols) + "=" +
           cols(op.source_cols) + "\n";
  }
  for (const SemiJoinOp& op : top_down_) {
    out += "semijoin-down " + std::to_string(op.target) + " ⋉ " +
           std::to_string(op.source) + " on " + cols(op.target_cols) + "=" +
           cols(op.source_cols) + "\n";
  }
  for (const DpSpec& spec : dp_) {
    out += "dp " + std::to_string(spec.node) + ":";
    for (const JoinStep& step : spec.joins) {
      out += " join(child=" + std::to_string(step.child) + " keys=" +
             cols(step.left_pos) + "=" + cols(step.right_pos) + " extra=" +
             cols(step.extra_pos) + ")";
    }
    out += " proj=" + cols(spec.proj_pos) + "\n";
  }
  out += "answer:";
  for (const AnswerSlot& slot : answer_) {
    out += slot.is_const ? " const:" + slot.constant.ToString()
                         : " root[" + std::to_string(slot.root_pos) + "]";
  }
  out += "\n";
  return out;
}

}  // namespace semacyc::data
