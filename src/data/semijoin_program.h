#ifndef SEMACYC_DATA_SEMIJOIN_PROGRAM_H_
#define SEMACYC_DATA_SEMIJOIN_PROGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/interrupt.h"
#include "core/join_tree.h"
#include "core/query.h"
#include "data/columnar.h"

namespace semacyc::data {

/// Execution cost accounting (fed into Engine metrics and bench rows).
struct ExecStats {
  /// Rows examined by match-atom filters (full scans + index runs).
  size_t rows_scanned = 0;
  /// Target rows probed by semi-join ops.
  size_t semijoin_probes = 0;
  /// Tuples materialized into DP tables during answer assembly.
  size_t dp_rows = 0;
};

struct ExecOptions {
  /// Polled at op boundaries and inside long scans (nullptr = not
  /// cancellable). A fired token aborts the run with `aborted = true`;
  /// the program itself stays reusable.
  CancelToken* cancel = nullptr;
};

/// Result of one program execution. Mirrors YannakakisResult: answers are
/// term tuples over the query head, deduplicated; a Boolean query answers
/// {()} (one empty tuple) when true and {} when false.
struct ColumnarEvalResult {
  bool aborted = false;
  std::vector<std::vector<Term>> answers;
  ExecStats stats;
};

/// A compiled Yannakakis plan: one JoinTreeView lowered once into a flat
/// op sequence, executed any number of times over columnar instances.
///
/// Compilation resolves every variable-position lookup — which column of
/// which relation carries each variable, which positions must equal a
/// constant or repeat a variable, the key columns of every semi-join, the
/// join/projection positions of the answer DP — so execution touches only
/// integer arrays:
///
///   match      per node: filter the predicate's rows by constant and
///              repeated-variable columns into a selection vector (the
///              sorted-run index serves constant lookups)
///   semi-join  bottom-up parent ⋉ child then top-down child ⋉ parent:
///              the source selection fills a flat key → group table
///              (FlatKeyTable, core/flat_table.h) and each target row
///              probes it. Keys of 1–2 columns pack exactly into 64 bits;
///              wider keys hash, and a hash match re-verifies the columns
///              against the group's first source row, so collisions can
///              never change answers.
///   dp-join    bottom-up join-and-project answer assembly over flat
///              row-major value-id tables. A join indexes the child carry
///              with the same key → group table plus a CSR row list (rows
///              of a group in insertion order); the projection dedups
///              through it again, a new tuple's group id being its output
///              row.
///
/// Answers come out in first-derivation order (selection order through
/// the semi-joins, child-row order through the joins, first occurrence
/// through dedup), never in an order that depends on hash values. Every
/// table of an op is sized from that op's selection, child carry or acc
/// rows, never from the relation or the dictionary, and is local to the
/// call. The program holds no pointers into the query or tree — only
/// positions — and no static or per-thread scratch, so it outlives both
/// and any number of threads may execute it at once.
class SemiJoinProgram {
 public:
  SemiJoinProgram() = default;

  /// Lowers q's join tree (a view over q.body(), see BuildJoinTreeView).
  /// The caller guarantees `tree` was built from q.body(); acyclicity is
  /// the caller's contract (Engine::Eval compiles the *witness*, which is
  /// acyclic by construction).
  static SemiJoinProgram Compile(const ConjunctiveQuery& q,
                                 const JoinTreeView& tree);

  /// Full evaluation: semi-join reduction + answer assembly.
  ColumnarEvalResult Execute(const ColumnarInstance& db,
                             const ExecOptions& opts = {}) const;

  /// Boolean fast path: stops after the bottom-up reduction.
  /// Returns 1/0, or -1 when the run was aborted by the cancel token.
  /// `stats` (nullptr = not wanted) receives the reduction's counters;
  /// dp_rows stays 0.
  int ExecuteBoolean(const ColumnarInstance& db, const ExecOptions& opts = {},
                     ExecStats* stats = nullptr) const;

  /// Human-readable op listing (docs/DATAPLANE.md shows one).
  std::string ToString() const;

 private:
  /// Compiled per-atom filter. `var_cols[i]` is the first column holding
  /// the node's i-th distinct variable.
  struct NodeSpec {
    Predicate pred;
    std::vector<uint32_t> var_cols;
    std::vector<std::pair<uint32_t, Term>> const_cols;   // column == constant
    std::vector<std::pair<uint32_t, uint32_t>> eq_cols;  // column == column
  };

  /// One semi-join `target ⋉ source` with key columns resolved into both
  /// base relations. Empty key columns encode the disconnected-components
  /// edge: "clear target iff source is empty".
  struct SemiJoinOp {
    int32_t target = -1;
    int32_t source = -1;
    std::vector<uint32_t> target_cols;
    std::vector<uint32_t> source_cols;
  };

  /// One DP hash join acc ⋈ dp[child]: key positions in the current acc
  /// layout and the child's carry layout, plus the child positions
  /// appended to acc (all resolved at compile time).
  struct JoinStep {
    int32_t child = -1;
    std::vector<uint32_t> left_pos;
    std::vector<uint32_t> right_pos;
    std::vector<uint32_t> extra_pos;
  };

  /// Answer assembly for one node (executed in bottom-up order).
  struct DpSpec {
    int32_t node = -1;
    std::vector<JoinStep> joins;
    /// Positions of the final acc layout kept in this node's carry.
    std::vector<uint32_t> proj_pos;
  };

  /// One head slot: a constant term, or a position in the root carry.
  struct AnswerSlot {
    bool is_const = false;
    Term constant;
    uint32_t root_pos = 0;
  };

  /// Shared first phase of Execute/ExecuteBoolean: match + bottom-up
  /// reduction into `sel`. Returns 0 on empty (early exit), -1 on abort,
  /// 1 otherwise.
  int Reduce(const ColumnarInstance& db, const ExecOptions& opts,
             std::vector<std::vector<uint32_t>>* sel, ExecStats* stats) const;
  /// Filters sel[op.target] to rows with a key match in sel[op.source].
  /// Returns false on abort.
  bool ExecSemiJoin(const ColumnarInstance& db, const SemiJoinOp& op,
                    std::vector<std::vector<uint32_t>>* sel,
                    CancelToken* cancel, ExecStats* stats) const;

  bool trivial_true_ = false;     // empty body: answers = {head constants}
  bool head_unreachable_ = false; // defensive (mirrors the row path)
  std::vector<Term> head_;
  std::vector<NodeSpec> nodes_;
  std::vector<SemiJoinOp> bottom_up_;
  std::vector<SemiJoinOp> top_down_;
  std::vector<DpSpec> dp_;
  int32_t root_ = -1;
  std::vector<AnswerSlot> answer_;
};

}  // namespace semacyc::data

#endif  // SEMACYC_DATA_SEMIJOIN_PROGRAM_H_
