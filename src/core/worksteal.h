#ifndef SEMACYC_CORE_WORKSTEAL_H_
#define SEMACYC_CORE_WORKSTEAL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "core/flat_table.h"

/// Deterministic work-stealing for a single budgeted DFS
/// (docs/ARCHITECTURE.md, "Parallel single decision").
///
/// The search space is decomposed — by the caller, combinatorially,
/// without running the search — into an ORDERED list of independent
/// subtree-root *units* whose concatenation in index order is exactly the
/// DFS preorder. Idle workers steal the lowest unclaimed unit (an atomic
/// ticket; "stealing" is claiming ahead of the committed frontier),
/// explore it with their own replayed session state, and record its
/// outcome. A commit protocol then replays the outcomes in strict unit
/// order against the preorder budget semantics, so the official result is
/// a pure function of (search space, budget) — bitwise identical for 1 and
/// N workers (one worker runs every unit in order on the calling thread,
/// so the 1-thread search is this same path):
///
///  * Each unit's exploration is sequential and deterministic: the local
///    visit count, the local visit index of the first YES, and whether
///    the unit exhausts are scheduling-independent.
///  * Commit walks units in index order, carrying `committed` (visits
///    charged so far). Unit u's allowance is a_u = budget - committed.
///    A YES at local visit y <= a_u wins (official visits committed + y);
///    an exhausted unit with visits <= a_u commits in full; a cancelled
///    unit with visits v <= a_u is where the search stopped (official
///    visits committed + v, truncated); anything else is exactly where the
///    preorder search runs out of budget (official visits budget + 1,
///    truncated).
///  * Workers cap speculative exploration at Cap() = budget - committed
///    (a relaxed read). Because commits only ever grow `committed`,
///    Cap-at-poll >= the unit's final allowance — a capped unit has
///    provably overrun its allowance, so capping never under-explores the
///    official prefix; overshoot is wasted speculation, never a wrong
///    answer.
///
/// The pool owns scheduling, commit, cooperative stop and exception
/// containment only; all search semantics (sessions, replay, dedup,
/// candidate events) live in the caller's unit runner.
namespace semacyc {

/// Per-run observability of one pool search (at every thread count; steals,
/// waste and commit waits stay 0 with one worker); the engine folds these
/// into obs counters (parallel_units, parallel_steals, ...).
struct WorkStealStats {
  /// Units claimed and run (including pruned zero-visit units).
  size_t units_claimed = 0;
  /// Claims that jumped past another worker's units (the claimed index
  /// did not follow the worker's previous unit).
  size_t steals = 0;
  /// Worker session replays (state rebuilt to a claimed unit's prefix),
  /// counted by the unit runner via WorkerContext::NoteReplay.
  size_t replays = 0;
  /// Speculative visits beyond the official prefix (work a 1-worker run
  /// does not do).
  uint64_t wasted_visits = 0;
  /// Finished units that could not commit yet because an earlier unit
  /// was still in flight (shared-budget contention at the commit lock).
  size_t commit_waits = 0;
};

/// What one worker records for one unit. All fields are deterministic
/// functions of the unit (given the search space and the caller's cap
/// discipline) — never of scheduling.
struct SearchUnitOutcome {
  /// DFS nodes visited inside the unit (the budget's unit).
  uint64_t visits = 0;
  /// The unit's whole subtree was explored (not capped, not cancelled).
  bool exhausted = false;
  /// The decision's token stopped the unit (a deadline or a cancel, not
  /// the cap): `visits` are the visits it made before it stopped.
  bool cancelled = false;
  /// A witness was found inside the unit, at local visit `found_at`
  /// (1-based). The runner stops the unit at the find.
  bool found = false;
  uint64_t found_at = 0;
};

/// Runs an ordered unit list over N workers with the deterministic commit
/// protocol above. One-shot: construct, Run once, read stats.
class ParallelSearchPool {
 public:
  /// Handed to the unit runner; all methods are safe from the worker's
  /// thread.
  class WorkerContext {
   public:
    /// Remaining allowance floor: budget - committed visits. A unit may
    /// explore up to Cap() visits; at >= Cap() it must stop and report
    /// exhausted = false. Returns 0 once the official result is fixed.
    uint64_t Cap() const;
    /// True once the official result is fixed (or a worker threw):
    /// abandon the current unit, its outcome no longer matters.
    bool Stopped() const;
    /// Counts a session replay into the pool's stats.
    void NoteReplay() { ++replays_; }
    /// This worker's index in [0, workers); at most one live thread per
    /// index, so per-worker session state can key on it.
    size_t worker() const { return worker_; }

   private:
    friend class ParallelSearchPool;
    WorkerContext(ParallelSearchPool* pool, size_t worker)
        : pool_(pool), worker_(worker) {}
    ParallelSearchPool* pool_;
    size_t worker_;
    size_t replays_ = 0;
  };

  /// Explores unit `unit` and returns its outcome, polling ctx.Cap() /
  /// ctx.Stopped() per visit. Runs concurrently on distinct units.
  using UnitRunner =
      std::function<SearchUnitOutcome(size_t unit, WorkerContext& ctx)>;

  /// The official (preorder-equivalent) reconciliation.
  struct Result {
    static constexpr size_t kNoUnit = static_cast<size_t>(-1);
    bool found = false;
    bool truncated = false;
    /// Units committed in full before the final one.
    size_t committed_units = 0;
    /// The unit holding the official YES (found) or the budget edge
    /// (truncated); kNoUnit when every unit committed.
    size_t final_unit = kNoUnit;
    /// Local-visit cutoff inside final_unit: found_at for a win, the
    /// unit's allowance for a budget truncation, its visits for a cancel. Callers replay per-unit test
    /// events up to this cutoff to reconstruct preorder counters.
    uint64_t final_unit_cutoff = 0;
    /// Total visits the preorder search reports (budget + 1 on a budget
    /// truncation, mirroring the post-increment budget check; the visits
    /// made when a cancel cut the search).
    uint64_t official_visits = 0;

    /// Whether local visit `visit` of `unit` lies in the official prefix.
    bool InPrefix(size_t unit, uint64_t visit) const {
      return unit < committed_units ||
             (unit == final_unit && visit <= final_unit_cutoff);
    }
  };

  ParallelSearchPool(size_t num_units, size_t num_threads, uint64_t budget);

  /// Runs all units to the official result. Worker 0 is the calling
  /// thread; workers() - 1 threads are spawned. Rethrows the first
  /// exception any unit runner threw (after joining every worker), so
  /// bad_alloc propagates to the caller as from any other pipeline stage.
  Result Run(const UnitRunner& run_unit);

  /// Worker slots actually used (min(threads, units), at least 1);
  /// callers size per-worker session state by this.
  size_t workers() const { return num_workers_; }

  const WorkStealStats& stats() const { return stats_; }

 private:
  void WorkerLoop(size_t worker, const UnitRunner& run_unit);
  /// Holding mu_: replays finished outcomes in unit order against the
  /// budget; finalizes on a win, a truncation, or the last unit.
  void AdvanceCommits();

  const size_t num_units_;
  const size_t num_workers_;
  const uint64_t budget_;

  std::atomic<size_t> next_unit_{0};
  std::atomic<uint64_t> committed_{0};
  std::atomic<bool> stopped_{false};

  std::mutex mu_;
  std::vector<SearchUnitOutcome> outcomes_;
  std::vector<char> done_;
  size_t commit_next_ = 0;
  bool finalized_ = false;
  Result result_;
  std::exception_ptr first_error_;

  std::vector<size_t> last_claimed_;        // per worker, for steal counting
  std::vector<uint64_t> worker_visits_;     // per worker, for waste accounting
  WorkStealStats stats_;
};

/// Sharded concurrent fingerprint set — the shared dedup table of the
/// witness-search workers. Only definitive NO answers are inserted (YES
/// stops the search, kUnknown is never recorded), so a hit merely
/// suppresses a redundant oracle call and can never change an answer.
/// Keys are the candidates' 128-bit canonical keys (core/canonical.h);
/// one set serves one search and holds only the keys of candidates the
/// oracle refuted.
class ConcurrentFingerprintSet {
 public:
  using Key = Key128Set::Key;

  bool Contains(const Key& k) const {
    const Shard& s = ShardOf(k);
    std::lock_guard<std::mutex> lock(s.mu);
    return s.set.Contains(k);
  }

  /// True when newly inserted.
  bool Insert(const Key& k) {
    Shard& s = ShardOf(k);
    std::lock_guard<std::mutex> lock(s.mu);
    return s.set.Insert(k);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    Key128Set set;
  };
  static constexpr size_t kShards = 16;
  /// Shard by high bits; the set's hash consumes the low ones.
  Shard& ShardOf(const Key& k) { return shards_[(k.first >> 60) & 15]; }
  const Shard& ShardOf(const Key& k) const {
    return shards_[(k.first >> 60) & 15];
  }
  std::array<Shard, kShards> shards_;
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_WORKSTEAL_H_
