#ifndef SEMACYC_CORE_INTERRUPT_H_
#define SEMACYC_CORE_INTERRUPT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace semacyc {

/// Cooperative cancellation: an atomic cancel flag plus an optional
/// steady_clock deadline, polled from inside every unbounded loop in the
/// decision pipeline. The deciding thread calls Poll() (amortized — the
/// clock is read once every kPollStride calls); any thread may call
/// RequestCancel(). Once a poll observes cancellation the token is
/// *tripped* and stays tripped (sticky), so every later poll along the
/// unwind path agrees and the abort is reported exactly once.
///
/// Tokens chain: a per-query token in DecideBatch points at the
/// batch-level token, inherits the tighter of the two deadlines at
/// SetParent() time, and observes the RequestCancel() of its parent and
/// of every ancestor above it on every poll — a batch deadline cancels
/// stragglers without touching them, and a server drain reaches the
/// search workers' tokens two links down.
///
/// Thread contract: Poll()/PollNow() are called by the single thread
/// executing the decision; RequestCancel() and triggered() are safe from
/// any thread. A token must outlive every decision polling it.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Clock reads happen once per this many Poll() calls; flag checks
  /// happen on every call. Poll sites fire every few microseconds at
  /// most, so worst-case deadline overshoot is well under a millisecond.
  static constexpr uint32_t kPollStride = 64;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Tightens the deadline to `tp` (keeps the earlier of the two if one
  /// is already set).
  void SetDeadline(Clock::time_point tp) {
    if (!has_deadline_ || tp < deadline_) {
      deadline_ = tp;
      has_deadline_ = true;
    }
  }

  /// Tightens the deadline to now + `ms`. `ms <= 0` is a no-op (the
  /// SemAcOptions convention: 0 = no deadline).
  void SetDeadlineInMs(int64_t ms) {
    if (ms > 0) SetDeadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  /// Chains this token under `parent`: polls observe RequestCancel() on
  /// the parent or any of its ancestors, and the parent's deadline (as of
  /// this call, which includes its ancestors' at their chaining) is
  /// folded into this token's own — the effective deadline is
  /// min(own, parent). Set the parent's deadline before chaining.
  void SetParent(const CancelToken* parent) {
    parent_ = parent;
    if (parent != nullptr && parent->has_deadline_) {
      SetDeadline(parent->deadline_);
    }
  }

  /// Requests cancellation; the next poll trips the token. Any thread.
  void RequestCancel() { cancel_requested_.store(true, std::memory_order_relaxed); }

  /// Amortized poll: flag checks every call, clock check every
  /// kPollStride calls. Returns true once the token has tripped.
  bool Poll() {
    if (triggered_.load(std::memory_order_relaxed)) return true;
    if (++countdown_ < kPollStride) {
      if (!cancel_requested_.load(std::memory_order_relaxed) &&
          (parent_ == nullptr || !parent_->CancelRequested())) {
        return false;
      }
      return Trip();
    }
    countdown_ = 0;
    return PollNow();
  }

  /// Unamortized poll (flags + clock, immediately). Used at phase
  /// boundaries where an extra clock read is noise.
  bool PollNow() {
    if (triggered_.load(std::memory_order_relaxed)) return true;
    if (cancel_requested_.load(std::memory_order_relaxed)) return Trip();
    if (parent_ != nullptr && parent_->CancelRequested()) return Trip();
    if (has_deadline_ && Clock::now() >= deadline_) return Trip();
    return false;
  }

  /// True once a poll has observed cancellation. Safe from any thread;
  /// does not itself check the clock.
  bool triggered() const { return triggered_.load(std::memory_order_relaxed); }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

 private:
  /// Requested or tripped here or anywhere up the chain.
  bool CancelRequested() const {
    return cancel_requested_.load(std::memory_order_relaxed) ||
           triggered_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->CancelRequested());
  }
  bool Trip() {
    triggered_.store(true, std::memory_order_relaxed);
    return true;
  }

  std::atomic<bool> cancel_requested_{false};
  std::atomic<bool> triggered_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  const CancelToken* parent_ = nullptr;
  uint32_t countdown_ = 0;
};

/// What an armed failpoint does when it fires.
enum class FailpointAction {
  kCancel,    ///< RequestCancel() on the decision's token.
  kBadAlloc,  ///< throw std::bad_alloc (simulated allocation failure).
};

/// Process-global registry of named failpoints at pipeline phase
/// boundaries (catalogue in docs/ROBUSTNESS.md). Unarmed cost is one
/// relaxed atomic load + branch per site; with SEMACYC_FAILPOINTS
/// compiled OFF the sites vanish entirely. Arm programmatically from
/// tests or via the SEMACYC_FAILPOINTS environment variable:
///
///   SEMACYC_FAILPOINTS="subsets.visit=cancel@100,decide.after_chase=bad_alloc"
///
/// (action one of cancel | bad_alloc; `@K` fires on the K-th hit,
/// default the 1st). Arming data lives behind a mutex touched only on
/// the armed slow path.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global();

  /// Arms `name` to perform `action` on its `fire_on_hit`-th hit
  /// (1-based; re-arming resets the hit counter).
  void Arm(const std::string& name, FailpointAction action,
           uint64_t fire_on_hit = 1);
  void Disarm(const std::string& name);
  void DisarmAll();

  /// Parses the SEMACYC_FAILPOINTS spec format (see class comment) and
  /// arms accordingly. Returns false on a malformed spec (valid entries
  /// before the malformed one stay armed). Called once with the
  /// environment value when the registry is first used.
  bool ArmFromSpec(const std::string& spec);

  /// Hot-path hook behind SEMACYC_FAILPOINT: no-op unless something is
  /// armed. On the K-th hit of an armed point, kCancel requests
  /// cancellation on `cancel` (if non-null) and kBadAlloc throws.
  void Hit(const char* name, CancelToken* cancel) {
    if (armed_count_.load(std::memory_order_relaxed) == 0) return;
    HitSlow(name, cancel);
  }

  /// Observability for tests: hits seen by an armed point, and whether
  /// it has fired. Unarmed (or never-armed) names report 0 / false.
  uint64_t HitCount(const std::string& name) const;
  bool Fired(const std::string& name) const;
  std::vector<std::string> ArmedNames() const;

 private:
  FailpointRegistry();
  void HitSlow(const char* name, CancelToken* cancel);

  struct State;
  std::atomic<uint64_t> armed_count_{0};
  State* state_;  // owned; never freed (process-lifetime singleton)
};

}  // namespace semacyc

// Failpoint sites compile away unless SEMACYC_FAILPOINTS is ON (the
// CMake option defines SEMACYC_FAILPOINTS_ENABLED=1; the default build
// keeps them in so the fault-injection suite runs under plain ctest).
#if defined(SEMACYC_FAILPOINTS_ENABLED) && SEMACYC_FAILPOINTS_ENABLED
#define SEMACYC_FAILPOINT(name, cancel) \
  ::semacyc::FailpointRegistry::Global().Hit((name), (cancel))
#else
#define SEMACYC_FAILPOINT(name, cancel) ((void)0)
#endif

#endif  // SEMACYC_CORE_INTERRUPT_H_
