#include "core/worksteal.h"

#include <algorithm>
#include <thread>

namespace semacyc {

uint64_t ParallelSearchPool::WorkerContext::Cap() const {
  if (pool_->stopped_.load(std::memory_order_relaxed)) return 0;
  uint64_t committed = pool_->committed_.load(std::memory_order_relaxed);
  return committed >= pool_->budget_ ? 0 : pool_->budget_ - committed;
}

bool ParallelSearchPool::WorkerContext::Stopped() const {
  return pool_->stopped_.load(std::memory_order_relaxed);
}

ParallelSearchPool::ParallelSearchPool(size_t num_units, size_t num_threads,
                                       uint64_t budget)
    : num_units_(num_units),
      num_workers_(std::max<size_t>(
          1, std::min(num_threads, std::max<size_t>(num_units, 1)))),
      budget_(budget) {
  outcomes_.resize(num_units_);
  done_.assign(num_units_, 0);
  last_claimed_.assign(num_workers_, Result::kNoUnit);
  worker_visits_.assign(num_workers_, 0);
}

void ParallelSearchPool::AdvanceCommits() {
  while (!finalized_ && commit_next_ < num_units_ && done_[commit_next_]) {
    const SearchUnitOutcome& o = outcomes_[commit_next_];
    uint64_t committed = committed_.load(std::memory_order_relaxed);
    uint64_t allowance = committed >= budget_ ? 0 : budget_ - committed;
    if (o.found && o.found_at <= allowance) {
      result_.found = true;
      result_.final_unit = commit_next_;
      result_.final_unit_cutoff = o.found_at;
      result_.official_visits = committed + o.found_at;
      result_.committed_units = commit_next_;
      finalized_ = true;
      stopped_.store(true, std::memory_order_relaxed);
      return;
    }
    if (o.exhausted && o.visits <= allowance) {
      committed_.store(committed + o.visits, std::memory_order_relaxed);
      ++commit_next_;
      continue;
    }
    // Either a cancel stopped the search inside this unit, after the
    // visits the unit made, or the sequential search runs out of budget
    // here: its (budget + 1)-th visit attempt lands in this unit, which
    // contributes at most `allowance` countable visits before it.
    const bool cut = o.cancelled && o.visits <= allowance;
    result_.truncated = true;
    result_.final_unit = commit_next_;
    result_.final_unit_cutoff = cut ? o.visits : allowance;
    result_.official_visits = cut ? committed + o.visits : budget_ + 1;
    result_.committed_units = commit_next_;
    finalized_ = true;
    stopped_.store(true, std::memory_order_relaxed);
    return;
  }
  if (!finalized_ && commit_next_ == num_units_) {
    result_.committed_units = num_units_;
    result_.official_visits = committed_.load(std::memory_order_relaxed);
    finalized_ = true;
    stopped_.store(true, std::memory_order_relaxed);
  }
}

void ParallelSearchPool::WorkerLoop(size_t worker, const UnitRunner& run_unit) {
  WorkerContext ctx(this, worker);
  size_t claimed_units = 0, steals = 0, commit_waits = 0;
  try {
    while (!stopped_.load(std::memory_order_relaxed)) {
      size_t unit = next_unit_.fetch_add(1, std::memory_order_relaxed);
      if (unit >= num_units_) break;
      ++claimed_units;
      // A claim that does not extend this worker's own run of units is a
      // steal from the shared frontier (the first claim is just startup).
      if (last_claimed_[worker] != Result::kNoUnit &&
          unit != last_claimed_[worker] + 1) {
        ++steals;
      }
      last_claimed_[worker] = unit;
      SearchUnitOutcome out = run_unit(unit, ctx);
      worker_visits_[worker] += out.visits;
      {
        std::lock_guard<std::mutex> lock(mu_);
        outcomes_[unit] = out;
        done_[unit] = 1;
        if (unit != commit_next_) ++commit_waits;
        AdvanceCommits();
      }
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
    finalized_ = true;
    stopped_.store(true, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.units_claimed += claimed_units;
  stats_.steals += steals;
  stats_.replays += ctx.replays_;
  stats_.commit_waits += commit_waits;
}

ParallelSearchPool::Result ParallelSearchPool::Run(const UnitRunner& run_unit) {
  std::vector<std::thread> threads;
  threads.reserve(num_workers_ - 1);
  for (size_t w = 1; w < num_workers_; ++w) {
    threads.emplace_back([this, w, &run_unit] { WorkerLoop(w, run_unit); });
  }
  WorkerLoop(0, run_unit);
  for (std::thread& t : threads) t.join();

  if (first_error_) std::rethrow_exception(first_error_);
  // Every unit was either run or the result finalized early; if no unit
  // existed at all, finalize the trivial empty search.
  if (!finalized_) AdvanceCommits();

  uint64_t total = 0;
  for (uint64_t v : worker_visits_) total += v;
  stats_.wasted_visits =
      total > result_.official_visits ? total - result_.official_visits : 0;
  return result_;
}

}  // namespace semacyc
