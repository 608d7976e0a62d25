#include "core/interrupt.h"

#include <cstdlib>
#include <mutex>
#include <new>
#include <unordered_map>

namespace semacyc {

struct FailpointRegistry::State {
  struct Point {
    FailpointAction action = FailpointAction::kCancel;
    uint64_t fire_on_hit = 1;
    uint64_t hits = 0;
    bool fired = false;
  };
  mutable std::mutex mu;
  std::unordered_map<std::string, Point> points;
};

FailpointRegistry::FailpointRegistry() : state_(new State) {
  if (const char* env = std::getenv("SEMACYC_FAILPOINTS")) {
    // "ON" arms nothing by itself — it is how CI spells "build/test with
    // failpoints compiled in"; concrete specs contain '='.
    std::string spec(env);
    if (spec.find('=') != std::string::npos) ArmFromSpec(spec);
  }
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry registry;
  return registry;
}

void FailpointRegistry::Arm(const std::string& name, FailpointAction action,
                            uint64_t fire_on_hit) {
  std::lock_guard<std::mutex> lock(state_->mu);
  State::Point& p = state_->points[name];
  p.action = action;
  p.fire_on_hit = fire_on_hit == 0 ? 1 : fire_on_hit;
  p.hits = 0;
  p.fired = false;
  armed_count_.store(state_->points.size(), std::memory_order_relaxed);
}

void FailpointRegistry::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->points.erase(name);
  armed_count_.store(state_->points.size(), std::memory_order_relaxed);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->points.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

bool FailpointRegistry::ArmFromSpec(const std::string& spec) {
  size_t pos = 0;
  bool ok = true;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      ok = false;
      continue;
    }
    std::string name = entry.substr(0, eq);
    std::string action_str = entry.substr(eq + 1);
    uint64_t fire_on_hit = 1;
    size_t at = action_str.find('@');
    if (at != std::string::npos) {
      const std::string count = action_str.substr(at + 1);
      action_str.resize(at);
      if (count.empty() ||
          count.find_first_not_of("0123456789") != std::string::npos) {
        ok = false;
        continue;
      }
      fire_on_hit = std::strtoull(count.c_str(), nullptr, 10);
      if (fire_on_hit == 0) fire_on_hit = 1;
    }
    FailpointAction action;
    if (action_str == "cancel") {
      action = FailpointAction::kCancel;
    } else if (action_str == "bad_alloc") {
      action = FailpointAction::kBadAlloc;
    } else {
      ok = false;
      continue;
    }
    Arm(name, action, fire_on_hit);
  }
  return ok;
}

void FailpointRegistry::HitSlow(const char* name, CancelToken* cancel) {
  FailpointAction action;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    auto it = state_->points.find(name);
    if (it == state_->points.end()) return;
    State::Point& p = it->second;
    if (++p.hits != p.fire_on_hit) return;
    p.fired = true;
    action = p.action;
  }
  // Act outside the lock: kBadAlloc throws, and RequestCancel on a token
  // someone may poll concurrently has no business serializing on us.
  switch (action) {
    case FailpointAction::kCancel:
      if (cancel != nullptr) cancel->RequestCancel();
      break;
    case FailpointAction::kBadAlloc:
      throw std::bad_alloc();
  }
}

uint64_t FailpointRegistry::HitCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->points.find(name);
  return it == state_->points.end() ? 0 : it->second.hits;
}

bool FailpointRegistry::Fired(const std::string& name) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->points.find(name);
  return it != state_->points.end() && it->second.fired;
}

std::vector<std::string> FailpointRegistry::ArmedNames() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::vector<std::string> names;
  names.reserve(state_->points.size());
  for (const auto& [name, point] : state_->points) names.push_back(name);
  return names;
}

}  // namespace semacyc
