#include "serve/admission_gate.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace tfacc {

AdmissionGate::Protocol::Protocol(std::size_t n, RequestQueue q)
    : slots(n), queue(std::move(q)) {}

std::optional<std::size_t> AdmissionGate::Protocol::reserve(std::size_t c,
                                                            Cycle key) {
  Slot& s = slots[c];
  TFACC_CHECK(s.phase == Phase::kIdle || s.phase == Phase::kHeld);
  s.key = std::max(key, s.clock);
  s.clock = s.key;
  s.phase = Phase::kPending;
  return scan();
}

bool AdmissionGate::Protocol::try_consume(std::size_t c, Grant* out) {
  Slot& s = slots[c];
  if (s.phase != Phase::kGranted) {
    TFACC_CHECK(s.phase == Phase::kPending);
    return false;
  }
  *out = std::move(s.grant);
  s.phase = Phase::kHeld;
  return true;
}

std::optional<std::size_t> AdmissionGate::Protocol::release(std::size_t c) {
  Slot& s = slots[c];
  TFACC_CHECK(s.phase == Phase::kHeld);
  s.phase = Phase::kIdle;
  return scan();
}

std::optional<std::size_t> AdmissionGate::Protocol::publish(std::size_t c,
                                                            Cycle t) {
  slots[c].clock = std::max(slots[c].clock, t);
  return scan();
}

std::optional<std::size_t> AdmissionGate::Protocol::retire(std::size_t c) {
  slots[c].live = false;
  slots[c].phase = Phase::kIdle;
  return scan();
}

std::optional<std::size_t> AdmissionGate::Protocol::scan() {
  std::size_t min_c = slots.size();
  Cycle min_k = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].live) continue;
    const Cycle k = slots[i].blocking_key();
    if (min_c == slots.size() || k < min_k) {
      min_c = i;
      min_k = k;
    }
  }
  if (min_c == slots.size() || slots[min_c].phase != Phase::kPending)
    return std::nullopt;
  grant(min_c);
  return min_c;
}

void AdmissionGate::Protocol::grant(std::size_t c) {
  Slot& s = slots[c];
  s.grant.outcome = queue.try_pop(static_cast<int>(c), s.key, s.grant.req,
                                  &s.grant.next_arrival);
  s.phase = Phase::kGranted;
}

AdmissionGate::AdmissionGate(std::size_t n, RequestQueue queue,
                             std::function<void(std::size_t)> on_grant)
    : on_grant_(std::move(on_grant)), protocol_(n, std::move(queue)) {}

void AdmissionGate::reserve(std::size_t c, Cycle key) {
  MutexLock lock(mu_);
  const std::optional<std::size_t> granted = protocol_.reserve(c, key);
  lock.Unlock();
  notify(granted);
}

bool AdmissionGate::try_consume(std::size_t c, Grant* out) {
  const MutexLock lock(mu_);
  return protocol_.try_consume(c, out);
}

void AdmissionGate::release(std::size_t c) {
  MutexLock lock(mu_);
  const std::optional<std::size_t> granted = protocol_.release(c);
  lock.Unlock();
  notify(granted);
}

void AdmissionGate::publish(std::size_t c, Cycle t) {
  MutexLock lock(mu_);
  const std::optional<std::size_t> granted = protocol_.publish(c, t);
  lock.Unlock();
  notify(granted);
}

void AdmissionGate::retire(std::size_t c) {
  MutexLock lock(mu_);
  const std::optional<std::size_t> granted = protocol_.retire(c);
  lock.Unlock();
  notify(granted);
}

void AdmissionGate::notify(std::optional<std::size_t> granted) {
  if (granted && on_grant_) on_grant_(*granted);
}

}  // namespace tfacc
