#include "serve/request_queue.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/check.hpp"

namespace tfacc {

RequestQueue::RequestQueue(int num_shards)
    : shards_(static_cast<std::size_t>(std::max(num_shards, 0))) {
  TFACC_CHECK_ARG_MSG(num_shards >= 1,
                      "num_shards must be >= 1, got " << num_shards);
}

void RequestQueue::push(TranslationRequest req) {
  TFACC_CHECK_ARG_MSG(req.arrival >= last_arrival_,
                      "arrivals must be non-decreasing, got "
                          << req.arrival << " after " << last_arrival_);
  last_arrival_ = req.arrival;
  shards_[next_shard_++ % shards_.size()].push_back(std::move(req));
}

RequestQueue::PopOutcome RequestQueue::try_pop(int shard, Cycle now,
                                               TranslationRequest& out,
                                               Cycle* next_arrival) {
  TFACC_CHECK_ARG(shard >= 0 && shard < static_cast<int>(shards_.size()));
  std::deque<TranslationRequest>& own =
      shards_[static_cast<std::size_t>(shard)];
  if (!own.empty() && own.front().arrival <= now) {
    out = std::move(own.front());
    own.pop_front();
    return PopOutcome::kPopped;
  }
  // Steal from the most loaded sibling that holds an arrived request. Every
  // shard is arrival-sorted, so its front holds its earliest arrival.
  std::deque<TranslationRequest>* victim = nullptr;
  bool any_request = false;
  Cycle earliest = std::numeric_limits<Cycle>::max();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::deque<TranslationRequest>& q = shards_[s];
    if (q.empty()) continue;
    any_request = true;
    earliest = std::min(earliest, q.front().arrival);
    if (static_cast<int>(s) == shard) continue;
    if (q.front().arrival <= now &&
        (victim == nullptr || q.size() > victim->size()))
      victim = &q;
  }
  if (!any_request) return PopOutcome::kDrained;
  if (victim == nullptr) {
    if (next_arrival != nullptr) *next_arrival = earliest;
    return PopOutcome::kPending;
  }
  // Thief-back among eligibles: the back-most entry that has arrived (the
  // plain back once every arrival has passed).
  const auto arrived_end = std::upper_bound(
      victim->begin(), victim->end(), now,
      [](Cycle t, const TranslationRequest& r) { return t < r.arrival; });
  const auto it = std::prev(arrived_end);
  out = std::move(*it);
  victim->erase(it);
  return PopOutcome::kPopped;
}

std::size_t RequestQueue::pending() const {
  std::size_t n = 0;
  for (const std::deque<TranslationRequest>& q : shards_) n += q.size();
  return n;
}

}  // namespace tfacc
