// Work-stealing request queue in front of the decode farm.
//
// The first card farm dealt sentence i to card i % num_cards statically: a
// card that drew short sentences idled while its neighbors worked through
// long ones. Here every card owns a shard (deque) of the queue; requests are
// dealt round-robin into the shards, a card pops work from the front of its
// own shard, and a card whose shard runs dry steals from the *back* of the
// most loaded sibling — the classic owner-front/thief-back split. The queue
// itself does not order *when* cards pop; the scheduler's simulated-time
// AdmissionGate does, which makes request placement deterministic. Outputs
// are bit-identical regardless of assignment either way (decoding is
// deterministic per request).
//
// Plain data: the queue is filled before the farm starts, then moved into
// the AdmissionGate, whose mutex guards every pop.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "reference/transformer.hpp"
#include "sim/timeline.hpp"

namespace tfacc {

/// One translation request; `id` is echoed so responses can be matched up
/// (Scheduler uses the source index). `arrival` is the simulated cycle the
/// request enters the system (0 = a burst present before the run starts);
/// try_pop only hands out arrived requests.
struct TranslationRequest {
  std::uint64_t id = 0;
  TokenSeq src;
  Cycle arrival = 0;
};

class RequestQueue {
 public:
  /// One shard per worker (card). Workers are numbered [0, num_shards).
  explicit RequestQueue(int num_shards);

  /// Enqueue a request; requests are dealt round-robin across shards.
  /// Arrivals must be non-decreasing across pushes (CheckError otherwise),
  /// so every shard stays arrival-sorted: try_pop reads a shard's earliest
  /// arrival from its front.
  void push(TranslationRequest req);

  /// What try_pop found.
  enum class PopOutcome {
    kPopped,   ///< `out` holds an arrived request
    kPending,  ///< requests remain, but none has arrived by `now`
    kDrained,  ///< every shard is empty
  };

  /// Pop for worker `shard` at simulated time `now`: only requests with
  /// arrival <= now are eligible. Own-shard front first, else steal the
  /// back-most arrived entry of the most loaded sibling whose front has
  /// arrived. On kPending the earliest pending arrival is written to
  /// *next_arrival (when non-null) so an idle card can fast-forward its
  /// virtual clock.
  PopOutcome try_pop(int shard, Cycle now, TranslationRequest& out,
                     Cycle* next_arrival = nullptr);

  /// Requests still enqueued across all shards.
  std::size_t pending() const;

  /// The shards, each in arrival order.
  const std::vector<std::deque<TranslationRequest>>& shards() const {
    return shards_;
  }

 private:
  std::vector<std::deque<TranslationRequest>> shards_;
  std::size_t next_shard_ = 0;
  Cycle last_arrival_ = 0;
};

}  // namespace tfacc
