// Work-stealing request queue in front of the decode farm.
//
// The first card farm dealt sentence i to card i % num_cards statically: a
// card that drew short sentences idled while its neighbors worked through
// long ones. Here every card owns a shard (deque) of the queue; requests are
// dealt round-robin into the shards, a card pops work from the front of its
// own shard, and a card whose shard runs dry steals from the *back* of the
// most loaded sibling — the classic owner-front/thief-back split that keeps
// contention off the common path. The queue itself does not order *when*
// cards pop; the scheduler's simulated-time AdmissionGate does, which makes
// request placement deterministic. Outputs are bit-identical regardless of
// assignment either way (decoding is deterministic per request).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/thread_annotations.hpp"
#include "reference/transformer.hpp"
#include "sim/timeline.hpp"

namespace tfacc {

/// One translation request; `id` is echoed so responses can be matched up
/// (Scheduler uses the source index). `arrival` is the simulated cycle the
/// request enters the system (0 = a burst present before the run starts);
/// the arrival-aware try_pop overload only hands out arrived requests.
struct TranslationRequest {
  std::uint64_t id = 0;
  TokenSeq src;
  Cycle arrival = 0;
};

class RequestQueue {
 public:
  /// One shard per worker (card). Workers are numbered [0, num_shards).
  explicit RequestQueue(int num_shards);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueue a request; requests are dealt round-robin across shards.
  void push(TranslationRequest req);

  /// No more pushes will follow; try_pop returning false is then final.
  void close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Pop the next request for worker `shard`: its own shard's front first,
  /// else steal from the back of the most loaded sibling. Returns false only
  /// when every shard is empty at the time of the scan.
  bool try_pop(int shard, TranslationRequest& out);

  /// What the arrival-aware try_pop found.
  enum class PopOutcome {
    kPopped,   ///< `out` holds an arrived request
    kPending,  ///< requests remain, but none has arrived by `now`
    kDrained,  ///< every shard is empty
  };

  /// Arrival-aware pop at simulated time `now`: only requests with
  /// arrival <= now are eligible. Own-shard front first, else steal the
  /// back-most arrived entry of the most loaded sibling holding one. On
  /// kPending the earliest pending arrival is written to *next_arrival
  /// (when non-null) so an idle card can fast-forward its virtual clock.
  /// Requests must be pushed in non-decreasing arrival order (per-shard
  /// FIFO order then stays arrival-sorted; Scheduler::run enforces this).
  PopOutcome try_pop(int shard, Cycle now, TranslationRequest& out,
                     Cycle* next_arrival = nullptr);

  /// Requests currently enqueued across all shards (advisory under
  /// concurrency).
  std::size_t pending() const;

 private:
  // Shard mutexes are leaves: try_pop locks at most one at a time (scan
  // scopes close before the steal lock opens), and nothing is called out to
  // while one is held.
  struct Shard {
    mutable Mutex mu;
    std::deque<TranslationRequest> q TFACC_GUARDED_BY(mu);
  };

  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace tfacc
