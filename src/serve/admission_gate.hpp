// Convoy-free simulated-time admission order for the card farm.
//
// Card threads race on the host, but the farm being modeled has every card
// live at once, so "who takes the next request" must follow *simulated*
// time, not host scheduling. Admission is reservation-based and a card
// never blocks while it has work:
//
//  * reserve(c, key) posts card c's intent to pop at simulated time `key`.
//    The key is frozen — computed from simulated state only, so it is
//    identical on every host and at every thread count.
//  * Whichever thread next touches the gate and observes that c's
//    (key, id) pair is the strict minimum over every live card's blocking
//    pair resolves the admission: the queue pop runs right there, under
//    the gate mutex, at c's frozen key — pops execute in exact (key, id)
//    order regardless of host scheduling. The outcome is parked in the
//    slot as a Grant.
//  * The card collects its grant with the non-blocking try_consume() at
//    its next drain point; with in-flight work it keeps stepping while the
//    grant is pending and only parks (WorkerPool) when it truly cannot
//    progress. A card with no reservation blocks siblings at its published
//    clock.
//
// Blocking pair of live card i: (key_i, i) while a reservation is posted
// (pending, granted or held), else (clock_i, i). A pending slot is granted
// iff its pair is strictly below every other live card's pair, so the
// admission sequence (and with it every per-card cycle ledger) depends on
// simulated time only.
//
// The protocol itself is the value type Protocol: the slots, the request
// queue, the five transitions and the scan, with no lock and no callback.
// AdmissionGate wraps it with the mutex and the grant callback and is what
// the Scheduler runs; tools/gate_model_check drives Protocol directly over
// every interleaving of small farms (src/analysis/gate_model.hpp).
//
// Concurrency contract (machine-checked):
//  * The protocol state, the request queue included, is guarded by mu_
//    (TFACC_GUARDED_BY below, compile-time under Clang); every transition
//    runs under it.
//  * mu_ is a leaf lock: nothing is called out to while it is held. The
//    grant callback (WorkerPool::unpark) runs after the transition has
//    released it. A late unpark cannot be lost: unpark only marks the job
//    runnable, so it wakes the job whether it lands before or after the
//    job parks.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/request_queue.hpp"

namespace tfacc {

class AdmissionGate {
 public:
  struct Grant {
    RequestQueue::PopOutcome outcome = RequestQueue::PopOutcome::kDrained;
    TranslationRequest req;
    Cycle next_arrival = 0;
  };

  /// The admission protocol as a plain value. Every transition but
  /// try_consume ends with the scan and returns the card it granted, if
  /// any.
  struct Protocol {
    enum class Phase { kIdle, kPending, kGranted, kHeld };

    struct Slot {
      bool live = true;
      Cycle clock = 0;
      Phase phase = Phase::kIdle;
      Cycle key = 0;
      Grant grant;

      /// A live slot blocks its siblings at (blocking_key(), its index).
      Cycle blocking_key() const { return phase == Phase::kIdle ? clock : key; }
    };

    Protocol(std::size_t n, RequestQueue q);

    /// Post card c's intent to pop at simulated time `key`. Raises the
    /// card's clock to the key (a reservation is also a progress
    /// publication). Legal from idle or held (re-reserving right after
    /// consuming a grant).
    std::optional<std::size_t> reserve(std::size_t c, Cycle key);

    /// Collect a resolved reservation: true moves the grant out and holds
    /// the turn (the slot keeps blocking siblings at its key until
    /// release()/reserve()); false means the reservation is still pending.
    bool try_consume(std::size_t c, Grant* out);

    /// Drop a held turn without re-reserving (card is full or done
    /// popping).
    std::optional<std::size_t> release(std::size_t c);

    /// Monotonically raise card c's published clock (end of a step).
    std::optional<std::size_t> publish(std::size_t c, Cycle t);

    /// Card c is done (no further admissions); scans stop considering it.
    std::optional<std::size_t> retire(std::size_t c);

    /// Resolve at most one admission: if the globally minimal blocking pair
    /// belongs to a pending slot, grant it. A granted/held minimum blocks
    /// everyone (its pop is already in the total order but its card has
    /// not folded it in yet); an idle minimum means that card is mid-step
    /// and may still reserve an earlier key.
    std::optional<std::size_t> scan();

    /// Pop for pending card c at its frozen key and mark it granted.
    void grant(std::size_t c);

    std::vector<Slot> slots;
    RequestQueue queue;
  };

  /// `on_grant(c)` fires, after the gate mutex is released, whenever card
  /// c's reservation resolves (WorkerPool::unpark).
  AdmissionGate(std::size_t n, RequestQueue queue,
                std::function<void(std::size_t)> on_grant);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// The Protocol transitions, each one critical section of the gate.
  void reserve(std::size_t c, Cycle key) TFACC_EXCLUDES(mu_);
  bool try_consume(std::size_t c, Grant* out) TFACC_EXCLUDES(mu_);
  void release(std::size_t c) TFACC_EXCLUDES(mu_);
  void publish(std::size_t c, Cycle t) TFACC_EXCLUDES(mu_);
  void retire(std::size_t c) TFACC_EXCLUDES(mu_);

 private:
  void notify(std::optional<std::size_t> granted) TFACC_EXCLUDES(mu_);

  std::function<void(std::size_t)> on_grant_;
  mutable Mutex mu_;
  Protocol protocol_ TFACC_GUARDED_BY(mu_);
};

}  // namespace tfacc
