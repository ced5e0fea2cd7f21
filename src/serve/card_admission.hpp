// One card's side of the admission protocol: the bookkeeping the card's
// step machine keeps between AdmissionGate operations, with no compute in
// it.
//
// A card step is top() → [drain, when nothing is in flight] → decode
// compute → drain → vacate() the finished sentences → publish the
// virtual_time(). The admission drain runs MID-step, after the decode
// compute: a newly admitted sentence contributes no decode rows in its
// admission step anyway, so its first prefill chunk rides this step's
// ledger exactly as when admission ran at the top, while the admission
// wait overlaps the step's host compute. A card with nothing in flight
// drains at the top instead, since it has no step to overlap.
//
// Scheduler::CardRun runs the step with the real compute on an
// AdmissionGate. tools/gate_model_check runs it with a one-transition
// compute over every interleaving of small farms, on a probing wrapper
// around AdmissionGate::Protocol (src/analysis/gate_model.cpp). Both
// instantiate the member templates below, one per gate type.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "serve/admission_gate.hpp"

namespace tfacc {

class CardAdmission {
 public:
  enum class Drain {
    kMore,       ///< one gate operation ran; call drain_step again
    kCompleted,  ///< the drain is over and the card holds no turn
    kParked,     ///< the reservation is pending; retry once unparked
  };

  /// `demand` slots per sentence (1 greedy, beam_size beam). `proxy_keys`:
  /// the card's busy() counts each admitted sentence (the functional
  /// backends' work proxy), so successive pops of one drain key one tick
  /// apart; on the accelerator an admission charges nothing.
  CardAdmission(int slots_per_card, int demand, bool proxy_keys)
      : slots_(slots_per_card), demand_(demand), proxy_keys_(proxy_keys) {}

  /// Step top. Once the queue is drained and nothing is in flight, retires
  /// card c and returns false. Otherwise freezes `busy` as this step's key
  /// base and, when work is in flight and a pop can land, posts the step's
  /// reservation BEFORE the compute, so a sibling's scan can resolve it
  /// while this card computes.
  template <class Gate>
  bool top(Gate& gate, std::size_t c, Cycle busy);

  /// One move of the drain that fills vacant slots: at most one gate
  /// operation. Never blocks the host; popped requests collect in
  /// pending_admits.
  template <class Gate>
  Drain drain_step(Gate& gate, std::size_t c);

  /// A finished sentence frees its slots.
  void vacate() { reserved -= demand_; }

  /// Admitted sentences not yet finished (pending_admits included).
  bool in_flight() const { return reserved > 0; }

  /// The card's clock: `busy` raised past any idle fast-forward.
  Cycle virtual_time(Cycle busy) const { return std::max(clock_floor, busy); }

  bool posted = false;   ///< reservation outstanding (pending or granted)
  bool holding = false;  ///< consumed a grant, turn not yet yielded
  /// The held grant found no arrived request while work is in flight: yield
  /// the turn; the next step's reservation retries.
  bool arrivals_pending = false;
  /// Pushes precede the run, so an empty queue is final.
  bool queue_drained = false;
  int reserved = 0;  ///< slots claimed by admitted sentences (demand each)
  /// Idle fast-forward past an arrival gap.
  Cycle clock_floor = 0;
  Cycle busy_snapshot = 0;  ///< busy at the top of this step
  int admitted_in_drain = 0;
  /// Popped this drain; the caller encodes them once the drain completes
  /// (an encode charges nothing to the keys of later pops).
  std::vector<TranslationRequest> pending_admits;

 private:
  // Frozen reservation key. Pops happen mid-step, when the step's own
  // charges have already moved the live clock, so keys come from the
  // step-top snapshot: every pop of a step keys at the snapshot, one tick
  // apart per earlier pop under proxy keys.
  Cycle admission_key() const {
    const int charged = proxy_keys_ ? admitted_in_drain : 0;
    return std::max(clock_floor, busy_snapshot + charged);
  }

  bool can_pop() const {
    return !queue_drained && !arrivals_pending &&
           reserved + demand_ <= slots_;
  }

  template <class Gate>
  void post(Gate& gate, std::size_t c) {
    gate.reserve(c, admission_key());
    posted = true;
  }

  int slots_;
  int demand_;
  bool proxy_keys_;
};

template <class Gate>
bool CardAdmission::top(Gate& gate, std::size_t c, Cycle busy) {
  if (queue_drained && !in_flight()) {
    gate.retire(c);
    return false;
  }
  busy_snapshot = busy;
  admitted_in_drain = 0;
  if (in_flight() && !posted && can_pop()) post(gate, c);
  return true;
}

template <class Gate>
CardAdmission::Drain CardAdmission::drain_step(Gate& gate, std::size_t c) {
  if (holding) {
    // Just consumed a grant: keep the turn and re-reserve while a pop can
    // land, else yield it.
    holding = false;
    if (!can_pop()) {
      arrivals_pending = false;
      gate.release(c);
      return Drain::kCompleted;
    }
    post(gate, c);
    return Drain::kMore;
  }
  if (!posted) {
    if (!can_pop()) return Drain::kCompleted;
    post(gate, c);
    return Drain::kMore;
  }
  AdmissionGate::Grant g;
  if (!gate.try_consume(c, &g)) return Drain::kParked;
  posted = false;
  holding = true;
  switch (g.outcome) {
    case RequestQueue::PopOutcome::kDrained:
      queue_drained = true;
      break;
    case RequestQueue::PopOutcome::kPending:
      if (in_flight()) {
        arrivals_pending = true;
      } else {
        // Nothing in flight: idle the card forward to the next arrival so
        // its reservation key (and the admission order) advances.
        clock_floor = std::max(clock_floor, g.next_arrival);
      }
      break;
    case RequestQueue::PopOutcome::kPopped:
      reserved += demand_;
      ++admitted_in_drain;
      pending_admits.push_back(std::move(g.req));
      break;
  }
  return Drain::kMore;
}

}  // namespace tfacc
