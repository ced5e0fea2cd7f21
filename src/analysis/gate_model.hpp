// Exhaustive model checker for the AdmissionGate reservation protocol.
//
// Clang's -Wthread-safety proves the *lock discipline* of the serve stack
// (all gate state under mu_, see serve/admission_gate.hpp), but not the
// *protocol*: that pops resolve in global (key, id) order, that no
// interleaving deadlocks, that no grant is lost or duplicated. TSan can
// only sample interleavings the host scheduler happens to produce. This
// module closes that gap with a small-scope exhaustive search over the
// shipped code itself: each card runs the shipped CardAdmission (the
// admission bookkeeping of Scheduler::CardRun) with a one-transition
// compute model, against the shipped AdmissionGate::Protocol and its
// RequestQueue (reserve / try_consume / release / publish / retire over
// kIdle/kPending/kGranted/kHeld), explored by memoized DFS over EVERY
// interleaving of gate operations for small farms (num_cards <= 4,
// num_requests <= 4), with burst or staggered arrivals and greedy or beam
// slot demand.
//
// The search is sound for the protocol because the gate mutex serializes
// all shared state: the only scheduling choices that matter are which card
// performs its next gate operation, so one DFS transition = "card c runs
// until its next gate op (inclusive)". Card-local compute is deterministic
// and invisible to siblings. A card whose try_consume comes back pending
// parks (WorkerPool) and is re-enabled only by the grant's unpark —
// modeled exactly, so a lost wakeup shows up as a reachable deadlock, not
// a hang.
//
// Invariants checked (stable codes, tools/gate_model_check keys on them):
//   GATE-ORDER     pops resolve in non-decreasing (key, id) order, and a
//                  grant only ever goes to the global-minimum blocking pair
//   GATE-KEY       every pop executes at the card's frozen step-top
//                  snapshot key, never at a live (host-dependent) clock
//   GATE-DEADLOCK  some interleaving reaches a state with live cards but
//                  no enabled transition (e.g. a lost unpark), or no
//                  interleaving quiesces at all (a livelock)
//   GATE-LOST      at quiescence a request was popped but never admitted
//                  (or still sits in the queue after every card retired)
//   GATE-DUP       at quiescence some request was admitted more than once
//   GATE-NONDET    two interleavings reach different terminal states
//                  (admission assignment or per-card clocks differ) — the
//                  determinism claim the thread-stress test samples,
//                  proven here over the whole space
//
// `--tamper` (GateTamper) seeds one protocol bug per mode from the checker
// side of the shipped code, and the checker must catch each with its
// precise code — proving the wall can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/timeline.hpp"

namespace tfacc {

/// Stable diagnostic codes; never renumber or reuse a retired code.
enum class GateDiagCode {
  kOrder,     ///< GATE-ORDER: pop order / minimality violated
  kKey,       ///< GATE-KEY: pop executed at a non-frozen key
  kDeadlock,  ///< GATE-DEADLOCK: no enabled card, or no quiescent state
  kLost,      ///< GATE-LOST: request never admitted at quiescence
  kDup,       ///< GATE-DUP: request admitted more than once
  kNondet,    ///< GATE-NONDET: terminal state differs across interleavings
};

/// The stable code string ("GATE-ORDER", ...), as printed by
/// gate_model_check.
const char* gate_diag_code_name(GateDiagCode code);

/// One model-checker finding. `message` names the code, the card, the keys
/// involved and the interleaving depth, so a CI failure is actionable
/// without a local repro.
struct GateDiagnostic {
  GateDiagCode code = GateDiagCode::kOrder;
  int card = -1;  ///< offending card (-1 when not card-specific)
  std::string message;
};

/// Seeded protocol bugs for the --tamper self-test. Each mode must be
/// caught by exactly the code documented here (tests/test_gate_model.cpp
/// pins the pairing).
enum class GateTamper {
  kNone,         ///< faithful protocol — must verify clean
  kFrozenKey,    ///< reserve posts the live clock, not the frozen
                 ///  step-top snapshot            -> GATE-KEY
  kLostUnpark,   ///< on_grant drops the WorkerPool unpark -> GATE-DEADLOCK
  kDoubleGrant,  ///< first pop leaves the request in the queue -> GATE-DUP
  kDropGrant,    ///< first popped request is discarded (reported as
                 ///  drained)                      -> GATE-LOST
  kNonMinGrant,  ///< the maximal pending pair is granted too, whether or
                 ///  not it is the global minimum  -> GATE-ORDER
};

const char* gate_tamper_name(GateTamper tamper);

/// One model configuration: `num_requests` requests (ids 0..M-1, decode
/// lengths 1 + id % 2 so finishes are ragged) over `num_cards` cards with
/// `slots_per_card` hypothesis slots.
struct GateModelConfig {
  int num_cards = 2;
  int num_requests = 2;
  int slots_per_card = 2;
  /// Slots one sentence occupies, each decoding one row per step:
  /// SchedulerConfig::slot_demand() (1 greedy, beam_size beam).
  int slot_demand = 1;
  /// Request i arrives at simulated time i * arrival_gap, as Scheduler::run
  /// takes arrivals; 0 is a burst.
  Cycle arrival_gap = 0;
  /// false: accelerator keys (admissions charge nothing; every pop of a
  /// drain keys at the step-top snapshot). true: functional-proxy keys
  /// (each admission charges one tick; successive pops key one apart) —
  /// both variants ship in Scheduler::CardRun::admission_key.
  bool proxy_keys = false;
  GateTamper tamper = GateTamper::kNone;
  /// Explosion guard: exploring past this many distinct states aborts the
  /// search with truncated=true (a FAILURE — bounds below must fit).
  long long max_states = 4'000'000;
};

struct GateModelResult {
  std::vector<GateDiagnostic> diagnostics;  ///< first violation found
  long long states = 0;       ///< distinct states visited
  long long transitions = 0;  ///< DFS edges executed
  long long terminals = 0;    ///< distinct quiescent states reached
  long long grants = 0;       ///< grant events across all explored edges
  /// Canonical serialization of the unique terminal state (admission
  /// assignment + per-card clocks); empty until a terminal is reached.
  std::string terminal_fingerprint;
  bool truncated = false;  ///< hit max_states before exhausting the space

  bool ok() const { return diagnostics.empty() && !truncated; }
  std::string to_string() const;
};

/// Exhaustively explore `cfg`. Deterministic: same config, same result
/// (including states/transitions counts — pinned by the tests).
GateModelResult check_gate_model(const GateModelConfig& cfg);

}  // namespace tfacc
