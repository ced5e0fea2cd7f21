// gate_model_check — exhaustive AdmissionGate protocol checker.
//
// Companion to schedule_lint: where that tool verifies the *schedules* the
// builders emit, this one verifies the *concurrency protocol* that orders
// them. It sweeps a grid of small farm shapes (cards x requests x slots,
// both admission-key flavors, greedy and beam slot demand, burst and
// staggered arrivals) and, for each, explores EVERY interleaving of the
// shipped gate, queue and card admission code with the memoized DFS in
// analysis/gate_model.hpp, asserting the reservation invariants: pops
// resolve in global (key, id) order, no reachable deadlock, no lost or
// duplicated grant at quiescence, and one unique terminal state
// (determinism).
//
//   gate_model_check [--grid=small|full] [--verbose]
//     exit 0: every config explored exhaustively with zero diagnostics
//     exit 1: at least one diagnostic (printed with stable GATE-* codes)
//     exit 2: usage error
//
//   gate_model_check --tamper
//     Self-test: seeds each protocol bug in GateTamper and exits 1 iff
//     every one is caught with exactly its documented code — registered
//     in ctest with WILL_FAIL so CI proves the wall can actually fail.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/gate_model.hpp"

namespace {

using namespace tfacc;

struct Lint {
  int configs = 0;
  int failures = 0;
  bool verbose = false;
};

std::string config_name(const GateModelConfig& cfg) {
  std::string name = "cards=" + std::to_string(cfg.num_cards) +
                     " reqs=" + std::to_string(cfg.num_requests) +
                     " slots=" + std::to_string(cfg.slots_per_card) +
                     (cfg.proxy_keys ? " [proxy-keys]" : " [accel-keys]");
  if (cfg.slot_demand != 1)
    name += " demand=" + std::to_string(cfg.slot_demand);
  if (cfg.arrival_gap != 0)
    name += " gap=" + std::to_string(cfg.arrival_gap);
  if (cfg.tamper != GateTamper::kNone)
    name += std::string(" tamper=") + gate_tamper_name(cfg.tamper);
  return name;
}

void lint_config(Lint& lint, const GateModelConfig& cfg) {
  ++lint.configs;
  const GateModelResult res = check_gate_model(cfg);
  if (!res.ok()) {
    ++lint.failures;
    std::fprintf(stderr, "FAIL %s\n%s\n", config_name(cfg).c_str(),
                 res.to_string().c_str());
    return;
  }
  if (lint.verbose)
    std::printf("ok   %-44s %s\n", config_name(cfg).c_str(),
                res.to_string().c_str());
}

/// Staggered arrivals: request i arrives at i * kArrivalGap, a gap of one
/// to two decode steps of a one-sentence card, so pops both find nothing
/// arrived while work is in flight and fast-forward an idle card.
constexpr Cycle kArrivalGap = 2;

void sweep(Lint& lint, bool full) {
  const int max_cards = full ? 4 : 3;
  const int max_reqs = full ? 4 : 3;
  const int max_slots = full ? 4 : 3;
  for (int cards = 1; cards <= max_cards; ++cards)
    for (int reqs = 0; reqs <= max_reqs; ++reqs)
      for (int slots = 1; slots <= max_slots; ++slots)
        for (const bool proxy : {false, true})
          for (const int demand : {1, 2})
            for (const Cycle gap : {Cycle{0}, kArrivalGap}) {
              if (demand > slots) continue;
              GateModelConfig cfg;
              cfg.num_cards = cards;
              cfg.num_requests = reqs;
              cfg.slots_per_card = slots;
              cfg.proxy_keys = proxy;
              cfg.slot_demand = demand;
              cfg.arrival_gap = gap;
              lint_config(lint, cfg);
            }
}

/// The tamper grid: each seeded bug with the (documented) code that must
/// catch it, on a shape where the bug is reachable. frozen-key needs a
/// reservation posted mid-drain, after compute advanced the live clock
/// past the frozen step-top snapshot.
struct TamperCase {
  GateTamper tamper;
  GateDiagCode expect;
  int cards, reqs, slots;
};

constexpr TamperCase kTamperCases[] = {
    {GateTamper::kFrozenKey, GateDiagCode::kKey, 1, 4, 3},
    {GateTamper::kLostUnpark, GateDiagCode::kDeadlock, 2, 2, 1},
    {GateTamper::kDoubleGrant, GateDiagCode::kDup, 1, 2, 3},
    {GateTamper::kDropGrant, GateDiagCode::kLost, 2, 2, 2},
    {GateTamper::kNonMinGrant, GateDiagCode::kOrder, 2, 3, 2},
};

/// Returns true iff every seeded bug was caught with its exact code.
bool tamper_selftest() {
  bool all_caught = true;
  for (const TamperCase& tc : kTamperCases) {
    GateModelConfig cfg;
    cfg.num_cards = tc.cards;
    cfg.num_requests = tc.reqs;
    cfg.slots_per_card = tc.slots;
    cfg.tamper = tc.tamper;
    const GateModelResult res = check_gate_model(cfg);
    const bool caught = !res.diagnostics.empty() && !res.truncated &&
                        res.diagnostics.front().code == tc.expect;
    std::fprintf(stderr, "tamper %-14s -> %s (want %s): %s\n",
                 gate_tamper_name(tc.tamper),
                 res.diagnostics.empty()
                     ? "no diagnostic"
                     : gate_diag_code_name(res.diagnostics.front().code),
                 gate_diag_code_name(tc.expect),
                 caught ? "caught" : "MISSED");
    if (!caught) all_caught = false;
  }
  return all_caught;
}

}  // namespace

int main(int argc, char** argv) {
  bool tamper = false;
  bool full = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tamper") == 0) {
      tamper = true;
    } else if (std::strcmp(argv[i], "--grid=small") == 0) {
      full = false;
    } else if (std::strcmp(argv[i], "--grid=full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: gate_model_check [--grid=small|full] [--verbose]\n"
                   "       gate_model_check --tamper\n");
      return 2;
    }
  }

  if (tamper) {
    // WILL_FAIL semantics: exit 1 when the checker caught every seeded
    // bug with its precise code (the expected outcome), 0 otherwise.
    if (tamper_selftest()) {
      std::fprintf(stderr,
                   "tamper self-test: every seeded protocol bug caught\n");
      return 1;
    }
    std::fprintf(stderr, "tamper self-test: a seeded bug went UNDETECTED\n");
    return 0;
  }

  Lint lint;
  lint.verbose = verbose;
  sweep(lint, full);
  if (lint.failures > 0) {
    std::fprintf(stderr, "gate_model_check: %d/%d configs FAILED\n",
                 lint.failures, lint.configs);
    return 1;
  }
  std::printf("gate_model_check: %d configs explored exhaustively, clean\n",
              lint.configs);
  return 0;
}
