// Thread-stress determinism suite for the convoy-free admission protocol
// (PR 9): repeated N-card runs — greedy and beam, burst and staggered
// arrivals — must reproduce the admission order, the outputs, every per-card
// step/cycle ledger, and (under verify_schedules) the per-card ledger-stream
// fingerprints EXACTLY, at every host-thread count, and all of it must match
// the forced-serial run (host_threads = 1), where no two cards ever race.
// Built into the TSan CI job, so the reservation gate and the worker pool's
// park/unpark handoffs are also exercised under the race detector.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/backend.hpp"
#include "serve/scheduler.hpp"

namespace tfacc {
namespace {

ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "stress-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 2;
  return cfg;
}

std::vector<TokenSeq> calib_sources() { return {{3, 4, 5}, {6, 7}}; }

// Ragged lengths so sentences finish at different steps and slots churn
// mid-run — admissions then interleave with live decode work on every card.
std::vector<TokenSeq> stress_sources() {
  return {{3, 4, 5, 6},
          {7},
          {10, 3, 11, 4, 12, 5, 13},
          {5, 5, 6},
          {3, 4, 5, 6},
          {8, 9, 3, 4},
          {6, 7, 8, 9, 10, 11},
          {4},
          {9, 8, 7},
          {3, 5, 7, 9, 11},
          {12, 13},
          {4, 4, 4, 4}};
}

// Staggered arrivals (non-decreasing, gaps larger than a step) force the
// idle-forward clock_floor path and pending-arrival grants to fire too.
std::vector<Cycle> staggered_arrivals(std::size_t n, Cycle gap) {
  std::vector<Cycle> arrivals;
  arrivals.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    arrivals.push_back(static_cast<Cycle>(i / 3) * gap);
  return arrivals;
}

// Everything that must be invariant across host-thread counts and repeats:
// outputs, admission order, and the full per-card simulated ledgers.
void expect_reports_identical(const ScheduleReport& a, const ScheduleReport& b,
                              const std::string& what) {
  EXPECT_EQ(a.outputs, b.outputs) << what;
  ASSERT_EQ(a.per_card.size(), b.per_card.size()) << what;
  for (std::size_t c = 0; c < a.per_card.size(); ++c) {
    const std::string where = what + ", card " + std::to_string(c);
    EXPECT_EQ(a.per_card_steps[c].admitted, b.per_card_steps[c].admitted)
        << where << " (admission order)";
    EXPECT_EQ(a.per_card_steps[c].steps, b.per_card_steps[c].steps) << where;
    EXPECT_EQ(a.per_card_steps[c].packed_rows,
              b.per_card_steps[c].packed_rows)
        << where;
    EXPECT_EQ(a.per_card_steps[c].sentences, b.per_card_steps[c].sentences)
        << where;
    EXPECT_EQ(a.per_card_steps[c].prefill_chunks,
              b.per_card_steps[c].prefill_chunks)
        << where;
    EXPECT_EQ(a.per_card_steps[c].rows_hist, b.per_card_steps[c].rows_hist)
        << where;
    EXPECT_EQ(a.per_card[c].total_cycles(), b.per_card[c].total_cycles())
        << where;
    EXPECT_EQ(a.per_card[c].fused_steps, b.per_card[c].fused_steps) << where;
    EXPECT_EQ(a.per_card[c].prefill_stall_cycles,
              b.per_card[c].prefill_stall_cycles)
        << where;
    EXPECT_EQ(a.per_card[c].ledger_fingerprint,
              b.per_card[c].ledger_fingerprint)
        << where << " (ledger stream)";
  }
}

// Run the same workload at several host-thread counts (1 = forced serial,
// cooperative on the calling thread; 0 = auto) with repeats, and demand
// bit-identical reports throughout. Returns the forced-serial report.
ScheduleReport stress(SchedulerConfig cfg, const std::vector<TokenSeq>& sources,
                      const std::vector<Cycle>& arrivals, int repeats) {
  Rng rng(424242);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);

  cfg.host_threads = 1;  // forced serial: the golden, race-free reports
  Scheduler serial(weights, calib_sources(), cfg);
  const ScheduleReport golden = serial.run(sources, arrivals);
  int admitted_total = 0;
  for (const CardStepStats& s : golden.per_card_steps)
    admitted_total += static_cast<int>(s.admitted.size());
  EXPECT_EQ(admitted_total, static_cast<int>(sources.size()));

  for (const int threads : {0, 2, 4}) {
    cfg.host_threads = threads;
    Scheduler sched(weights, calib_sources(), cfg);
    for (int r = 0; r < repeats; ++r) {
      const ScheduleReport rep = sched.run(sources, arrivals);
      expect_reports_identical(golden, rep,
                               "host_threads " + std::to_string(threads) +
                                   ", repeat " + std::to_string(r));
    }
  }
  return golden;
}

SchedulerConfig stress_config(ServeBackend backend, int cards, int slots) {
  SchedulerConfig cfg;
  cfg.backend = backend;
  cfg.num_cards = cards;
  cfg.slots_per_card = slots;
  cfg.max_len = 10;
  return cfg;
}

TEST(ThreadStress, HostThreadsKnobValidatesAndClamps) {
  SchedulerConfig cfg = stress_config(ServeBackend::kReference, 2, 4);
  cfg.host_threads = -1;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.host_threads = 0;
  EXPECT_NO_THROW(cfg.validate());
  // More threads than cards is legal (clamped to one thread per card).
  Rng rng(7);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  cfg.host_threads = 16;
  Scheduler sched(weights, {}, cfg);
  const ScheduleReport rep = sched.run(stress_sources());
  EXPECT_EQ(rep.sentences(), static_cast<int>(stress_sources().size()));
}

// Accelerator + verify_schedules: every charged ledger is hashed, so the
// per-card ledger_fingerprint pins the exact ledger STREAM (content and
// order), not just cycle totals. The fingerprints are pinned too, so a
// change that moves any interval or label of any ledger fails here.
TEST(ThreadStress, AcceleratorGreedyBurstLedgerStreamsInvariant) {
  SchedulerConfig cfg = stress_config(ServeBackend::kAccelerator, 3, 4);
  cfg.accel.verify_schedules = true;
  const ScheduleReport golden =
      stress(cfg, stress_sources(), {}, /*repeats=*/2);
  const std::uint64_t fingerprints[] = {
      0x7f4c26212a324b90ULL, 0xe55736c87ac399caULL, 0xdc72940de72da109ULL};
  ASSERT_EQ(golden.per_card.size(), std::size(fingerprints));
  for (std::size_t c = 0; c < golden.per_card.size(); ++c)
    EXPECT_EQ(golden.per_card[c].ledger_fingerprint, fingerprints[c])
        << "card " << c;
}

TEST(ThreadStress, AcceleratorGreedyStaggeredArrivalsInvariant) {
  SchedulerConfig cfg = stress_config(ServeBackend::kAccelerator, 3, 4);
  cfg.accel.verify_schedules = true;
  stress(cfg, stress_sources(),
         staggered_arrivals(stress_sources().size(), 200000), /*repeats=*/2);
}

TEST(ThreadStress, AcceleratorBeamStaggeredArrivalsInvariant) {
  SchedulerConfig cfg = stress_config(ServeBackend::kAccelerator, 2, 6);
  cfg.beam_size = 3;
  cfg.accel.verify_schedules = true;
  stress(cfg, stress_sources(),
         staggered_arrivals(stress_sources().size(), 200000), /*repeats=*/2);
}

// Functional backend (no cycle model): the admission order runs off the
// work-proxy virtual clock; outputs, admission order and step ledgers must
// be just as invariant.
TEST(ThreadStress, QuantizedGreedyStaggeredArrivalsInvariant) {
  stress(stress_config(ServeBackend::kQuantized, 4, 3), stress_sources(),
         staggered_arrivals(stress_sources().size(), 10), /*repeats=*/3);
}

TEST(ThreadStress, QuantizedBeamBurstInvariant) {
  SchedulerConfig cfg = stress_config(ServeBackend::kQuantized, 3, 6);
  cfg.beam_size = 3;
  stress(cfg, stress_sources(), {}, /*repeats=*/3);
}

}  // namespace
}  // namespace tfacc
