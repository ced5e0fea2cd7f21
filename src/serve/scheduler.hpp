// Iteration-level continuous batching over a farm of accelerator cards —
// the serving architecture marian-dev uses for production NMT, applied to
// the paper's card.
//
// PR 2's KV-cached decode shrank every decode step to a single-row ResBlock
// invocation, which leaves the systolic array weight-load bound (a 1-row
// pass under a 64-cycle tile load). The Scheduler restores full tiles by
// packing: each card keeps up to `slots_per_card` live hypotheses; every
// step-loop iteration gathers their next-token rows into one stacked matrix,
// runs ONE batched cached-MHA/FFN ResBlock pass per decoder sublayer
// (Transformer::decode_step_batch), and scatters the logits rows back to
// each sentence's search state machine. Sentences finish at ragged lengths;
// a finished sentence vacates its slot and the card immediately refills from
// the work-stealing RequestQueue — no barrier per batch.
//
// Invariants:
//  * Outputs are bit-identical to serial per-sentence decode (greedy and
//    beam) on every backend: all packed ops are row-independent and the
//    serial translate_* loops drive the same GreedySearch/BeamSearch
//    machines.
//  * Which card serves a request is dynamic (work stealing) yet
//    deterministic: admissions are ordered by the simulated-time
//    AdmissionGate, so per-card cycle ledgers reproduce at any card count
//    on any host.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/backend.hpp"
#include "serve/request_queue.hpp"

namespace tfacc {

class AdmissionGate;  // simulated-time admission (serve/admission_gate.hpp)
class WorkerPool;     // persistent host worker pool (serve/worker_pool.hpp)

/// Which per-card execution engine the scheduler drives. The accelerator is
/// the deployment target; the functional backends exist so the bit-identity
/// guarantee can be pinned on all three.
enum class ServeBackend { kAccelerator, kQuantized, kReference };

struct SchedulerConfig {
  int num_cards = 1;       ///< cards in the farm (host_threads drives them)
  int max_len = 32;        ///< decode length cap per sentence
  int slots_per_card = 8;  ///< max hypothesis rows packed into one step
  /// 0 = greedy decode; >= 1 = beam search of this width (a sentence's beam
  /// hypotheses become sibling slots of the packed step).
  int beam_size = 0;
  float length_penalty = 0.6f;  ///< GNMT alpha (beam mode), must be finite
  ServeBackend backend = ServeBackend::kAccelerator;
  AcceleratorConfig accel{};
  SoftmaxImpl softmax = SoftmaxImpl::kHardware;
  /// Host worker threads driving the cards (the persistent pool). 0 = auto:
  /// min(num_cards, hardware_concurrency). Values above num_cards are
  /// clamped (a card is single-threaded); 1 runs every card cooperatively
  /// on the calling thread — the forced-serial mode the thread-stress test
  /// compares against. Admission order, outputs and per-card cycle ledgers
  /// are bit-identical at every setting.
  int host_threads = 0;

  /// Slots one sentence may occupy (1 for greedy, beam_size for beam).
  int slot_demand() const { return beam_size < 1 ? 1 : beam_size; }
  void validate() const;
};

/// Step-loop activity of one card.
struct CardStepStats {
  long steps = 0;        ///< packed step-loop iterations (>= 1 decode row)
  long packed_rows = 0;  ///< Σ hypothesis rows over all steps
  int sentences = 0;     ///< sentences this card decoded
  /// Prefill (encoder) chunks this card spliced into its step ledgers.
  long prefill_chunks = 0;
  /// rows_hist[k] = steps that packed exactly k rows (k in [1, slots]).
  std::vector<long> rows_hist;
  /// Request ids this card admitted, in admission order — the determinism
  /// witness the thread-stress test compares across host-thread counts.
  std::vector<std::uint64_t> admitted;
};

/// Outcome of one Scheduler::run call.
struct ScheduleReport {
  std::vector<TokenSeq> outputs;  ///< outputs[i] decodes sources[i]
  std::vector<AcceleratorStats> per_card;
  std::vector<CardStepStats> per_card_steps;
  double wall_seconds = 0;
  double clock_mhz = 200.0;

  int sentences() const { return static_cast<int>(outputs.size()); }
  /// Simulated cycles of the busiest card: the farm finishes when it does.
  Cycle makespan_cycles() const;
  /// Sum of ResBlock cycles across every card.
  Cycle total_cycles() const;
  /// Farm throughput a real deployment of these cards would sustain.
  double modeled_sentences_per_second() const;
  long packed_steps() const;
  long packed_rows() const;
  /// Mean hypothesis rows per packed step — 1.0 is PR 2's one-row mode,
  /// higher means the SA streams fuller tiles. 0.0 when no step executed.
  double packed_rows_mean() const;
  /// SA-busy fraction of all simulated ResBlock cycles across the farm
  /// (0.0 when nothing ran — never a division by zero).
  double sa_utilization() const;
  /// Per-module busy-cycle aggregates across every card (idle follows as
  /// total_cycles() − busy). Feeds the benches' per-module breakdown.
  Cycle sa_busy_cycles() const;
  Cycle softmax_busy_cycles() const;
  Cycle layernorm_busy_cycles() const;
  /// Σ SA cycles the farm stalled waiting on softmax results — the bubble
  /// the interleaved schedule is meant to shrink.
  Cycle softmax_stall_cycles() const;
  /// Σ SA cycles idle at run/sublayer boundaries (cold weight loads, fused
  /// seam gaps, LayerNorm tails) — the bubble the fused decode-step ledger
  /// is meant to shrink.
  Cycle boundary_stall_cycles() const;
  /// Σ cycles live decode rows waited on prefill (encoder) work across the
  /// farm: each mixed step ledger's makespan over that of its decode ops
  /// alone (FusedRun::prefill_stall).
  Cycle prefill_stall_cycles() const;
  /// Prefill chunks spliced into step ledgers across the farm.
  long prefill_chunks() const;
};

/// Continuous-batching decode farm. Construction pays the set-up once: one
/// copy of the weights and one INT8 calibration, shared read-only by every
/// card, whatever num_cards is. run() may be called repeatedly.
class Scheduler {
 public:
  /// `weights` is copied once; the cards are views over that copy, so the
  /// caller's weights may die right after construction. `calib_sources`
  /// drive the one INT8 calibration; they may be empty for
  /// ServeBackend::kReference.
  Scheduler(const TransformerWeights& weights,
            const std::vector<TokenSeq>& calib_sources,
            SchedulerConfig cfg = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  const SchedulerConfig& config() const { return cfg_; }

  /// Translate every source. Outputs are bit-identical to serial decode of
  /// each source alone on the same backend, whatever the packing.
  ScheduleReport run(const std::vector<TokenSeq>& sources);

  /// As above with per-request arrival times (simulated cycles, one per
  /// source, non-decreasing): a card only admits requests that have arrived
  /// by its virtual clock, idling forward to the next arrival when it has
  /// nothing in flight. An empty vector means everything arrives at t=0
  /// (the burst case — identical to run(sources)).
  ScheduleReport run(const std::vector<TokenSeq>& sources,
                     const std::vector<Cycle>& arrivals);

 private:
  struct Card;
  struct CardRun;  // resumable per-card step machine (scheduler.cpp)

  SchedulerConfig cfg_;
  // The served model, shared read-only. Declared before cards_, so the
  // cards, whose views and backends point into it, are destroyed first.
  std::shared_ptr<const TransformerWeights> weights_;
  std::optional<QuantizedTransformer> qt_;  // absent on kReference
  std::vector<std::unique_ptr<Card>> cards_;
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace tfacc
