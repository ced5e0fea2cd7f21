// Glue between the host-side Transformer decode loop and the accelerator:
// a ResBlockBackend that runs every MHA/FFN ResBlock through the cycle-level
// simulator, accumulating the cycle cost of a whole inference — the way the
// paper envisions deployment (embedding/output layers on the host, ResBlocks
// on the FPGA).
#pragma once

#include "core/accelerator.hpp"
#include "quant/qtransformer.hpp"
#include "reference/transformer.hpp"

namespace tfacc {

/// Aggregated accelerator activity across an inference run.
struct AcceleratorStats {
  long mha_runs = 0;  ///< MHA ResBlock invocations (fused sublayers included)
  long ffn_runs = 0;  ///< FFN ResBlock invocations (fused sublayers included)
  /// Cycles of per-sublayer ledgers. A sublayer timed inside a fused
  /// decode-step ledger counts in fused_cycles instead, so the three cycle
  /// buckets partition total_cycles().
  Cycle mha_cycles = 0;
  Cycle ffn_cycles = 0;
  long fused_steps = 0;   ///< packed decode steps timed as ONE fused ledger
  Cycle fused_cycles = 0; ///< cycles of those cross-sublayer step ledgers
  Cycle sa_busy_cycles = 0;         ///< SA busy cycles summed over all runs
  Cycle softmax_busy_cycles = 0;    ///< Softmax-unit busy cycles, all runs
  Cycle layernorm_busy_cycles = 0;  ///< LayerNorm-unit busy cycles, all runs
  /// SA cycles stalled waiting on softmax results (0 when every softmax→AV
  /// edge was hidden behind other SA work).
  Cycle softmax_stall_cycles = 0;
  /// SA cycles idle at run/sublayer boundaries (cold weight loads, seam
  /// gaps of fused ledgers, LayerNorm tails) — the idle the fused
  /// decode-step ledger shrinks by prefetching the next sublayer's weight
  /// tile under the previous sublayer's compute.
  Cycle boundary_stall_cycles = 0;
  /// Cycles live decode rows waited on prefill (encoder) work sharing their
  /// card: each mixed step ledger's makespan delta over a decode-only
  /// rebuild.
  Cycle prefill_stall_cycles = 0;
  /// Order-sensitive FNV fold of every charged run's canonical ledger hash
  /// (RunReport::ledger_hash; populated only under cfg.verify_schedules).
  /// Two runs with identical fingerprints executed identical ledger streams
  /// in identical order — the thread-stress determinism witness.
  std::uint64_t ledger_fingerprint = 0;

  Cycle total_cycles() const {
    return mha_cycles + ffn_cycles + fused_cycles;
  }
  double microseconds(double clock_mhz) const {
    return static_cast<double>(total_cycles()) / clock_mhz;
  }
  /// Fraction of the accumulated ResBlock cycles the SA was busy — the
  /// number packed multi-row decode steps are meant to push back up.
  double sa_utilization() const {
    return total_cycles() == 0
               ? 0.0
               : static_cast<double>(sa_busy_cycles) / total_cycles();
  }
};

/// Collects the sublayer shapes of one packed decode step so the whole step
/// is timed as ONE cross-sublayer fused ledger (Accelerator::time_step)
/// instead of ~3·L per-sublayer ledgers that each restart the weight memory
/// cold. The serve step loop brackets each decode_step_batch call with
/// begin_step()/end_step(); while a step is open, the accelerator backend's
/// mha_cached_batch/ffn hooks compute their data functionally (bit-exact,
/// unchanged) and record their shape here instead of scheduling their own
/// timeline. end_step() schedules the composed ledger once and charges
/// `stats` — so the per-card cycle ledger still advances exactly once per
/// card-step, preserving the work-conservation invariant the admission gate
/// relies on.
class DecodeStepFuser {
 public:
  DecodeStepFuser(const Accelerator& acc, AcceleratorStats* stats)
      : acc_(&acc), stats_(stats) {}

  /// Open a step: subsequent hook calls record instead of scheduling.
  void begin_step();
  /// True between begin_step() and end_step().
  bool active() const { return active_; }
  /// Schedule the recorded sublayers as one fused ledger, charge the stats,
  /// close the step, and return the step's report (empty when no sublayer
  /// and no prefill chunk was recorded).
  RunReport end_step();

  /// Hook-side recorders (no-ops unless a step is open — callers check
  /// active() first). They run inside the allocation-free packed step loop,
  /// so they write into recycled plan slots: `totals` is copied into the
  /// slot's persistent buffer, labels stay within SSO capacity, and a warm
  /// step touches the heap not at all.
  void record_mha_cached_batch(const std::vector<int>& totals, int d_model,
                               int num_heads, int project_kv_rows);
  void record_ffn(int rows, int d_model, int d_ff);

  // --- Prefill capture (PR 6) ----------------------------------------------
  // Serve admission brackets encode() with begin_prefill() /
  // end_prefill(): the backend's encoder hooks (mha / ffn) compute
  // functionally and record full-size sublayer plans here instead of
  // charging per-run ledgers. The scheduler chunks the returned plans
  // (chunk_prefill) and feeds them back one per step via
  // add_prefill_chunk(); end_step() then times the chunks as prefill lanes
  // of the step's mixed ledger.

  /// Open prefill capture (outside any step).
  void begin_prefill();
  /// True between begin_prefill() and end_prefill().
  bool prefill_active() const { return prefill_active_; }
  /// Close capture and return the recorded full-size encoder plans.
  std::vector<SublayerPlan> end_prefill();
  /// Recorder for a full encoder MHA during capture.
  void record_mha_prefill(int s_q, int s_kv, int d_model, int num_heads);
  /// Splice one prefill chunk into the CURRENT step's ledger.
  void add_prefill_chunk(SublayerPlan chunk);

 private:
  /// Next recycled slot of subs_ (grows it on first use); labels it "subN".
  SublayerPlan& next_sub();

  const Accelerator* acc_;
  AcceleratorStats* stats_;
  bool active_ = false;
  bool prefill_active_ = false;
  long mha_sublayers_ = 0;
  long ffn_sublayers_ = 0;
  std::size_t n_subs_ = 0;            ///< live plans this step: subs_[0, n)
  std::vector<SublayerPlan> subs_;    ///< recycled slots, capacity persists
  std::vector<SublayerPlan> prefill_plans_;   ///< capture: full-size plans
  std::vector<SublayerPlan> prefill_chunks_;  ///< this step's spliced chunks
};

/// Backend that executes every ResBlock on `acc` using the quantized blocks
/// in `qt`. `stats` (optional) accumulates cycles across calls. `fuser`
/// (optional) reroutes the decode-step hooks' timing into a fused
/// cross-sublayer ledger whenever a step is open. All referenced objects
/// must outlive the backend.
ResBlockBackend accelerator_backend(const QuantizedTransformer& qt,
                                    const Accelerator& acc,
                                    AcceleratorStats* stats = nullptr,
                                    DecodeStepFuser* fuser = nullptr);

}  // namespace tfacc
