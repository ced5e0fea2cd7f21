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

/// Aggregated accelerator activity across an inference run, charged only by
/// DecodeStepFuser::end_step.
struct AcceleratorStats {
  long mha_runs = 0;  ///< MHA sublayers timed (prefill chunks included)
  long ffn_runs = 0;  ///< FFN sublayers timed (prefill chunks included)
  /// Step ledgers that carried decode work: the farm's packed decode steps
  /// and every serial one-sublayer ledger (encoder sublayers included), but
  /// not a prefill-only farm iteration.
  long fused_steps = 0;
  Cycle fused_cycles = 0;  ///< cycles of every step ledger: the one bucket
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
  /// card: each mixed step ledger's makespan delta over the same ledger
  /// without its prefill ops (FusedRun::prefill_stall).
  Cycle prefill_stall_cycles = 0;
  /// Order-sensitive FNV fold of every charged ledger's canonical hash
  /// (RunReport::ledger_hash; populated only under cfg.verify_schedules).
  /// Two runs with identical fingerprints executed identical ledger streams
  /// in identical order — the thread-stress determinism witness.
  std::uint64_t ledger_fingerprint = 0;

  Cycle total_cycles() const { return fused_cycles; }
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

/// The one place accelerator_backend times anything. Each hook computes its
/// data through Accelerator::forward_* and hands its sublayer shape to a
/// recorder here. What happens next depends on whether a step is open:
///  * a step — the record joins the step's one cross-sublayer ledger. The
///    serve loop brackets each decode_step_batch call this way, so a card's
///    cycle ledger advances exactly once per card-step (the work
///    conservation the admission gate relies on);
///  * nothing (serial decode) — the record is timed at once as its own
///    one-sublayer ledger, which costs what the standalone builder reports.
/// Either way end_step() is the only caller of Accelerator::time_step. The
/// serve loop encodes on an untimed backend and times the pass from its
/// shape (encoder_plans), as prefill chunks spliced into its steps.
class DecodeStepFuser {
 public:
  DecodeStepFuser(const Accelerator& acc, AcceleratorStats* stats)
      : acc_(&acc), stats_(stats) {}

  /// Open a step: subsequent records join it.
  void begin_step();
  /// True between begin_step() and end_step().
  bool active() const { return active_; }
  /// Schedule the recorded sublayers as one fused ledger, charge the stats,
  /// close the step, and return the step's report (empty when no sublayer
  /// and no prefill chunk was recorded).
  RunReport end_step();

  /// Hook-side recorders. Inside a step they run in the allocation-free
  /// packed step loop, so they write into recycled plan slots and a warm
  /// step touches the heap not at all. A full MHA inside an open step is a
  /// CheckError: the farm encodes on an untimed backend and never runs full
  /// recompute.
  void record_mha_cached_batch(const std::vector<int>& totals, int d_model,
                               int num_heads, int project_kv_rows);
  void record_ffn(int rows, int d_model, int d_ff);
  void record_mha(int s_q, int s_kv, int d_model, int num_heads);

  /// Splice one prefill chunk into the CURRENT step's ledger; end_step()
  /// times it as a prefill lane of the step's mixed ledger.
  void add_prefill_chunk(SublayerPlan chunk);

 private:
  /// Next recycled slot of subs_ (grows it on first use), reset to an empty
  /// `kind` plan labelled "subN"; counts the sublayer.
  SublayerPlan& next_sub(SublayerPlan::Kind kind);

  const Accelerator* acc_;
  AcceleratorStats* stats_;
  bool active_ = false;
  long mha_sublayers_ = 0;
  long ffn_sublayers_ = 0;
  std::size_t n_subs_ = 0;            ///< live plans this step: subs_[0, n)
  std::vector<SublayerPlan> subs_;    ///< recycled slots, capacity persists
  std::vector<SublayerPlan> prefill_chunks_;  ///< this step's spliced chunks
  std::vector<FusedLane> lanes_;  ///< end_step's lanes, recycled per step
};

/// Backend that executes every ResBlock on `acc` using the quantized blocks
/// in `qt`. With a `fuser`, every hook's timing goes through it (and so
/// into the fuser's stats); without one the backend is functional only and
/// times nothing. All referenced objects must outlive the backend.
ResBlockBackend accelerator_backend(const QuantizedTransformer& qt,
                                    const Accelerator& acc,
                                    DecodeStepFuser* fuser = nullptr);

}  // namespace tfacc
