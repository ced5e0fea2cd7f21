// The top-level accelerator model (Fig. 5) and its controller (Algorithm 1).
//
// forward_* compute a ResBlock functionally (bit-exact INT8, matching the
// quantized models of src/quant by construction); time_step times one step
// ledger of sublayer shapes (every SA / Softmax / LayerNorm operation
// reserved on a Timeline following the paper's computation flow, including
// the softmax-under-V·W_V overlap and the Fig. 7 LayerNorm strategies).
// Every timing call is a time_step: time_mha / time_ffn / time_mha_cached
// time one standalone ResBlock as a one-lane ledger, and run_mha / run_ffn
// pair that with forward_mha / forward_ffn.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/modules.hpp"
#include "core/schedules.hpp"
#include "quant/qresblock.hpp"
#include "sim/timeline.hpp"

namespace tfacc {

/// Cycle-level outcome of one ResBlock run.
struct RunReport {
  Cycle total_cycles = 0;
  Cycle sa_busy = 0;            ///< SA busy cycles (stream + drain + spill)
  Cycle sa_stream = 0;          ///< MAC-issuing cycles only
  Cycle softmax_busy = 0;
  Cycle layernorm_busy = 0;
  Cycle exposed_weight_load = 0;
  Cycle accum_spill = 0;
  /// min over softmax→AV edges of (the AV's earliest start ignoring the
  /// softmax) − (softmax result ready); >= 0 on every edge means no SA
  /// cycle was lost waiting on the Softmax module — the paper's "hidden
  /// behind V·W_V" condition, checked per edge so under interleaving a
  /// later slot's generous slack cannot mask an earlier slot's stall.
  Cycle softmax_slack_min = 0;
  /// Σ over softmax→AV edges of the SA cycles actually stalled (0 when
  /// softmax_hidden).
  Cycle softmax_stall = 0;
  /// SA idle attributable to run/sublayer boundaries: the exposed cold
  /// weight load before the run's first SA op, the SA gaps at sublayer
  /// seams of a fused ledger, and the LayerNorm tail after the last SA op.
  /// This is the idle the fused decode-step ledger (PR 5) attacks — per
  /// PR 4 profiling it was ~77% of residual SA idle on the bench workload.
  Cycle boundary_stall = 0;
  /// Mixed prefill/decode step ledgers only (PR 6): extra makespan the
  /// decode lanes suffered because prefill chunks shared the step (the
  /// ledger's end time minus that of the same graph placed without its
  /// prefill ops; see FusedRun::prefill_stall). 0 for pure ledgers.
  Cycle prefill_stall = 0;
  bool softmax_hidden = true;
  double clock_mhz = 200.0;
  /// Canonical ledger hash (analysis/verifier.hpp, PR 7) of this run's
  /// schedule — populated only when cfg.verify_schedules is on, 0 otherwise.
  /// Folded per card into AcceleratorStats::ledger_fingerprint so the
  /// thread-stress test can compare whole per-card ledger streams.
  std::uint64_t ledger_hash = 0;
  Timeline timeline;

  /// Fraction of total cycles the SA was busy ("the SA hardly stops").
  double sa_utilization() const {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(sa_busy) / total_cycles;
  }
  /// Fraction of total cycles the SA issued MACs (excludes drain bubbles).
  double sa_mac_utilization() const {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(sa_stream) / total_cycles;
  }
  /// Wall-clock latency at the configured clock.
  double microseconds() const {
    return static_cast<double>(total_cycles) / clock_mhz;
  }
};

/// The reconfigurable MHA/FFN ResBlock accelerator.
class Accelerator {
 public:
  explicit Accelerator(AcceleratorConfig cfg = {});

  const AcceleratorConfig& config() const { return cfg_; }

  struct MhaResult {
    MatI8 out;
    RunReport report;
  };
  /// Algorithm 1, lines 1-13. q/kv are INT8 inputs at the block's calibrated
  /// scales; kv plays both K and V (Fig. 3a: K = V).
  MhaResult run_mha(const MhaQuantized& block, const MatI8& q,
                    const MatI8& kv, const Mask& mask) const;

  struct FfnResult {
    MatI8 out;
    RunReport report;
  };
  /// Algorithm 1, lines 14-22.
  FfnResult run_ffn(const FfnQuantized& block, const MatI8& x) const;

  /// Timing-only variants (no data): cycle counts for a given shape, as
  /// time_step over one lane holding one unlabelled plan (Algorithm 1
  /// program order for the MHA). Used by latency sweeps where
  /// weights/activations are irrelevant. The report's timeline opens with
  /// the ledger's cold load, the WeightLoad row "prefetch" at
  /// [0, weight_load_cycles).
  RunReport time_mha(int s_q, int s_kv, int d_model, int num_heads) const;
  RunReport time_ffn(int s, int d_model, int d_ff) const;

  /// Timing of one KV-cached attention step: one fresh query row attends
  /// over `s_total` keys/values, of which only `project_kv_rows` rows are
  /// projected this step (0 = K/V fully cached in the data memory) — a
  /// one-lane ledger of a one-slot kMhaCachedBatch plan, issued greedily.
  /// Used by the full-model decoder schedule (core/full_model.hpp).
  RunReport time_mha_cached(int s_total, int d_model, int num_heads,
                            int project_kv_rows) const;

  /// Timing of one step ledger (schedule_fused_lanes): each lane chains
  /// its sublayers through the residual stream; lanes share the hardware
  /// and the global weight-prefetch chain but no data. Issues greedily
  /// unless a lane holds a full-MHA sublayer, which pins Algorithm 1
  /// program order (prefill chunks do not). The report's boundary_stall
  /// carries the per-seam accounting (cold load + LayerNorm tails + seam
  /// gaps) and prefill_stall the prefill-attributed stall of a mixed step.
  /// Plans that break the Table I shape rules (see SublayerPlan) throw
  /// CheckError. Every accelerator timing path runs through this:
  /// accelerator_backend's hooks via DecodeStepFuser, and time_mha /
  /// time_ffn / time_mha_cached as one-lane ledgers.
  RunReport time_step(const std::vector<FusedLane>& lanes) const;

  /// Functional ResBlocks (validation + bit-exact INT8 arithmetic, no
  /// timeline). accelerator_backend computes every sublayer's data through
  /// these and hands only its shape to DecodeStepFuser; run_mha / run_ffn
  /// pair forward_mha / forward_ffn with time_mha / time_ffn.
  ///
  /// forward_mha_cached_batch is the packed KV-cached MHA (continuous
  /// batching): row r of q is an independent hypothesis attending over
  /// caches[r] under masks[r] (ragged cache lengths allowed; K₁/V₁ already
  /// resident in the data memory). `projected_rows` is the number of K/V
  /// rows appended this step (q.rows() or 0). Serial decode is the one-row
  /// case. Output rows are bit-identical to the quantized model's
  /// forward_cached_batch.
  MatI8 forward_mha_cached_batch(const MhaQuantized& block, const MatI8& q,
                                 const std::vector<const QuantKvCache*>& caches,
                                 const std::vector<const Mask*>& masks,
                                 int projected_rows) const;
  /// Algorithm 1 lines 14-22: FfnQuantized::forward once the block's
  /// widths tile the SA columns.
  MatI8 forward_ffn(const FfnQuantized& block, const MatI8& x) const;
  /// Algorithm 1 lines 1-13: MhaQuantized::forward once head_dim equals
  /// the SA column count.
  MatI8 forward_mha(const MhaQuantized& block, const MatI8& q,
                    const MatI8& kv, const Mask& mask) const;

  /// Steady-state throughput of back-to-back invocations of the same
  /// ResBlock (workload-level batching): weights stay resident, so only the
  /// very first run pays the initial tile load, and the LayerNorm tail of
  /// run i overlaps the SA work of run i+1 (they are different modules).
  /// The steady interval is DERIVED from a two-invocation step ledger
  /// (two single-sublayer lanes) instead of the old analytic
  /// `total − weight_load − layernorm_busy` subtraction, which assumed
  /// exactly one cold load and a fully exposed LayerNorm tail per run — an
  /// assumption the op-graph scheduler no longer guarantees (an interleaved
  /// schedule may already overlap the tail, making the subtraction
  /// optimistic, and on small shapes it could even go non-positive).
  struct StreamReport {
    Cycle first_latency = 0;     ///< latency of the first invocation
    Cycle steady_interval = 0;   ///< cycles between completions afterwards
    double clock_mhz = 200.0;

    Cycle total_cycles(int n) const {
      return n <= 0 ? 0 : first_latency + (n - 1) * steady_interval;
    }
    /// Sustained sequences per second at the steady interval.
    double sequences_per_second() const {
      return clock_mhz * 1e6 / static_cast<double>(steady_interval);
    }
  };
  StreamReport stream_mha(int s_q, int s_kv, int d_model,
                          int num_heads) const;
  StreamReport stream_ffn(int s, int d_model, int d_ff) const;

 private:
  AcceleratorConfig cfg_;
};

}  // namespace tfacc
