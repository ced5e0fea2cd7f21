#include "core/accelerator.hpp"

#include <algorithm>
#include <utility>

#include "analysis/verifier.hpp"

namespace tfacc {

namespace {

/// Busy cycles of a module that may never have been scheduled (e.g. Softmax
/// in an FFN run). The const find() cannot create an empty ledger the way
/// the non-const module() accessor would.
Cycle busy_cycles_of(const Timeline& tl, const std::string& name) {
  const ModuleTimeline* m = tl.find(name);
  return m == nullptr ? 0 : m->busy_cycles();
}

/// Issue policy of a step ledger: a full-MHA sublayer pins Algorithm 1
/// program order (the paper-validated controller); everything else issues
/// greedily. kMhaPrefill deliberately does NOT pin program order — the
/// whole point of the mixed step is that encoder chunks interleave with the
/// packed decode rows.
IssuePolicy fused_policy(const std::vector<FusedLane>& lanes) {
  for (const FusedLane& lane : lanes)
    for (const SublayerPlan& sub : lane.subs)
      if (sub.kind == SublayerPlan::Kind::kMha)
        return IssuePolicy::kProgramOrder;
  return IssuePolicy::kGreedy;
}

/// One unlabelled sublayer as the only lane of a step ledger.
std::vector<FusedLane> one_lane(SublayerPlan sub) {
  return {FusedLane{{std::move(sub)}, false}};
}

}  // namespace

Accelerator::Accelerator(AcceleratorConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

MatI8 Accelerator::forward_mha(const MhaQuantized& block, const MatI8& q,
                               const MatI8& kv, const Mask& mask) const {
  TFACC_CHECK_ARG_MSG(block.head_dim == cfg_.sa_cols,
                      "head_dim " << block.head_dim << " != SA columns "
                                  << cfg_.sa_cols);
  // Functional pass: the quantized model's arithmetic. Algorithm 1 may
  // reorder the ops timing-wise, but reordered ops are data-independent,
  // and the full-width W_G projection, requantizer and residual adders are
  // column-independent, so this is bit-identical to the per-head_dim
  // column-block loop the controller executes.
  return block.forward(q, kv, mask);
}

Accelerator::MhaResult Accelerator::run_mha(const MhaQuantized& block,
                                            const MatI8& q, const MatI8& kv,
                                            const Mask& mask) const {
  return {forward_mha(block, q, kv, mask),
          time_mha(q.rows(), kv.rows(), block.d_model, block.num_heads)};
}

MatI8 Accelerator::forward_ffn(const FfnQuantized& block,
                               const MatI8& x) const {
  TFACC_CHECK_ARG(block.d_model % cfg_.sa_cols == 0 &&
                  block.d_ff % cfg_.sa_cols == 0);
  // One full-width GEMM per layer (W₁ then W₂): the per-SA-column
  // requantizers (per-column granularity included) are column-independent,
  // so the quantized model's pass is bit-identical to the per-64-column
  // block loop the controller executes.
  return block.forward(x);
}

Accelerator::FfnResult Accelerator::run_ffn(const FfnQuantized& block,
                                            const MatI8& x) const {
  return {forward_ffn(block, x),
          time_ffn(x.rows(), block.d_model, block.d_ff)};
}

RunReport Accelerator::time_mha(int s_q, int s_kv, int d_model,
                                int num_heads) const {
  return time_step(
      one_lane(SublayerPlan::mha({}, s_q, s_kv, d_model, num_heads)));
}

RunReport Accelerator::time_mha_cached(int s_total, int d_model, int num_heads,
                                       int project_kv_rows) const {
  return time_step(one_lane(SublayerPlan::mha_cached_batch(
      {}, {s_total}, d_model, num_heads, project_kv_rows)));
}

RunReport Accelerator::time_ffn(int s, int d_model, int d_ff) const {
  return time_step(one_lane(SublayerPlan::ffn({}, s, d_model, d_ff)));
}

MatI8 Accelerator::forward_mha_cached_batch(
    const MhaQuantized& block, const MatI8& q,
    const std::vector<const QuantKvCache*>& caches,
    const std::vector<const Mask*>& masks, int projected_rows) const {
  TFACC_CHECK_ARG(q.cols() == block.d_model);
  TFACC_CHECK_ARG(static_cast<int>(caches.size()) == q.rows() &&
                  static_cast<int>(masks.size()) == q.rows());
  TFACC_CHECK_ARG(projected_rows == 0 || projected_rows == q.rows());
  TFACC_CHECK_ARG_MSG(block.head_dim == cfg_.sa_cols,
                      "head_dim " << block.head_dim << " != SA columns "
                                  << cfg_.sa_cols);
  for (std::size_t r = 0; r < caches.size(); ++r)
    TFACC_CHECK_ARG(masks[r]->rows() == 1 &&
                    masks[r]->cols() == caches[r]->rows());

  // Functional pass: identical arithmetic to the quantized model's packed
  // cached path (the caller appended this step's K/V rows before invoking
  // us, so each slot's cache already holds them — mirroring the data memory
  // on chip).
  return block.forward_cached_batch(q, caches, masks);
}

RunReport Accelerator::time_step(const std::vector<FusedLane>& lanes) const {
  RunReport rep;
  const IssuePolicy policy = fused_policy(lanes);
  const FusedRun fused =
      schedule_fused_lanes(cfg_, rep.timeline, lanes, policy);
  if (cfg_.verify_schedules) {
    // Paranoid mode: verify the ledger just built, with the program-order
    // pin when the policy issued in program order, and throw with the full
    // diagnostic list on violation.
    VerifyOptions opts;
    opts.program_order = policy == IssuePolicy::kProgramOrder;
    const VerifyResult res = verify_fused(fused, opts);
    TFACC_CHECK_MSG(res.ok(), "time_step ledger failed verification:\n"
                                  << res.to_string());
    rep.ledger_hash = res.hash;  // canonical PR 7 hash
  }
  const ScheduleStats& stats = fused.stats;
  rep.clock_mhz = cfg_.clock_mhz;
  rep.total_cycles = rep.timeline.end_time();
  rep.sa_busy = busy_cycles_of(rep.timeline, "SA");
  rep.softmax_busy = busy_cycles_of(rep.timeline, "Softmax");
  rep.layernorm_busy = busy_cycles_of(rep.timeline, "LayerNorm");
  rep.sa_stream = stats.sa_stream;
  rep.exposed_weight_load = stats.sa_exposed_load;
  rep.accum_spill = stats.sa_spill;
  rep.softmax_slack_min =
      stats.softmax_edges > 0 ? stats.softmax_slack_min : 0;
  rep.softmax_stall = stats.softmax_stall;
  rep.softmax_hidden = rep.softmax_slack_min >= 0;
  rep.boundary_stall = fused.boundary_stall;
  rep.prefill_stall = fused.prefill_stall;
  return rep;
}

namespace {

/// Steady-state interval from a two-invocation step ledger (one
/// single-sublayer lane per run): the second run shares the first's hardware
/// and weight-prefetch port but no data, so the ledger realizes exactly the
/// overlap the hardware would — the old analytic
/// `total − weight_load − layernorm_busy` model assumed one cold load and a
/// fully exposed LayerNorm tail per run, which the op-graph scheduler no
/// longer guarantees. Clamped to >= 1 cycle so degenerate shapes yield a
/// finite rate instead of tripping a CHECK.
Accelerator::StreamReport to_stream(const Accelerator& acc,
                                    const AcceleratorConfig& cfg,
                                    const SublayerPlan& sub) {
  const FusedLane lane{{sub}, false};
  const RunReport one = acc.time_step({lane});
  const RunReport two = acc.time_step({lane, lane});
  Accelerator::StreamReport sr;
  sr.first_latency = one.total_cycles;
  sr.steady_interval =
      std::max<Cycle>(1, two.total_cycles - one.total_cycles);
  sr.clock_mhz = cfg.clock_mhz;
  return sr;
}

}  // namespace

Accelerator::StreamReport Accelerator::stream_mha(int s_q, int s_kv,
                                                  int d_model,
                                                  int num_heads) const {
  return to_stream(*this, cfg_,
                   SublayerPlan::mha("mha", s_q, s_kv, d_model, num_heads));
}

Accelerator::StreamReport Accelerator::stream_ffn(int s, int d_model,
                                                  int d_ff) const {
  return to_stream(*this, cfg_, SublayerPlan::ffn("ffn", s, d_model, d_ff));
}

}  // namespace tfacc
