#include "core/accelerator.hpp"

#include <algorithm>

#include "analysis/verifier.hpp"

namespace tfacc {

namespace {

/// Paranoid mode (cfg.verify_schedules): run the typed verifier over the
/// ledger just built and throw with the full diagnostic list on violation.
/// `policy` is the issue policy the builder actually used, so the verifier
/// knows whether the program-order pin applies.
void maybe_verify(const AcceleratorConfig& cfg, const char* what,
                  const ScheduledRun& run, IssuePolicy policy,
                  RunReport& rep) {
  if (!cfg.verify_schedules) return;
  VerifyOptions opts;
  opts.program_order = policy == IssuePolicy::kProgramOrder;
  const VerifyResult res = verify_schedule(run.graph, run.stats, opts);
  TFACC_CHECK_MSG(res.ok(), what << " schedule failed verification:\n"
                                 << res.to_string());
  rep.ledger_hash = res.hash;  // canonical PR 7 hash, 0 when verify is off
}

void maybe_verify_fused(const AcceleratorConfig& cfg, const char* what,
                        const FusedRun& run, IssuePolicy policy,
                        RunReport& rep) {
  if (!cfg.verify_schedules) return;
  VerifyOptions opts;
  opts.program_order = policy == IssuePolicy::kProgramOrder;
  const VerifyResult res = verify_fused(run, opts);
  TFACC_CHECK_MSG(res.ok(), what << " ledger failed verification:\n"
                                 << res.to_string());
  rep.ledger_hash = res.hash;
}

/// Busy cycles of a module that may never have been scheduled (e.g. Softmax
/// in an FFN run). The const find() cannot create an empty ledger the way
/// the non-const module() accessor would.
Cycle busy_cycles_of(const Timeline& tl, const std::string& name) {
  const ModuleTimeline* m = tl.find(name);
  return m == nullptr ? 0 : m->busy_cycles();
}

void finalize_report(RunReport& rep, const AcceleratorConfig& cfg,
                     const ScheduleStats& stats) {
  rep.clock_mhz = cfg.clock_mhz;
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
  // Boundary cost of a standalone run: the cold load before the first SA op
  // and the LayerNorm tail after the last. time_step overwrites this with
  // schedule_fused_lanes' seam-aware accounting (the same number for a
  // one-sublayer ledger).
  if (const ModuleTimeline* sa = rep.timeline.find("SA");
      sa != nullptr && !sa->intervals().empty())
    rep.boundary_stall = sa->intervals().front().start +
                         std::max<Cycle>(0, rep.total_cycles - sa->end_time());
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
  MhaResult res;
  res.out = forward_mha(block, q, kv, mask);

  RunReport& rep = res.report;
  const ScheduledRun sched =
      schedule_mha(cfg_, rep.timeline, q.rows(), kv.rows(), block.d_model,
                   block.num_heads);
  maybe_verify(cfg_, "run_mha", sched, IssuePolicy::kProgramOrder, rep);
  finalize_report(rep, cfg_, sched.stats);
  return res;
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
  FfnResult res;
  res.out = forward_ffn(block, x);

  RunReport& rep = res.report;
  const ScheduledRun sched =
      schedule_ffn(cfg_, rep.timeline, x.rows(), block.d_model, block.d_ff);
  maybe_verify(cfg_, "run_ffn", sched, IssuePolicy::kGreedy, rep);
  finalize_report(rep, cfg_, sched.stats);
  return res;
}

RunReport Accelerator::time_mha(int s_q, int s_kv, int d_model,
                                int num_heads) const {
  TFACC_CHECK_ARG(d_model == num_heads * cfg_.sa_cols);
  RunReport rep;
  const ScheduledRun sched =
      schedule_mha(cfg_, rep.timeline, s_q, s_kv, d_model, num_heads);
  maybe_verify(cfg_, "time_mha", sched, IssuePolicy::kProgramOrder, rep);
  finalize_report(rep, cfg_, sched.stats);
  return rep;
}

RunReport Accelerator::time_mha_cached(int s_total, int d_model, int num_heads,
                                       int project_kv_rows) const {
  TFACC_CHECK_ARG(s_total > 0);
  TFACC_CHECK_ARG(project_kv_rows >= 0);
  TFACC_CHECK_ARG(d_model == num_heads * cfg_.sa_cols);
  RunReport rep;
  const ScheduledRun sched =
      schedule_mha_cached_batch(cfg_, rep.timeline, {s_total}, d_model,
                                num_heads, project_kv_rows);
  maybe_verify(cfg_, "time_mha_cached", sched, IssuePolicy::kGreedy, rep);
  finalize_report(rep, cfg_, sched.stats);
  return rep;
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

RunReport Accelerator::time_ffn(int s, int d_model, int d_ff) const {
  TFACC_CHECK_ARG(d_model % cfg_.sa_cols == 0 && d_ff % cfg_.sa_cols == 0);
  RunReport rep;
  const ScheduledRun sched =
      schedule_ffn(cfg_, rep.timeline, s, d_model, d_ff);
  maybe_verify(cfg_, "time_ffn", sched, IssuePolicy::kGreedy, rep);
  finalize_report(rep, cfg_, sched.stats);
  return rep;
}

namespace {

/// Issue policy of a step ledger: a full-MHA sublayer pins Algorithm 1
/// program order (the paper-validated controller); everything else issues
/// greedily like the standalone cached builders. kMhaPrefill deliberately
/// does NOT pin program order — the whole point of the mixed step is that
/// encoder chunks interleave with the packed decode rows.
IssuePolicy fused_policy(const std::vector<FusedLane>& lanes) {
  for (const FusedLane& lane : lanes)
    for (const SublayerPlan& sub : lane.subs)
      if (sub.kind == SublayerPlan::Kind::kMha)
        return IssuePolicy::kProgramOrder;
  return IssuePolicy::kGreedy;
}

}  // namespace

RunReport Accelerator::time_step(const std::vector<FusedLane>& lanes) const {
  RunReport rep;
  const IssuePolicy policy = fused_policy(lanes);
  const FusedRun fused =
      schedule_fused_lanes(cfg_, rep.timeline, lanes, policy);
  maybe_verify_fused(cfg_, "time_step", fused, policy, rep);
  finalize_report(rep, cfg_, fused.stats);
  // Replace the edges-only estimate with the composer's seam-aware number.
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
  TFACC_CHECK_ARG(d_model == num_heads * cfg_.sa_cols);
  return to_stream(*this, cfg_,
                   SublayerPlan::mha("mha", s_q, s_kv, d_model, num_heads));
}

Accelerator::StreamReport Accelerator::stream_ffn(int s, int d_model,
                                                  int d_ff) const {
  TFACC_CHECK_ARG(d_model % cfg_.sa_cols == 0 && d_ff % cfg_.sa_cols == 0);
  return to_stream(*this, cfg_, SublayerPlan::ffn("ffn", s, d_model, d_ff));
}

}  // namespace tfacc
