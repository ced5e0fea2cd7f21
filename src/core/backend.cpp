#include "core/backend.hpp"

#include "common/check.hpp"

namespace tfacc {

namespace {

void charge_modules(AcceleratorStats* stats, const RunReport& report) {
  stats->sa_busy_cycles += report.sa_busy;
  stats->softmax_busy_cycles += report.softmax_busy;
  stats->layernorm_busy_cycles += report.layernorm_busy;
  stats->softmax_stall_cycles += report.softmax_stall;
  stats->boundary_stall_cycles += report.boundary_stall;
  stats->prefill_stall_cycles += report.prefill_stall;
  // Order-sensitive fold (FNV-1a step) of the verified ledger stream: any
  // reordered, missing, or altered ledger changes the fingerprint.
  if (report.ledger_hash != 0)
    stats->ledger_fingerprint =
        (stats->ledger_fingerprint * 1099511628211ULL) ^ report.ledger_hash;
}

void charge_mha(AcceleratorStats* stats, const RunReport& report) {
  if (stats == nullptr) return;
  ++stats->mha_runs;
  stats->mha_cycles += report.total_cycles;
  charge_modules(stats, report);
}

void charge_ffn(AcceleratorStats* stats, const RunReport& report) {
  if (stats == nullptr) return;
  ++stats->ffn_runs;
  stats->ffn_cycles += report.total_cycles;
  charge_modules(stats, report);
}

}  // namespace

void DecodeStepFuser::begin_step() {
  TFACC_CHECK_MSG(!active_, "decode step already open");
  TFACC_CHECK_MSG(!prefill_active_, "step opened inside prefill capture");
  TFACC_CHECK(n_subs_ == 0 && prefill_chunks_.empty());
  active_ = true;
  mha_sublayers_ = 0;
  ffn_sublayers_ = 0;
}

void DecodeStepFuser::begin_prefill() {
  TFACC_CHECK_MSG(!prefill_active_, "prefill capture already open");
  // A capture MAY open inside an open step: the convoy-free scheduler (PR 9)
  // drains admissions mid-step and encodes them before the step's splice
  // loop. The hooks stay unambiguous because every recorder checks
  // prefill_active() first; the capture must close before end_step().
  TFACC_CHECK(prefill_plans_.empty());
  prefill_active_ = true;
}

std::vector<SublayerPlan> DecodeStepFuser::end_prefill() {
  TFACC_CHECK_MSG(prefill_active_, "end_prefill without begin_prefill");
  prefill_active_ = false;
  std::vector<SublayerPlan> plans = std::move(prefill_plans_);
  prefill_plans_.clear();
  return plans;
}

void DecodeStepFuser::record_mha_prefill(int s_q, int s_kv, int d_model,
                                         int num_heads) {
  TFACC_CHECK_MSG(prefill_active_, "record outside prefill capture");
  prefill_plans_.push_back(SublayerPlan::mha_prefill(
      "enc" + std::to_string(prefill_plans_.size()), s_q, s_kv, d_model,
      num_heads, s_kv));
}

void DecodeStepFuser::add_prefill_chunk(SublayerPlan chunk) {
  TFACC_CHECK_MSG(active_, "prefill chunk outside begin_step()/end_step()");
  prefill_chunks_.push_back(std::move(chunk));
}

SublayerPlan& DecodeStepFuser::next_sub() {
  if (n_subs_ == subs_.size()) subs_.emplace_back();
  SublayerPlan& p = subs_[n_subs_];
  // "subN" stays within the small-string buffer — no heap traffic.
  p.label = "sub";
  p.label += std::to_string(n_subs_);
  ++n_subs_;
  return p;
}

void DecodeStepFuser::record_mha_cached_batch(const std::vector<int>& totals,
                                              int d_model, int num_heads,
                                              int project_kv_rows) {
  TFACC_CHECK_MSG(active_, "record outside begin_step()/end_step()");
  ++mha_sublayers_;
  SublayerPlan& p = next_sub();
  p.kind = SublayerPlan::Kind::kMhaCachedBatch;
  p.totals.assign(totals.begin(), totals.end());
  p.d_model = d_model;
  p.num_heads = num_heads;
  p.project_kv_rows = project_kv_rows;
  p.s_q = p.s_kv = p.rows = p.d_ff = 0;
}

void DecodeStepFuser::record_ffn(int rows, int d_model, int d_ff) {
  TFACC_CHECK_MSG(active_ || prefill_active_,
                  "record outside begin_step()/end_step()");
  if (prefill_active_) {
    prefill_plans_.push_back(SublayerPlan::ffn(
        "enc" + std::to_string(prefill_plans_.size()), rows, d_model, d_ff));
    return;
  }
  ++ffn_sublayers_;
  SublayerPlan& p = next_sub();
  p.kind = SublayerPlan::Kind::kFfn;
  p.totals.clear();
  p.rows = rows;
  p.d_model = d_model;
  p.d_ff = d_ff;
  p.num_heads = p.s_q = p.s_kv = p.project_kv_rows = 0;
}

RunReport DecodeStepFuser::end_step() {
  TFACC_CHECK_MSG(active_, "end_step without begin_step");
  TFACC_CHECK_MSG(!prefill_active_, "end_step inside prefill capture");
  active_ = false;
  if (n_subs_ == 0 && prefill_chunks_.empty())
    return {};  // nothing recorded: no decode rows, no prefill chunks
  // Each prefill chunk is its own (single-sublayer) lane; the packed decode
  // pass is one chained lane appended last, so its initial weight tile
  // prefetches under the prefill compute.
  const bool has_decode = n_subs_ > 0;
  long prefill_mha = 0;
  long prefill_ffn = 0;
  std::vector<FusedLane> lanes;
  lanes.reserve(prefill_chunks_.size() + 1);
  for (SublayerPlan& chunk : prefill_chunks_) {
    if (chunk.kind == SublayerPlan::Kind::kMhaPrefill)
      ++prefill_mha;
    else
      ++prefill_ffn;
    lanes.push_back(FusedLane{{std::move(chunk)}, true});
  }
  prefill_chunks_.clear();
  // Copy (not move) the live plans out so subs_ keeps its recycled slots'
  // buffers — end_step runs outside the allocation-free step window.
  if (has_decode)
    lanes.push_back(FusedLane{
        {subs_.begin(),
         subs_.begin() + static_cast<std::ptrdiff_t>(n_subs_)},
        false});
  n_subs_ = 0;
  RunReport report = acc_->time_step(lanes);
  if (stats_ != nullptr) {
    stats_->mha_runs += mha_sublayers_ + prefill_mha;
    stats_->ffn_runs += ffn_sublayers_ + prefill_ffn;
    // A prefill-only iteration is not a packed decode step; its cycles
    // still land in fused_cycles (the step-ledger bucket).
    if (has_decode) ++stats_->fused_steps;
    stats_->fused_cycles += report.total_cycles;
    charge_modules(stats_, report);
  }
  return report;
}

ResBlockBackend accelerator_backend(const QuantizedTransformer& qt,
                                    const Accelerator& acc,
                                    AcceleratorStats* stats,
                                    DecodeStepFuser* fuser) {
  // Start from the quantized backend: its K/V cache factories (INT8 rows at
  // the calibrated scales) are exactly what the accelerator consumes too.
  // Only the hooks that execute compute are rerouted through the simulator.
  ResBlockBackend b = qt.backend();
  b.mha = [&qt, &acc, stats, fuser](const MatF& q, const MatF& kv,
                                    const MhaWeights& w, const Mask& mask) {
    const MhaQuantized& qm = qt.mha_for(w);
    if (fuser != nullptr && fuser->prefill_active()) {
      // Packed prefill (PR 6): bit-exact data now, timing deferred to the
      // chunked prefill lanes of later step ledgers.
      const MatI8 out =
          acc.forward_mha(qm, qm.quantize_q(q), qm.quantize_kv(kv), mask);
      fuser->record_mha_prefill(q.rows(), kv.rows(), qm.d_model,
                                qm.num_heads);
      return qm.dequantize_out(out);
    }
    const auto result =
        acc.run_mha(qm, qm.quantize_q(q), qm.quantize_kv(kv), mask);
    charge_mha(stats, result.report);
    return qm.dequantize_out(result.out);
  };
  b.ffn = [&qt, &acc, stats, fuser](const MatF& x, const FfnWeights& w) {
    const FfnQuantized& qf = qt.ffn_for(w);
    if (fuser != nullptr && (fuser->active() || fuser->prefill_active())) {
      // Fused decode step: bit-exact data now, timing deferred to the
      // step's single cross-sublayer ledger (end_step()).
      const MatI8 out = acc.forward_ffn(qf, qf.quantize_in(x));
      fuser->record_ffn(x.rows(), qf.d_model, qf.d_ff);
      return qf.dequantize_out(out);
    }
    const auto result = acc.run_ffn(qf, qf.quantize_in(x));
    charge_ffn(stats, result.report);
    return qf.dequantize_out(result.out);
  };
  // Incremental decode: K/V live in the card's data memory as INT8 rows,
  // appended once per projected position; projection of the new rows is
  // charged inside the step's schedule. Packed (continuous batching): all
  // live hypotheses' rows share one quantization pass and one projection
  // per weight matrix, so the SA streams full tiles again; per-slot
  // attention stays ragged inside run_mha_cached_batch's schedule. Serial
  // decode is the one-row case.
  b.mha_cached_batch = [&qt, &acc, stats, fuser](
                           const MatF& q,
                           const std::vector<MhaCache*>& caches,
                           const MhaWeights& w,
                           const std::vector<Mask>& masks, bool append) {
    const MhaQuantized& qm = qt.mha_for(w);
    // Thread-local marshalling scratch: zero heap allocations once warm.
    BatchHookScratch& s = batch_hook_scratch();
    quant_kv_caches_into(caches, s);
    mask_ptrs_into(masks, s);
    if (append) qm.append_kv_batch(qm.quantize_kv(q), s.kv);
    const int projected = append ? q.rows() : 0;
    if (fuser != nullptr && fuser->active()) {
      const MatI8 out = acc.forward_mha_cached_batch(qm, qm.quantize_q(q),
                                                     s.ckv, s.masks, projected);
      s.totals.clear();
      s.totals.reserve(s.ckv.size());
      for (const QuantKvCache* c : s.ckv) s.totals.push_back(c->rows());
      fuser->record_mha_cached_batch(s.totals, qm.d_model, qm.num_heads,
                                     projected);
      return qm.dequantize_out(out);
    }
    const auto result = acc.run_mha_cached_batch(qm, qm.quantize_q(q), s.ckv,
                                                 s.masks, projected);
    charge_mha(stats, result.report);
    return qm.dequantize_out(result.out);
  };
  return b;
}

}  // namespace tfacc
