#include "core/backend.hpp"

#include "common/check.hpp"

namespace tfacc {

void DecodeStepFuser::begin_step() {
  TFACC_CHECK_MSG(!active_, "decode step already open");
  TFACC_CHECK(n_subs_ == 0 && prefill_chunks_.empty());
  active_ = true;
  mha_sublayers_ = 0;
  ffn_sublayers_ = 0;
}

void DecodeStepFuser::add_prefill_chunk(SublayerPlan chunk) {
  TFACC_CHECK_MSG(active_, "prefill chunk outside begin_step()/end_step()");
  prefill_chunks_.push_back(std::move(chunk));
}

SublayerPlan& DecodeStepFuser::next_sub(SublayerPlan::Kind kind) {
  if (n_subs_ == subs_.size()) subs_.emplace_back();
  SublayerPlan& p = subs_[n_subs_];
  // Reset the slot but keep its buffers: "subN" stays within the
  // small-string buffer and `totals` keeps its capacity — no heap traffic.
  p.kind = kind;
  p.label = "sub";
  p.label += std::to_string(n_subs_);
  p.totals.clear();
  p.d_model = p.num_heads = p.s_q = p.s_kv = 0;
  p.project_kv_rows = p.rows = p.d_ff = 0;
  ++(kind == SublayerPlan::Kind::kFfn ? ffn_sublayers_ : mha_sublayers_);
  ++n_subs_;
  return p;
}

// Outside a step (serial decode), each recorder brackets its one plan with
// begin_step()/end_step(), so serial and farm timing share end_step().

void DecodeStepFuser::record_mha_cached_batch(const std::vector<int>& totals,
                                              int d_model, int num_heads,
                                              int project_kv_rows) {
  const bool serial = !active_;
  if (serial) begin_step();
  SublayerPlan& p = next_sub(SublayerPlan::Kind::kMhaCachedBatch);
  p.totals.assign(totals.begin(), totals.end());
  p.d_model = d_model;
  p.num_heads = num_heads;
  p.project_kv_rows = project_kv_rows;
  if (serial) (void)end_step();
}

void DecodeStepFuser::record_ffn(int rows, int d_model, int d_ff) {
  const bool serial = !active_;
  if (serial) begin_step();
  SublayerPlan& p = next_sub(SublayerPlan::Kind::kFfn);
  p.rows = rows;
  p.d_model = d_model;
  p.d_ff = d_ff;
  if (serial) (void)end_step();
}

void DecodeStepFuser::record_mha(int s_q, int s_kv, int d_model,
                                 int num_heads) {
  TFACC_CHECK_MSG(!active_, "full MHA inside an open decode step");
  begin_step();
  SublayerPlan& p = next_sub(SublayerPlan::Kind::kMha);
  p.s_q = s_q;
  p.s_kv = s_kv;
  p.d_model = d_model;
  p.num_heads = num_heads;
  (void)end_step();
}

RunReport DecodeStepFuser::end_step() {
  TFACC_CHECK_MSG(active_, "end_step without begin_step");
  active_ = false;
  if (n_subs_ == 0 && prefill_chunks_.empty())
    return {};  // nothing recorded: no decode rows, no prefill chunks
  // Each prefill chunk is its own (single-sublayer) lane; the packed decode
  // pass is one chained lane appended last, so its initial weight tile
  // prefetches under the prefill compute.
  const bool has_decode = n_subs_ > 0;
  long prefill_mha = 0;
  long prefill_ffn = 0;
  // The lanes vector is recycled across steps: each lane keeps its plan
  // slots, so assigning a plan reuses the slot's label and totals buffers.
  std::size_t num_lanes = 0;
  const auto next_lane = [&](bool prefill) -> FusedLane& {
    if (num_lanes == lanes_.size()) lanes_.emplace_back();
    FusedLane& lane = lanes_[num_lanes++];
    lane.prefill = prefill;
    return lane;
  };
  for (SublayerPlan& chunk : prefill_chunks_) {
    if (chunk.kind == SublayerPlan::Kind::kMhaPrefill)
      ++prefill_mha;
    else
      ++prefill_ffn;
    FusedLane& lane = next_lane(true);
    lane.subs.resize(1);
    lane.subs.front() = std::move(chunk);
  }
  prefill_chunks_.clear();
  // Copy (not move) the live plans so subs_ keeps its recycled slots'
  // buffers for the allocation-free step window.
  if (has_decode)
    next_lane(false).subs.assign(
        subs_.begin(), subs_.begin() + static_cast<std::ptrdiff_t>(n_subs_));
  lanes_.resize(num_lanes);
  n_subs_ = 0;
  RunReport report = acc_->time_step(lanes_);
  if (stats_ != nullptr) {
    AcceleratorStats& s = *stats_;
    s.mha_runs += mha_sublayers_ + prefill_mha;
    s.ffn_runs += ffn_sublayers_ + prefill_ffn;
    // A prefill-only iteration carries no decode work; its cycles still
    // land in fused_cycles (the one step-ledger bucket).
    if (has_decode) ++s.fused_steps;
    s.fused_cycles += report.total_cycles;
    s.sa_busy_cycles += report.sa_busy;
    s.softmax_busy_cycles += report.softmax_busy;
    s.layernorm_busy_cycles += report.layernorm_busy;
    s.softmax_stall_cycles += report.softmax_stall;
    s.boundary_stall_cycles += report.boundary_stall;
    s.prefill_stall_cycles += report.prefill_stall;
    // Order-sensitive fold (FNV-1a step) of the verified ledger stream: any
    // reordered, missing, or altered ledger changes the fingerprint.
    if (report.ledger_hash != 0)
      s.ledger_fingerprint =
          (s.ledger_fingerprint * 1099511628211ULL) ^ report.ledger_hash;
  }
  return report;
}

ResBlockBackend accelerator_backend(const QuantizedTransformer& qt,
                                    const Accelerator& acc,
                                    DecodeStepFuser* fuser) {
  // Start from the quantized backend: its K/V cache factories (INT8 rows at
  // the calibrated scales) are exactly what the accelerator consumes too.
  // Only the hooks that execute compute are rerouted through the simulator:
  // each computes its data bit-exactly through Accelerator::forward_* and
  // hands its shape to the fuser, which does all the timing.
  ResBlockBackend b = qt.backend();
  b.mha = [&qt, &acc, fuser](const MatF& q, const MatF& kv,
                             const MhaWeights& w, const Mask& mask) {
    const MhaQuantized& qm = qt.mha_for(w);
    const MatI8 out =
        acc.forward_mha(qm, qm.quantize_q(q), qm.quantize_kv(kv), mask);
    if (fuser != nullptr)
      fuser->record_mha(q.rows(), kv.rows(), qm.d_model, qm.num_heads);
    return qm.dequantize_out(out);
  };
  b.ffn = [&qt, &acc, fuser](const MatF& x, const FfnWeights& w) {
    const FfnQuantized& qf = qt.ffn_for(w);
    const MatI8 out = acc.forward_ffn(qf, qf.quantize_in(x));
    if (fuser != nullptr) fuser->record_ffn(x.rows(), qf.d_model, qf.d_ff);
    return qf.dequantize_out(out);
  };
  // Incremental decode: K/V live in the card's data memory as INT8 rows,
  // appended once per projected position; projection of the new rows is
  // charged inside the step's schedule. Packed (continuous batching): all
  // live hypotheses' rows share one quantization pass and one projection
  // per weight matrix, so the SA streams full tiles again; per-slot
  // attention stays ragged inside the kMhaCachedBatch sublayer's schedule.
  // Serial decode is the one-row case.
  b.mha_cached_batch = [&qt, &acc, fuser](const MatF& q,
                                          const std::vector<MhaCache*>& caches,
                                          const MhaWeights& w,
                                          const std::vector<Mask>& masks,
                                          bool append) {
    const MhaQuantized& qm = qt.mha_for(w);
    // Thread-local marshalling scratch: zero heap allocations once warm.
    BatchHookScratch& s = batch_hook_scratch();
    quant_kv_caches_into(caches, s);
    mask_ptrs_into(masks, s);
    if (append) qm.append_kv_batch(qm.quantize_kv(q), s.kv);
    const int projected = append ? q.rows() : 0;
    const MatI8 out = acc.forward_mha_cached_batch(qm, qm.quantize_q(q),
                                                   s.ckv, s.masks, projected);
    if (fuser != nullptr) {
      s.totals.clear();
      s.totals.reserve(s.ckv.size());
      for (const QuantKvCache* c : s.ckv) s.totals.push_back(c->rows());
      fuser->record_mha_cached_batch(s.totals, qm.d_model, qm.num_heads,
                                     projected);
    }
    return qm.dequantize_out(out);
  };
  return b;
}

}  // namespace tfacc
