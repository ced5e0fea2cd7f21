#include "core/schedules.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "common/check.hpp"
#include "core/modules.hpp"

namespace tfacc {

namespace {

OpLabel block_label(int prefix, OpKind kind, int block) {
  OpLabel label;
  label.prefix = prefix;
  label.block = block;
  label.kind = kind;
  return label;
}

OpLabel head_label(int prefix, int head, OpKind kind, int slot = -1) {
  OpLabel label;
  label.prefix = prefix;
  label.head = head;
  label.slot = slot;
  label.kind = kind;
  return label;
}

int add_gemm(OpGraph& g, const AcceleratorConfig& cfg, int rows, int inner,
             int out_cols, DepList deps, int weight_dep, const OpLabel& label,
             int softmax_dep = -1) {
  return g.add_sa(SaModule::op_cost(cfg, rows, inner, out_cols), deps,
                  weight_dep, label, softmax_dep);
}

int add_softmax(OpGraph& g, const AcceleratorConfig& cfg, int scores_dep,
                int cols, const OpLabel& label) {
  return g.add_softmax(SoftmaxModule::occupancy_cycles(cfg, cols),
                       SoftmaxModule::result_latency(cfg), scores_dep, label);
}

/// The dep lists a sublayer builder assembles. Kept per thread so a warm
/// builder does not reallocate them; every builder clears what it uses.
struct DepScratch {
  std::vector<int> outs;    ///< per-head (per-slot) AV ops / FFN H blocks
  std::vector<int> blocks;  ///< the G blocks the LayerNorm tail waits on
};

DepScratch& dep_scratch() {
  thread_local DepScratch scratch;
  return scratch;
}

/// The shape rules a plan must meet, checked once as the builder first
/// walks the plans. Table I's: an MHA kind has num_heads >= 1 heads of
/// sa_cols dims each, and an FFN's d_model and d_ff are positive multiples
/// of sa_cols. Row counts are positive; a prefill chunk's rows are a slice
/// of the sentence it attends over, and it projects all of that sentence's
/// K/V rows or none.
void check_plan(const AcceleratorConfig& cfg, const SublayerPlan& sub) {
  const int cols = cfg.sa_cols;
  if (sub.kind == SublayerPlan::Kind::kFfn) {
    TFACC_CHECK_ARG_MSG(sub.rows > 0 && sub.d_model > 0 &&
                            sub.d_model % cols == 0 && sub.d_ff > 0 &&
                            sub.d_ff % cols == 0,
                        "FFN plan '" << sub.label << "': " << sub.rows
                                     << " rows, d_model " << sub.d_model
                                     << ", d_ff " << sub.d_ff << " on "
                                     << cols << " SA columns");
    return;
  }
  TFACC_CHECK_ARG_MSG(
      sub.num_heads >= 1 && sub.d_model == sub.num_heads * cols,
      "MHA plan '" << sub.label << "': d_model " << sub.d_model << " is not "
                   << sub.num_heads << " heads of " << cols << " SA columns");
  if (sub.kind == SublayerPlan::Kind::kMhaCachedBatch) {
    TFACC_CHECK_ARG(!sub.totals.empty() && sub.project_kv_rows >= 0);
    return;
  }
  TFACC_CHECK_ARG(sub.s_q > 0 && sub.s_kv > 0);
  if (sub.kind == SublayerPlan::Kind::kMhaPrefill)
    TFACC_CHECK_ARG(sub.s_kv >= sub.s_q &&
                    (sub.project_kv_rows == 0 ||
                     sub.project_kv_rows == sub.s_kv));
}

/// Upper bounds on the ops and dep entries one sublayer adds to a ledger,
/// its weight prefetch included, so the graph is sized once. Every
/// input-consuming op is counted with two entry deps (the prefetch and the
/// previous sublayer's LayerNorm).
struct GraphExtent {
  std::size_t ops = 0;
  std::size_t deps = 0;
};

GraphExtent sublayer_extent(const AcceleratorConfig& cfg,
                            const SublayerPlan& sub) {
  constexpr std::size_t kEntry = 2;
  const auto out_blocks = static_cast<std::size_t>(sub.d_model / cfg.sa_cols);
  const auto heads = static_cast<std::size_t>(sub.num_heads);
  GraphExtent e{1, kEntry};  // the prefetch
  if (sub.kind == SublayerPlan::Kind::kFfn) {
    const auto hidden = static_cast<std::size_t>(sub.d_ff / cfg.sa_cols);
    e.ops += hidden + out_blocks + 1;
    e.deps += hidden * kEntry + out_blocks * hidden + out_blocks;
    return e;
  }
  // Per head: Q projection, the K/V projections when projected, and the
  // QKt → softmax → AV chain of every query slot (kMha / kMhaPrefill: one).
  const bool cached = sub.kind == SublayerPlan::Kind::kMhaCachedBatch;
  const std::size_t chains = cached ? sub.totals.size() : 1;
  const std::size_t projected =
      sub.kind == SublayerPlan::Kind::kMha || sub.project_kv_rows > 0 ? 2 : 0;
  e.ops += heads * (1 + projected + 3 * chains) + out_blocks + 1;
  e.deps += heads * (kEntry * (1 + projected) + 3 * chains) +
            out_blocks * heads * chains + out_blocks;
  return e;
}

/// Lines 9-12 of Algorithm 1, shared by every MHA flow: G_i = P·W_Gi + b +
/// Q_i one 64-column block at a time (each needs the full P row, i.e. every
/// head's AV output), then the LayerNorm tail. Returns the LayerNorm op.
int add_output_blocks(OpGraph& g, const AcceleratorConfig& cfg, int rows,
                      int d_model, const std::vector<int>& avs, int prefix,
                      std::vector<int>& gs) {
  gs.clear();
  for (int i = 0; i < d_model / cfg.sa_cols; ++i)
    gs.push_back(add_gemm(g, cfg, rows, d_model, cfg.sa_cols, avs,
                          OpNode::kStaticWeight,
                          block_label(prefix, OpKind::kG, i)));
  return g.add_layernorm(
      LayerNormModule::tail_cycles(cfg, cfg.layernorm_strategy, d_model), gs,
      block_label(prefix, OpKind::kLayerNorm, -1));
}

/// Where a sublayer's graph hooks into a fused ledger: its LayerNorm (the
/// residual-stream output the next sublayer chains on) and its first SA op
/// (whose tile consumption frees the prefetch buffer for the next
/// sublayer's initial load).
struct AppendResult {
  int ln = -1;
  int first_sa = -1;
};

/// Full MHA (Algorithm 1 lines 1-13): `s_q` query rows attend over `s_kv`
/// key/value rows. project_kv_rows is s_kv, or 0 for a later prefill chunk
/// whose K₁ᵀ/V₁ an earlier chunk's ledger already projected (encoder
/// attention is bidirectional, so that is one-time work). `entry_deps` are
/// the deps of every input-consuming op: this sublayer's weight prefetch
/// and, within a lane, the previous sublayer's LayerNorm. Every op is
/// labelled under `prefix`.
AppendResult append_mha(OpGraph& g, const AcceleratorConfig& cfg, int s_q,
                        int s_kv, int d_model, int num_heads,
                        int project_kv_rows, DepList entry_deps, int prefix,
                        DepScratch& scratch) {
  const int hd = cfg.sa_cols;
  AppendResult res;
  std::vector<int>& avs = scratch.outs;
  avs.clear();
  for (int h = 0; h < num_heads; ++h) {
    // Lines 3-4: Temp1 = Q·W_Qi + b, Temp2 = K·W_Ki + b.
    const int q1 = add_gemm(g, cfg, s_q, d_model, hd, entry_deps,
                            OpNode::kStaticWeight,
                            head_label(prefix, h, OpKind::kQWq));
    if (res.first_sa < 0) res.first_sa = q1;
    int k_dep = OpNode::kStaticWeight;  // resident from an earlier chunk
    if (project_kv_rows > 0)
      k_dep = add_gemm(g, cfg, project_kv_rows, d_model, hd, entry_deps,
                       OpNode::kStaticWeight,
                       head_label(prefix, h, OpKind::kKWk));
    // Line 5: softmax input = Temp1 · Temp2ᵀ (K₁ᵀ is a runtime operand).
    const int d = add_gemm(g, cfg, s_q, hd, s_kv, {q1}, k_dep,
                           head_label(prefix, h, OpKind::kQKt));
    // Line 6: softmax runs in parallel with V·W_Vi (the overlap claim);
    // the ablation knob serializes V·W_Vi behind it instead — a genuine
    // softmax→SA edge, so tag it for stall/slack attribution.
    const int sm =
        add_softmax(g, cfg, d, s_kv, head_label(prefix, h, OpKind::kSoftmax));
    int v_dep = OpNode::kStaticWeight;
    if (project_kv_rows > 0)
      v_dep = cfg.overlap_softmax
                  ? add_gemm(g, cfg, project_kv_rows, d_model, hd, entry_deps,
                             OpNode::kStaticWeight,
                             head_label(prefix, h, OpKind::kVWv))
                  : add_gemm(g, cfg, project_kv_rows, d_model, hd, {sm},
                             OpNode::kStaticWeight,
                             head_label(prefix, h, OpKind::kVWv), sm);
    // Line 7: P_i = softmax · Temp2 (V₁ is a runtime operand).
    avs.push_back(add_gemm(g, cfg, s_q, s_kv, hd, {sm}, v_dep,
                           head_label(prefix, h, OpKind::kAV), sm));
  }
  res.ln =
      add_output_blocks(g, cfg, s_q, d_model, avs, prefix, scratch.blocks);
  return res;
}

/// Packed KV-cached MHA: one query row per slot, slot r attending over
/// totals[r] cached keys/values. Projections (QWq, and KWk/VWv for the
/// project_kv_rows rows projected this call; 0 = fully cached, the steady
/// decode state) stream the stacked rows through a single weight-tile
/// residency; the ragged per-slot attention GEMMs keep their one-row
/// shapes and interleave across slots and heads.
AppendResult append_mha_cached_batch(OpGraph& g, const AcceleratorConfig& cfg,
                                     const std::vector<int>& totals,
                                     int d_model, int num_heads,
                                     int project_kv_rows, DepList entry_deps,
                                     int prefix, DepScratch& scratch) {
  const int hd = cfg.sa_cols;
  const int n = static_cast<int>(totals.size());
  AppendResult res;
  std::vector<int>& avs = scratch.outs;
  avs.clear();
  for (int h = 0; h < num_heads; ++h) {
    // Projections stream the stacked slot rows through a single weight-tile
    // residency (the PR 3 full-tile restoration). K/V project before Q
    // (insertion order = greedy tie-break priority): their output tiles are
    // the attention GEMMs' stationary operands, so starting them first lets
    // the first slot's K₁ᵀ load run under the Q projection instead of
    // stalling the first QKt.
    int k_dep = OpNode::kStaticWeight;  // cached K₁ᵀ / V₁ are resident
    int v_dep = OpNode::kStaticWeight;
    if (project_kv_rows > 0) {
      k_dep = add_gemm(g, cfg, project_kv_rows, d_model, hd, entry_deps,
                       OpNode::kStaticWeight,
                       head_label(prefix, h, OpKind::kKWk));
      if (res.first_sa < 0) res.first_sa = k_dep;
      v_dep = add_gemm(g, cfg, project_kv_rows, d_model, hd, entry_deps,
                       OpNode::kStaticWeight,
                       head_label(prefix, h, OpKind::kVWv));
    }
    const int q1 = add_gemm(g, cfg, n, d_model, hd, entry_deps,
                            OpNode::kStaticWeight,
                            head_label(prefix, h, OpKind::kQWq));
    if (res.first_sa < 0) res.first_sa = q1;
    // The ragged per-slot attention chains are mutually independent: under
    // the greedy policy slot r+1's QKt streams while slot r's softmax runs.
    for (int r = 0; r < n; ++r) {
      const int s_total = totals[static_cast<std::size_t>(r)];
      const int d = add_gemm(g, cfg, 1, hd, s_total, {q1}, k_dep,
                             head_label(prefix, h, OpKind::kQKt, r));
      const int sm = add_softmax(g, cfg, d, s_total,
                                 head_label(prefix, h, OpKind::kSoftmax, r));
      avs.push_back(add_gemm(g, cfg, 1, s_total, hd, {sm}, v_dep,
                             head_label(prefix, h, OpKind::kAV, r), sm));
    }
  }
  res.ln = add_output_blocks(g, cfg, n, d_model, avs, prefix, scratch.blocks);
  return res;
}

/// FFN (Algorithm 1 lines 14-22) over `s` rows.
AppendResult append_ffn(OpGraph& g, const AcceleratorConfig& cfg, int s,
                        int d_model, int d_ff, DepList entry_deps, int prefix,
                        DepScratch& scratch) {
  const int bc = cfg.sa_cols;
  AppendResult res;
  // Lines 15-17: P_i = ReLU(X·W_1i + b_1i), 4h blocks.
  std::vector<int>& hs = scratch.outs;
  hs.clear();
  for (int i = 0; i < d_ff / bc; ++i)
    hs.push_back(add_gemm(g, cfg, s, d_model, bc, entry_deps,
                          OpNode::kStaticWeight,
                          block_label(prefix, OpKind::kH, i)));
  res.first_sa = hs.front();
  // Lines 18-20: G_i = P·W_2i + b_2i + X_i; P is the full s×d_ff matrix.
  std::vector<int>& gs = scratch.blocks;
  gs.clear();
  for (int i = 0; i < d_model / bc; ++i)
    gs.push_back(add_gemm(g, cfg, s, d_ff, bc, hs, OpNode::kStaticWeight,
                          block_label(prefix, OpKind::kG, i)));
  res.ln = g.add_layernorm(
      LayerNormModule::tail_cycles(cfg, cfg.layernorm_strategy, d_model), gs,
      block_label(prefix, OpKind::kLayerNorm, -1));
  return res;
}

AppendResult append_sublayer(OpGraph& g, const AcceleratorConfig& cfg,
                             const SublayerPlan& sub, DepList entry_deps,
                             int prefix, DepScratch& scratch) {
  switch (sub.kind) {
    case SublayerPlan::Kind::kMha:
      return append_mha(g, cfg, sub.s_q, sub.s_kv, sub.d_model,
                        sub.num_heads, /*project_kv_rows=*/sub.s_kv,
                        entry_deps, prefix, scratch);
    case SublayerPlan::Kind::kMhaCachedBatch:
      return append_mha_cached_batch(g, cfg, sub.totals, sub.d_model,
                                     sub.num_heads, sub.project_kv_rows,
                                     entry_deps, prefix, scratch);
    case SublayerPlan::Kind::kFfn:
      return append_ffn(g, cfg, sub.rows, sub.d_model, sub.d_ff, entry_deps,
                        prefix, scratch);
    case SublayerPlan::Kind::kMhaPrefill:
      return append_mha(g, cfg, sub.s_q, sub.s_kv, sub.d_model,
                        sub.num_heads, sub.project_kv_rows, entry_deps,
                        prefix, scratch);
  }
  TFACC_CHECK(false);
  return {};
}

}  // namespace

// --- Fused multi-sublayer ledgers (PR 5) -------------------------------------

SublayerPlan SublayerPlan::mha(std::string label, int s_q, int s_kv,
                               int d_model, int num_heads) {
  SublayerPlan sub;
  sub.kind = Kind::kMha;
  sub.label = std::move(label);
  sub.s_q = s_q;
  sub.s_kv = s_kv;
  sub.d_model = d_model;
  sub.num_heads = num_heads;
  return sub;
}

SublayerPlan SublayerPlan::mha_cached_batch(std::string label,
                                            std::vector<int> totals,
                                            int d_model, int num_heads,
                                            int project_kv_rows) {
  SublayerPlan sub;
  sub.kind = Kind::kMhaCachedBatch;
  sub.label = std::move(label);
  sub.totals = std::move(totals);
  sub.d_model = d_model;
  sub.num_heads = num_heads;
  sub.project_kv_rows = project_kv_rows;
  return sub;
}

SublayerPlan SublayerPlan::ffn(std::string label, int rows, int d_model,
                               int d_ff) {
  SublayerPlan sub;
  sub.kind = Kind::kFfn;
  sub.label = std::move(label);
  sub.rows = rows;
  sub.d_model = d_model;
  sub.d_ff = d_ff;
  return sub;
}

SublayerPlan SublayerPlan::mha_prefill(std::string label, int s_q, int s_kv,
                                       int d_model, int num_heads,
                                       int project_kv_rows) {
  SublayerPlan sub;
  sub.kind = Kind::kMhaPrefill;
  sub.label = std::move(label);
  sub.s_q = s_q;
  sub.s_kv = s_kv;
  sub.d_model = d_model;
  sub.num_heads = num_heads;
  sub.project_kv_rows = project_kv_rows;
  return sub;
}

std::vector<SublayerPlan> encoder_plans(const ModelConfig& m, int rows) {
  std::vector<SublayerPlan> subs;
  subs.reserve(static_cast<std::size_t>(2 * m.num_encoder_layers));
  for (int l = 0; l < m.num_encoder_layers; ++l) {
    subs.push_back(SublayerPlan::mha_prefill("enc" + std::to_string(2 * l),
                                             rows, rows, m.d_model,
                                             m.num_heads, rows));
    subs.push_back(SublayerPlan::ffn("enc" + std::to_string(2 * l + 1), rows,
                                     m.d_model, m.d_ff));
  }
  return subs;
}

std::vector<SublayerPlan> chunk_prefill(const std::vector<SublayerPlan>& subs,
                                        int chunk_rows) {
  TFACC_CHECK_ARG_MSG(chunk_rows >= 1,
                      "chunk_rows must be >= 1, got " << chunk_rows);
  std::vector<SublayerPlan> chunks;
  for (const SublayerPlan& sub : subs) {
    const bool mha = sub.kind == SublayerPlan::Kind::kMhaPrefill;
    TFACC_CHECK_ARG_MSG(
        mha || sub.kind == SublayerPlan::Kind::kFfn,
        "chunk_prefill: sublayer " << sub.label << " is not an encoder plan");
    const int total = mha ? sub.s_q : sub.rows;
    TFACC_CHECK_ARG(total > 0);
    // Sublayer-major order keeps the cross-step data flow legal: sublayer
    // i+1's first chunk (which projects K/V from sublayer i's full output)
    // only ever lands in a step after every chunk of sublayer i.
    int done = 0;
    for (int k = 0; done < total; ++k) {
      const int n = std::min(chunk_rows, total - done);
      SublayerPlan chunk = sub;
      chunk.label = sub.label + ".c" + std::to_string(k);
      if (mha) {
        chunk.s_q = n;
        chunk.project_kv_rows = done == 0 ? sub.project_kv_rows : 0;
      } else {
        chunk.rows = n;
      }
      chunks.push_back(std::move(chunk));
      done += n;
    }
  }
  return chunks;
}

FusedRun schedule_fused_lanes(const AcceleratorConfig& cfg, Timeline& tl,
                              const std::vector<FusedLane>& lanes,
                              IssuePolicy policy) {
  cfg.validate();
  TFACC_CHECK_ARG_MSG(!lanes.empty(), "fused ledger needs >= 1 lane");
  std::size_t num_subs = 0;
  GraphExtent extent;
  for (const FusedLane& lane : lanes) {
    TFACC_CHECK_ARG_MSG(!lane.subs.empty(), "fused lane needs >= 1 sublayer");
    num_subs += lane.subs.size();
    for (const SublayerPlan& sub : lane.subs) {
      check_plan(cfg, sub);
      const GraphExtent e = sublayer_extent(cfg, sub);
      extent.ops += e.ops;
      extent.deps += e.deps;
    }
  }
  FusedRun fr;
  OpGraph& g = fr.graph;
  g.reserve(extent.ops, extent.deps);
  DepScratch& scratch = dep_scratch();

  struct OpRange {
    int begin = 0;
    int end = 0;
  };
  std::vector<OpRange> ranges;
  ranges.reserve(num_subs);
  fr.segments.reserve(num_subs);

  // The prefetch chain is GLOBAL across lanes — the single-tile prefetch
  // buffer is hardware, not lane state — so in a mixed step the decode
  // lane's initial tile loads under the last prefill chunk's compute: the
  // WeightLoad prefetch crosses the prefill/decode seam.
  int prev_first_sa = -1;
  int prev_decode_first_sa = -1;  // the chain as the decode lanes alone see it
  bool prev_prefill = false;
  int lane_idx = -1;
  bool any_prefill = false;
  bool any_decode = false;
  for (const FusedLane& lane : lanes) {
    ++lane_idx;
    if (lane.prefill)
      any_prefill = true;
    else
      any_decode = true;
    int prev_ln = -1;  // the residual stream chains within a lane only
    for (const SublayerPlan& sub : lane.subs) {
      // One label prefix per sublayer: "<label>.", or none when the plan
      // carries no label.
      const int prefix = sub.label.empty() ? g.add_prefix({})
                                           : g.add_prefix({sub.label, "."});
      // The sublayer's initial weight tile: an explicit load on the
      // prefetch port. The single-tile prefetch buffer frees once the
      // previous sublayer's first SA op has consumed its own tile, so that
      // op is the load's dep — every later sublayer's load runs under
      // earlier compute and only the ledger's very first SA op starts cold.
      // A decode sublayer after a prefill one also lists the previous
      // decode sublayer's first SA op. Here that edge never binds (first-SA
      // result times only rise along the chain), but it is exactly the
      // chain the decode-only pass (end_time_without_prefill) must keep.
      int load_deps[2];
      std::size_t num_load_deps = 0;
      if (prev_first_sa >= 0) load_deps[num_load_deps++] = prev_first_sa;
      if (!lane.prefill && prev_prefill && prev_decode_first_sa >= 0)
        load_deps[num_load_deps++] = prev_decode_first_sa;
      OpLabel load_label;
      load_label.prefix = prefix;
      load_label.kind = OpKind::kPrefetch;
      const int prefetch = g.add_weight_load(
          cfg.weight_load_cycles,
          std::span<const int>(load_deps, num_load_deps), load_label);
      int entry_deps[2] = {prefetch, prev_ln};
      const std::size_t num_entry_deps = prev_ln >= 0 ? 2 : 1;

      OpRange range;
      range.begin = g.size();
      const AppendResult appended = append_sublayer(
          g, cfg, sub, std::span<const int>(entry_deps, num_entry_deps),
          prefix, scratch);
      range.end = g.size();
      if (lane.prefill) g.mark_prefill(prefetch, range.end);
      ranges.push_back(range);
      FusedSegment seg;
      seg.label = sub.label;
      seg.prefill = lane.prefill;
      seg.lane = lane_idx;
      fr.segments.push_back(std::move(seg));
      prev_ln = appended.ln;
      prev_first_sa = appended.first_sa;
      if (!lane.prefill) prev_decode_first_sa = appended.first_sa;
      prev_prefill = lane.prefill;
    }
  }

  fr.stats = schedule_ops(g, cfg.weight_load_cycles, policy, tl);

  // Per-sublayer SA occupancy and seam accounting. With chaining, sublayer
  // N+1's SA work cannot overlap sublayer N's (the residual stream passes
  // through N's LayerNorm), so the gap between their SA occupancies is real
  // SA idle — the boundary cost this composer exists to shrink.
  Cycle covered_sa_end = 0;
  for (std::size_t i = 0; i < fr.segments.size(); ++i) {
    FusedSegment& seg = fr.segments[i];
    bool any_sa = false;
    for (int op = ranges[i].begin; op < ranges[i].end; ++op) {
      if (g.ops()[static_cast<std::size_t>(op)].resource != OpResource::kSa)
        continue;
      const Interval& iv = fr.stats.intervals[static_cast<std::size_t>(op)];
      if (!any_sa || iv.start < seg.sa_start) seg.sa_start = iv.start;
      if (!any_sa || iv.end > seg.sa_end) seg.sa_end = iv.end;
      any_sa = true;
    }
    if (any_sa) {
      seg.seam_stall = std::max<Cycle>(0, seg.sa_start - covered_sa_end);
      covered_sa_end = std::max(covered_sa_end, seg.sa_end);
      fr.boundary_stall += seg.seam_stall;
    }
  }
  // The final LayerNorm tail: the ledger is not done until it drains, and
  // no SA work remains to hide it under.
  fr.boundary_stall += std::max<Cycle>(0, tl.end_time() - covered_sa_end);

  // Prefill-attributed stall: how much longer the decode lanes took because
  // prefill chunks shared the step. The same graph placed again without its
  // prefill ops is the ledger rebuilt without the prefill lanes: the decode
  // ops keep their relative order (so both policies pick the same ops), the
  // first decode SA op pays the cold load, and the decode chain's prefetch
  // deps are the ones listed above.
  if (any_prefill && any_decode)
    fr.prefill_stall = std::max<Cycle>(
        0, tl.end_time() -
               end_time_without_prefill(g, cfg.weight_load_cycles, policy));
  return fr;
}

}  // namespace tfacc
