#include "core/schedules.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "core/modules.hpp"

namespace tfacc {

namespace {

int add_gemm(OpGraph& g, const AcceleratorConfig& cfg, int rows, int inner,
             int out_cols, std::vector<int> deps, int weight_dep,
             std::string label, int softmax_dep = -1) {
  return g.add_sa(SaModule::op_cost(cfg, rows, inner, out_cols),
                  std::move(deps), weight_dep, std::move(label), softmax_dep);
}

int add_softmax(OpGraph& g, const AcceleratorConfig& cfg, int scores_dep,
                int cols, std::string label) {
  return g.add_softmax(SoftmaxModule::occupancy_cycles(cfg, cols),
                       SoftmaxModule::result_latency(cfg), scores_dep,
                       std::move(label));
}

/// Lines 9-12 of Algorithm 1, shared by every MHA flow: G_i = P·W_Gi + b +
/// Q_i one 64-column block at a time (each needs the full P row, i.e. every
/// head's AV output), then the LayerNorm tail. Returns the LayerNorm op.
int add_output_blocks(OpGraph& g, const AcceleratorConfig& cfg, int rows,
                      int d_model, const std::vector<int>& avs,
                      const std::string& prefix) {
  std::vector<int> gs;
  for (int i = 0; i < d_model / cfg.sa_cols; ++i)
    gs.push_back(add_gemm(g, cfg, rows, d_model, cfg.sa_cols, avs,
                          OpNode::kStaticWeight,
                          prefix + "G" + std::to_string(i)));
  return g.add_layernorm(
      LayerNormModule::tail_cycles(cfg, cfg.layernorm_strategy, d_model), gs,
      prefix + "LayerNorm");
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
/// extra data deps for every input-consuming op (empty for a standalone
/// run; a fused composer passes the previous sublayer's LayerNorm and this
/// sublayer's weight prefetch).
AppendResult append_mha(OpGraph& g, const AcceleratorConfig& cfg, int s_q,
                        int s_kv, int d_model, int num_heads,
                        int project_kv_rows, const std::vector<int>& entry_deps,
                        const std::string& prefix) {
  TFACC_CHECK_ARG(s_q > 0 && s_kv > 0);
  TFACC_CHECK_ARG(project_kv_rows == 0 || project_kv_rows == s_kv);
  const int hd = cfg.sa_cols;
  AppendResult res;
  std::vector<int> avs;
  avs.reserve(static_cast<std::size_t>(num_heads));
  for (int h = 0; h < num_heads; ++h) {
    const std::string tag = prefix + "head" + std::to_string(h);
    // Lines 3-4: Temp1 = Q·W_Qi + b, Temp2 = K·W_Ki + b.
    const int q1 = add_gemm(g, cfg, s_q, d_model, hd, entry_deps,
                            OpNode::kStaticWeight, tag + ".QWq");
    if (res.first_sa < 0) res.first_sa = q1;
    int k_dep = OpNode::kStaticWeight;  // resident from an earlier chunk
    if (project_kv_rows > 0)
      k_dep = add_gemm(g, cfg, project_kv_rows, d_model, hd, entry_deps,
                       OpNode::kStaticWeight, tag + ".KWk");
    // Line 5: softmax input = Temp1 · Temp2ᵀ (K₁ᵀ is a runtime operand).
    const int d = add_gemm(g, cfg, s_q, hd, s_kv, {q1}, k_dep, tag + ".QKt");
    // Line 6: softmax runs in parallel with V·W_Vi (the overlap claim);
    // the ablation knob serializes V·W_Vi behind it instead — a genuine
    // softmax→SA edge, so tag it for stall/slack attribution.
    const int sm = add_softmax(g, cfg, d, s_kv, tag + ".softmax");
    int v_dep = OpNode::kStaticWeight;
    if (project_kv_rows > 0)
      v_dep = cfg.overlap_softmax
                  ? add_gemm(g, cfg, project_kv_rows, d_model, hd, entry_deps,
                             OpNode::kStaticWeight, tag + ".VWv")
                  : add_gemm(g, cfg, project_kv_rows, d_model, hd, {sm},
                             OpNode::kStaticWeight, tag + ".VWv", sm);
    // Line 7: P_i = softmax · Temp2 (V₁ is a runtime operand).
    avs.push_back(
        add_gemm(g, cfg, s_q, s_kv, hd, {sm}, v_dep, tag + ".AV", sm));
  }
  res.ln = add_output_blocks(g, cfg, s_q, d_model, avs, prefix);
  return res;
}

/// Packed KV-cached MHA (see schedule_mha_cached_batch).
AppendResult append_mha_cached_batch(OpGraph& g, const AcceleratorConfig& cfg,
                                     const std::vector<int>& totals,
                                     int d_model, int num_heads,
                                     int project_kv_rows,
                                     const std::vector<int>& entry_deps,
                                     const std::string& prefix) {
  const int hd = cfg.sa_cols;
  const int n = static_cast<int>(totals.size());
  TFACC_CHECK_ARG(n > 0);
  AppendResult res;
  std::vector<int> avs;
  avs.reserve(static_cast<std::size_t>(num_heads) *
              static_cast<std::size_t>(n));
  for (int h = 0; h < num_heads; ++h) {
    const std::string tag = prefix + "head" + std::to_string(h);
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
                       OpNode::kStaticWeight, tag + ".KWk");
      if (res.first_sa < 0) res.first_sa = k_dep;
      v_dep = add_gemm(g, cfg, project_kv_rows, d_model, hd, entry_deps,
                       OpNode::kStaticWeight, tag + ".VWv");
    }
    const int q1 = add_gemm(g, cfg, n, d_model, hd, entry_deps,
                            OpNode::kStaticWeight, tag + ".QWq");
    if (res.first_sa < 0) res.first_sa = q1;
    // The ragged per-slot attention chains are mutually independent: under
    // the greedy policy slot r+1's QKt streams while slot r's softmax runs.
    for (int r = 0; r < n; ++r) {
      const int s_total = totals[static_cast<std::size_t>(r)];
      const std::string slot = tag + ".slot" + std::to_string(r);
      const int d =
          add_gemm(g, cfg, 1, hd, s_total, {q1}, k_dep, slot + ".QKt");
      const int sm = add_softmax(g, cfg, d, s_total, slot + ".softmax");
      avs.push_back(
          add_gemm(g, cfg, 1, s_total, hd, {sm}, v_dep, slot + ".AV", sm));
    }
  }
  res.ln = add_output_blocks(g, cfg, n, d_model, avs, prefix);
  return res;
}

/// FFN (Algorithm 1 lines 14-22) over `s` rows.
AppendResult append_ffn(OpGraph& g, const AcceleratorConfig& cfg, int s,
                        int d_model, int d_ff,
                        const std::vector<int>& entry_deps,
                        const std::string& prefix) {
  // At least one H and one G block must exist (the Table I pattern makes
  // both multiples of sa_cols); an empty H set would leave the sublayer
  // with no first SA op to hook the fused prefetch chain on.
  TFACC_CHECK_ARG(s > 0 && d_model >= cfg.sa_cols && d_ff >= cfg.sa_cols);
  const int bc = cfg.sa_cols;
  AppendResult res;
  // Lines 15-17: P_i = ReLU(X·W_1i + b_1i), 4h blocks.
  std::vector<int> hs;
  for (int i = 0; i < d_ff / bc; ++i)
    hs.push_back(add_gemm(g, cfg, s, d_model, bc, entry_deps,
                          OpNode::kStaticWeight,
                          prefix + "H" + std::to_string(i)));
  res.first_sa = hs.front();
  // Lines 18-20: G_i = P·W_2i + b_2i + X_i; P is the full s×d_ff matrix.
  std::vector<int> gs;
  for (int i = 0; i < d_model / bc; ++i)
    gs.push_back(add_gemm(g, cfg, s, d_ff, bc, hs, OpNode::kStaticWeight,
                          prefix + "G" + std::to_string(i)));
  res.ln = g.add_layernorm(
      LayerNormModule::tail_cycles(cfg, cfg.layernorm_strategy, d_model), gs,
      prefix + "LayerNorm");
  return res;
}

AppendResult append_sublayer(OpGraph& g, const AcceleratorConfig& cfg,
                             const SublayerPlan& sub,
                             const std::vector<int>& entry_deps,
                             const std::string& prefix) {
  switch (sub.kind) {
    case SublayerPlan::Kind::kMha:
      return append_mha(g, cfg, sub.s_q, sub.s_kv, sub.d_model,
                        sub.num_heads, /*project_kv_rows=*/sub.s_kv,
                        entry_deps, prefix);
    case SublayerPlan::Kind::kMhaCachedBatch:
      return append_mha_cached_batch(g, cfg, sub.totals, sub.d_model,
                                     sub.num_heads, sub.project_kv_rows,
                                     entry_deps, prefix);
    case SublayerPlan::Kind::kFfn:
      return append_ffn(g, cfg, sub.rows, sub.d_model, sub.d_ff, entry_deps,
                        prefix);
    case SublayerPlan::Kind::kMhaPrefill:
      // A chunk's rows are a slice of the sentence it attends over.
      TFACC_CHECK_ARG(sub.s_kv >= sub.s_q);
      return append_mha(g, cfg, sub.s_q, sub.s_kv, sub.d_model,
                        sub.num_heads, sub.project_kv_rows, entry_deps,
                        prefix);
  }
  TFACC_CHECK(false);
  return {};
}

}  // namespace

ScheduledRun schedule_mha(const AcceleratorConfig& cfg, Timeline& tl, int s_q,
                          int s_kv, int d_model, int num_heads) {
  cfg.validate();
  ScheduledRun run;
  append_mha(run.graph, cfg, s_q, s_kv, d_model, num_heads,
             /*project_kv_rows=*/s_kv, {}, "");
  // Algorithm 1's controller is a fixed program: issue in its order so the
  // Section V.B cycle validation against the paper — and the per-head
  // softmax-hidden-behind-V·W_V property it demonstrates — stays exact.
  run.stats = schedule_ops(run.graph, cfg.weight_load_cycles,
                           IssuePolicy::kProgramOrder, tl);
  return run;
}

ScheduledRun schedule_mha_cached_batch(const AcceleratorConfig& cfg,
                                       Timeline& tl,
                                       const std::vector<int>& totals,
                                       int d_model, int num_heads,
                                       int project_kv_rows) {
  cfg.validate();
  ScheduledRun run;
  append_mha_cached_batch(run.graph, cfg, totals, d_model, num_heads,
                          project_kv_rows, {}, "");
  run.stats = schedule_ops(run.graph, cfg.weight_load_cycles,
                           IssuePolicy::kGreedy, tl);
  return run;
}

ScheduledRun schedule_ffn(const AcceleratorConfig& cfg, Timeline& tl, int s,
                          int d_model, int d_ff) {
  cfg.validate();
  ScheduledRun run;
  append_ffn(run.graph, cfg, s, d_model, d_ff, {}, "");
  // All weights are resident and the H→G barrier is a real data dependency,
  // so greedy issue reproduces program order exactly — one code path.
  run.stats = schedule_ops(run.graph, cfg.weight_load_cycles,
                           IssuePolicy::kGreedy, tl);
  return run;
}

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

std::vector<SublayerPlan> chunk_prefill(const std::vector<SublayerPlan>& subs,
                                        int chunk_rows) {
  TFACC_CHECK_ARG_MSG(chunk_rows >= 1,
                      "chunk_rows must be >= 1, got " << chunk_rows);
  std::vector<SublayerPlan> chunks;
  for (const SublayerPlan& sub : subs) {
    const bool mha = sub.kind == SublayerPlan::Kind::kMhaPrefill;
    TFACC_CHECK_ARG_MSG(mha || sub.kind == SublayerPlan::Kind::kFfn,
                        "chunk_prefill: sublayer " << sub.label
                                                   << " is not an encoder plan");
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
  for (const FusedLane& lane : lanes)
    TFACC_CHECK_ARG_MSG(!lane.subs.empty(), "fused lane needs >= 1 sublayer");
  FusedRun fr;
  OpGraph& g = fr.graph;

  struct OpRange {
    int begin = 0;
    int end = 0;
  };
  std::vector<OpRange> ranges;
  std::vector<const SublayerPlan*> plans;
  std::vector<char> plan_prefill;
  std::vector<int> plan_lane;

  // The prefetch chain is GLOBAL across lanes — the single-tile prefetch
  // buffer is hardware, not lane state — so in a mixed step the decode
  // lane's initial tile loads under the last prefill chunk's compute: the
  // WeightLoad prefetch crosses the prefill/decode seam.
  int prev_first_sa = -1;
  int idx = 0;
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
      const std::string prefix =
          (sub.label.empty() ? "sub" + std::to_string(idx) : sub.label) + ".";
      ++idx;
      // The sublayer's initial weight tile: an explicit load on the
      // prefetch port. The single-tile prefetch buffer frees once the
      // previous sublayer's first SA op has consumed its own tile, so that
      // op is the load's dep — every later sublayer's load runs under
      // earlier compute and only the ledger's very first SA op starts cold.
      std::vector<int> load_deps;
      if (prev_first_sa >= 0) load_deps.push_back(prev_first_sa);
      const int prefetch = g.add_weight_load(cfg.weight_load_cycles,
                                             std::move(load_deps),
                                             prefix + "prefetch");
      std::vector<int> entry_deps{prefetch};
      if (prev_ln >= 0) entry_deps.push_back(prev_ln);

      OpRange range;
      range.begin = g.size();
      const AppendResult appended =
          append_sublayer(g, cfg, sub, entry_deps, prefix);
      range.end = g.size();
      if (lane.prefill) g.mark_prefill(prefetch, range.end);
      ranges.push_back(range);
      plans.push_back(&sub);
      plan_prefill.push_back(lane.prefill ? 1 : 0);
      plan_lane.push_back(lane_idx);
      prev_ln = appended.ln;
      prev_first_sa = appended.first_sa;
    }
  }

  fr.stats = schedule_ops(g, cfg.weight_load_cycles, policy, tl);

  // Per-sublayer SA occupancy and seam accounting. With chaining, sublayer
  // N+1's SA work cannot overlap sublayer N's (the residual stream passes
  // through N's LayerNorm), so the gap between their SA occupancies is real
  // SA idle — the boundary cost this composer exists to shrink.
  Cycle covered_sa_end = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    FusedSegment seg;
    seg.label = plans[i]->label;
    seg.prefill = plan_prefill[i] != 0;
    seg.lane = plan_lane[i];
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
    fr.segments.push_back(std::move(seg));
  }
  // The final LayerNorm tail: the ledger is not done until it drains, and
  // no SA work remains to hide it under.
  fr.boundary_stall += std::max<Cycle>(0, tl.end_time() - covered_sa_end);

  // Prefill-attributed stall: how much longer the decode lanes took because
  // prefill chunks shared the step, measured against the same ledger
  // rebuilt without its prefill lanes (recursion is depth-1: the rebuilt
  // ledger has no prefill lanes left).
  if (any_prefill && any_decode) {
    std::vector<FusedLane> decode_lanes;
    for (const FusedLane& lane : lanes)
      if (!lane.prefill) decode_lanes.push_back(lane);
    Timeline scratch;
    (void)schedule_fused_lanes(cfg, scratch, decode_lanes, policy);
    fr.prefill_stall = std::max<Cycle>(0, tl.end_time() - scratch.end_time());
  }
  return fr;
}

}  // namespace tfacc
