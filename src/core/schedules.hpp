// The three ResBlock schedule builders, rebuilt (PR 4) as dependency graphs
// placed by the list scheduler of sim/op_graph.hpp.
//
//  * schedule_mha          — Algorithm 1 lines 1-13, the paper's validated
//                            single-sentence flow. Issued in program order:
//                            this is the controller the paper describes and
//                            the cycle counts Section V.B pins (21,188 at
//                            the design point) depend on its exact order.
//  * schedule_mha_cached_batch — KV-cached decode, one query row per slot
//                            (PR 3); serial incremental decode is the
//                            one-slot case.
//  * schedule_ffn          — Algorithm 1 lines 14-22.
//
// The cached flow issues greedily (IssuePolicy::kGreedy): while the softmax
// unit processes slot r of head h, the SA streams slot r+1's QKt or the
// next head's projections, so softmax latency becomes overlap instead of a
// per-slot bubble. Its one-slot cycle counts are pinned in
// tests/test_op_graph.cpp.
//
// Exposed publicly (rather than as accelerator.cpp internals) so tests and
// tools/schedule_lint can check every flow with the typed schedule
// verifier (analysis/verifier.hpp).
#pragma once

#include <vector>

#include "common/config.hpp"
#include "sim/op_graph.hpp"

namespace tfacc {

/// A built flow: the dependency graph and where every op landed.
struct ScheduledRun {
  OpGraph graph;
  ScheduleStats stats;
};

/// Full MHA (Algorithm 1 lines 1-13): `s_q` query rows attend over `s_kv`
/// key/value rows, `num_heads` heads of `cfg.sa_cols` dims each.
ScheduledRun schedule_mha(const AcceleratorConfig& cfg, Timeline& tl, int s_q,
                          int s_kv, int d_model, int num_heads);

/// Packed KV-cached MHA: one query row per slot, slot r attending over
/// totals[r] cached keys/values. Projections (QWq, and KWk/VWv for the
/// project_kv_rows rows projected this call; 0 = fully cached, the steady
/// decode state) stream the stacked rows through a single weight-tile
/// residency; the ragged per-slot attention GEMMs keep their one-row
/// shapes and interleave across slots and heads.
ScheduledRun schedule_mha_cached_batch(const AcceleratorConfig& cfg,
                                       Timeline& tl,
                                       const std::vector<int>& totals,
                                       int d_model, int num_heads,
                                       int project_kv_rows);

/// FFN (Algorithm 1 lines 14-22) over `s` rows.
ScheduledRun schedule_ffn(const AcceleratorConfig& cfg, Timeline& tl, int s,
                          int d_model, int d_ff);

// --- Fused multi-sublayer ledgers (PR 5) -------------------------------------
//
// One ResBlock run per ledger leaves every sublayer boundary cold: each of
// the ~124 per-step sublayer invocations pays the initial 64-cycle weight
// tile load and leaves its LayerNorm tail fully exposed. The fused composer
// splices consecutive sublayer graphs into ONE OpGraph/Timeline: sublayer
// N+1's initial tile load becomes an explicit prefetch op on the WeightLoad
// port, gated only on sublayer N's first SA op having consumed its own tile
// (single residency), so the load runs under sublayer N's compute and its
// softmax/LayerNorm tail instead of restarting cold.

/// Shape of one sublayer inside a fused ledger.
///
/// kMhaPrefill is the encoder (prefill) MHA as a serve-side chunk (PR 6):
/// `s_q` query rows of the sentence attend over all `s_kv` source rows.
/// Encoder attention is bidirectional, so the sentence's K/V projection is
/// one-time work — it rides with the sublayer's FIRST chunk
/// (project_kv_rows = s_kv there, 0 on later chunks, whose K₁ᵀ/V₁ are
/// already resident in the data memory from an earlier step's ledger).
/// Unlike kMha it does NOT pin the whole ledger to Algorithm 1 program
/// order: prefill chunks interleave greedily with decode rows. A single
/// full-size chunk builds exactly schedule_mha's graph.
struct SublayerPlan {
  enum class Kind { kMha, kMhaCachedBatch, kFfn, kMhaPrefill };
  Kind kind = Kind::kFfn;
  std::string label;  ///< ledger label prefix, e.g. "dec0.self"

  int d_model = 0;
  int num_heads = 0;         ///< kMha / kMhaCachedBatch / kMhaPrefill
  int s_q = 0, s_kv = 0;     ///< kMha / kMhaPrefill
  std::vector<int> totals;   ///< kMhaCachedBatch: per-slot cached K/V rows
  int project_kv_rows = 0;   ///< kMhaCachedBatch / kMhaPrefill
  int rows = 0, d_ff = 0;    ///< kFfn

  static SublayerPlan mha(std::string label, int s_q, int s_kv, int d_model,
                          int num_heads);
  static SublayerPlan mha_cached_batch(std::string label,
                                       std::vector<int> totals, int d_model,
                                       int num_heads, int project_kv_rows);
  static SublayerPlan ffn(std::string label, int rows, int d_model, int d_ff);
  static SublayerPlan mha_prefill(std::string label, int s_q, int s_kv,
                                  int d_model, int num_heads,
                                  int project_kv_rows);
};

/// A `rows`-token sentence's full-size encoder sublayer plans, built from the
/// model shape alone: per encoder layer one kMhaPrefill (s_q = s_kv =
/// project_kv_rows = rows) and one kFfn, labelled "enc0", "enc1", ... in
/// pass order. A ResBlock's cycles depend only on its shape, so these time
/// the encoder pass on every backend.
std::vector<SublayerPlan> encoder_plans(const ModelConfig& m, int rows);

/// Split a sentence's full-size encoder sublayer plans (kMhaPrefill / kFfn)
/// into chunks of at most `chunk_rows` query rows each, preserving order.
/// The first chunk of each MHA sublayer carries the plan's K/V projection;
/// later chunks reuse the resident K₁ᵀ/V₁. A chunk size >= the sentence
/// length leaves each plan whole (one chunk).
std::vector<SublayerPlan> chunk_prefill(const std::vector<SublayerPlan>& subs,
                                        int chunk_rows);

/// Where one sublayer's SA occupancy landed inside a fused ledger.
struct FusedSegment {
  std::string label;
  Cycle sa_start = 0;    ///< first SA interval start of this sublayer
  Cycle sa_end = 0;      ///< last SA interval end of this sublayer
  /// SA idle between the previous sublayer's last SA cycle and this
  /// sublayer's first (the chained LayerNorm tail, plus any exposed load);
  /// for the first sublayer, the ledger's cold-load exposure.
  Cycle seam_stall = 0;
  bool prefill = false;  ///< sublayer belongs to a prefill lane
  /// Index of the lane this sublayer came from (append order). The verifier
  /// (analysis/verifier.hpp) uses it to enforce the lane rules: chained
  /// sublayers of ONE lane never interleave their SA occupancies, while
  /// cross-lane interleaving is legal by construction.
  int lane = 0;
};

/// A fused ledger: the spliced graph, its schedule, and the per-seam
/// boundary accounting the per-sublayer RunReports could never see.
struct FusedRun {
  OpGraph graph;
  ScheduleStats stats;
  std::vector<FusedSegment> segments;  ///< one per sublayer, in plan order
  /// Σ seam stalls + the final LayerNorm tail after the last SA op — the
  /// SA idle attributable to sublayer boundaries.
  Cycle boundary_stall = 0;
  /// Extra makespan the decode lanes suffered because prefill chunks shared
  /// the step: this ledger's end time minus the end time of the same graph
  /// placed again with its prefill ops left out (end_time_without_prefill;
  /// by construction what rebuilding the ledger without its prefill lanes
  /// gives). 0 when the step is pure.
  Cycle prefill_stall = 0;
};

/// One lane of a mixed step ledger: a run of sublayers chained through the
/// residual stream (sublayer N+1's input-consuming ops depend on sublayer
/// N's LayerNorm). Lanes are mutually data-independent — a prefill chunk
/// and the packed decode pass share only the hardware and the
/// weight-prefetch port — but the prefetch chain threads through ALL lanes
/// in append order, so the decode lane's initial tile loads under the
/// prefill compute (the WeightLoad prefetch across the prefill/decode
/// seam).
struct FusedLane {
  std::vector<SublayerPlan> subs;
  bool prefill = false;  ///< tag the lane's ops as prefill work
};

/// Splice `lanes` into one step ledger. Each lane chains internally; lanes
/// share the hardware and one global prefetch chain but no data, so prefill
/// chunks interleave freely with the packed decode rows. This is the one
/// ledger builder every accelerator timing path uses: a packed decode step
/// is one chained lane, back-to-back independent invocations (workload
/// streaming) are one single-sublayer lane each, and a serial decode
/// sublayer is a one-sublayer ledger, which schedules its
/// SA/Softmax/LayerNorm intervals identically to the standalone builder
/// above (pinned in tests/test_fused_step.cpp).
FusedRun schedule_fused_lanes(const AcceleratorConfig& cfg, Timeline& tl,
                              const std::vector<FusedLane>& lanes,
                              IssuePolicy policy);

}  // namespace tfacc
