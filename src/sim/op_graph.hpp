// Dependency-driven operation scheduling for the accelerator model (PR 4).
//
// The controller flows of Algorithm 1 used to be emitted in strict program
// order: each slot's QKt → softmax → AV chain reserved its modules one after
// the other, so the systolic array idled through every softmax latency. Here
// the flows become explicit dependency graphs — attention ops are nodes with
// data edges — and a greedy event-ordered list scheduler places ready ops on
// the SA / Softmax / LayerNorm resources. While the softmax unit processes
// slot r of head h, the SA streams slot r+1's QKt (or the next head's
// projections): softmax latency turns into overlap instead of a bubble.
//
// The scheduler is a *timing* device only. Functional results are computed
// by the controller in program order as before; reordering is legal because
// every reordered pair is data-independent by construction (the typed
// verifier in analysis/verifier.hpp checks exactly that over every flow).
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "sim/timeline.hpp"

namespace tfacc {

/// Hardware resource an op occupies (one ModuleTimeline each). kWeightLoad
/// is the weight-memory load port: fused multi-sublayer ledgers (PR 5)
/// reserve the next sublayer's initial tile load on it, so the load runs
/// under the previous sublayer's compute instead of stalling the SA cold.
enum class OpResource { kSa, kSoftmax, kLayerNorm, kWeightLoad };

/// Ledger name of a resource ("SA", "Softmax", "LayerNorm", "WeightLoad").
const char* op_resource_name(OpResource r);

/// How schedule_ops picks the next op to place.
///
/// kProgramOrder reproduces the pre-PR-4 controller exactly: ops issue in
/// insertion order, each waiting for its operands — softmax latency is a
/// bubble on the SA whenever the next op in the program consumes it.
/// kGreedy issues, at every step, the ready op that can start earliest on
/// its resource (ties break toward insertion order), which interleaves
/// independent slots/heads across the softmax latency.
enum class IssuePolicy { kProgramOrder, kGreedy };

/// One node: `duration` busy cycles on `resource`, gated by data deps.
struct OpNode {
  OpResource resource = OpResource::kSa;
  std::string label;
  Cycle duration = 0;        ///< busy occupancy on the resource
  Cycle result_latency = 0;  ///< pipeline drain after occupancy before
                             ///< consumers may start (softmax: fill depth)
  Cycle stream_cycles = 0;   ///< SA only: MAC-issuing cycles
  Cycle spill_cycles = 0;    ///< SA only: accumulator spill cycles
  /// Producers of the streaming operand(s); this op starts no earlier than
  /// every producer's result time.
  std::vector<int> deps;
  /// SA only: producer of the stationary operand, or kStaticWeight when it
  /// is resident in the weight memory (tile loads prefetch under the
  /// previous op; only the run's first SA op pays the initial load).
  int weight_dep = kStaticWeight;
  /// The dep (if any) that is a softmax feeding this SA op — tracked so the
  /// scheduler can attribute SA stall cycles to softmax per edge.
  int softmax_dep = -1;
  /// True for ops belonging to a prefill (encoder chunk) lane of a mixed
  /// prefill/decode step ledger (PR 6). Purely an attribution tag: the
  /// scheduler and audit treat prefill ops like any other, but the fused
  /// composer uses it to split SA busy cycles between the lanes.
  bool prefill = false;

  static constexpr int kStaticWeight = -1;
};

/// Builder for one ResBlock flow. Ops must be added in a topological order
/// (deps before dependents); insertion order doubles as program order for
/// IssuePolicy::kProgramOrder and as the tie-break priority for kGreedy.
class OpGraph {
 public:
  struct SaCost {
    Cycle duration = 0;
    Cycle stream = 0;
    Cycle spill = 0;
  };

  /// Add a GEMM on the SA. `weight_dep` is the op producing the stationary
  /// operand (OpNode::kStaticWeight for resident weights). `softmax_dep`
  /// marks the dep that is a softmax output, for stall attribution.
  int add_sa(const SaCost& cost, std::vector<int> deps, int weight_dep,
             std::string label, int softmax_dep = -1);

  /// Add a softmax: `occupancy` cycles on the unit, results usable
  /// `result_latency` cycles after the occupancy ends (the Fig. 6 pipeline
  /// drains while the next row streams in).
  int add_softmax(Cycle occupancy, Cycle result_latency, int scores_dep,
                  std::string label);

  /// Add a LayerNorm tail gated on every producer of G.
  int add_layernorm(Cycle duration, std::vector<int> deps, std::string label);

  /// Add a weight-tile prefetch on the load port: `duration` cycles (one
  /// tile load), gated on `deps`. The tile buffer holds a single pending
  /// tile, so a fused composer passes the previous sublayer's first SA op
  /// as the dep — the buffer is free again only once that op has consumed
  /// its tile (single residency). SA ops listing the prefetch among their
  /// deps start no earlier than the load completes; because the load IS the
  /// dep, no extra weight_load_cycles are added on the edge.
  int add_weight_load(Cycle duration, std::vector<int> deps,
                      std::string label);

  /// Tag ops [begin, end) as prefill-lane members (see OpNode::prefill).
  void mark_prefill(int begin, int end);

  const std::vector<OpNode>& ops() const { return ops_; }
  int size() const { return static_cast<int>(ops_.size()); }

 private:
  int add(OpNode op);

  std::vector<OpNode> ops_;
};

/// Outcome of scheduling one OpGraph into a Timeline.
struct ScheduleStats {
  std::vector<Interval> intervals;    ///< per op id, as reserved
  std::vector<Cycle> result_ready;    ///< interval end + result_latency
  Cycle weight_load_cycles = 0;       ///< the load latency scheduled with
  Cycle sa_stream = 0;                ///< Σ MAC-issuing cycles
  Cycle sa_spill = 0;                 ///< Σ accumulator spill cycles
  Cycle sa_exposed_load = 0;          ///< SA idle purely on weight-tile loads
  Cycle prefill_sa_busy = 0;          ///< Σ SA busy cycles of prefill ops
  /// min over softmax→SA edges of (the consumer's earliest start ignoring
  /// the softmax) − (softmax result time). >= 0 on every edge means no SA
  /// cycle was lost to softmax latency — the paper's overlap claim, checked
  /// per edge so one slot's generous slack cannot mask another's stall.
  Cycle softmax_slack_min = std::numeric_limits<Cycle>::max();
  Cycle softmax_stall = 0;            ///< Σ SA cycles stalled on softmax
  int softmax_edges = 0;
};

/// Place every op of `g` onto the timeline under `policy`. Deterministic:
/// identical graphs and policies produce identical reservations on any host.
ScheduleStats schedule_ops(const OpGraph& g, Cycle weight_load_cycles,
                           IssuePolicy policy, Timeline& tl);

}  // namespace tfacc
