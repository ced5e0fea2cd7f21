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

#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/op_label.hpp"
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
/// Plain data: the node's deps live in its graph's CSR array
/// (OpGraph::deps) and its label is a tuple over the graph's prefix table
/// (OpGraph::label renders it).
struct OpNode {
  OpResource resource = OpResource::kSa;
  /// True for ops belonging to a prefill (encoder chunk) lane of a mixed
  /// prefill/decode step ledger. An attribution tag: the fused composer
  /// splits SA busy cycles between the lanes by it, and the decode-only
  /// pass (end_time_without_prefill) leaves these ops out.
  bool prefill = false;
  OpLabel label;
  Cycle duration = 0;        ///< busy occupancy on the resource
  Cycle result_latency = 0;  ///< pipeline drain after occupancy before
                             ///< consumers may start (softmax: fill depth)
  Cycle stream_cycles = 0;   ///< SA only: MAC-issuing cycles
  Cycle spill_cycles = 0;    ///< SA only: accumulator spill cycles
  /// SA only: producer of the stationary operand, or kStaticWeight when it
  /// is resident in the weight memory (tile loads prefetch under the
  /// previous op; only the run's first SA op pays the initial load).
  int weight_dep = kStaticWeight;
  /// The dep (if any) that is a softmax feeding this SA op — tracked so the
  /// scheduler can attribute SA stall cycles to softmax per edge.
  int softmax_dep = -1;
  /// This op's slice [dep_begin, dep_end) of the graph's CSR dep array:
  /// the producers of the streaming operand(s). The op starts no earlier
  /// than every producer's result time.
  int dep_begin = 0;
  int dep_end = 0;

  static constexpr int kStaticWeight = -1;
};

/// The dep ids an OpGraph::add_* call copies into the graph: a braced list,
/// a vector or a span, borrowed for the duration of the call only.
class DepList {
 public:
  DepList() = default;
  DepList(std::initializer_list<int> ids) : ids_(ids.begin(), ids.size()) {}
  DepList(const std::vector<int>& ids) : ids_(ids) {}
  DepList(std::span<const int> ids) : ids_(ids) {}

  std::span<const int> ids() const { return ids_; }

 private:
  std::span<const int> ids_;
};

/// Builder for one ResBlock flow. Ops must be added in a topological order
/// (deps before dependents); insertion order doubles as program order for
/// IssuePolicy::kProgramOrder and as the tie-break priority for kGreedy.
///
/// Stored flat: one vector of plain OpNodes, one CSR array of deps, and one
/// LabelTable of prefixes. Builders register one prefix per sublayer and
/// label ops with tuples over it; hand-built graphs may pass free text,
/// which becomes its own prefix.
class OpGraph {
 public:
  struct SaCost {
    Cycle duration = 0;
    Cycle stream = 0;
    Cycle spill = 0;
  };

  /// An add_* label: a tuple over this graph's prefixes, or free text.
  class Label {
   public:
    Label(const OpLabel& tuple) : tuple_(tuple) {}
    Label(const char* text) : text_(text), is_text_(true) {}
    Label(const std::string& text) : text_(text), is_text_(true) {}

   private:
    friend class OpGraph;
    OpLabel tuple_;
    std::string_view text_;
    bool is_text_ = false;
  };

  /// Register a label prefix, the concatenation of `parts` (e.g.
  /// {"dec0.self", "."}); returns the id OpLabel::prefix refers to.
  int add_prefix(std::initializer_list<std::string_view> parts) {
    return labels_.add(parts);
  }

  /// Add a GEMM on the SA. `weight_dep` is the op producing the stationary
  /// operand (OpNode::kStaticWeight for resident weights). `softmax_dep`
  /// marks the dep that is a softmax output, for stall attribution.
  int add_sa(const SaCost& cost, DepList deps, int weight_dep,
             const Label& label, int softmax_dep = -1) {
    OpNode op;
    op.resource = OpResource::kSa;
    op.duration = cost.duration;
    op.stream_cycles = cost.stream;
    op.spill_cycles = cost.spill;
    op.weight_dep = weight_dep;
    op.softmax_dep = softmax_dep;
    return add(op, deps, label);
  }

  /// Add a softmax: `occupancy` cycles on the unit, results usable
  /// `result_latency` cycles after the occupancy ends (the Fig. 6 pipeline
  /// drains while the next row streams in).
  int add_softmax(Cycle occupancy, Cycle result_latency, int scores_dep,
                  const Label& label) {
    OpNode op;
    op.resource = OpResource::kSoftmax;
    op.duration = occupancy;
    op.result_latency = result_latency;
    return add(op, {scores_dep}, label);
  }

  /// Add a LayerNorm tail gated on every producer of G.
  int add_layernorm(Cycle duration, DepList deps, const Label& label) {
    OpNode op;
    op.resource = OpResource::kLayerNorm;
    op.duration = duration;
    return add(op, deps, label);
  }

  /// Add a weight-tile prefetch on the load port: `duration` cycles (one
  /// tile load), gated on `deps`. The tile buffer holds a single pending
  /// tile, so a fused composer passes the previous sublayer's first SA op
  /// as the dep — the buffer is free again only once that op has consumed
  /// its tile (single residency). SA ops listing the prefetch among their
  /// deps start no earlier than the load completes; because the load IS the
  /// dep, no extra weight_load_cycles are added on the edge.
  int add_weight_load(Cycle duration, DepList deps, const Label& label) {
    OpNode op;
    op.resource = OpResource::kWeightLoad;
    op.duration = duration;
    return add(op, deps, label);
  }

  /// Size the storage for `ops` ops listing `deps` deps in all, so a
  /// builder that knows its shape appends without reallocating.
  void reserve(std::size_t ops, std::size_t deps) {
    ops_.reserve(ops);
    deps_.reserve(deps);
  }

  /// Tag ops [begin, end) as prefill-lane members (see OpNode::prefill).
  void mark_prefill(int begin, int end);

  const std::vector<OpNode>& ops() const { return ops_; }
  int size() const { return static_cast<int>(ops_.size()); }
  /// Op `id`'s data deps (a view into the CSR array).
  std::span<const int> deps(int id) const {
    const OpNode& op = ops_[static_cast<std::size_t>(id)];
    return std::span<const int>(deps_).subspan(
        static_cast<std::size_t>(op.dep_begin),
        static_cast<std::size_t>(op.dep_end - op.dep_begin));
  }
  /// Op `id`'s label, rendered ("dec0.self.head1.slot3.QKt").
  std::string label(int id) const {
    return labels_.render(ops_[static_cast<std::size_t>(id)].label);
  }
  const LabelTable& labels() const { return labels_; }

 private:
  int add(const OpNode& op, DepList deps, const Label& label);

  std::vector<OpNode> ops_;
  std::vector<int> deps_;  ///< CSR: op i's deps are [dep_begin, dep_end)
  LabelTable labels_;
};

/// Outcome of scheduling one OpGraph into a Timeline.
struct ScheduleStats {
  /// Per op id, as reserved: labels index the Timeline's label table.
  std::vector<Interval> intervals;
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
///
/// Each op's data and tile readiness is computed once, when the op becomes
/// ready: all its producers have issued by then, so their result times are
/// final.
ScheduleStats schedule_ops(const OpGraph& g, Cycle weight_load_cycles,
                           IssuePolicy policy, Timeline& tl);

/// End time of `g` placed by schedule_ops' own loop with every
/// prefill-tagged op left out (edges to them dropped) and nothing recorded:
/// the makespan the graph's decode ops take on their own. Because the
/// remaining ops keep their relative order, both policies pick exactly what
/// they would on a graph built without the prefill ops.
Cycle end_time_without_prefill(const OpGraph& g, Cycle weight_load_cycles,
                               IssuePolicy policy);

}  // namespace tfacc
