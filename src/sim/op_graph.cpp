#include "sim/op_graph.hpp"

#include <algorithm>

namespace tfacc {

const char* op_resource_name(OpResource r) {
  switch (r) {
    case OpResource::kSa:
      return "SA";
    case OpResource::kSoftmax:
      return "Softmax";
    case OpResource::kLayerNorm:
      return "LayerNorm";
    case OpResource::kWeightLoad:
      return "WeightLoad";
  }
  TFACC_CHECK(false);
  return "";
}

int OpGraph::add(OpNode op) {
  const int id = size();
  TFACC_CHECK_ARG_MSG(op.duration >= 0 && op.result_latency >= 0,
                      "op " << op.label << " has negative cycles");
  for (const int d : op.deps)
    TFACC_CHECK_ARG_MSG(d >= 0 && d < id,
                        "op " << op.label << " dep " << d
                              << " not added before it");
  TFACC_CHECK_ARG(op.weight_dep == OpNode::kStaticWeight ||
                  (op.weight_dep >= 0 && op.weight_dep < id));
  ops_.push_back(std::move(op));
  return id;
}

int OpGraph::add_sa(const SaCost& cost, std::vector<int> deps, int weight_dep,
                    std::string label, int softmax_dep) {
  OpNode op;
  op.resource = OpResource::kSa;
  op.label = std::move(label);
  op.duration = cost.duration;
  op.stream_cycles = cost.stream;
  op.spill_cycles = cost.spill;
  op.deps = std::move(deps);
  op.weight_dep = weight_dep;
  op.softmax_dep = softmax_dep;
  if (softmax_dep >= 0)
    TFACC_CHECK_ARG_MSG(std::find(op.deps.begin(), op.deps.end(),
                                  softmax_dep) != op.deps.end(),
                        "softmax_dep must be one of the op's deps");
  return add(std::move(op));
}

int OpGraph::add_softmax(Cycle occupancy, Cycle result_latency, int scores_dep,
                         std::string label) {
  OpNode op;
  op.resource = OpResource::kSoftmax;
  op.label = std::move(label);
  op.duration = occupancy;
  op.result_latency = result_latency;
  op.deps = {scores_dep};
  return add(std::move(op));
}

int OpGraph::add_layernorm(Cycle duration, std::vector<int> deps,
                           std::string label) {
  OpNode op;
  op.resource = OpResource::kLayerNorm;
  op.label = std::move(label);
  op.duration = duration;
  op.deps = std::move(deps);
  return add(std::move(op));
}

void OpGraph::mark_prefill(int begin, int end) {
  TFACC_CHECK_ARG(begin >= 0 && begin <= end && end <= size());
  for (int i = begin; i < end; ++i)
    ops_[static_cast<std::size_t>(i)].prefill = true;
}

int OpGraph::add_weight_load(Cycle duration, std::vector<int> deps,
                             std::string label) {
  OpNode op;
  op.resource = OpResource::kWeightLoad;
  op.label = std::move(label);
  op.duration = duration;
  op.deps = std::move(deps);
  return add(std::move(op));
}

namespace {

/// Issue-time constraints of one op: when its streaming operands are done
/// and when its stationary operand's first tile sits in the SA buffer.
struct OpReadiness {
  Cycle data_ready = 0;
  Cycle tile_ready = 0;

  Cycle earliest() const { return std::max(data_ready, tile_ready); }
};

}  // namespace

ScheduleStats schedule_ops(const OpGraph& g, Cycle weight_load_cycles,
                           IssuePolicy policy, Timeline& tl) {
  TFACC_CHECK_ARG(weight_load_cycles >= 0);
  const std::vector<OpNode>& ops = g.ops();
  const int n = g.size();

  ScheduleStats st;
  st.weight_load_cycles = weight_load_cycles;
  st.intervals.resize(static_cast<std::size_t>(n));
  st.result_ready.assign(static_cast<std::size_t>(n), 0);

  // Only touch ledgers for resources the graph actually uses (an FFN run
  // must not materialize an empty Softmax ledger).
  ModuleTimeline* modules[4] = {nullptr, nullptr, nullptr, nullptr};
  for (const OpNode& op : ops) {
    const auto r = static_cast<std::size_t>(op.resource);
    if (modules[r] == nullptr)
      modules[r] = &tl.module(op_resource_name(op.resource));
  }
  const auto module_of = [&](const OpNode& op) -> ModuleTimeline& {
    return *modules[static_cast<std::size_t>(op.resource)];
  };

  // Dependency bookkeeping: an op becomes ready once every dep (data and
  // stationary) has been issued — their finish times are then known.
  std::vector<int> pending(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> dependents(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto count_dep = [&](int d) {
      ++pending[static_cast<std::size_t>(i)];
      dependents[static_cast<std::size_t>(d)].push_back(i);
    };
    for (const int d : ops[static_cast<std::size_t>(i)].deps) count_dep(d);
    const int wd = ops[static_cast<std::size_t>(i)].weight_dep;
    if (wd >= 0) count_dep(wd);
  }
  // The ready set is kept as an explicit (unordered) list so each issue
  // round scans only the ready ops, not all n — fused decode-step ledgers
  // splice many sublayers into one graph, and an all-ops scan per round
  // would grow quadratically with the sublayer count.
  std::vector<char> issued(static_cast<std::size_t>(n), 0);
  std::vector<int> ready_list;
  for (int i = 0; i < n; ++i)
    if (pending[static_cast<std::size_t>(i)] == 0) ready_list.push_back(i);

  bool first_sa_op = true;
  const auto readiness_of = [&](int id) {
    const OpNode& op = ops[static_cast<std::size_t>(id)];
    OpReadiness r;
    for (const int d : op.deps)
      r.data_ready =
          std::max(r.data_ready, st.result_ready[static_cast<std::size_t>(d)]);
    if (op.resource == OpResource::kSa) {
      // Static weights prefetch under the previous op (double buffering);
      // only the run's first SA op sees the initial load. Dynamic operands
      // (K₁ᵀ, V₁) cannot be loaded before they are produced.
      if (op.weight_dep >= 0)
        r.tile_ready =
            st.result_ready[static_cast<std::size_t>(op.weight_dep)] +
            weight_load_cycles;
      else if (first_sa_op)
        r.tile_ready = weight_load_cycles;
    }
    return r;
  };

  int program_next = 0;  // kProgramOrder: lowest unissued id, amortized O(n)
  for (int count = 0; count < n; ++count) {
    int pick = -1;
    std::size_t pick_slot = 0;  // pick's position in ready_list, for erasure
    if (policy == IssuePolicy::kProgramOrder) {
      // Builders add ops dep-first, so the lowest unissued id is ready.
      while (issued[static_cast<std::size_t>(program_next)]) ++program_next;
      pick = program_next;
      bool is_ready = false;
      for (std::size_t s = 0; s < ready_list.size(); ++s)
        if (ready_list[s] == pick) {
          is_ready = true;
          pick_slot = s;
          break;
        }
      TFACC_CHECK_MSG(is_ready,
                      "op " << ops[static_cast<std::size_t>(pick)].label
                            << " issued before its deps (builder order)");
    } else {
      // Greedy event-ordered issue: the ready op that can start earliest on
      // its resource goes next; ties break toward insertion (program)
      // order — the (start, id) lexicographic minimum, so the unordered
      // ready list picks exactly what an ascending full scan would.
      Cycle pick_start = 0;
      for (std::size_t s = 0; s < ready_list.size(); ++s) {
        const int i = ready_list[s];
        const Cycle start =
            std::max(readiness_of(i).earliest(),
                     module_of(ops[static_cast<std::size_t>(i)]).free_at());
        if (pick < 0 || start < pick_start ||
            (start == pick_start && i < pick)) {
          pick = i;
          pick_start = start;
          pick_slot = s;
        }
      }
    }
    TFACC_CHECK(pick >= 0);

    const OpNode& op = ops[static_cast<std::size_t>(pick)];
    ModuleTimeline& m = module_of(op);
    const OpReadiness r = readiness_of(pick);
    if (op.resource == OpResource::kSa) {
      const Cycle sa_free = m.free_at();
      // Exposed load = cycles the SA sits idle purely waiting for the
      // stationary operand's first tile.
      st.sa_exposed_load += std::max<Cycle>(
          0, r.tile_ready - std::max(r.data_ready, sa_free));
      if (op.softmax_dep >= 0) {
        // Per-edge overlap check: what would this op's start be if the
        // softmax result were free? Anything later than the softmax result
        // is slack; anything earlier is an SA stall charged to softmax.
        Cycle other = std::max(sa_free, r.tile_ready);
        for (const int d : op.deps)
          if (d != op.softmax_dep)
            other = std::max(other,
                             st.result_ready[static_cast<std::size_t>(d)]);
        const Cycle slack =
            other - st.result_ready[static_cast<std::size_t>(op.softmax_dep)];
        st.softmax_slack_min = std::min(st.softmax_slack_min, slack);
        st.softmax_stall += std::max<Cycle>(0, -slack);
        ++st.softmax_edges;
      }
      st.sa_stream += op.stream_cycles;
      st.sa_spill += op.spill_cycles;
      if (op.prefill) st.prefill_sa_busy += op.duration;
      first_sa_op = false;
    }
    const Interval iv = m.reserve(r.earliest(), op.duration, op.label);
    st.intervals[static_cast<std::size_t>(pick)] = iv;
    st.result_ready[static_cast<std::size_t>(pick)] =
        iv.end + op.result_latency;
    issued[static_cast<std::size_t>(pick)] = 1;
    ready_list[pick_slot] = ready_list.back();
    ready_list.pop_back();
    for (const int dep : dependents[static_cast<std::size_t>(pick)])
      if (--pending[static_cast<std::size_t>(dep)] == 0)
        ready_list.push_back(dep);
  }
  return st;
}

}  // namespace tfacc
