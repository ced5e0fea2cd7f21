#include "sim/op_graph.hpp"

#include <algorithm>
#include <iterator>
#include <string>

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

int OpGraph::add(const OpNode& op, DepList deps, const Label& label) {
  const int id = size();
  TFACC_CHECK_ARG(label.is_text_ || (label.tuple_.prefix >= 0 &&
                                     label.tuple_.prefix < labels_.size()));
  const auto name = [&] {
    return label.is_text_ ? std::string(label.text_)
                          : labels_.render(label.tuple_);
  };
  TFACC_CHECK_ARG_MSG(op.duration >= 0 && op.result_latency >= 0,
                      "op " << name() << " has negative cycles");
  for (const int d : deps.ids())
    TFACC_CHECK_ARG_MSG(d >= 0 && d < id, "op " << name() << " dep " << d
                                                << " not added before it");
  TFACC_CHECK_ARG(op.weight_dep == OpNode::kStaticWeight ||
                  (op.weight_dep >= 0 && op.weight_dep < id));
  if (op.softmax_dep >= 0)
    TFACC_CHECK_ARG_MSG(std::find(deps.ids().begin(), deps.ids().end(),
                                  op.softmax_dep) != deps.ids().end(),
                        "softmax_dep must be one of the op's deps");
  OpLabel tuple = label.tuple_;
  if (label.is_text_) tuple.prefix = labels_.add({label.text_});
  const auto dep_begin = static_cast<int>(deps_.size());
  deps_.insert(deps_.end(), deps.ids().begin(), deps.ids().end());
  OpNode& node = ops_.emplace_back(op);
  node.label = tuple;
  node.dep_begin = dep_begin;
  node.dep_end = static_cast<int>(deps_.size());
  return id;
}

void OpGraph::mark_prefill(int begin, int end) {
  TFACC_CHECK_ARG(begin >= 0 && begin <= end && end <= size());
  for (int i = begin; i < end; ++i)
    ops_[static_cast<std::size_t>(i)].prefill = true;
}

namespace {

/// A ready op as the greedy scan sees it: its cached earliest start
/// (max of data and tile readiness) and the resource it waits for.
struct ReadyOp {
  Cycle earliest = 0;
  int id = 0;
  int resource = 0;
};

/// The placement loop's working storage, kept per thread so steady-state
/// ledgers reuse its capacity. Every call reinitializes all of it: a card
/// may move to another pool thread between steps, so nothing may carry
/// from one call to the next.
struct PlacementScratch {
  std::vector<int> pending;          ///< unissued producers per op
  std::vector<int> dependents_at;    ///< CSR offsets into dependents (n + 1)
  std::vector<int> dependents_fill;  ///< CSR fill cursors
  std::vector<int> dependents;       ///< CSR: the ops each op gates
  std::vector<Cycle> data_ready;     ///< cached when the op becomes ready
  std::vector<Cycle> tile_ready;     ///< cached likewise
  std::vector<Cycle> result_ready;   ///< when no ScheduleStats records them
  std::vector<char> issued;
  std::vector<ReadyOp> ready;        ///< the unordered ready list
};

PlacementScratch& placement_scratch() {
  thread_local PlacementScratch scratch;
  return scratch;
}

/// The one placement loop behind schedule_ops and end_time_without_prefill.
/// With a Timeline it places every op, reserving on `*tl` and recording
/// into `st`; without one it leaves out the prefill-tagged ops (and every
/// edge to them) and records only `st`'s scalar sums. Returns the latest
/// reservation end.
Cycle place_ops(const OpGraph& g, Cycle weight_load_cycles,
                IssuePolicy policy, Timeline* tl, ScheduleStats& st) {
  TFACC_CHECK_ARG(weight_load_cycles >= 0);
  const std::vector<OpNode>& ops = g.ops();
  const int n = g.size();
  const auto un = static_cast<std::size_t>(n);
  const bool record = tl != nullptr;
  const auto skipped = [&](int i) {
    return !record && ops[static_cast<std::size_t>(i)].prefill;
  };
  PlacementScratch& s = placement_scratch();

  // Per-resource free time. Recording touches only ledgers for resources
  // the graph actually uses (an FFN run must not materialize an empty
  // Softmax ledger), created in order of first use, and imports the graph's
  // label prefixes once.
  Cycle free_at[4] = {0, 0, 0, 0};
  ModuleTimeline* modules[4] = {nullptr, nullptr, nullptr, nullptr};
  int label_base = 0;
  if (record) {
    std::size_t uses[4] = {0, 0, 0, 0};
    for (const OpNode& op : ops) {
      const auto r = static_cast<std::size_t>(op.resource);
      if (modules[r] == nullptr) {
        modules[r] = &tl->module(op_resource_name(op.resource));
        free_at[r] = modules[r]->free_at();
      }
      ++uses[r];
    }
    for (std::size_t r = 0; r < 4; ++r)
      if (modules[r] != nullptr) modules[r]->reserve_intervals(uses[r]);
    label_base = tl->add_labels(g.labels());
    st.intervals.resize(un);
  }
  std::vector<Cycle>& result = record ? st.result_ready : s.result_ready;
  result.assign(un, 0);

  // Dependency bookkeeping: an op becomes ready once every producer (data
  // and stationary) has been issued — their result times are then final.
  // The dependents lists are one CSR array, filled in producer-listing
  // order.
  int to_place = 0;
  s.pending.assign(un, 0);
  s.dependents_at.assign(un + 1, 0);
  const auto for_each_producer = [&](int i, const auto& fn) {
    for (const int d : g.deps(i))
      if (!skipped(d)) fn(d);
    const int wd = ops[static_cast<std::size_t>(i)].weight_dep;
    if (wd >= 0 && !skipped(wd)) fn(wd);
  };
  for (int i = 0; i < n; ++i) {
    if (skipped(i)) continue;
    ++to_place;
    for_each_producer(i, [&](int d) {
      ++s.pending[static_cast<std::size_t>(i)];
      ++s.dependents_at[static_cast<std::size_t>(d) + 1];
    });
  }
  for (std::size_t i = 0; i < un; ++i)
    s.dependents_at[i + 1] += s.dependents_at[i];
  s.dependents.resize(static_cast<std::size_t>(s.dependents_at[un]));
  s.dependents_fill.assign(s.dependents_at.begin(), s.dependents_at.end() - 1);
  for (int i = 0; i < n; ++i) {
    if (skipped(i)) continue;
    for_each_producer(i, [&](int d) {
      s.dependents[static_cast<std::size_t>(
          s.dependents_fill[static_cast<std::size_t>(d)]++)] = i;
    });
  }

  // Readiness is computed once, as an op joins the ready list: every
  // producer has issued by then, so its result time is final. Static
  // weights prefetch under the previous op (double buffering); only the
  // run's first SA op sees the initial load. A static-weight SA op that
  // became ready before the first SA op issued keeps that cold-load time,
  // which never binds: the first SA op waits out the load itself, so the
  // SA is free no earlier than the load's end when any other SA op issues.
  // Dynamic operands (K₁ᵀ, V₁) cannot be loaded before they are produced.
  bool first_sa_op = true;
  s.data_ready.resize(un);
  s.tile_ready.resize(un);
  s.issued.assign(un, 0);
  s.ready.clear();
  const auto make_ready = [&](int id) {
    const OpNode& op = ops[static_cast<std::size_t>(id)];
    Cycle data = 0;
    for (const int d : g.deps(id))
      data = std::max(data, result[static_cast<std::size_t>(d)]);
    Cycle tile = 0;
    if (op.resource == OpResource::kSa) {
      if (op.weight_dep >= 0)
        tile = result[static_cast<std::size_t>(op.weight_dep)] +
               weight_load_cycles;
      else if (first_sa_op)
        tile = weight_load_cycles;
    }
    s.data_ready[static_cast<std::size_t>(id)] = data;
    s.tile_ready[static_cast<std::size_t>(id)] = tile;
    s.ready.push_back(
        ReadyOp{std::max(data, tile), id, static_cast<int>(op.resource)});
  };
  // The ready set is kept as an explicit (unordered) list so each issue
  // round scans only the ready ops, not all n — fused decode-step ledgers
  // splice many sublayers into one graph, and an all-ops scan per round
  // would grow quadratically with the sublayer count.
  for (int i = 0; i < n; ++i)
    if (!skipped(i) && s.pending[static_cast<std::size_t>(i)] == 0)
      make_ready(i);

  int program_next = 0;  // kProgramOrder: lowest unissued id, amortized O(n)
  for (int count = 0; count < to_place; ++count) {
    int pick = -1;
    std::size_t pick_slot = 0;  // pick's position in the ready list
    if (policy == IssuePolicy::kProgramOrder) {
      // Builders add ops dep-first, so the lowest unissued id is ready.
      while (s.issued[static_cast<std::size_t>(program_next)] ||
             skipped(program_next))
        ++program_next;
      pick = program_next;
      bool is_ready = false;
      for (std::size_t k = 0; k < s.ready.size(); ++k)
        if (s.ready[k].id == pick) {
          is_ready = true;
          pick_slot = k;
          break;
        }
      TFACC_CHECK_MSG(is_ready, "op " << g.label(pick)
                                      << " issued before its deps (builder "
                                         "order)");
    } else {
      // Greedy event-ordered issue: the ready op that can start earliest on
      // its resource goes next; ties break toward insertion (program)
      // order — the (start, id) lexicographic minimum, so the unordered
      // ready list picks exactly what an ascending full scan would.
      Cycle pick_start = 0;
      for (std::size_t k = 0; k < s.ready.size(); ++k) {
        const ReadyOp& e = s.ready[k];
        const Cycle start =
            std::max(e.earliest, free_at[static_cast<std::size_t>(e.resource)]);
        if (pick < 0 || start < pick_start ||
            (start == pick_start && e.id < pick)) {
          pick = e.id;
          pick_start = start;
          pick_slot = k;
        }
      }
    }
    TFACC_CHECK(pick >= 0);

    const auto up = static_cast<std::size_t>(pick);
    const OpNode& op = ops[up];
    const auto r = static_cast<std::size_t>(op.resource);
    const Cycle data_ready = s.data_ready[up];
    const Cycle tile_ready = s.tile_ready[up];
    if (op.resource == OpResource::kSa) {
      const Cycle sa_free = free_at[r];
      // Exposed load = cycles the SA sits idle purely waiting for the
      // stationary operand's first tile.
      st.sa_exposed_load +=
          std::max<Cycle>(0, tile_ready - std::max(data_ready, sa_free));
      if (op.softmax_dep >= 0) {
        // Per-edge overlap check: what would this op's start be if the
        // softmax result were free? Anything later than the softmax result
        // is slack; anything earlier is an SA stall charged to softmax.
        Cycle other = std::max(sa_free, tile_ready);
        for (const int d : g.deps(pick))
          if (d != op.softmax_dep)
            other = std::max(other, result[static_cast<std::size_t>(d)]);
        const Cycle slack =
            other - result[static_cast<std::size_t>(op.softmax_dep)];
        st.softmax_slack_min = std::min(st.softmax_slack_min, slack);
        st.softmax_stall += std::max<Cycle>(0, -slack);
        ++st.softmax_edges;
      }
      st.sa_stream += op.stream_cycles;
      st.sa_spill += op.spill_cycles;
      if (op.prefill) st.prefill_sa_busy += op.duration;
      first_sa_op = false;
    }
    const Cycle start = std::max(std::max(data_ready, tile_ready), free_at[r]);
    free_at[r] = start + op.duration;
    if (record) {
      OpLabel label = op.label;
      label.prefix += label_base;
      st.intervals[up] = modules[r]->reserve(start, op.duration, label);
    }
    result[up] = free_at[r] + op.result_latency;
    s.issued[up] = 1;
    s.ready[pick_slot] = s.ready.back();
    s.ready.pop_back();
    for (int k = s.dependents_at[up]; k < s.dependents_at[up + 1]; ++k) {
      const int dep = s.dependents[static_cast<std::size_t>(k)];
      if (--s.pending[static_cast<std::size_t>(dep)] == 0) make_ready(dep);
    }
  }
  return *std::max_element(std::begin(free_at), std::end(free_at));
}

}  // namespace

ScheduleStats schedule_ops(const OpGraph& g, Cycle weight_load_cycles,
                           IssuePolicy policy, Timeline& tl) {
  ScheduleStats st;
  st.weight_load_cycles = weight_load_cycles;
  (void)place_ops(g, weight_load_cycles, policy, &tl, st);
  return st;
}

Cycle end_time_without_prefill(const OpGraph& g, Cycle weight_load_cycles,
                               IssuePolicy policy) {
  ScheduleStats sums;  // the loop's scalar sums; nothing else is recorded
  return place_ops(g, weight_load_cycles, policy, nullptr, sums);
}

}  // namespace tfacc
