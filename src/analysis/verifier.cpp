#include "analysis/verifier.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "common/check.hpp"

namespace tfacc {

const char* diag_code_name(DiagCode code) {
  switch (code) {
    case DiagCode::kCoverage:
      return "SCHED-COVERAGE";
    case DiagCode::kDuration:
      return "SCHED-DURATION";
    case DiagCode::kResultTime:
      return "SCHED-RESULT";
    case DiagCode::kDependency:
      return "SCHED-DEP";
    case DiagCode::kStationaryLoad:
      return "SCHED-WLOAD";
    case DiagCode::kColdLoad:
      return "SCHED-COLD";
    case DiagCode::kOverlap:
      return "SCHED-OVERLAP";
    case DiagCode::kPrefetchChain:
      return "SCHED-CHAIN";
    case DiagCode::kProgramOrder:
      return "SCHED-ORDER";
    case DiagCode::kLaneInterleave:
      return "SCHED-LANE";
    case DiagCode::kHashMismatch:
      return "SCHED-HASH";
  }
  TFACC_CHECK(false);
  return "";
}

std::string VerifyResult::to_string() const {
  std::string out;
  for (const Diagnostic& d : diags) {
    if (!out.empty()) out += '\n';
    out += d.message;
  }
  return out;
}

std::uint64_t ledger_hash(const OpGraph& g, const ScheduleStats& st) {
  // FNV-1a 64. Mixing every per-op field in op order makes the hash
  // canonical: two ledgers hash equal iff every reservation (placement,
  // shape, and label) is identical.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  const auto mix_str = [&](std::string_view s) {
    mix_u64(s.size());
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
  };
  // Labels are mixed as their rendered text: into a stack buffer, or, for
  // the rare label longer than that, into a string.
  char buf[128];
  std::string long_label;
  const auto mix_label = [&](const OpLabel& label) {
    const std::size_t len = g.labels().render(label, buf);
    if (len <= sizeof buf) {
      mix_str(std::string_view(buf, len));
    } else {
      long_label = g.labels().render(label);
      mix_str(long_label);
    }
  };

  const std::vector<OpNode>& ops = g.ops();
  const std::size_t n =
      std::min({ops.size(), st.intervals.size(), st.result_ready.size()});
  mix_u64(n);
  mix_u64(static_cast<std::uint64_t>(st.weight_load_cycles));
  for (std::size_t i = 0; i < n; ++i) {
    mix_u64(static_cast<std::uint64_t>(ops[i].resource));
    mix_label(ops[i].label);
    mix_u64(static_cast<std::uint64_t>(st.intervals[i].start));
    mix_u64(static_cast<std::uint64_t>(st.intervals[i].end));
    mix_u64(static_cast<std::uint64_t>(st.result_ready[i]));
  }
  return h;
}

namespace {

/// "op 12 (head1.AV)" — every diagnostic names ops this way.
std::string op_ref(const OpGraph& g, int id) {
  std::ostringstream os;
  os << "op " << id;
  if (id >= 0 && id < g.size()) os << " (" << g.label(id) << ")";
  return os.str();
}

std::string interval_ref(Cycle begin, Cycle end) {
  std::ostringstream os;
  os << "[" << begin << "," << end << ")";
  return os.str();
}

/// Central diagnostic factory: every message leads with the stable code and
/// includes op id, resource name, and the offending cycle interval.
void emit(VerifyResult& res, const OpGraph& g, DiagCode code, int op,
          int other, OpResource resource, Cycle begin, Cycle end,
          const std::string& detail) {
  Diagnostic d;
  d.code = code;
  d.op = op;
  d.other = other;
  d.resource = resource;
  d.begin = begin;
  d.end = end;
  std::ostringstream os;
  os << "[" << diag_code_name(code) << "] ";
  if (op >= 0)
    os << op_ref(g, op) << " on " << op_resource_name(resource) << " @ "
       << interval_ref(begin, end) << ": ";
  os << detail;
  d.message = os.str();
  res.diags.push_back(std::move(d));
}

/// Per WeightLoad op, the earliest-starting SA op that lists it among its
/// deps (the op whose issue consumes the prefetched tile; ties go to the
/// lower id), or -1 when none exists. One pass over the deps.
std::vector<int> earliest_sa_consumers(const OpGraph& g,
                                       const ScheduleStats& st) {
  const std::vector<OpNode>& ops = g.ops();
  std::vector<int> consumer(ops.size(), -1);
  for (int i = 0; i < g.size(); ++i) {
    if (ops[static_cast<std::size_t>(i)].resource != OpResource::kSa) continue;
    const Cycle start = st.intervals[static_cast<std::size_t>(i)].start;
    for (const int d : g.deps(i)) {
      const auto ud = static_cast<std::size_t>(d);
      if (ops[ud].resource != OpResource::kWeightLoad) continue;
      int& best = consumer[ud];
      if (best < 0 ||
          start < st.intervals[static_cast<std::size_t>(best)].start)
        best = i;
    }
  }
  return consumer;
}

}  // namespace

VerifyResult verify_schedule(const OpGraph& g, const ScheduleStats& st,
                             const VerifyOptions& opts) {
  VerifyResult res;
  const std::vector<OpNode>& ops = g.ops();
  const std::size_t n = ops.size();

  if (st.intervals.size() != n || st.result_ready.size() != n) {
    std::ostringstream os;
    os << "schedule covers " << st.intervals.size() << " intervals and "
       << st.result_ready.size() << " result times for " << n << " ops";
    emit(res, g, DiagCode::kCoverage, -1, -1, OpResource::kSa, 0, 0,
         os.str());
    return res;  // per-op checks would index out of bounds
  }
  res.hash = ledger_hash(g, st);

  // --- Per-op checks: shape, result bookkeeping, data and weight deps ------
  for (std::size_t i = 0; i < n; ++i) {
    const OpNode& op = ops[i];
    const Interval& iv = st.intervals[i];
    const int id = static_cast<int>(i);
    if (iv.duration() != op.duration) {
      std::ostringstream os;
      os << "reserved for " << iv.duration() << " cycles, declared "
         << op.duration;
      emit(res, g, DiagCode::kDuration, id, -1, op.resource, iv.start, iv.end,
           os.str());
    }
    if (st.result_ready[i] != iv.end + op.result_latency) {
      std::ostringstream os;
      os << "result time " << st.result_ready[i]
         << " inconsistent with interval end " << iv.end << " + latency "
         << op.result_latency;
      emit(res, g, DiagCode::kResultTime, id, -1, op.resource, iv.start,
           iv.end, os.str());
    }
    for (const int d : g.deps(id)) {
      if (iv.start >= st.result_ready[static_cast<std::size_t>(d)]) continue;
      std::ostringstream os;
      os << "starts before dep " << op_ref(g, d) << " result at "
         << st.result_ready[static_cast<std::size_t>(d)];
      emit(res, g, DiagCode::kDependency, id, d, op.resource, iv.start,
           iv.end, os.str());
    }
    if (op.weight_dep >= 0 &&
        iv.start <
            st.result_ready[static_cast<std::size_t>(op.weight_dep)] +
                st.weight_load_cycles) {
      std::ostringstream os;
      os << "starts before its stationary operand " << op_ref(g, op.weight_dep)
         << " finishes loading at "
         << st.result_ready[static_cast<std::size_t>(op.weight_dep)] +
                st.weight_load_cycles;
      emit(res, g, DiagCode::kStationaryLoad, id, op.weight_dep, op.resource,
           iv.start, iv.end, os.str());
    }
  }

  // --- Cold load: the run's earliest SA op pays the initial tile load ------
  // (the weight memory cannot have prefetched anything before the run began,
  // unless the ledger carries an explicit WeightLoad op for that tile).
  bool has_weight_loads = false;
  for (const OpNode& op : ops)
    if (op.resource == OpResource::kWeightLoad) has_weight_loads = true;
  if (!has_weight_loads) {
    std::size_t first_sa = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (ops[i].resource != OpResource::kSa) continue;
      if (first_sa == n ||
          st.intervals[i].start < st.intervals[first_sa].start)
        first_sa = i;
    }
    if (first_sa != n && st.intervals[first_sa].start < st.weight_load_cycles) {
      std::ostringstream os;
      os << "starts before the run's cold " << st.weight_load_cycles
         << "-cycle weight load completes";
      emit(res, g, DiagCode::kColdLoad, static_cast<int>(first_sa), -1,
           OpResource::kSa, st.intervals[first_sa].start,
           st.intervals[first_sa].end, os.str());
    }
  }

  // --- Single occupancy: no two intervals overlap on the same resource -----
  // One id list per resource, sorted by (start, id); the prefetch-chain and
  // program-order checks below reuse it.
  std::vector<std::size_t> ids;
  const auto ids_by_start = [&](OpResource r) {
    ids.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (ops[i].resource == r) ids.push_back(i);
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return st.intervals[a].start != st.intervals[b].start
                 ? st.intervals[a].start < st.intervals[b].start
                 : a < b;
    });
  };
  for (const OpResource r :
       {OpResource::kSa, OpResource::kSoftmax, OpResource::kLayerNorm,
        OpResource::kWeightLoad}) {
    ids_by_start(r);
    for (std::size_t k = 1; k < ids.size(); ++k) {
      if (st.intervals[ids[k]].start >= st.intervals[ids[k - 1]].end) continue;
      std::ostringstream os;
      os << "overlaps " << op_ref(g, static_cast<int>(ids[k - 1])) << " @ "
         << interval_ref(st.intervals[ids[k - 1]].start,
                         st.intervals[ids[k - 1]].end);
      emit(res, g, DiagCode::kOverlap, static_cast<int>(ids[k]),
           static_cast<int>(ids[k - 1]), r, st.intervals[ids[k]].start,
           st.intervals[ids[k]].end, os.str());
    }
  }

  // --- Prefetch chain (fused ledgers): single residency and continuity -----
  // The tile buffer behind the WeightLoad port holds ONE pending tile.
  // Structurally: every load must have an SA consumer (a dangling load would
  // claim the buffer forever), every load but the earliest must be gated on
  // prior tile consumption, and no load may start while the previous load's
  // tile still sits unconsumed in the buffer.
  if (has_weight_loads) {
    ids_by_start(OpResource::kWeightLoad);
    const std::vector<std::size_t>& loads = ids;
    const std::vector<int> consumers = earliest_sa_consumers(g, st);
    int prev_consumer = -1;
    for (std::size_t k = 0; k < loads.size(); ++k) {
      const int id = static_cast<int>(loads[k]);
      const Interval& iv = st.intervals[loads[k]];
      const int consumer = consumers[loads[k]];
      if (consumer < 0)
        emit(res, g, DiagCode::kPrefetchChain, id, -1, OpResource::kWeightLoad,
             iv.start, iv.end,
             "no SA op consumes this tile — the prefetch chain is broken");
      if (k > 0) {
        if (g.deps(id).empty())
          emit(res, g, DiagCode::kPrefetchChain, id, -1,
               OpResource::kWeightLoad, iv.start, iv.end,
               "load is not gated on any prior tile consumption "
               "(single-residency buffer)");
        if (prev_consumer >= 0 &&
            iv.start <
                st.intervals[static_cast<std::size_t>(prev_consumer)].start) {
          std::ostringstream os;
          os << "starts while the previous tile is still pending — its "
             << "consumer " << op_ref(g, prev_consumer) << " only issues at "
             << st.intervals[static_cast<std::size_t>(prev_consumer)].start;
          emit(res, g, DiagCode::kPrefetchChain, id, prev_consumer,
               OpResource::kWeightLoad, iv.start, iv.end, os.str());
        }
      }
      prev_consumer = consumer;
    }
  }

  // --- Program-order pin (Algorithm 1): per-resource issue order
  // must follow op insertion order. A strict start-time inversion between a
  // higher- and lower-id op on one resource proves reordering.
  if (opts.program_order) {
    for (const OpResource r :
         {OpResource::kSa, OpResource::kSoftmax, OpResource::kLayerNorm,
          OpResource::kWeightLoad}) {
      ids_by_start(r);
      for (std::size_t k = 1; k < ids.size(); ++k) {
        if (ids[k] >= ids[k - 1]) continue;
        std::ostringstream os;
        os << "issued before " << op_ref(g, static_cast<int>(ids[k - 1]))
           << " @ "
           << interval_ref(st.intervals[ids[k - 1]].start,
                           st.intervals[ids[k - 1]].end)
           << " despite the program-order pin";
        emit(res, g, DiagCode::kProgramOrder, static_cast<int>(ids[k]),
             static_cast<int>(ids[k - 1]), r, st.intervals[ids[k]].start,
             st.intervals[ids[k]].end, os.str());
      }
    }
  }

  // --- Determinism hash ----------------------------------------------------
  if (opts.expect_hash != 0 && opts.expect_hash != res.hash) {
    std::ostringstream os;
    os << "ledger hash 0x" << std::hex << res.hash << " != expected 0x"
       << opts.expect_hash << std::dec
       << " — the schedule is not deterministic across rebuilds";
    emit(res, g, DiagCode::kHashMismatch, -1, -1, OpResource::kSa, 0, 0,
         os.str());
  }
  return res;
}

VerifyResult verify_fused(const FusedRun& run, const VerifyOptions& opts) {
  VerifyResult res = verify_schedule(run.graph, run.stats, opts);

  // Lane non-interleaving: within one chained lane the residual stream
  // passes through each sublayer's LayerNorm, so sublayer k+1's SA work
  // starting before sublayer k's SA work has drained means the chain edge
  // was dropped. Lanes are mutually independent — cross-lane interleaving
  // is exactly what the mixed prefill/decode step is for.
  for (std::size_t k = 1; k < run.segments.size(); ++k) {
    const FusedSegment& prev = run.segments[k - 1];
    const FusedSegment& seg = run.segments[k];
    if (seg.lane != prev.lane) continue;
    if (seg.sa_start >= prev.sa_end) continue;
    std::ostringstream os;
    os << "[" << diag_code_name(DiagCode::kLaneInterleave) << "] sublayer '"
       << seg.label << "' SA work @ "
       << "[" << seg.sa_start << "," << seg.sa_end << ")"
       << " interleaves with chained predecessor '" << prev.label << "' @ "
       << "[" << prev.sa_start << "," << prev.sa_end << ") in lane "
       << seg.lane;
    Diagnostic d;
    d.code = DiagCode::kLaneInterleave;
    d.resource = OpResource::kSa;
    d.begin = seg.sa_start;
    d.end = seg.sa_end;
    d.message = os.str();
    res.diags.push_back(std::move(d));
  }
  return res;
}

}  // namespace tfacc
