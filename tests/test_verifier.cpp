// Tests for the typed schedule verifier (PR 7): one tampered-schedule test
// per diagnostic code asserting the EXACT code fires, positive sweeps over
// every builder, canonical-hash determinism/sensitivity, the structured
// Diagnostic fields, and the AcceleratorConfig::verify_schedules hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "core/accelerator.hpp"
#include "core/schedules.hpp"

namespace tfacc {
namespace {

AcceleratorConfig accel_config() { return AcceleratorConfig{}; }

bool has_code(const VerifyResult& res, DiagCode code) {
  return std::any_of(res.diags.begin(), res.diags.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

std::vector<int> greedy_totals(int slots) {
  std::vector<int> totals;
  for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
  return totals;
}

std::vector<SublayerPlan> decode_plans(const std::vector<int>& totals,
                                       int d_model, int num_heads, int d_ff,
                                       int blocks) {
  const int slots = static_cast<int>(totals.size());
  std::vector<SublayerPlan> subs;
  for (int b = 0; b < blocks; ++b) {
    const std::string p = "dec" + std::to_string(b);
    subs.push_back(SublayerPlan::mha_cached_batch(p + ".self", totals, d_model,
                                                  num_heads, slots));
    subs.push_back(SublayerPlan::mha_cached_batch(p + ".cross", totals,
                                                  d_model, num_heads, 0));
    subs.push_back(SublayerPlan::ffn(p + ".ffn", slots, d_model, d_ff));
  }
  return subs;
}

/// Re-point an op's interval to [start, start + duration) keeping the
/// result-time bookkeeping consistent, so only the targeted invariant
/// breaks.
void slide_op(const OpGraph& g, ScheduleStats& st, std::size_t i,
              Cycle start) {
  const Cycle len = st.intervals[i].duration();
  st.intervals[i].start = start;
  st.intervals[i].end = start + len;
  st.result_ready[i] =
      st.intervals[i].end + g.ops()[i].result_latency;
}

// --- Positive sweeps ---------------------------------------------------------

/// The graph of `run` placed under `policy`, verified with the matching
/// program-order pin.
bool verifies_under(const ScheduledRun& run, IssuePolicy policy) {
  Timeline tl;
  const ScheduleStats st = schedule_ops(
      run.graph, accel_config().weight_load_cycles, policy, tl);
  VerifyOptions opts;
  opts.program_order = policy == IssuePolicy::kProgramOrder;
  return verify_schedule(run.graph, st, opts).ok();
}

TEST(Verifier, CleanBuildersVerifyAcrossPoliciesAndShapes) {
  const AcceleratorConfig cfg = accel_config();
  {
    Timeline tl;
    const ScheduledRun r = schedule_mha(cfg, tl, 64, 64, 512, 8);
    VerifyOptions opts;
    opts.program_order = true;  // Algorithm 1 is always pinned
    EXPECT_TRUE(verify_schedule(r.graph, r.stats, opts).ok());
  }
  {
    Timeline tl;
    const ScheduledRun r = schedule_ffn(cfg, tl, 64, 512, 2048);
    EXPECT_TRUE(verify_schedule(r.graph, r.stats).ok());
  }
  // The cached flows issue greedily; their graphs also verify when placed
  // in program order under the pin.
  std::vector<ScheduledRun> cached;
  {
    Timeline tl;  // serial decode: one slot appending its own row
    cached.push_back(schedule_mha_cached_batch(cfg, tl, {64}, 512, 8, 1));
  }
  for (const int slots : {1, 8, 16}) {
    Timeline tl;
    cached.push_back(schedule_mha_cached_batch(cfg, tl, greedy_totals(slots),
                                               512, 8, slots));
  }
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_TRUE(verify_schedule(cached[i].graph, cached[i].stats).ok())
        << "cached flow " << i;
    for (const IssuePolicy policy :
         {IssuePolicy::kGreedy, IssuePolicy::kProgramOrder})
      EXPECT_TRUE(verifies_under(cached[i], policy)) << "cached flow " << i;
  }
  for (const IssuePolicy policy :
       {IssuePolicy::kGreedy, IssuePolicy::kProgramOrder}) {
    Timeline tl;
    const FusedLane lane{decode_plans(greedy_totals(8), 128, 2, 512, 2), false};
    const FusedRun fused = schedule_fused_lanes(cfg, tl, {lane}, policy);
    VerifyOptions opts;
    opts.program_order = policy == IssuePolicy::kProgramOrder;
    EXPECT_TRUE(verify_fused(fused, opts).ok());
  }
}

// --- The canonical determinism hash ------------------------------------------

TEST(LedgerHash, IdenticalAcrossRebuildsOfTheSameShapes) {
  Timeline a_tl, b_tl;
  const ScheduledRun a = schedule_mha_cached_batch(
      accel_config(), a_tl, greedy_totals(16), 512, 8, 16);
  const ScheduledRun b = schedule_mha_cached_batch(
      accel_config(), b_tl, greedy_totals(16), 512, 8, 16);
  EXPECT_EQ(ledger_hash(a.graph, a.stats), ledger_hash(b.graph, b.stats));
  EXPECT_NE(ledger_hash(a.graph, a.stats), 0u);
}

TEST(LedgerHash, AnyPlacementShiftChangesTheHash) {
  Timeline tl;
  ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  const std::uint64_t before = ledger_hash(run.graph, run.stats);
  slide_op(run.graph, run.stats, run.stats.intervals.size() / 2,
           run.stats.intervals[run.stats.intervals.size() / 2].start + 1);
  EXPECT_NE(before, ledger_hash(run.graph, run.stats));
}

// --- One tampered-schedule test per diagnostic code --------------------------

TEST(TamperedSchedule, MissingIntervalsFireSchedCoverage) {
  Timeline tl;
  ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  run.stats.intervals.pop_back();
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kCoverage));
}

TEST(TamperedSchedule, StretchedIntervalFiresSchedDuration) {
  Timeline tl;
  ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  run.stats.intervals.back().end += 7;
  run.stats.result_ready.back() += 7;  // keep SCHED-RESULT out of the way
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kDuration));
}

TEST(TamperedSchedule, InconsistentResultTimeFiresSchedResult) {
  Timeline tl;
  ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  run.stats.result_ready.back() += 1;
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kResultTime));
}

TEST(TamperedSchedule, OpOutrunningItsProducerFiresSchedDep) {
  Timeline tl;
  ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  ASSERT_TRUE(verify_schedule(run.graph, run.stats).ok());
  // The last op (the LayerNorm tail) depends on every W2 block: cycle 0 is
  // long before any of them finished.
  slide_op(run.graph, run.stats, run.stats.intervals.size() - 1, 0);
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kDependency));
}

TEST(TamperedSchedule, OutrunningTheStationaryLoadFiresSchedWload) {
  // d's stationary operand is produced by k: d may start no earlier than
  // k's result plus the tile load. Sliding d to k.end + 10 (< +64) breaks
  // exactly that invariant — no data dep, no overlap, no cold load.
  OpGraph g;
  const int k = g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "k");
  const int d = g.add_sa({10, 10, 0}, {}, k, "d");
  Timeline tl;
  ScheduleStats st = schedule_ops(g, 64, IssuePolicy::kGreedy, tl);
  ASSERT_TRUE(verify_schedule(g, st).ok());
  slide_op(g, st, static_cast<std::size_t>(d),
           st.intervals[static_cast<std::size_t>(k)].end + 10);
  const VerifyResult res = verify_schedule(g, st);
  EXPECT_TRUE(has_code(res, DiagCode::kStationaryLoad));
  EXPECT_FALSE(has_code(res, DiagCode::kDependency));
}

TEST(TamperedSchedule, SkippingTheColdLoadFiresSchedCold) {
  Timeline tl;
  ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  // The first SA op has no deps and static weights; sliding it to cycle 0
  // creates no dep violation or overlap — only the skipped 64-cycle load.
  ASSERT_EQ(run.stats.intervals.front().start,
            accel_config().weight_load_cycles);
  slide_op(run.graph, run.stats, 0, 0);
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kColdLoad));
  EXPECT_FALSE(has_code(res, DiagCode::kDependency));
}

TEST(TamperedSchedule, DoubleBookedResourceFiresSchedOverlap) {
  // Two independent equal-shape SA ops stacked onto the same cycles: the
  // only broken invariant is single occupancy.
  OpGraph g;
  g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "a");
  const int b = g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "b");
  Timeline tl;
  ScheduleStats st = schedule_ops(g, 64, IssuePolicy::kGreedy, tl);
  ASSERT_TRUE(verify_schedule(g, st).ok());
  slide_op(g, st, static_cast<std::size_t>(b), st.intervals[0].start);
  const VerifyResult res = verify_schedule(g, st);
  EXPECT_TRUE(has_code(res, DiagCode::kOverlap));
  EXPECT_FALSE(has_code(res, DiagCode::kColdLoad));
}

TEST(TamperedSchedule, BrokenPrefetchChainFiresSchedChain) {
  // A fused decode step carries one WeightLoad prefetch per sublayer
  // boundary. Yanking one load back to cycle 0 makes it start while an
  // earlier tile still sits unconsumed in the single-residency buffer.
  Timeline tl;
  const FusedLane lane{decode_plans(greedy_totals(8), 128, 2, 512, 2), false};
  FusedRun run =
      schedule_fused_lanes(accel_config(), tl, {lane}, IssuePolicy::kGreedy);
  ASSERT_TRUE(verify_fused(run).ok());
  std::vector<std::size_t> loads;
  for (std::size_t i = 0; i < run.graph.ops().size(); ++i)
    if (run.graph.ops()[i].resource == OpResource::kWeightLoad)
      loads.push_back(i);
  ASSERT_GE(loads.size(), 2u);
  slide_op(run.graph, run.stats, loads.back(), 0);
  const VerifyResult res = verify_fused(run);
  EXPECT_TRUE(has_code(res, DiagCode::kPrefetchChain));
}

TEST(TamperedSchedule, GreedyInterleavingUnderThePinFiresSchedOrder) {
  // A greedy-built packed schedule genuinely reorders ops (that is the PR 4
  // win); verifying it against the program-order pin must object. The same
  // graph placed in program order verifies clean under the pin.
  Timeline greedy_tl;
  const ScheduledRun greedy = schedule_mha_cached_batch(
      accel_config(), greedy_tl, greedy_totals(16), 64, 1, 16);
  VerifyOptions pin;
  pin.program_order = true;
  EXPECT_TRUE(has_code(verify_schedule(greedy.graph, greedy.stats, pin),
                       DiagCode::kProgramOrder));
  EXPECT_TRUE(verifies_under(greedy, IssuePolicy::kProgramOrder));
}

TEST(TamperedSchedule, InterleavedChainedLanesFireSchedLane) {
  // The decode lane chains its sublayers through the residual stream:
  // faking segment overlap inside that one lane must trip the lane rule.
  Timeline tl;
  const FusedLane lane{decode_plans(greedy_totals(8), 128, 2, 512, 1), false};
  FusedRun run =
      schedule_fused_lanes(accel_config(), tl, {lane}, IssuePolicy::kGreedy);
  ASSERT_TRUE(verify_fused(run).ok());
  ASSERT_GE(run.segments.size(), 2u);
  ASSERT_EQ(run.segments[0].lane, run.segments[1].lane);
  run.segments[1].sa_start = run.segments[0].sa_start;
  const VerifyResult res = verify_fused(run);
  EXPECT_TRUE(has_code(res, DiagCode::kLaneInterleave));
}

TEST(TamperedSchedule, WrongExpectedHashFiresSchedHash) {
  Timeline tl;
  const ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  VerifyOptions opts;
  opts.expect_hash = ledger_hash(run.graph, run.stats) ^ 0x5aa5u;
  const VerifyResult res = verify_schedule(run.graph, run.stats, opts);
  EXPECT_TRUE(has_code(res, DiagCode::kHashMismatch));
  opts.expect_hash ^= 0x5aa5u;
  EXPECT_TRUE(verify_schedule(run.graph, run.stats, opts).ok());
}

// --- Structured diagnostics --------------------------------------------------

TEST(Diagnostics, CarryOpIdsResourceAndCycleInterval) {
  Timeline tl;
  ScheduledRun run = schedule_ffn(accel_config(), tl, 8, 64, 256);
  const std::size_t last = run.stats.intervals.size() - 1;
  slide_op(run.graph, run.stats, last, 0);
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  ASSERT_FALSE(res.diags.empty());
  const auto it =
      std::find_if(res.diags.begin(), res.diags.end(), [](const Diagnostic& d) {
        return d.code == DiagCode::kDependency;
      });
  ASSERT_NE(it, res.diags.end());
  EXPECT_EQ(it->op, static_cast<int>(last));
  EXPECT_GE(it->other, 0);  // the outrun producer
  EXPECT_EQ(it->begin, 0);
  // The formatted message names the code, op, resource, and interval.
  EXPECT_NE(it->message.find("[SCHED-DEP]"), std::string::npos);
  EXPECT_NE(it->message.find("op " + std::to_string(last)), std::string::npos);
  EXPECT_NE(it->message.find(op_resource_name(it->resource)),
            std::string::npos);
  EXPECT_NE(it->message.find("[0,"), std::string::npos);
}

TEST(Diagnostics, StableCodeNamesNeverChange) {
  EXPECT_STREQ(diag_code_name(DiagCode::kCoverage), "SCHED-COVERAGE");
  EXPECT_STREQ(diag_code_name(DiagCode::kDuration), "SCHED-DURATION");
  EXPECT_STREQ(diag_code_name(DiagCode::kResultTime), "SCHED-RESULT");
  EXPECT_STREQ(diag_code_name(DiagCode::kDependency), "SCHED-DEP");
  EXPECT_STREQ(diag_code_name(DiagCode::kStationaryLoad), "SCHED-WLOAD");
  EXPECT_STREQ(diag_code_name(DiagCode::kColdLoad), "SCHED-COLD");
  EXPECT_STREQ(diag_code_name(DiagCode::kOverlap), "SCHED-OVERLAP");
  EXPECT_STREQ(diag_code_name(DiagCode::kPrefetchChain), "SCHED-CHAIN");
  EXPECT_STREQ(diag_code_name(DiagCode::kProgramOrder), "SCHED-ORDER");
  EXPECT_STREQ(diag_code_name(DiagCode::kLaneInterleave), "SCHED-LANE");
  EXPECT_STREQ(diag_code_name(DiagCode::kHashMismatch), "SCHED-HASH");
}

// --- The verify_schedules accelerator knob -----------------------------------

TEST(VerifyKnob, ParanoidAcceleratorVerifiesEveryLedgerItBuilds) {
  AcceleratorConfig cfg;
  cfg.verify_schedules = true;
  const Accelerator acc(cfg);
  EXPECT_NO_THROW(acc.time_mha(64, 64, 512, 8));
  EXPECT_NO_THROW(acc.time_ffn(64, 512, 2048));
  EXPECT_NO_THROW(acc.time_mha_cached(64, 512, 8, 1));
  std::vector<FusedLane> lanes;
  lanes.push_back(FusedLane{decode_plans(greedy_totals(8), 128, 2, 512, 1),
                            false});
  EXPECT_NO_THROW(acc.time_step(lanes));
}

}  // namespace
}  // namespace tfacc
