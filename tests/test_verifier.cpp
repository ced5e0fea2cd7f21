// Tests for the typed schedule verifier (PR 7): one tampered-schedule test
// per diagnostic code asserting the EXACT code fires, positive sweeps over
// every flow as a step ledger, canonical-hash determinism/sensitivity, the
// structured Diagnostic fields, and the AcceleratorConfig::verify_schedules
// hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verifier.hpp"
#include "core/accelerator.hpp"
#include "core/schedules.hpp"

namespace tfacc {
namespace {

AcceleratorConfig accel_config() { return AcceleratorConfig{}; }

// `sub` as the only lane of a step ledger, placed under `policy`: how the
// accelerator times one standalone ResBlock.
FusedRun one_lane(const SublayerPlan& sub, Timeline& tl,
                  IssuePolicy policy = IssuePolicy::kGreedy) {
  return schedule_fused_lanes(accel_config(), tl, {FusedLane{{sub}, false}},
                              policy);
}

// A small FFN: the tampered-schedule tests' victim.
SublayerPlan small_ffn() { return SublayerPlan::ffn({}, 8, 64, 256); }

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

/// `sub`'s one-lane ledger placed under `policy`, verified with the
/// matching program-order pin.
bool verifies_under(const SublayerPlan& sub, IssuePolicy policy) {
  Timeline tl;
  VerifyOptions opts;
  opts.program_order = policy == IssuePolicy::kProgramOrder;
  return verify_fused(one_lane(sub, tl, policy), opts).ok();
}

TEST(Verifier, CleanBuildersVerifyAcrossPoliciesAndShapes) {
  const AcceleratorConfig cfg = accel_config();
  // Algorithm 1 is always pinned to program order.
  EXPECT_TRUE(verifies_under(SublayerPlan::mha({}, 64, 64, 512, 8),
                             IssuePolicy::kProgramOrder));
  EXPECT_TRUE(verifies_under(SublayerPlan::ffn({}, 64, 512, 2048),
                             IssuePolicy::kGreedy));
  // The cached flows issue greedily; their graphs also verify when placed
  // in program order under the pin.
  std::vector<SublayerPlan> cached;
  // Serial decode: one slot appending its own row.
  cached.push_back(SublayerPlan::mha_cached_batch({}, {64}, 512, 8, 1));
  for (const int slots : {1, 8, 16})
    cached.push_back(SublayerPlan::mha_cached_batch({}, greedy_totals(slots),
                                                    512, 8, slots));
  for (std::size_t i = 0; i < cached.size(); ++i)
    for (const IssuePolicy policy :
         {IssuePolicy::kGreedy, IssuePolicy::kProgramOrder})
      EXPECT_TRUE(verifies_under(cached[i], policy)) << "cached flow " << i;
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
  const SublayerPlan sub =
      SublayerPlan::mha_cached_batch({}, greedy_totals(16), 512, 8, 16);
  Timeline a_tl, b_tl;
  const FusedRun a = one_lane(sub, a_tl);
  const FusedRun b = one_lane(sub, b_tl);
  EXPECT_EQ(ledger_hash(a.graph, a.stats), ledger_hash(b.graph, b.stats));
  EXPECT_NE(ledger_hash(a.graph, a.stats), 0u);
}

TEST(LedgerHash, AnyPlacementShiftChangesTheHash) {
  Timeline tl;
  FusedRun run = one_lane(small_ffn(), tl);
  const std::uint64_t before = ledger_hash(run.graph, run.stats);
  slide_op(run.graph, run.stats, run.stats.intervals.size() / 2,
           run.stats.intervals[run.stats.intervals.size() / 2].start + 1);
  EXPECT_NE(before, ledger_hash(run.graph, run.stats));
}

// --- Ledger identity, pinned -------------------------------------------------

/// FNV-1a 64 over a ledger's write_csv text: every module row, interval and
/// label, byte for byte.
std::uint64_t csv_fnv(const Timeline& tl) {
  std::ostringstream os;
  tl.write_csv(os);
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Standalone ResBlocks as one-lane ledgers at the design point: end cycles,
// canonical hash and CSV text. Any change to a placement, a label or the
// module order moves at least one of them. Each CSV is the retired
// standalone builder's text plus one row, the ledger's cold load
// "WeightLoad,0,64,prefetch".
TEST(LedgerIdentity, StandaloneBuildersArePinned) {
  {
    Timeline tl;
    const FusedRun r = one_lane(SublayerPlan::mha({}, 64, 64, 512, 8), tl,
                                IssuePolicy::kProgramOrder);
    EXPECT_EQ(tl.end_time(), 21188);
    EXPECT_EQ(ledger_hash(r.graph, r.stats), 0x8e8e6cede3d23fd5ULL);
    EXPECT_EQ(csv_fnv(tl), 0x6d6f6042d4d7ae5fULL);
  }
  {
    Timeline tl;
    const FusedRun r = one_lane(SublayerPlan::ffn({}, 64, 512, 2048), tl);
    EXPECT_EQ(tl.end_time(), 40516);
    EXPECT_EQ(ledger_hash(r.graph, r.stats), 0xe28ab9e63e0a4ddbULL);
    EXPECT_EQ(csv_fnv(tl), 0x680cdda04ee02c73ULL);
  }
  {
    Timeline tl;
    const FusedRun r = one_lane(
        SublayerPlan::mha_cached_batch({}, {3, 7, 12}, 512, 8, 3), tl);
    EXPECT_EQ(tl.end_time(), 15723);
    EXPECT_EQ(ledger_hash(r.graph, r.stats), 0xbec581406d260d1cULL);
    EXPECT_EQ(csv_fnv(tl), 0xd245bef0fb02de30ULL);
  }
}

// A mixed step as DecodeStepFuser::end_step composes it: two prefill chunk
// lanes (one MHA with its K/V projection, one FFN), then the chained decode
// lane. Verified, so the report carries the canonical hash.
TEST(LedgerIdentity, MixedStepIsPinned) {
  AcceleratorConfig cfg = accel_config();
  cfg.verify_schedules = true;
  const Accelerator acc(cfg);
  const FusedLane decode{
      {SublayerPlan::mha_cached_batch("sub0", {3, 4, 5}, 64, 1, 3),
       SublayerPlan::mha_cached_batch("sub1", {9, 9, 9}, 64, 1, 0),
       SublayerPlan::ffn("sub2", 3, 64, 256)},
      false};
  const RunReport mixed = acc.time_step(
      {FusedLane{{SublayerPlan::mha_prefill("s1.enc0.c0", 8, 12, 64, 1, 12)},
                 true},
       FusedLane{{SublayerPlan::ffn("s2.enc1.c0", 16, 64, 256)}, true},
       decode});
  EXPECT_EQ(mixed.total_cycles, 1205);
  EXPECT_EQ(mixed.ledger_hash, 0xe8b31b2b3af20f4cULL);
  EXPECT_EQ(csv_fnv(mixed.timeline), 0x49e20b514de03669ULL);
  EXPECT_EQ(mixed.prefill_stall, 440);
  EXPECT_EQ(mixed.boundary_stall, 268);
  EXPECT_EQ(acc.time_step({decode}).total_cycles, 765);
}

// --- Labels rendered on demand -----------------------------------------------

/// The label column of every write_csv row, keyed by (module, start).
std::map<std::pair<std::string, Cycle>, std::string> csv_labels(
    const Timeline& tl) {
  std::ostringstream os;
  tl.write_csv(os);
  std::istringstream in(os.str());
  std::map<std::pair<std::string, Cycle>, std::string> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::size_t a = line.find(',');
    const std::size_t b = line.find(',', a + 1);
    const std::size_t c = line.find(',', b + 1);
    rows[{line.substr(0, a), std::stoll(line.substr(a + 1, b - a - 1))}] =
        line.substr(c + 1);
  }
  return rows;
}

/// ledger_hash by the rule verifier.hpp documents, from label strings.
std::uint64_t reference_hash(const OpGraph& g, const ScheduleStats& st,
                             const std::vector<std::string>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  mix_u64(static_cast<std::uint64_t>(g.size()));
  mix_u64(static_cast<std::uint64_t>(st.weight_load_cycles));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    mix_u64(static_cast<std::uint64_t>(g.ops()[i].resource));
    mix_u64(labels[i].size());
    for (const char c : labels[i]) mix_byte(static_cast<unsigned char>(c));
    mix_u64(static_cast<std::uint64_t>(st.intervals[i].start));
    mix_u64(static_cast<std::uint64_t>(st.intervals[i].end));
    mix_u64(static_cast<std::uint64_t>(st.result_ready[i]));
  }
  return h;
}

/// Every op's rendered label is the label of its write_csv row, and the
/// canonical hash is the reference hash over those rows' labels.
void expect_labels_render_consistently(const OpGraph& g,
                                       const ScheduleStats& st,
                                       const Timeline& tl,
                                       const std::string& what) {
  const auto rows = csv_labels(tl);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(g.size())) << what;
  std::vector<std::string> labels;
  for (int i = 0; i < g.size(); ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const auto row = rows.find(
        {op_resource_name(g.ops()[ui].resource), st.intervals[ui].start});
    ASSERT_NE(row, rows.end()) << what << ": op " << i;
    EXPECT_EQ(g.label(i), row->second) << what << ": op " << i;
    EXPECT_EQ(tl.label(st.intervals[ui]), row->second) << what;
    labels.push_back(row->second);
  }
  EXPECT_EQ(ledger_hash(g, st), reference_hash(g, st, labels)) << what;
}

TEST(LabelRendering, BuilderLabelsMatchCsvRowsAndHash) {
  // Three-digit heads and slots; sublayer labels longer than the
  // small-string buffer (16+ chars), longer than the hash's stack buffer
  // (200+ chars), and empty (no prefix).
  const std::string long_label(230, 'L');
  std::vector<int> many_slots;
  for (int r = 0; r < 101; ++r) many_slots.push_back(1 + r % 13);
  const FusedLane lane{
      {SublayerPlan::mha_cached_batch("s123.enc0.c17.self", many_slots, 64,
                                      1, 101),
       SublayerPlan::mha_cached_batch(long_label, {5, 9}, 101 * 64, 101, 0),
       SublayerPlan::ffn("", 2, 64, 256)},
      false};
  Timeline tl;
  const FusedRun run = schedule_fused_lanes(accel_config(), tl, {lane},
                                            IssuePolicy::kGreedy);
  ASSERT_TRUE(verify_fused(run).ok());
  expect_labels_render_consistently(run.graph, run.stats, tl, "fused");
  // Spot-check the rendering rule itself.
  std::vector<std::string> all;
  for (int i = 0; i < run.graph.size(); ++i) all.push_back(run.graph.label(i));
  for (const char* want :
       {"s123.enc0.c17.self.prefetch", "s123.enc0.c17.self.head0.slot100.QKt",
        "s123.enc0.c17.self.head0.slot100.softmax", "s123.enc0.c17.self.G0",
        "prefetch", "H3", "LayerNorm"})
    EXPECT_NE(std::find(all.begin(), all.end(), want), all.end()) << want;
  EXPECT_NE(std::find(all.begin(), all.end(), long_label + ".head100.QWq"),
            all.end());
  EXPECT_NE(
      std::find(all.begin(), all.end(), long_label + ".head100.slot1.AV"),
      all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), long_label + ".G100"),
            all.end());
}

TEST(LabelRendering, FreeTextLabelsMatchCsvRowsAndHash) {
  const std::string long_text(300, 't');
  OpGraph g;
  const int k = g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "k");
  const int d = g.add_sa({10, 10, 0}, {}, k, std::string("d with spaces"));
  const int sm = g.add_softmax(20, 4, d, long_text);
  g.add_sa({9, 1, 0}, {sm}, OpNode::kStaticWeight, "", sm);
  g.add_layernorm(7, {sm}, "head0.LayerNorm");
  Timeline tl;
  const ScheduleStats st = schedule_ops(g, 64, IssuePolicy::kGreedy, tl);
  ASSERT_TRUE(verify_schedule(g, st).ok());
  EXPECT_EQ(g.label(sm), long_text);
  EXPECT_EQ(g.label(3), "");
  expect_labels_render_consistently(g, st, tl, "free text");
}

// --- One tampered-schedule test per diagnostic code --------------------------

TEST(TamperedSchedule, MissingIntervalsFireSchedCoverage) {
  Timeline tl;
  FusedRun run = one_lane(small_ffn(), tl);
  run.stats.intervals.pop_back();
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kCoverage));
}

TEST(TamperedSchedule, StretchedIntervalFiresSchedDuration) {
  Timeline tl;
  FusedRun run = one_lane(small_ffn(), tl);
  run.stats.intervals.back().end += 7;
  run.stats.result_ready.back() += 7;  // keep SCHED-RESULT out of the way
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kDuration));
}

TEST(TamperedSchedule, InconsistentResultTimeFiresSchedResult) {
  Timeline tl;
  FusedRun run = one_lane(small_ffn(), tl);
  run.stats.result_ready.back() += 1;
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  EXPECT_TRUE(has_code(res, DiagCode::kResultTime));
}

TEST(TamperedSchedule, OpOutrunningItsProducerFiresSchedDep) {
  Timeline tl;
  FusedRun run = one_lane(small_ffn(), tl);
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
  // A graph with no WeightLoad op: its first SA op pays the cold load
  // implicitly. That op has no deps and static weights; sliding it to cycle
  // 0 creates no dep violation or overlap — only the skipped 64-cycle load.
  OpGraph g;
  g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "a");
  g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "b");
  Timeline tl;
  ScheduleStats st = schedule_ops(g, 64, IssuePolicy::kGreedy, tl);
  ASSERT_TRUE(verify_schedule(g, st).ok());
  ASSERT_EQ(st.intervals.front().start, 64);
  slide_op(g, st, 0, 0);
  const VerifyResult res = verify_schedule(g, st);
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
  const SublayerPlan sub =
      SublayerPlan::mha_cached_batch({}, greedy_totals(16), 64, 1, 16);
  Timeline greedy_tl;
  const FusedRun greedy = one_lane(sub, greedy_tl);
  VerifyOptions pin;
  pin.program_order = true;
  EXPECT_TRUE(has_code(verify_schedule(greedy.graph, greedy.stats, pin),
                       DiagCode::kProgramOrder));
  EXPECT_TRUE(verifies_under(sub, IssuePolicy::kProgramOrder));
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
  const FusedRun run = one_lane(small_ffn(), tl);
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
  FusedRun run = one_lane(small_ffn(), tl);
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
