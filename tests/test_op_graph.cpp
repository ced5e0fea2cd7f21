// Tests for the dependency-driven schedules (PR 4): legality audits over
// every rebuilt flow (no resource double-booking, no op outrunning its
// operands), the one-slot cached flow's exact cycle counts, the pipelined
// softmax model, per-edge slack/stall semantics, and the interleaving win
// over the same graphs placed in strict program order.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/verifier.hpp"
#include "core/schedules.hpp"

namespace tfacc {
namespace {

AcceleratorConfig accel_config() { return AcceleratorConfig{}; }

// The same graph placed in strict program order: the pre-interleaving
// controller, still available as a scheduler policy.
ScheduledRun in_program_order(const ScheduledRun& run, Timeline& tl) {
  ScheduledRun po{run.graph, {}};
  po.stats = schedule_ops(po.graph, accel_config().weight_load_cycles,
                          IssuePolicy::kProgramOrder, tl);
  return po;
}

void expect_legal(const ScheduledRun& run, const std::string& what,
                  bool program_order = false) {
  VerifyOptions opts;
  opts.program_order = program_order;
  const VerifyResult res = verify_schedule(run.graph, run.stats, opts);
  EXPECT_TRUE(res.ok()) << what << "\n" << res.to_string();
}

// The cached flows issue greedily; their graphs must also place legally in
// program order (and satisfy the program-order pin there).
void expect_legal_both_policies(const ScheduledRun& greedy,
                                const std::string& what) {
  expect_legal(greedy, what + " greedy");
  Timeline tl;
  expect_legal(in_program_order(greedy, tl), what + " program-order",
               /*program_order=*/true);
}

// --- Legality audits over every rebuilt flow ---------------------------------

TEST(ScheduleAudit, FullMhaFlowIsLegal) {
  Timeline tl;
  expect_legal(schedule_mha(accel_config(), tl, 64, 64, 512, 8),
               "mha 64x64 h8");
  Timeline cross;
  expect_legal(schedule_mha(accel_config(), cross, 5, 24, 128, 2),
               "mha cross 5x24 h2");
  AcceleratorConfig serial = accel_config();
  serial.overlap_softmax = false;
  Timeline ts;
  expect_legal(schedule_mha(serial, ts, 64, 64, 512, 8),
               "mha without softmax overlap");
}

TEST(ScheduleAudit, CachedFlowIsLegalBothPoliciesAndProjections) {
  for (const int project : {0, 1, 64}) {
    Timeline tl;
    expect_legal_both_policies(
        schedule_mha_cached_batch(accel_config(), tl, {64}, 512, 8, project),
        "cached slots=1 project=" + std::to_string(project));
  }
}

// Slot shapes the serve scheduler produces: greedy decode packs distinct
// sentences (ragged totals), beam search packs sibling hypotheses of the
// same sentence (duplicate totals).
std::vector<int> greedy_totals(int slots) {
  std::vector<int> totals;
  for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
  return totals;
}

std::vector<int> beam_totals(int slots) {
  std::vector<int> totals;
  for (int r = 0; r < slots; ++r) totals.push_back(4 + 3 * (r / 4));
  return totals;
}

TEST(ScheduleAudit, BatchFlowIsLegalAcrossSlotShapesAndPolicies) {
  for (const int slots : {1, 8, 16})
    for (const bool beam : {false, true}) {
      const std::vector<int> totals =
          beam ? beam_totals(slots) : greedy_totals(slots);
      for (const int heads : {1, 8}) {
        for (const int project : {0, slots}) {
          Timeline tl;
          expect_legal_both_policies(
              schedule_mha_cached_batch(accel_config(), tl, totals,
                                        heads * 64, heads, project),
              std::string(beam ? "beam" : "greedy") + " slots=" +
                  std::to_string(slots) + " heads=" + std::to_string(heads) +
                  " project=" + std::to_string(project));
        }
      }
    }
}

TEST(ScheduleAudit, FfnFlowIsLegal) {
  Timeline tl;
  expect_legal(schedule_ffn(accel_config(), tl, 64, 512, 2048), "ffn 64");
  Timeline tiny;
  expect_legal(schedule_ffn(accel_config(), tiny, 1, 64, 256), "ffn 1-row");
}

// --- One-slot cached flow --------------------------------------------------

// Serial incremental decode is the one-slot batch flow. Its makespans are
// pinned to the cycle counts of the retired single-row builder,
// schedule_mha_cached(cfg, tl, 1, s_total, heads * 64, heads, project), so
// rerouting serial decode through the packed flow moved no interval. The
// project = s_total column is the first cross-attention step of
// FullModelScheduler::greedy_decode (the whole encoder memory projected).
TEST(BatchDegenerate, OneSlotIsCycleIdenticalToCachedAcrossProjections) {
  const struct {
    int heads, s_total;
    Cycle cycles[3];  // project = 0, 1, s_total
  } pins[] = {
      {1, 1, {182, 246, 246}},       {1, 7, {194, 258, 264}},
      {1, 64, {308, 372, 452}},      {1, 200, {964, 1028, 1524}},
      {8, 1, {8050, 15362, 15362}},  {8, 7, {8062, 15374, 15470}},
      {8, 64, {8176, 15488, 17392}}, {8, 200, {11520, 18832, 47360}},
  };
  for (const auto& pin : pins) {
    const int projects[] = {0, 1, pin.s_total};
    for (int i = 0; i < 3; ++i) {
      Timeline tl;
      (void)schedule_mha_cached_batch(accel_config(), tl, {pin.s_total},
                                      pin.heads * 64, pin.heads, projects[i]);
      EXPECT_EQ(tl.end_time(), pin.cycles[i])
          << "heads=" << pin.heads << " s_total=" << pin.s_total
          << " project=" << projects[i];
    }
  }
}

// --- The interleaving win ----------------------------------------------------

// Exact makespans, pinned: greedy 391 / 563 cycles at 8 / 16 slots versus
// 598 / 986 for the same graphs in program order.
TEST(Interleaving, GreedyBeatsProgramOrderOnPackedSlots) {
  const struct {
    int slots;
    Cycle greedy, program;
  } pins[] = {{8, 391, 598}, {16, 563, 986}};
  for (const auto& pin : pins) {
    Timeline greedy_tl, program_tl;
    const ScheduledRun greedy =
        schedule_mha_cached_batch(accel_config(), greedy_tl,
                                  greedy_totals(pin.slots), 64, 1, pin.slots);
    in_program_order(greedy, program_tl);
    EXPECT_EQ(greedy_tl.end_time(), pin.greedy) << pin.slots << " slots";
    EXPECT_EQ(program_tl.end_time(), pin.program) << pin.slots << " slots";
  }
}

TEST(Interleaving, StallShrinksVersusProgramOrder) {
  Timeline greedy_tl, program_tl;
  const ScheduledRun greedy = schedule_mha_cached_batch(
      accel_config(), greedy_tl, greedy_totals(16), 64, 1, 16);
  const ScheduledRun program = in_program_order(greedy, program_tl);
  EXPECT_EQ(greedy.stats.softmax_stall, 31);
  EXPECT_EQ(program.stats.softmax_stall, 439);
  // Per-edge accounting covers every softmax→AV edge in both policies.
  EXPECT_EQ(greedy.stats.softmax_edges, 16);
  EXPECT_EQ(program.stats.softmax_edges, 16);
}

TEST(Interleaving, SchedulesAreDeterministic) {
  Timeline a_tl, b_tl;
  const ScheduledRun a = schedule_mha_cached_batch(
      accel_config(), a_tl, greedy_totals(16), 512, 8, 16);
  const ScheduledRun b = schedule_mha_cached_batch(
      accel_config(), b_tl, greedy_totals(16), 512, 8, 16);
  ASSERT_EQ(a.stats.intervals.size(), b.stats.intervals.size());
  for (std::size_t i = 0; i < a.stats.intervals.size(); ++i) {
    EXPECT_EQ(a.stats.intervals[i].start, b.stats.intervals[i].start);
    EXPECT_EQ(a_tl.label(a.stats.intervals[i]),
              b_tl.label(b.stats.intervals[i]));
  }
}

// --- Scheduler kernel semantics ----------------------------------------------

TEST(OpGraphScheduler, PipelinedSoftmaxOverlapsBackToBackRows) {
  // Two independent score rows: the second softmax enters the pipeline as
  // soon as the first's occupancy ends — the fill depth is paid once per
  // row as result latency, not as unit occupancy.
  AcceleratorConfig cfg = accel_config();
  OpGraph g;
  const OpGraph::SaCost cost{9, 1, 0};
  const int d0 = g.add_sa(cost, {}, OpNode::kStaticWeight, "d0");
  const int d1 = g.add_sa(cost, {}, OpNode::kStaticWeight, "d1");
  const int sm0 = g.add_softmax(20, cfg.softmax_pipeline_depth, d0, "sm0");
  const int sm1 = g.add_softmax(20, cfg.softmax_pipeline_depth, d1, "sm1");
  Timeline tl;
  const ScheduleStats st =
      schedule_ops(g, cfg.weight_load_cycles, IssuePolicy::kGreedy, tl);
  EXPECT_EQ(st.intervals[static_cast<std::size_t>(sm1)].start,
            st.intervals[static_cast<std::size_t>(sm0)].end);
  // Results still drain a full pipeline depth after occupancy.
  EXPECT_EQ(st.result_ready[static_cast<std::size_t>(sm0)],
            st.intervals[static_cast<std::size_t>(sm0)].end +
                cfg.softmax_pipeline_depth);
}

TEST(OpGraphScheduler, IsolatedSoftmaxLatencyMatchesPrePipelineModel) {
  // An isolated softmax still delays its consumer by occupancy + depth —
  // the pre-PR-4 duration — so single-sentence flows time identically.
  AcceleratorConfig cfg = accel_config();
  OpGraph g;
  const int d = g.add_sa({9, 1, 0}, {}, OpNode::kStaticWeight, "d");
  const int sm = g.add_softmax(2 * 64, cfg.softmax_pipeline_depth, d, "sm");
  const int av = g.add_sa({9, 1, 0}, {sm}, OpNode::kStaticWeight, "av", sm);
  Timeline tl;
  const ScheduleStats st =
      schedule_ops(g, cfg.weight_load_cycles, IssuePolicy::kGreedy, tl);
  EXPECT_EQ(st.intervals[static_cast<std::size_t>(av)].start,
            st.intervals[static_cast<std::size_t>(sm)].end +
                cfg.softmax_pipeline_depth);
  // The SA idled the whole wait: charged as a per-edge stall, slack < 0.
  EXPECT_GT(st.softmax_stall, 0);
  EXPECT_LT(st.softmax_slack_min, 0);
  EXPECT_EQ(st.softmax_edges, 1);
}

TEST(OpGraphScheduler, FirstSaOpPaysTheColdWeightLoad) {
  OpGraph g;
  g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "a");
  g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "b");
  Timeline tl;
  const ScheduleStats st = schedule_ops(g, 64, IssuePolicy::kGreedy, tl);
  EXPECT_EQ(st.intervals[0].start, 64);  // cold load exposed
  EXPECT_EQ(st.intervals[1].start, 74);  // prefetched under op a
  EXPECT_EQ(st.sa_exposed_load, 64);
}

TEST(OpGraphScheduler, DynamicWeightWaitsForProducerPlusLoad) {
  OpGraph g;
  const int k = g.add_sa({10, 10, 0}, {}, OpNode::kStaticWeight, "k");
  const int d = g.add_sa({10, 10, 0}, {}, k, "d");
  Timeline tl;
  const ScheduleStats st = schedule_ops(g, 64, IssuePolicy::kGreedy, tl);
  // k: cold load 64 + 10 busy; d: k's result + its own 64-cycle tile load.
  EXPECT_EQ(st.intervals[static_cast<std::size_t>(d)].start,
            st.intervals[static_cast<std::size_t>(k)].end + 64);
}

TEST(OpGraphScheduler, RejectsForwardDependencies) {
  OpGraph g;
  EXPECT_THROW(g.add_sa({1, 1, 0}, {0}, OpNode::kStaticWeight, "self"),
               CheckError);
  EXPECT_THROW(g.add_sa({1, 1, 0}, {}, 3, "future-weight"), CheckError);
}

}  // namespace
}  // namespace tfacc
