// Tests for the fused cross-sublayer decode-step ledger (PR 5): legality of
// spliced schedules across sublayer seams (no SA/Softmax/LayerNorm
// double-booking, weight-tile single-residency respected by the prefetch
// port), the plan shape checks, the cold-load-collapse arithmetic, the
// DecodeStepFuser lifecycle, the serve-scheduler integration (bit-identical
// outputs, pinned step ledgers), the serial-decode totals of the same one
// timing path, and the StreamReport model rebased on a two-invocation fused
// ledger.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/verifier.hpp"
#include "core/backend.hpp"
#include "nlp/synthetic.hpp"
#include "quant/qtransformer.hpp"
#include "reference/weights.hpp"
#include "serve/scheduler.hpp"

namespace tfacc {
namespace {

constexpr IssuePolicy kPolicies[] = {IssuePolicy::kGreedy,
                                     IssuePolicy::kProgramOrder};

const char* policy_name(IssuePolicy policy) {
  return policy == IssuePolicy::kGreedy ? " greedy" : " program-order";
}

// The sublayer sequence the packed decode step issues for `blocks` decoder
// blocks: self MHA (appending this step's K/V rows), cross MHA (fully
// cached), FFN.
std::vector<SublayerPlan> decode_step_plan(const std::vector<int>& totals,
                                           int d_model, int num_heads,
                                           int d_ff, int blocks) {
  const int n = static_cast<int>(totals.size());
  std::vector<int> cross_totals(totals.size(), 9);
  std::vector<SublayerPlan> subs;
  for (int b = 0; b < blocks; ++b) {
    const std::string dec = "dec" + std::to_string(b);
    subs.push_back(SublayerPlan::mha_cached_batch(dec + ".self", totals,
                                                  d_model, num_heads, n));
    subs.push_back(SublayerPlan::mha_cached_batch(dec + ".cross",
                                                  cross_totals, d_model,
                                                  num_heads, 0));
    subs.push_back(SublayerPlan::ffn(dec + ".ffn", n, d_model, d_ff));
  }
  return subs;
}

std::vector<int> greedy_totals(int slots) {
  std::vector<int> totals;
  for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
  return totals;
}

// One lane chaining `subs` through the residual stream: the packed decode
// step.
std::vector<FusedLane> chained(const std::vector<SublayerPlan>& subs) {
  return {FusedLane{subs, false}};
}

// One single-sublayer lane per plan: independent back-to-back invocations
// (workload streaming) that share only the hardware and the prefetch port.
std::vector<FusedLane> unchained(const std::vector<SublayerPlan>& subs) {
  std::vector<FusedLane> lanes;
  for (const SublayerPlan& sub : subs) lanes.push_back(FusedLane{{sub}, false});
  return lanes;
}

// --- Legality across sublayer seams ------------------------------------------

TEST(FusedAudit, DecodeStepLedgerIsLegalAcrossShapesAndPolicies) {
  for (const IssuePolicy policy : kPolicies)
    for (const int slots : {1, 8, 16})
      for (const int heads : {1, 8})
        for (const int blocks : {1, 2}) {
          Timeline tl;
          const FusedRun fused = schedule_fused_lanes(
              AcceleratorConfig{}, tl,
              chained(decode_step_plan(greedy_totals(slots), heads * 64,
                                       heads, 4 * heads * 64, blocks)),
              policy);
          VerifyOptions opts;
          opts.program_order = policy == IssuePolicy::kProgramOrder;
          const VerifyResult res = verify_fused(fused, opts);
          EXPECT_TRUE(res.ok())
              << "slots=" << slots << " heads=" << heads << " blocks="
              << blocks << policy_name(policy) << "\n" << res.to_string();
          ASSERT_EQ(fused.segments.size(),
                    static_cast<std::size_t>(3 * blocks));
        }
}

TEST(FusedAudit, UnchainedStreamLedgerIsLegal) {
  const SublayerPlan mha = SublayerPlan::mha("mha", 64, 64, 512, 8);
  const SublayerPlan ffn = SublayerPlan::ffn("ffn", 64, 512, 2048);
  for (const auto& subs :
       {std::vector<SublayerPlan>{mha, mha},
        std::vector<SublayerPlan>{ffn, ffn, ffn}}) {
    Timeline tl;
    const FusedRun fused = schedule_fused_lanes(
        AcceleratorConfig{}, tl, unchained(subs), IssuePolicy::kProgramOrder);
    VerifyOptions opts;
    opts.program_order = true;
    const VerifyResult res = verify_fused(fused, opts);
    EXPECT_TRUE(res.ok()) << res.to_string();
  }
}

TEST(FusedAudit, RejectsEmptyPlan) {
  Timeline tl;
  EXPECT_THROW(schedule_fused_lanes(AcceleratorConfig{}, tl, {},
                                    IssuePolicy::kGreedy),
               CheckError);
  EXPECT_THROW(schedule_fused_lanes(AcceleratorConfig{}, tl, chained({}),
                                    IssuePolicy::kGreedy),
               CheckError);
}

// The builder holds every plan to the Table I shapes: an MHA kind has at
// least one head of sa_cols dims each, an FFN's widths are multiples of
// sa_cols. time_step is public, so these reach it without passing through
// time_mha / time_ffn.
TEST(FusedAudit, RejectsPlansOffTheTableIShapes) {
  const Accelerator acc;
  for (const SublayerPlan& bad :
       {SublayerPlan::mha("mha d_model 100", 4, 4, 100, 1),
        SublayerPlan::mha("mha d_model 128, 1 head", 4, 4, 128, 1),
        SublayerPlan::mha("mha 0 heads", 4, 4, 64, 0),
        SublayerPlan::mha("mha 0 heads, d_model 0", 4, 4, 0, 0),
        SublayerPlan::mha_cached_batch("cached 0 heads", {4, 5}, 64, 0, 0),
        SublayerPlan::mha_cached_batch("cached 0 heads, d_model 0", {4}, 0,
                                       0, 0),
        SublayerPlan::mha_prefill("prefill d_model 100", 4, 4, 100, 1, 4),
        SublayerPlan::ffn("ffn d_model 100", 4, 100, 256),
        SublayerPlan::ffn("ffn d_ff 100", 4, 64, 100)})
    EXPECT_THROW(acc.time_step({FusedLane{{bad}, false}}), CheckError)
        << bad.label;
}

// --- Seam semantics ----------------------------------------------------------

// Chained fusion removes exactly the per-sublayer cold weight loads: each
// later sublayer's initial tile prefetches under the previous sublayer, so
// the fused total is the sum of standalone totals minus one weight load per
// seam. (Each sublayer's internal schedule is shift-invariant: it starts
// from an idle SA either way.)
TEST(FusedSeams, ColdLoadsCollapseToOne) {
  const AcceleratorConfig cfg;
  Accelerator acc(cfg);
  const auto subs = decode_step_plan(greedy_totals(16), 64, 1, 256, 1);
  Cycle standalone_sum = 0;
  Cycle standalone_boundary = 0;
  for (const SublayerPlan& sub : subs) {
    const RunReport one = acc.time_step(chained({sub}));
    standalone_sum += one.total_cycles;
    standalone_boundary += one.boundary_stall;
  }
  const RunReport fused = acc.time_step(chained(subs));
  const Cycle seams = static_cast<Cycle>(subs.size()) - 1;
  EXPECT_EQ(fused.total_cycles,
            standalone_sum - seams * cfg.weight_load_cycles);
  EXPECT_EQ(fused.boundary_stall,
            standalone_boundary - seams * cfg.weight_load_cycles);
}

TEST(FusedSeams, PrefetchHidesUnderPreviousSublayer) {
  const AcceleratorConfig cfg;
  Timeline tl;
  const auto subs = decode_step_plan(greedy_totals(16), 64, 1, 256, 2);
  const FusedRun fused =
      schedule_fused_lanes(cfg, tl, chained(subs), IssuePolicy::kGreedy);

  // Segment accounting: the first seam is the ledger's cold load; every
  // later seam is exactly the previous sublayer's LayerNorm tail (the
  // prefetch is fully hidden, so sublayer k's SA starts the cycle its
  // chained input is ready).
  const Cycle ln_tail =
      LayerNormModule::tail_cycles(cfg, cfg.layernorm_strategy, 64);
  ASSERT_EQ(fused.segments.size(), subs.size());
  EXPECT_EQ(fused.segments[0].seam_stall, cfg.weight_load_cycles);
  Cycle seam_sum = fused.segments[0].seam_stall;
  for (std::size_t i = 1; i < fused.segments.size(); ++i) {
    EXPECT_EQ(fused.segments[i].seam_stall, ln_tail) << "seam " << i;
    EXPECT_EQ(fused.segments[i].sa_start, fused.segments[i - 1].sa_end +
                                              ln_tail)
        << "seam " << i;
    seam_sum += fused.segments[i].seam_stall;
  }
  EXPECT_EQ(fused.boundary_stall, seam_sum + ln_tail);  // + the final tail
}

TEST(FusedSeams, WeightTileSingleResidencyRespected) {
  Timeline tl;
  const auto subs = decode_step_plan(greedy_totals(8), 64, 1, 256, 2);
  const FusedRun fused = schedule_fused_lanes(AcceleratorConfig{}, tl,
                                             chained(subs),
                                             IssuePolicy::kGreedy);

  // Every prefetch after the first is gated on the previous sublayer's
  // first SA op having consumed its tile (the buffer holds one pending
  // tile): its load starts only after that op ends, yet still completes
  // before its own sublayer's SA work begins (fully hidden).
  std::vector<std::size_t> prefetches;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(fused.graph.size()); ++i)
    if (fused.graph.ops()[i].resource == OpResource::kWeightLoad)
      prefetches.push_back(i);
  ASSERT_EQ(prefetches.size(), subs.size());
  for (std::size_t k = 1; k < prefetches.size(); ++k) {
    const Interval& load = fused.stats.intervals[prefetches[k]];
    const auto deps = fused.graph.deps(static_cast<int>(prefetches[k]));
    ASSERT_EQ(deps.size(), 1u);  // the residency-release dep
    EXPECT_GE(load.start,
              fused.stats.result_ready[static_cast<std::size_t>(deps[0])]);
    EXPECT_LE(load.end, fused.segments[k].sa_start) << "prefetch " << k;
  }
}

TEST(FusedSeams, SchedulesAreDeterministic) {
  const auto subs = decode_step_plan(greedy_totals(16), 512, 8, 2048, 2);
  Timeline a_tl, b_tl;
  const FusedRun a = schedule_fused_lanes(AcceleratorConfig{}, a_tl,
                                         chained(subs), IssuePolicy::kGreedy);
  const FusedRun b = schedule_fused_lanes(AcceleratorConfig{}, b_tl,
                                         chained(subs), IssuePolicy::kGreedy);
  ASSERT_EQ(a.stats.intervals.size(), b.stats.intervals.size());
  for (std::size_t i = 0; i < a.stats.intervals.size(); ++i) {
    EXPECT_EQ(a.stats.intervals[i].start, b.stats.intervals[i].start);
    EXPECT_EQ(a_tl.label(a.stats.intervals[i]),
              b_tl.label(b.stats.intervals[i]));
  }
  EXPECT_EQ(a.boundary_stall, b.boundary_stall);
}

// --- DecodeStepFuser ---------------------------------------------------------

TEST(DecodeStepFuser, LifecycleIsEnforced) {
  Accelerator acc;
  // Serial decode: with nothing open, each record is timed at once as its
  // own one-sublayer ledger, the one time_ffn / time_mha / time_mha_cached
  // build for the same shape.
  AcceleratorStats serial;
  DecodeStepFuser serial_fuser(acc, &serial);
  serial_fuser.record_ffn(3, 64, 256);
  Cycle expected = acc.time_ffn(3, 64, 256).total_cycles;
  EXPECT_EQ(serial.total_cycles(), expected);
  serial_fuser.record_mha(5, 7, 64, 1);
  expected += acc.time_mha(5, 7, 64, 1).total_cycles;
  EXPECT_EQ(serial.total_cycles(), expected);
  serial_fuser.record_mha_cached_batch({9}, 64, 1, 1);
  expected += acc.time_mha_cached(9, 64, 1, 1).total_cycles;
  EXPECT_EQ(serial.total_cycles(), expected);
  EXPECT_FALSE(serial_fuser.active());
  EXPECT_EQ(serial.fused_steps, 3);
  EXPECT_EQ(serial.mha_runs, 2);
  EXPECT_EQ(serial.ffn_runs, 1);

  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  EXPECT_FALSE(fuser.active());
  EXPECT_THROW(fuser.end_step(), CheckError);
  fuser.begin_step();
  EXPECT_TRUE(fuser.active());
  EXPECT_THROW(fuser.begin_step(), CheckError);
  // The farm encodes on an untimed backend and never runs full recompute,
  // so a full MHA inside an open step is a bug.
  EXPECT_THROW(fuser.record_mha(5, 7, 64, 1), CheckError);
  // A step in which nothing was recorded charges nothing.
  const RunReport empty = fuser.end_step();
  EXPECT_EQ(empty.total_cycles, 0);
  EXPECT_EQ(stats.fused_steps, 0);

  fuser.begin_step();
  fuser.record_mha_cached_batch({5, 7}, 64, 1, 2);
  fuser.record_mha_cached_batch({9, 9}, 64, 1, 0);
  fuser.record_ffn(2, 64, 256);
  const RunReport step = fuser.end_step();
  EXPECT_GT(step.total_cycles, 0);
  EXPECT_EQ(stats.fused_steps, 1);
  EXPECT_EQ(stats.fused_cycles, step.total_cycles);
  EXPECT_EQ(stats.mha_runs, 2);
  EXPECT_EQ(stats.ffn_runs, 1);
  EXPECT_EQ(stats.total_cycles(), step.total_cycles);
  EXPECT_EQ(stats.boundary_stall_cycles, step.boundary_stall);
}

// --- Serve-scheduler integration ---------------------------------------------

ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "fused-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 2;
  return cfg;
}

// The serve workload both the farm and the serial-ledger pins run: 12
// synthetic sentences on the hw_config() model.
struct ServeWorkload {
  static constexpr int kMaxLen = 12;
  SyntheticTranslationTask task{24, 5, 8};
  TransformerWeights weights;
  std::vector<TokenSeq> sources;
  std::vector<TokenSeq> calib = {{3, 4, 5}, {6, 7}};

  ServeWorkload() {
    Rng rng(121);
    weights = TransformerWeights::random(hw_config(), task.vocab_size(), rng);
    Rng src_rng(11);
    for (int i = 0; i < 12; ++i)
      sources.push_back(task.sample(src_rng).source);
  }
};

// The acceptance criterion at serve level: fusing the packed decode step
// changes no output bit on the accelerator backend, and its step ledgers
// are pinned. When per-sublayer ledgers were still an option, the same
// workload took 59,604 makespan cycles with 23,760 boundary-stall cycles at
// identical SA busy (31,291): fusion removed the per-sublayer cold loads.
TEST(FusedServe, BitIdenticalAndFasterThanPerSublayerLedgers) {
  const ServeWorkload wl;
  SchedulerConfig cfg;
  cfg.backend = ServeBackend::kAccelerator;
  cfg.num_cards = 1;
  cfg.slots_per_card = 8;
  cfg.max_len = ServeWorkload::kMaxLen;
  Scheduler fused(wl.weights, wl.calib, cfg);
  const ScheduleReport rf = fused.run(wl.sources);

  // Serial decode on an independently built accelerator backend.
  Transformer model(wl.weights);
  const auto qt = QuantizedTransformer::build(model, wl.calib, cfg.max_len,
                                              SoftmaxImpl::kHardware);
  const Accelerator acc;
  model.set_backend(accelerator_backend(qt, acc));
  for (std::size_t i = 0; i < wl.sources.size(); ++i)
    EXPECT_EQ(rf.outputs[i],
              model.translate_greedy(wl.sources[i], cfg.max_len))
        << "sentence " << i;
  model.set_backend(ResBlockBackend{});

  // Every packed step was timed as one fused ledger.
  EXPECT_EQ(rf.per_card[0].fused_steps, rf.packed_steps());
  EXPECT_EQ(rf.makespan_cycles(), 47625);
  EXPECT_EQ(rf.boundary_stall_cycles(), 12539);
  EXPECT_EQ(rf.softmax_stall_cycles(), 1741);
  EXPECT_EQ(rf.prefill_stall_cycles(), 1414);
  EXPECT_EQ(rf.sa_busy_cycles(), 31291);
}

TEST(FusedServe, RunsAreReproducible) {
  Rng rng(122);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  const std::vector<TokenSeq> calib = {{3, 4, 5}, {6, 7}};
  const std::vector<TokenSeq> sources = {{3, 4, 5, 6}, {7}, {5, 5, 6},
                                         {8, 9, 10}};
  SchedulerConfig cfg;
  cfg.backend = ServeBackend::kAccelerator;
  cfg.num_cards = 2;
  cfg.slots_per_card = 4;
  cfg.max_len = 10;
  Scheduler sched(weights, calib, cfg);
  const ScheduleReport a = sched.run(sources);
  const ScheduleReport b = sched.run(sources);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.makespan_cycles(), b.makespan_cycles());
  EXPECT_EQ(a.boundary_stall_cycles(), b.boundary_stall_cycles());
  EXPECT_EQ(a.packed_steps(), b.packed_steps());
  // Only packed decode steps are ledgers with decode work: no encoder pass
  // is timed as a ledger of its own.
  for (std::size_t c = 0; c < a.per_card.size(); ++c)
    EXPECT_EQ(a.per_card[c].fused_steps, a.per_card_steps[c].steps)
        << "card " << c;
}

// --- Serial decode on the one timing path ------------------------------------

// Serial translate_* on the accelerator backend: every sublayer is timed as
// its own one-sublayer step ledger through the same DecodeStepFuser the
// farm uses. The pinned totals are exactly the ones the retired per-run
// ledgers charged on this workload, because a one-sublayer ledger placed
// every interval where the retired standalone builders did.
enum class SerialDecode { kGreedyKvCache, kGreedyFullRecompute, kBeam3 };

AcceleratorStats serial_stats(SerialDecode decode, bool verify_schedules) {
  const ServeWorkload wl;
  Transformer model(wl.weights);
  const auto qt = QuantizedTransformer::build(
      model, wl.calib, ServeWorkload::kMaxLen, SoftmaxImpl::kHardware);
  AcceleratorConfig acc_cfg;
  acc_cfg.verify_schedules = verify_schedules;
  const Accelerator acc(acc_cfg);
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  model.set_backend(accelerator_backend(qt, acc, &fuser));
  Transformer::BeamConfig beam;
  beam.beam_size = 3;  // length penalty 0.6
  for (const TokenSeq& src : wl.sources) {
    switch (decode) {
      case SerialDecode::kGreedyKvCache:
        (void)model.translate_greedy(src, ServeWorkload::kMaxLen,
                                     DecodeMode::kKvCache);
        break;
      case SerialDecode::kGreedyFullRecompute:
        (void)model.translate_greedy(src, ServeWorkload::kMaxLen,
                                     DecodeMode::kFullRecompute);
        break;
      case SerialDecode::kBeam3:
        (void)model.translate_beam(src, ServeWorkload::kMaxLen, beam);
        break;
    }
  }
  model.set_backend(ResBlockBackend{});
  return stats;
}

struct SerialTotals {
  long mha_runs, ffn_runs;
  Cycle total, sa_busy, softmax_busy, layernorm_busy;
  Cycle softmax_stall, boundary_stall;
};

void expect_serial_totals(const AcceleratorStats& s, const SerialTotals& want) {
  EXPECT_EQ(s.mha_runs, want.mha_runs);
  EXPECT_EQ(s.ffn_runs, want.ffn_runs);
  EXPECT_EQ(s.total_cycles(), want.total);
  EXPECT_EQ(s.sa_busy_cycles, want.sa_busy);
  EXPECT_EQ(s.softmax_busy_cycles, want.softmax_busy);
  EXPECT_EQ(s.layernorm_busy_cycles, want.layernorm_busy);
  EXPECT_EQ(s.softmax_stall_cycles, want.softmax_stall);
  EXPECT_EQ(s.boundary_stall_cycles, want.boundary_stall);
  // Every sublayer was its own ledger, and none shared a step with prefill.
  EXPECT_EQ(s.fused_steps, s.mha_runs + s.ffn_runs);
  EXPECT_EQ(s.prefill_stall_cycles, 0);
}

TEST(SerialLedgers, GreedyKvCache) {
  expect_serial_totals(serial_stats(SerialDecode::kGreedyKvCache, false),
                       {544, 278, 226691, 91211, 6978, 55896, 13204, 108504});
}

TEST(SerialLedgers, GreedyKvCacheVerified) {
  const AcceleratorStats s = serial_stats(SerialDecode::kGreedyKvCache, true);
  expect_serial_totals(s,
                       {544, 278, 226691, 91211, 6978, 55896, 13204, 108504});
  EXPECT_EQ(s.ledger_fingerprint, 0xbfb816a13b4914d4ULL);
}

TEST(SerialLedgers, GreedyFullRecompute) {
  expect_serial_totals(serial_stats(SerialDecode::kGreedyFullRecompute, false),
                       {544, 278, 298299, 120163, 6978, 55896, 0, 108504});
}

TEST(SerialLedgers, Beam3) {
  expect_serial_totals(
      serial_stats(SerialDecode::kBeam3, false),
      {1092, 552, 450533, 180809, 13538, 111792, 26340, 217008});
}

// --- StreamReport rebased on the fused ledger --------------------------------

TEST(StreamRebased, MatchesTwoInvocationFusedLedger) {
  Accelerator acc;
  const auto check = [&](const SublayerPlan& sub,
                         const Accelerator::StreamReport& sr) {
    const RunReport one = acc.time_step(unchained({sub}));
    const RunReport two = acc.time_step(unchained({sub, sub}));
    EXPECT_EQ(sr.first_latency, one.total_cycles);
    EXPECT_EQ(sr.steady_interval, two.total_cycles - one.total_cycles);
    // The ledger is affine in the invocation count: a third run adds
    // exactly one more steady interval, so total_cycles(n) extrapolates.
    const RunReport three = acc.time_step(unchained({sub, sub, sub}));
    EXPECT_EQ(three.total_cycles, sr.total_cycles(3));
  };
  check(SublayerPlan::mha("mha", 64, 64, 512, 8),
        acc.stream_mha(64, 64, 512, 8));
  check(SublayerPlan::ffn("ffn", 64, 512, 2048),
        acc.stream_ffn(64, 512, 2048));
}

// The shapes the old analytic subtraction was weakest on: tiny runs where
// `total − weight_load − layernorm_busy` flirts with zero. The derived
// interval is positive by construction (run 2 occupies real SA time).
TEST(StreamRebased, TinyShapesYieldPositiveIntervals) {
  AcceleratorConfig cfg;
  cfg.layernorm_strategy = LayerNormStrategy::kStraightforward;
  const Accelerator acc(cfg);
  for (const int s : {1, 2}) {
    const auto mha = acc.stream_mha(s, s, 64, 1);
    EXPECT_GT(mha.steady_interval, 0) << "mha s=" << s;
    EXPECT_LT(mha.steady_interval, mha.first_latency);
    const auto ffn = acc.stream_ffn(s, 64, 256);
    EXPECT_GT(ffn.steady_interval, 0) << "ffn s=" << s;
    EXPECT_LT(ffn.steady_interval, ffn.first_latency);
  }
}

}  // namespace
}  // namespace tfacc
