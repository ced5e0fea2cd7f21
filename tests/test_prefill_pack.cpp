// Chunked prefill packing suite (PR 6): admission no longer times the
// encoder pass eagerly — it is cut into fixed-size row chunks the serve step
// loop splices into the same per-card ledgers as the packed decode rows.
// Pinned here:
//  * chunk_prefill coverage math (row partition, one-time K/V projection on
//    the first MHA chunk, chunk_rows=1 and chunk-larger-than-sentence edges),
//  * legality (the typed verifier) of single-chunk ledgers and mixed
//    prefill/decode lane ledgers across shapes × issue policies,
//  * the full-size-chunk ≡ schedule_mha degenerate pin,
//  * bit-identity of packed Scheduler outputs with serial decode on an
//    independently built backend, on all three backends (greedy and beam,
//    burst and staggered arrivals),
//  * determinism of the simulated-time admission order under bursts
//    (per-card cycle ledgers reproduce exactly),
//  * the pinned prefill-stall attribution and the prefill-only-queue guard
//    (steps with zero decode rows run prefill lanes without counting as
//    packed steps),
//  * config validation of the chunk size and of Scheduler::run arrivals.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "common/check.hpp"
#include "core/backend.hpp"
#include "core/schedules.hpp"
#include "quant/qtransformer.hpp"
#include "reference/weights.hpp"
#include "serve/scheduler.hpp"

namespace tfacc {
namespace {

// Hardware-compatible model (head_dim 64 = SA columns) shared by the
// quantized and accelerator backends; a narrower multi-head variant for the
// FP32 reference backend.
ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "prefill-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 2;
  cfg.num_decoder_layers = 1;
  return cfg;
}

ModelConfig micro_config() {
  ModelConfig cfg;
  cfg.name = "prefill-micro";
  cfg.d_model = 32;
  cfg.d_ff = 128;
  cfg.num_heads = 2;
  cfg.head_dim = 16;
  cfg.num_encoder_layers = 2;
  cfg.num_decoder_layers = 2;
  return cfg;
}

// Ragged source lengths so prefill chunk counts differ per sentence and
// sentences finish at different steps (slot churn under admission).
std::vector<TokenSeq> ragged_sources() {
  return {{3, 4, 5, 6},
          {7},
          {10, 3, 11, 4, 12, 5, 13},
          {5, 5, 6},
          {3, 4, 5, 6},
          {8, 9, kPadId, kPadId},
          {6, 7, 8, 9, 10, 11},
          {4}};
}

std::vector<TokenSeq> calib_sources() { return {{3, 4, 5}, {6, 7}}; }

SchedulerConfig serve_config(ServeBackend backend, int cards, int slots,
                             int chunk_rows = 16) {
  SchedulerConfig cfg;
  cfg.backend = backend;
  cfg.num_cards = cards;
  cfg.slots_per_card = slots;
  cfg.max_len = 12;
  cfg.accel.prefill_chunk_rows = chunk_rows;
  return cfg;
}

// Serial per-sentence decode on a backend built independently of any
// Scheduler — the bit-identity baseline (beam when beam_size >= 1).
std::vector<TokenSeq> serial_decode(const TransformerWeights& weights,
                                    const std::vector<TokenSeq>& calib,
                                    const SchedulerConfig& cfg,
                                    const std::vector<TokenSeq>& sources) {
  Transformer model(weights);
  std::optional<QuantizedTransformer> qt;
  if (cfg.backend != ServeBackend::kReference)
    qt.emplace(QuantizedTransformer::build(model, calib, cfg.max_len,
                                           cfg.softmax));
  const Accelerator acc;
  if (cfg.backend == ServeBackend::kQuantized)
    model.set_backend(qt->backend());
  else if (cfg.backend == ServeBackend::kAccelerator)
    model.set_backend(accelerator_backend(*qt, acc));
  const Transformer::BeamConfig beam{cfg.beam_size, cfg.length_penalty};
  std::vector<TokenSeq> out;
  for (const TokenSeq& src : sources)
    out.push_back(cfg.beam_size < 1
                      ? model.translate_greedy(src, cfg.max_len)
                      : model.translate_beam(src, cfg.max_len, beam));
  model.set_backend(ResBlockBackend{});
  return out;
}

constexpr IssuePolicy kPolicies[] = {IssuePolicy::kGreedy,
                                     IssuePolicy::kProgramOrder};

const char* policy_name(IssuePolicy policy) {
  return policy == IssuePolicy::kGreedy ? " greedy" : " program-order";
}

// A Table I-pattern encoder of `layers` layers and `num_heads` 64-wide
// heads (d_ff = 4·d_model), the shape encoder_plans reads.
ModelConfig encoder_config(int num_heads, int layers) {
  ModelConfig m;
  m.d_model = 64 * num_heads;
  m.d_ff = 4 * m.d_model;
  m.num_heads = num_heads;
  m.num_encoder_layers = layers;
  return m;
}

// --- chunk_prefill coverage math ---------------------------------------------

TEST(ChunkPrefill, PartitionsRowsAndProjectsKvOnce) {
  for (const int rows : {1, 5, 16, 17, 33})
    for (const int chunk_rows : {1, 4, 16, 64}) {
      const auto chunks =
          chunk_prefill(encoder_plans(encoder_config(8, 2), rows), chunk_rows);
      int mha_rows = 0, ffn_rows = 0, projections = 0;
      for (const SublayerPlan& c : chunks) {
        if (c.kind == SublayerPlan::Kind::kMhaPrefill) {
          EXPECT_LE(c.s_q, chunk_rows);
          EXPECT_EQ(c.s_kv, rows);  // every chunk attends over ALL rows
          mha_rows += c.s_q;
          if (c.project_kv_rows > 0) {
            EXPECT_EQ(c.project_kv_rows, rows);  // one-time, whole sentence
            ++projections;
          }
        } else {
          ASSERT_EQ(c.kind, SublayerPlan::Kind::kFfn);
          EXPECT_LE(c.rows, chunk_rows);
          ffn_rows += c.rows;
        }
      }
      EXPECT_EQ(mha_rows, 2 * rows) << rows << "/" << chunk_rows;
      EXPECT_EQ(ffn_rows, 2 * rows);
      EXPECT_EQ(projections, 2);  // exactly the first chunk of each MHA
    }
}

TEST(ChunkPrefill, ChunkLargerThanSentenceLeavesPlansWhole) {
  const auto plans = encoder_plans(encoder_config(1, 1), 7);
  const auto chunks = chunk_prefill(plans, 64);
  ASSERT_EQ(chunks.size(), plans.size());
  EXPECT_EQ(chunks[0].s_q, 7);
  EXPECT_EQ(chunks[0].project_kv_rows, 7);
  EXPECT_EQ(chunks[1].rows, 7);
}

TEST(ChunkPrefill, SingleRowChunksMaximizeInterleaving) {
  const auto chunks = chunk_prefill(encoder_plans(encoder_config(1, 1), 5), 1);
  ASSERT_EQ(chunks.size(), 10u);  // 5 MHA rows + 5 FFN rows
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(chunks[i].kind, SublayerPlan::Kind::kMhaPrefill);
  EXPECT_EQ(chunks[0].project_kv_rows, 5);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(chunks[i].project_kv_rows, 0);
}

TEST(ChunkPrefill, RejectsBadArguments) {
  const auto plans = encoder_plans(encoder_config(1, 1), 4);
  EXPECT_THROW(chunk_prefill(plans, 0), CheckError);
  // Decode-step kinds are not prefill work.
  EXPECT_THROW(
      chunk_prefill({SublayerPlan::mha_cached_batch("x", {3}, 64, 1, 1)}, 4),
      CheckError);
}

TEST(PrefillConfig, RejectsNonPositiveChunkRows) {
  AcceleratorConfig cfg;
  cfg.prefill_chunk_rows = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.prefill_chunk_rows = -3;
  EXPECT_THROW(cfg.validate(), CheckError);
}

// --- Legality of chunk and mixed-lane ledgers --------------------------------

// Each chunk alone as a one-lane ledger (a step whose only work is that
// chunk).
TEST(PrefillAudit, StandaloneChunkLedgersAreLegalAcrossShapesAndPolicies) {
  for (const IssuePolicy policy : kPolicies)
    for (const int rows : {1, 7, 16, 33})
      for (const int chunk_rows : {1, 5, 16, 64})
        for (const int heads : {1, 8}) {
          const auto chunks = chunk_prefill(
              encoder_plans(encoder_config(heads, 1), rows), chunk_rows);
          for (const SublayerPlan& chunk : chunks) {
            Timeline tl;
            const FusedRun run = schedule_fused_lanes(
                AcceleratorConfig{}, tl, {FusedLane{{chunk}, true}}, policy);
            VerifyOptions opts;
            opts.program_order = policy == IssuePolicy::kProgramOrder;
            const VerifyResult res = verify_fused(run, opts);
            EXPECT_TRUE(res.ok())
                << "rows=" << rows << " chunk_rows=" << chunk_rows
                << " heads=" << heads << policy_name(policy) << "\n"
                << res.to_string();
          }
        }
}

TEST(PrefillAudit, MixedPrefillDecodeLanesAreLegalAcrossShapesAndPolicies) {
  for (const IssuePolicy policy : kPolicies)
    for (const int slots : {1, 8, 16})
      for (const int chunk_rows : {1, 6, 16}) {
        // One chunk lane per admitted sentence + the chained decode lane,
        // exactly the shape DecodeStepFuser::end_step composes.
        std::vector<FusedLane> lanes;
        const auto chunks =
            chunk_prefill(encoder_plans(encoder_config(1, 1), 13), chunk_rows);
        for (std::size_t i = 0; i < 2 && i < chunks.size(); ++i)
          lanes.push_back(FusedLane{{chunks[i]}, true});
        std::vector<int> totals;
        for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
        lanes.push_back(FusedLane{
            {SublayerPlan::mha_cached_batch("dec.self", totals, 64, 1, slots),
             SublayerPlan::mha_cached_batch("dec.cross", totals, 64, 1, 0),
             SublayerPlan::ffn("dec.ffn", slots, 64, 256)},
            false});
        Timeline tl;
        const FusedRun fused =
            schedule_fused_lanes(AcceleratorConfig{}, tl, lanes, policy);
        VerifyOptions opts;
        opts.program_order = policy == IssuePolicy::kProgramOrder;
        const VerifyResult res = verify_fused(fused, opts);
        EXPECT_TRUE(res.ok())
            << "slots=" << slots << " chunk_rows=" << chunk_rows
            << policy_name(policy) << "\n" << res.to_string();
        // Prefill lanes' sublayers are tagged; the decode lane's are not.
        for (std::size_t s = 0; s < fused.segments.size(); ++s)
          EXPECT_EQ(fused.segments[s].prefill,
                    s + 3 < fused.segments.size());
        EXPECT_GE(fused.prefill_stall, 0);
        EXPECT_GT(fused.stats.prefill_sa_busy, 0);
      }
}

TEST(PrefillAudit, FullSizeChunkMatchesScheduleMhaIntervals) {
  // A full-size kMhaPrefill chunk issued in program order builds exactly
  // Algorithm 1's encoder MHA graph: same ops, same placement. (The
  // one-lane ledger's op 0 is its weight prefetch.)
  const AcceleratorConfig cfg;
  for (const int rows : {7, 16}) {
    Timeline tl_chunk, tl_mha;
    const FusedRun chunk = schedule_fused_lanes(
        cfg, tl_chunk,
        {FusedLane{{SublayerPlan::mha_prefill("m", rows, rows, 512, 8, rows)},
                   true}},
        IssuePolicy::kProgramOrder);
    const ScheduledRun mha = schedule_mha(cfg, tl_mha, rows, rows, 512, 8);
    EXPECT_EQ(tl_chunk.end_time(), tl_mha.end_time()) << rows;
    ASSERT_EQ(chunk.graph.size(), mha.graph.size() + 1) << rows;
    for (std::size_t i = 0; i < mha.stats.intervals.size(); ++i) {
      EXPECT_EQ(chunk.stats.intervals[i + 1].start,
                mha.stats.intervals[i].start)
          << "op " << i << " rows=" << rows;
      EXPECT_EQ(chunk.stats.intervals[i + 1].end, mha.stats.intervals[i].end);
    }
  }
}

// --- prefill_stall equals a decode-only rebuild ------------------------------

// A mixed step's prefill_stall is its makespan minus that of the same step
// with its prefill lanes left out. Checked over prefill chunk kinds (MHA
// with and without the K/V projection, FFN), chunk sizes, 1-3 prefill
// lanes, decode slot counts and head counts; a prefill-only or decode-only
// step charges none.
TEST(PrefillStall, EqualsTheDecodeOnlyLedgerDelta) {
  const Accelerator acc;
  for (const int heads : {1, 8}) {
    const int d_model = 64 * heads;
    for (const int slots : {1, 3, 16}) {
      std::vector<int> totals;
      for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
      const FusedLane decode{
          {SublayerPlan::mha_cached_batch("dec.self", totals, d_model, heads,
                                          slots),
           SublayerPlan::mha_cached_batch("dec.cross", totals, d_model,
                                          heads, 0),
           SublayerPlan::ffn("dec.ffn", slots, d_model, 4 * d_model)},
          false};
      const RunReport decode_only = acc.time_step({decode});
      EXPECT_EQ(decode_only.prefill_stall, 0);
      for (const int rows : {1, 5, 16}) {
        const SublayerPlan kinds[] = {
            SublayerPlan::mha_prefill("s1.enc0.c0", rows, 16, d_model, heads,
                                      16),
            SublayerPlan::ffn("s2.enc1.c0", rows, d_model, 4 * d_model),
            SublayerPlan::mha_prefill("s3.enc0.c1", rows, 16, d_model, heads,
                                      0)};
        for (int lanes = 1; lanes <= 3; ++lanes)
          for (int first = 0; first < 3; ++first) {
            std::vector<FusedLane> step;
            for (int i = 0; i < lanes; ++i)
              step.push_back(FusedLane{{kinds[(first + i) % 3]}, true});
            const std::string what =
                "heads=" + std::to_string(heads) + " slots=" +
                std::to_string(slots) + " rows=" + std::to_string(rows) +
                " lanes=" + std::to_string(lanes) +
                " first=" + std::to_string(first);
            EXPECT_EQ(acc.time_step(step).prefill_stall, 0) << what;
            step.push_back(decode);
            const RunReport mixed = acc.time_step(step);
            EXPECT_EQ(mixed.prefill_stall,
                      std::max<Cycle>(0, mixed.total_cycles -
                                             decode_only.total_cycles))
                << what;
          }
      }
    }
  }
}

// The same definition holds when decode lanes surround a prefill lane: the
// decode-only ledger chains its weight prefetches past the missing chunk.
TEST(PrefillStall, EqualsTheDecodeOnlyLedgerDeltaAroundAPrefillLane) {
  const Accelerator acc;
  std::vector<int> totals;
  for (int r = 0; r < 8; ++r) totals.push_back(3 + (5 * r) % 11);
  const FusedLane attention{
      {SublayerPlan::mha_cached_batch("dec.self", totals, 128, 2, 8),
       SublayerPlan::mha_cached_batch("dec.cross", totals, 128, 2, 0)},
      false};
  const FusedLane ffn{{SublayerPlan::ffn("dec.ffn", 8, 128, 512)}, false};
  for (const int rows : {1, 5, 16}) {
    const FusedLane chunk{
        {SublayerPlan::mha_prefill("s1.enc0.c0", rows, 16, 128, 2, 16)}, true};
    const RunReport mixed = acc.time_step({attention, chunk, ffn});
    const RunReport decode_only = acc.time_step({attention, ffn});
    EXPECT_EQ(mixed.prefill_stall,
              std::max<Cycle>(0, mixed.total_cycles -
                                     decode_only.total_cycles))
        << "rows=" << rows;
  }
}

// --- Serve-level bit-identity and determinism --------------------------------

std::vector<Cycle> staggered_arrivals(std::size_t n, Cycle gap) {
  std::vector<Cycle> arrivals(n);
  for (std::size_t i = 0; i < n; ++i)
    arrivals[i] = static_cast<Cycle>(i) * gap;
  return arrivals;
}

TEST(PrefillPackServe, PackedBitIdenticalToSerialOnAllBackends) {
  for (const ServeBackend backend :
       {ServeBackend::kReference, ServeBackend::kQuantized,
        ServeBackend::kAccelerator}) {
    Rng rng(171);
    const TransformerWeights weights = TransformerWeights::random(
        backend == ServeBackend::kReference ? micro_config() : hw_config(),
        20, rng);
    const auto calib = backend == ServeBackend::kReference
                           ? std::vector<TokenSeq>{}
                           : calib_sources();
    const std::vector<TokenSeq> serial = serial_decode(
        weights, calib, serve_config(backend, 2, 4), ragged_sources());
    for (const int chunk_rows : {1, 4, 64}) {
      Scheduler sched(weights, calib,
                      serve_config(backend, 2, 4, chunk_rows));
      const ScheduleReport rep = sched.run(ragged_sources());
      EXPECT_EQ(rep.outputs, serial)
          << "backend=" << static_cast<int>(backend)
          << " chunk_rows=" << chunk_rows;
      EXPECT_GT(rep.prefill_chunks(), 0);
    }
  }
}

TEST(PrefillPackServe, BeamAndStaggeredArrivalsKeepOutputs) {
  Rng rng(172);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  SchedulerConfig cfg = serve_config(ServeBackend::kAccelerator, 2, 8);
  cfg.beam_size = 2;
  Scheduler sched(weights, calib_sources(), cfg);
  const ScheduleReport burst = sched.run(ragged_sources());
  const ScheduleReport staggered = sched.run(
      ragged_sources(), staggered_arrivals(ragged_sources().size(), 700));
  EXPECT_EQ(burst.outputs, staggered.outputs);
  EXPECT_EQ(burst.outputs, serial_decode(weights, calib_sources(), cfg,
                                         ragged_sources()));
}

TEST(PrefillPackServe, BurstAdmissionOrderIsDeterministic) {
  // Repeated multi-card runs must reproduce outputs AND every per-card
  // cycle ledger exactly: admission follows simulated time, not host
  // thread scheduling — with or without staggered arrivals.
  Rng rng(173);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Scheduler sched(weights, calib_sources(),
                  serve_config(ServeBackend::kAccelerator, 4, 4, 4));
  const auto arrivals = staggered_arrivals(ragged_sources().size(), 300);
  for (const bool stagger : {false, true}) {
    const ScheduleReport first = stagger
                                     ? sched.run(ragged_sources(), arrivals)
                                     : sched.run(ragged_sources());
    for (int trial = 0; trial < 2; ++trial) {
      const ScheduleReport rep =
          stagger ? sched.run(ragged_sources(), arrivals)
                  : sched.run(ragged_sources());
      EXPECT_EQ(rep.outputs, first.outputs);
      ASSERT_EQ(rep.per_card.size(), first.per_card.size());
      for (std::size_t c = 0; c < rep.per_card.size(); ++c) {
        EXPECT_EQ(rep.per_card[c].total_cycles(),
                  first.per_card[c].total_cycles())
            << "card " << c << " stagger=" << stagger;
        EXPECT_EQ(rep.per_card[c].sa_busy_cycles,
                  first.per_card[c].sa_busy_cycles);
        EXPECT_EQ(rep.per_card[c].prefill_stall_cycles,
                  first.per_card[c].prefill_stall_cycles);
        EXPECT_EQ(rep.per_card_steps[c].prefill_chunks,
                  first.per_card_steps[c].prefill_chunks);
      }
    }
  }
}

TEST(PrefillPackServe, PrefillOnlyQueueRunsChunksWithoutPackedSteps) {
  // Single sentence, chunk_rows=1: the queue holds only a not-yet-prefilled
  // sentence for the first several iterations — they must run prefill-only
  // ledgers, not count as packed steps, and still decode correctly.
  Rng rng(174);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  const SchedulerConfig cfg =
      serve_config(ServeBackend::kAccelerator, 1, 4, 1);
  Scheduler packed(weights, calib_sources(), cfg);
  const std::vector<TokenSeq> one = {{10, 3, 11, 4, 12, 5, 13}};
  const ScheduleReport rep = packed.run(one);
  EXPECT_EQ(rep.outputs, serial_decode(weights, calib_sources(), cfg, one));
  // 7 source rows, 2 encoder layers, 1-row chunks: 28 prefill-only
  // iterations before the first decode row.
  EXPECT_EQ(rep.prefill_chunks(), 28);
  // Then one packed one-row step per decode position.
  EXPECT_EQ(rep.packed_steps(), 12);
  EXPECT_DOUBLE_EQ(rep.packed_rows_mean(), 1.0);  // greedy, one sentence
}

// 2 slots on one card: admissions after the first land while a live
// sentence is mid-decode. Eager admission timing (whole encoder pass at
// admission, since retired) stalled that sentence for 5,574 cycles and ran
// 46,012 makespan cycles at the same SA busy; packed chunks hide the
// prefill entirely in the step ledgers' bubbles.
TEST(PrefillPackServe, EagerAdmissionChargesPrefillStallAndPackingShrinksIt) {
  Rng rng(175);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Scheduler packed(weights, calib_sources(),
                   serve_config(ServeBackend::kAccelerator, 1, 2));
  const ScheduleReport rep = packed.run(ragged_sources());
  EXPECT_EQ(rep.prefill_stall_cycles(), 0);
  EXPECT_EQ(rep.makespan_cycles(), 42564);
  EXPECT_EQ(rep.boundary_stall_cycles(), 15102);
  EXPECT_EQ(rep.softmax_stall_cycles(), 1822);
  EXPECT_EQ(rep.sa_busy_cycles(), 23092);
}

TEST(PrefillPackServe, RunRejectsBadArrivals) {
  Rng rng(176);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Scheduler sched(weights, calib_sources(),
                  serve_config(ServeBackend::kAccelerator, 1, 2));
  const std::vector<TokenSeq> sources = {{3, 4}, {5, 6}};
  EXPECT_THROW(sched.run(sources, {0}), CheckError);          // size mismatch
  EXPECT_THROW(sched.run(sources, {-1, 0}), CheckError);      // negative
  EXPECT_THROW(sched.run(sources, {100, 50}), CheckError);    // decreasing
  EXPECT_EQ(sched.run(sources, {50, 100}).outputs,
            sched.run(sources).outputs);
}

}  // namespace
}  // namespace tfacc
