// Continuous-batching scheduler suite: packed multi-row decode steps must be
// bit-identical to serial per-sentence decode (greedy and beam) on all three
// backends, through ragged finish times, slot refills, work stealing, and
// adversarial shapes (one sentence on an 8-card farm, max_len = 1, duplicate
// sources). Also pins the modeled win: packing beats PR 2's one-row steps in
// modeled sentences/sec and SA utilization.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "common/check.hpp"
#include "core/backend.hpp"
#include "nlp/synthetic.hpp"
#include "quant/qtransformer.hpp"
#include "reference/search.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"

namespace tfacc {
namespace {

// Multi-layer, multi-head micro model for the FP32 reference backend.
ModelConfig micro_config() {
  ModelConfig cfg;
  cfg.name = "sched-micro";
  cfg.d_model = 32;
  cfg.d_ff = 128;
  cfg.num_heads = 2;
  cfg.head_dim = 16;
  cfg.num_encoder_layers = 2;
  cfg.num_decoder_layers = 2;
  return cfg;
}

// Hardware-compatible model (head_dim 64 = SA columns) for the quantized and
// accelerator backends.
ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "sched-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 2;
  return cfg;
}

// Ragged source lengths (1..7 tokens) so sentences finish at wildly
// different steps and slots churn; includes a duplicate pair and padding.
std::vector<TokenSeq> ragged_sources() {
  return {{3, 4, 5, 6},
          {7},
          {10, 3, 11, 4, 12, 5, 13},
          {5, 5, 6},
          {3, 4, 5, 6},  // duplicate of sources[0]
          {8, 9, kPadId, kPadId},
          {6, 7, 8, 9, 10, 11},
          {4}};
}

std::vector<TokenSeq> calib_sources() { return {{3, 4, 5}, {6, 7}}; }

SchedulerConfig base_config(ServeBackend backend, int cards, int slots,
                            int max_len = 12) {
  SchedulerConfig cfg;
  cfg.backend = backend;
  cfg.num_cards = cards;
  cfg.slots_per_card = slots;
  cfg.max_len = max_len;
  return cfg;
}

/// Serial per-sentence greedy decode with the same backend the scheduler
/// installs — the bit-identity baseline.
std::vector<TokenSeq> serial_greedy(Transformer& model, ServeBackend backend,
                                    const QuantizedTransformer* qt,
                                    const std::vector<TokenSeq>& sources,
                                    int max_len) {
  Accelerator acc;
  switch (backend) {
    case ServeBackend::kReference:
      model.set_backend(ResBlockBackend{});
      break;
    case ServeBackend::kQuantized:
      model.set_backend(qt->backend());
      break;
    case ServeBackend::kAccelerator:
      model.set_backend(accelerator_backend(*qt, acc));
      break;
  }
  std::vector<TokenSeq> out;
  for (const TokenSeq& src : sources)
    out.push_back(model.translate_greedy(src, max_len));
  model.set_backend(ResBlockBackend{});
  return out;
}

// --- RequestQueue -------------------------------------------------------------

using Pop = RequestQueue::PopOutcome;

// Burst pops: every request has arrived by then.
constexpr Cycle kAfterAll = std::numeric_limits<Cycle>::max();

TEST(RequestQueue, SingleShardFifoOrder) {
  RequestQueue q(1);
  for (std::uint64_t i = 0; i < 5; ++i) q.push({i, {3}});
  TranslationRequest req;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(q.try_pop(0, kAfterAll, req), Pop::kPopped);
    EXPECT_EQ(req.id, i);
  }
  EXPECT_EQ(q.try_pop(0, kAfterAll, req), Pop::kDrained);
}

TEST(RequestQueue, StealsFromLoadedSibling) {
  RequestQueue q(3);
  // Round-robin deal: ids 0,3 -> shard 0; 1,4 -> shard 1; 2 -> shard 2.
  for (std::uint64_t i = 0; i < 5; ++i) q.push({i, {3}});
  TranslationRequest req;
  // Drain shard 2's own item, then force it to steal twice.
  ASSERT_EQ(q.try_pop(2, kAfterAll, req), Pop::kPopped);
  EXPECT_EQ(req.id, 2u);
  std::set<std::uint64_t> stolen;
  ASSERT_EQ(q.try_pop(2, kAfterAll, req), Pop::kPopped);
  stolen.insert(req.id);
  ASSERT_EQ(q.try_pop(2, kAfterAll, req), Pop::kPopped);
  stolen.insert(req.id);
  // Thieves take the back of a sibling deque.
  EXPECT_TRUE(stolen.count(3) == 1 || stolen.count(4) == 1);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(RequestQueue, StealsBackMostArrivedWhileOwnFrontIsPending) {
  RequestQueue q(2);
  // Shard 0: ids 0, 2, 4 at 0, 2, 8. Shard 1: ids 1, 3, 5 at 1, 3, 9.
  const Cycle arrival[] = {0, 1, 2, 3, 8, 9};
  for (std::uint64_t i = 0; i < 6; ++i) q.push({i, {3}, arrival[i]});
  TranslationRequest req;
  ASSERT_EQ(q.try_pop(0, 3, req), Pop::kPopped);
  EXPECT_EQ(req.id, 0u);
  ASSERT_EQ(q.try_pop(0, 3, req), Pop::kPopped);
  EXPECT_EQ(req.id, 2u);
  // Own front (id 4) arrives at 8: steal shard 1's back-most arrived entry,
  // id 3, not its back (id 5, arriving at 9) nor its front.
  ASSERT_EQ(q.try_pop(0, 3, req), Pop::kPopped);
  EXPECT_EQ(req.id, 3u);
  ASSERT_EQ(q.try_pop(0, 3, req), Pop::kPopped);
  EXPECT_EQ(req.id, 1u);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(RequestQueue, NothingArrivedIsPendingUntilEarliestFront) {
  RequestQueue q(3);
  // Shard 0: ids 0, 3 at 5, 9. Shard 1: id 1 at 6. Shard 2: id 2 at 7.
  const Cycle arrival[] = {5, 6, 7, 9};
  for (std::uint64_t i = 0; i < 4; ++i) q.push({i, {3}, arrival[i]});
  TranslationRequest req;
  Cycle next = -1;
  EXPECT_EQ(q.try_pop(1, 4, req, &next), Pop::kPending);
  EXPECT_EQ(next, 5);  // a sibling's front
  next = -1;
  EXPECT_EQ(q.try_pop(0, 4, req, &next), Pop::kPending);
  EXPECT_EQ(next, 5);  // the own front
  // next_arrival is optional.
  EXPECT_EQ(q.try_pop(2, 4, req), Pop::kPending);
  EXPECT_EQ(q.pending(), 4u);
  ASSERT_EQ(q.try_pop(1, 5, req), Pop::kPopped);
  EXPECT_EQ(req.id, 0u);
}

TEST(RequestQueue, EveryShardEmptyIsDrained) {
  RequestQueue q(3);
  TranslationRequest req;
  Cycle next = -1;
  EXPECT_EQ(q.try_pop(1, 0, req, &next), Pop::kDrained);
  EXPECT_EQ(next, -1);
  q.push({7, {3}, 4});
  EXPECT_EQ(q.try_pop(1, 0, req), Pop::kPending);
  ASSERT_EQ(q.try_pop(1, 4, req), Pop::kPopped);
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(q.try_pop(0, kAfterAll, req), Pop::kDrained);
}

TEST(RequestQueue, RejectsOutOfOrderPush) {
  RequestQueue q(2);
  q.push({0, {3}, 5});
  q.push({1, {3}, 5});  // equal arrivals are in order
  EXPECT_THROW(q.push({2, {3}, 4}), CheckError);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(RequestQueue, RejectsBadShard) {
  RequestQueue q(2);
  TranslationRequest req;
  EXPECT_THROW(q.try_pop(2, kAfterAll, req), CheckError);
  EXPECT_THROW(RequestQueue(0), CheckError);
  EXPECT_THROW(RequestQueue(-1), CheckError);
}

// --- Config validation --------------------------------------------------------

TEST(SchedulerConfig, RejectsBadArguments) {
  SchedulerConfig cfg;
  cfg.num_cards = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.num_cards = 1;
  cfg.max_len = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.max_len = 8;
  cfg.beam_size = -1;
  EXPECT_THROW(cfg.validate(), CheckError);
  // A sentence's beam hypotheses must fit its card's slots.
  cfg.beam_size = 4;
  cfg.slots_per_card = 3;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.slots_per_card = 4;
  EXPECT_NO_THROW(cfg.validate());
  cfg.beam_size = 0;
  cfg.slots_per_card = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

// The quantized and accelerator backends calibrate INT8 scales on the
// calibration sentences; only the FP32 reference backend can do without.
TEST(SchedulerConfig, RequiresCalibrationSentences) {
  Rng rng(84);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  for (const ServeBackend backend :
       {ServeBackend::kQuantized, ServeBackend::kAccelerator})
    EXPECT_THROW(Scheduler(weights, {}, base_config(backend, 1, 1)),
                 CheckError);
  EXPECT_NO_THROW(
      Scheduler(weights, {}, base_config(ServeBackend::kReference, 1, 1)));
}

// A non-finite GNMT alpha would make every beam score NaN and break the
// strict weak ordering the beam's candidate sort relies on: both the serial
// beam search and the scheduler must reject it up front.
TEST(SchedulerConfig, RejectsNonFiniteLengthPenalty) {
  Rng rng(85);
  const TransformerWeights weights =
      TransformerWeights::random(micro_config(), 20, rng);
  const Transformer model(weights);
  const TokenSeq src = {3, 4, 5};
  for (const float alpha : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
    Transformer::BeamConfig beam;
    beam.beam_size = 2;
    beam.length_penalty = alpha;
    EXPECT_THROW(model.translate_beam(src, 8, beam), CheckError) << alpha;
    SchedulerConfig cfg = base_config(ServeBackend::kReference, 1, 2);
    cfg.beam_size = 2;
    cfg.length_penalty = alpha;
    EXPECT_THROW(cfg.validate(), CheckError) << alpha;
    EXPECT_THROW(Scheduler(weights, {}, cfg), CheckError) << alpha;
  }
}

// --- decode_step_batch row-equivalence (all three backends) -------------------

// Lockstep packed-vs-serial logits: three hypotheses at ragged positions fed
// forced tokens; every packed logits row must equal the serial decode_step
// row bitwise, and the full-recompute next_token_logits over that
// hypothesis's token prefix — an independent path sharing no cached-MHA
// code. Run against each backend's batch hook.
void check_decode_step_batch(Transformer& model) {
  const std::vector<TokenSeq> srcs = {{3, 4, 5}, {6, 7}, {8, 9, 10, 3}};
  std::vector<MatF> memories;
  std::vector<DecodeState> packed, serial;
  std::vector<TokenSeq> prefixes(srcs.size());
  for (const TokenSeq& src : srcs) {
    memories.push_back(model.encode(src));
    packed.push_back(
        model.begin_decode(memories.back(), static_cast<int>(src.size())));
    serial.push_back(
        model.begin_decode(memories.back(), static_cast<int>(src.size())));
  }
  // Desynchronize positions: advance hypothesis 2 by two forced steps.
  for (const int warm : {kBosId, 5}) {
    (void)model.decode_step(packed[2], warm);
    (void)model.decode_step(serial[2], warm);
    prefixes[2].push_back(warm);
  }
  std::vector<int> tokens = {kBosId, kBosId, 7};
  MatF batch;
  for (int step = 0; step < 4; ++step) {
    std::vector<DecodeState*> states;
    for (auto& s : packed) states.push_back(&s);
    model.decode_step_batch(states, tokens, batch);
    ASSERT_EQ(batch.rows(), 3);
    for (std::size_t i = 0; i < 3; ++i) {
      const int row = static_cast<int>(i);
      prefixes[i].push_back(tokens[i]);
      const auto one = model.decode_step(serial[i], tokens[i]);
      const auto full = model.next_token_logits(
          prefixes[i], memories[i], static_cast<int>(srcs[i].size()));
      ASSERT_EQ(static_cast<std::size_t>(batch.cols()), one.size());
      ASSERT_EQ(full.size(), one.size());
      for (std::size_t c = 0; c < one.size(); ++c) {
        const float packed_logit = batch(row, static_cast<int>(c));
        ASSERT_EQ(packed_logit, one[c])
            << "step " << step << " hyp " << i << " logit " << c;
        ASSERT_EQ(packed_logit, full[c])
            << "step " << step << " hyp " << i << " logit " << c
            << " vs full recompute";
      }
      // Feed the argmax next, like a real greedy loop.
      tokens[i] = static_cast<int>(
          std::max_element(one.begin(), one.end()) - one.begin());
      if (tokens[i] == kEosId) tokens[i] = 3;  // keep all slots live
    }
  }
}

TEST(DecodeStepBatch, ReferenceBackendBitIdentical) {
  Rng rng(81);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  ASSERT_TRUE(ResBlockBackend{}.supports_cached_decode());
  check_decode_step_batch(model);
}

TEST(DecodeStepBatch, QuantizedBackendBitIdentical) {
  Rng rng(82);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const auto qt = QuantizedTransformer::build(model, calib_sources(), 12,
                                              SoftmaxImpl::kHardware);
  ASSERT_TRUE(qt.backend().supports_cached_decode());
  model.set_backend(qt.backend());
  check_decode_step_batch(model);
  model.set_backend(ResBlockBackend{});
}

TEST(DecodeStepBatch, AcceleratorBackendBitIdentical) {
  Rng rng(83);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const auto qt = QuantizedTransformer::build(model, calib_sources(), 12,
                                              SoftmaxImpl::kHardware);
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  const ResBlockBackend backend = accelerator_backend(qt, acc, &fuser);
  ASSERT_TRUE(backend.supports_cached_decode());
  model.set_backend(backend);
  check_decode_step_batch(model);
  model.set_backend(ResBlockBackend{});
  EXPECT_GT(stats.mha_runs, 0);
  EXPECT_GT(stats.sa_busy_cycles, 0);
}

// --- Scheduler bit-identity ---------------------------------------------------

TEST(SchedulerReference, RaggedGreedyBitIdenticalToSerial) {
  Rng rng(91);
  const TransformerWeights weights =
      TransformerWeights::random(micro_config(), 20, rng);
  Transformer model(weights);
  const auto serial =
      serial_greedy(model, ServeBackend::kReference, nullptr,
                    ragged_sources(), 12);

  for (const int slots : {1, 3, 8}) {
    Scheduler sched(weights, {},
                    base_config(ServeBackend::kReference, 2, slots));
    const ScheduleReport rep = sched.run(ragged_sources());
    ASSERT_EQ(rep.outputs.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(rep.outputs[i], serial[i])
          << "slots " << slots << " sentence " << i;
  }
}

TEST(SchedulerQuantized, RaggedGreedyBitIdenticalToSerial) {
  Rng rng(92);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Transformer model(weights);
  const auto qt = QuantizedTransformer::build(model, calib_sources(), 12,
                                              SoftmaxImpl::kHardware);
  const auto serial = serial_greedy(model, ServeBackend::kQuantized, &qt,
                                    ragged_sources(), 12);

  Scheduler sched(weights, calib_sources(),
                  base_config(ServeBackend::kQuantized, 2, 4));
  const ScheduleReport rep = sched.run(ragged_sources());
  ASSERT_EQ(rep.outputs.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(rep.outputs[i], serial[i]) << "sentence " << i;
}

TEST(SchedulerAccelerator, RaggedGreedyBitIdenticalToSerial) {
  Rng rng(93);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Transformer model(weights);
  const auto qt = QuantizedTransformer::build(model, calib_sources(), 12,
                                              SoftmaxImpl::kHardware);
  const auto serial = serial_greedy(model, ServeBackend::kAccelerator, &qt,
                                    ragged_sources(), 12);

  for (const int slots : {1, 4, 8}) {
    Scheduler sched(weights, calib_sources(),
                    base_config(ServeBackend::kAccelerator, 2, slots));
    const ScheduleReport rep = sched.run(ragged_sources());
    ASSERT_EQ(rep.outputs.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(rep.outputs[i], serial[i])
          << "slots " << slots << " sentence " << i;
  }
}

TEST(SchedulerAccelerator, BeamBitIdenticalToSerial) {
  Rng rng(94);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Transformer model(weights);
  const auto qt = QuantizedTransformer::build(model, calib_sources(), 10,
                                              SoftmaxImpl::kHardware);
  Accelerator acc;
  Transformer::BeamConfig beam;
  beam.beam_size = 3;
  model.set_backend(accelerator_backend(qt, acc));
  std::vector<TokenSeq> serial;
  for (const TokenSeq& src : ragged_sources())
    serial.push_back(model.translate_beam(src, 10, beam));
  model.set_backend(ResBlockBackend{});

  // Beam hypotheses of one sentence become sibling slots of the packed step:
  // 6 slots hold two sentences' beams at once.
  SchedulerConfig cfg = base_config(ServeBackend::kAccelerator, 2, 6, 10);
  cfg.beam_size = 3;
  Scheduler sched(weights, calib_sources(), cfg);
  const ScheduleReport rep = sched.run(ragged_sources());
  ASSERT_EQ(rep.outputs.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(rep.outputs[i], serial[i]) << "sentence " << i;
}

TEST(SchedulerReference, BeamBitIdenticalToSerial) {
  Rng rng(95);
  const TransformerWeights weights =
      TransformerWeights::random(micro_config(), 20, rng);
  Transformer model(weights);
  Transformer::BeamConfig beam;
  beam.beam_size = 3;
  std::vector<TokenSeq> serial;
  for (const TokenSeq& src : ragged_sources())
    serial.push_back(model.translate_beam(src, 10, beam));

  SchedulerConfig cfg = base_config(ServeBackend::kReference, 1, 9, 10);
  cfg.beam_size = 3;
  Scheduler sched(weights, {}, cfg);
  const ScheduleReport rep = sched.run(ragged_sources());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(rep.outputs[i], serial[i]) << "sentence " << i;
}

// --- One model per farm -------------------------------------------------------

// The farm copies the weights once, and its cards share that copy and one
// INT8 model. Built from a temporary, so a card that kept a reference to
// the caller's weights reads freed memory (the ASan job), and with a
// thread per card a shared block that gets written races (the TSan job).
TEST(SchedulerShared, FarmOwnsItsWeights) {
  for (const ServeBackend backend :
       {ServeBackend::kQuantized, ServeBackend::kAccelerator}) {
    SchedulerConfig cfg = base_config(backend, 3, 4);
    cfg.host_threads = 0;
    Rng farm_rng(96);
    // The weights die at the end of this statement, before run().
    Scheduler sched(TransformerWeights::random(hw_config(), 20, farm_rng),
                    calib_sources(), cfg);

    Rng serial_rng(96);
    Transformer model(TransformerWeights::random(hw_config(), 20, serial_rng));
    const auto qt = QuantizedTransformer::build(model, calib_sources(), 12,
                                                SoftmaxImpl::kHardware);
    const auto serial =
        serial_greedy(model, backend, &qt, ragged_sources(), 12);

    for (int run = 0; run < 2; ++run) {
      const ScheduleReport rep = sched.run(ragged_sources());
      ASSERT_EQ(rep.outputs.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(rep.outputs[i], serial[i])
            << "backend " << static_cast<int>(backend) << " run " << run
            << " sentence " << i;
    }
  }
}

// --- Adversarial shapes -------------------------------------------------------

TEST(SchedulerShapes, OneSentenceOnEightCardFarm) {
  Rng rng(101);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Transformer model(weights);
  const auto qt = QuantizedTransformer::build(model, calib_sources(), 12,
                                              SoftmaxImpl::kHardware);
  const auto serial = serial_greedy(model, ServeBackend::kAccelerator, &qt,
                                    {{3, 4, 5, 6}}, 12);

  Scheduler sched(weights, calib_sources(),
                  base_config(ServeBackend::kAccelerator, 8, 4));
  const ScheduleReport rep = sched.run({{3, 4, 5, 6}});
  ASSERT_EQ(rep.outputs.size(), 1u);
  EXPECT_EQ(rep.outputs[0], serial[0]);
  ASSERT_EQ(rep.per_card.size(), 8u);
  // Exactly one card decoded it; the other seven found the queue empty.
  int busy = 0, sentences = 0;
  for (std::size_t c = 0; c < rep.per_card.size(); ++c) {
    if (rep.per_card[c].total_cycles() > 0) ++busy;
    sentences += rep.per_card_steps[c].sentences;
  }
  EXPECT_EQ(busy, 1);
  EXPECT_EQ(sentences, 1);
}

TEST(SchedulerShapes, MaxLenOne) {
  Rng rng(102);
  const TransformerWeights weights =
      TransformerWeights::random(micro_config(), 20, rng);
  Transformer model(weights);
  std::vector<TokenSeq> serial;
  for (const TokenSeq& src : ragged_sources())
    serial.push_back(model.translate_greedy(src, 1));

  Scheduler sched(weights, {},
                  base_config(ServeBackend::kReference, 2, 4, /*max_len=*/1));
  const ScheduleReport rep = sched.run(ragged_sources());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(rep.outputs[i], serial[i]) << "sentence " << i;
    EXPECT_LE(rep.outputs[i].size(), 1u);
  }
}

TEST(SchedulerShapes, DuplicateSourcesDecodeIdentically) {
  Rng rng(103);
  const TransformerWeights weights =
      TransformerWeights::random(micro_config(), 20, rng);
  const std::vector<TokenSeq> sources(6, TokenSeq{3, 4, 5, 6});
  Transformer model(weights);
  const TokenSeq serial = model.translate_greedy(sources[0], 12);

  Scheduler sched(weights, {}, base_config(ServeBackend::kReference, 3, 2));
  const ScheduleReport rep = sched.run(sources);
  for (std::size_t i = 0; i < sources.size(); ++i)
    EXPECT_EQ(rep.outputs[i], serial) << "sentence " << i;
}

TEST(SchedulerShapes, EmptyBatch) {
  Rng rng(104);
  const TransformerWeights weights =
      TransformerWeights::random(micro_config(), 20, rng);
  Scheduler sched(weights, {}, base_config(ServeBackend::kReference, 2, 4));
  const ScheduleReport rep = sched.run({});
  EXPECT_EQ(rep.sentences(), 0);
  EXPECT_EQ(rep.packed_steps(), 0l);
  EXPECT_EQ(rep.packed_rows_mean(), 0.0);
}

// The packed KV-cached serve loop against the O(L³) full-recompute decode
// the serial search still offers.
TEST(SchedulerShapes, FullRecomputeModeMatchesCachedOutputs) {
  Rng rng(105);
  const TransformerWeights weights =
      TransformerWeights::random(micro_config(), 20, rng);
  const Transformer model(weights);
  Scheduler cached(weights, {}, base_config(ServeBackend::kReference, 1, 4));
  const ScheduleReport rep = cached.run(ragged_sources());
  for (std::size_t i = 0; i < ragged_sources().size(); ++i)
    EXPECT_EQ(rep.outputs[i],
              model.translate_greedy(ragged_sources()[i], 12,
                                     DecodeMode::kFullRecompute))
        << "sentence " << i;
}

// --- Packed-step accounting and the modeled win -------------------------------

TEST(SchedulerStats, PackedRowsAccounting) {
  Rng rng(111);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Scheduler sched(weights, calib_sources(),
                  base_config(ServeBackend::kAccelerator, 1, 8));
  const ScheduleReport rep = sched.run(ragged_sources());

  ASSERT_EQ(rep.per_card_steps.size(), 1u);
  const CardStepStats& s = rep.per_card_steps[0];
  EXPECT_EQ(s.sentences, 8);
  EXPECT_GT(s.steps, 0l);
  // Eight sentences into eight slots: early steps pack all of them.
  EXPECT_GT(rep.packed_rows_mean(), 1.0);
  EXPECT_LE(rep.packed_rows_mean(), 8.0);
  // Histogram sums back to the step and row totals.
  long hist_steps = 0, hist_rows = 0;
  for (std::size_t k = 0; k < s.rows_hist.size(); ++k) {
    hist_steps += s.rows_hist[k];
    hist_rows += s.rows_hist[k] * static_cast<long>(k);
  }
  EXPECT_EQ(hist_steps, s.steps);
  EXPECT_EQ(hist_rows, s.packed_rows);
  EXPECT_GT(s.rows_hist[8], 0l);  // the full-pack bucket was hit
}

// The acceptance criterion: at batch >= 8, packed multi-row steps beat the
// one-row-per-step mode in modeled sentences/sec AND SA utilization.
TEST(SchedulerStats, PackingBeatsOneRowStepsModeled) {
  SyntheticTranslationTask task(24, 5, 8);
  Rng rng(112);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), task.vocab_size(), rng);
  Rng src_rng(7);
  std::vector<TokenSeq> sources;
  for (int i = 0; i < 8; ++i) sources.push_back(task.sample(src_rng).source);

  Scheduler one_row(weights, calib_sources(),
                    base_config(ServeBackend::kAccelerator, 1, 1));
  Scheduler packed(weights, calib_sources(),
                   base_config(ServeBackend::kAccelerator, 1, 8));
  const ScheduleReport rep1 = one_row.run(sources);
  const ScheduleReport rep8 = packed.run(sources);

  // Same sentences, same outputs, fewer+fuller SA invocations.
  EXPECT_EQ(rep1.outputs, rep8.outputs);
  EXPECT_EQ(rep1.packed_rows_mean(), 1.0);
  EXPECT_GT(rep8.packed_rows_mean(), 2.0);
  EXPECT_LT(rep8.makespan_cycles(), rep1.makespan_cycles());
  EXPECT_GT(rep8.modeled_sentences_per_second(),
            rep1.modeled_sentences_per_second());
  EXPECT_GT(rep8.sa_utilization(), rep1.sa_utilization());
}

// Request placement follows the simulated-time admission gate (least-loaded
// card takes the next request, ties to the lower id), so repeated runs
// reproduce outputs AND every per-card cycle ledger exactly — even with
// multiple racing host threads.
TEST(SchedulerStats, RunsAreReproducibleIncludingPerCardLedgers) {
  Rng rng(113);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  for (const int cards : {1, 3}) {
    Scheduler sched(weights, calib_sources(),
                    base_config(ServeBackend::kAccelerator, cards, 4));
    const ScheduleReport a = sched.run(ragged_sources());
    const ScheduleReport b = sched.run(ragged_sources());
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.makespan_cycles(), b.makespan_cycles()) << cards << " cards";
    EXPECT_EQ(a.total_cycles(), b.total_cycles()) << cards << " cards";
    ASSERT_EQ(a.per_card.size(), b.per_card.size());
    for (std::size_t c = 0; c < a.per_card.size(); ++c) {
      EXPECT_EQ(a.per_card[c].total_cycles(), b.per_card[c].total_cycles())
          << "card " << c << " of " << cards;
      EXPECT_EQ(a.per_card_steps[c].packed_rows,
                b.per_card_steps[c].packed_rows)
          << "card " << c << " of " << cards;
    }
  }
}

// More cards shrink the modeled makespan: the admission gate hands each
// request to the card with the smallest virtual clock, so a farm twice the
// size finishes the same queue in about half the busiest-card cycles.
TEST(SchedulerStats, ModeledThroughputScalesWithCards) {
  SyntheticTranslationTask task(24, 5, 8);
  Rng rng(114);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), task.vocab_size(), rng);
  Rng src_rng(9);
  std::vector<TokenSeq> sources;
  for (int i = 0; i < 16; ++i) sources.push_back(task.sample(src_rng).source);

  double prev = 0.0;
  for (const int cards : {1, 2, 4}) {
    Scheduler sched(weights, calib_sources(),
                    base_config(ServeBackend::kAccelerator, cards, 1));
    const ScheduleReport rep = sched.run(sources);
    EXPECT_GT(rep.modeled_sentences_per_second(), prev) << cards << " cards";
    prev = rep.modeled_sentences_per_second();
  }
}

// Zero executed steps (no sources at all) must yield well-defined zeros in
// every derived ratio — no division by zero anywhere in the report or the
// bench JSON inputs built from it.
TEST(SchedulerStats, EmptyRunYieldsZerosNotDivisionsByZero) {
  Rng rng(115);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  Scheduler sched(weights, calib_sources(),
                  base_config(ServeBackend::kAccelerator, 2, 4));
  const ScheduleReport rep = sched.run({});
  EXPECT_EQ(rep.sentences(), 0);
  EXPECT_EQ(rep.packed_steps(), 0);
  EXPECT_EQ(rep.makespan_cycles(), 0);
  EXPECT_EQ(rep.packed_rows_mean(), 0.0);
  EXPECT_EQ(rep.sa_utilization(), 0.0);
  EXPECT_EQ(rep.modeled_sentences_per_second(), 0.0);
  EXPECT_EQ(rep.sa_busy_cycles(), 0);
  EXPECT_EQ(rep.softmax_busy_cycles(), 0);
  EXPECT_EQ(rep.layernorm_busy_cycles(), 0);
  EXPECT_EQ(rep.softmax_stall_cycles(), 0);
  // A default-constructed report (what a bench sees before any sweep point)
  // is equally safe.
  const ScheduleReport empty;
  EXPECT_EQ(empty.packed_rows_mean(), 0.0);
  EXPECT_EQ(empty.sa_utilization(), 0.0);
  EXPECT_EQ(empty.modeled_sentences_per_second(), 0.0);
}

// The PR 4 interleaved schedule, pinned at the serve level. When the
// program-order ablation still existed, the same workload ran 58,421
// makespan cycles with 12,864 softmax-stall cycles (same outputs, same SA
// busy); the interleaved ledger below is what replaced it.
TEST(SchedulerStats, InterleavingBeatsProgramOrderSchedule) {
  SyntheticTranslationTask task(24, 5, 8);
  Rng rng(116);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), task.vocab_size(), rng);
  Rng src_rng(10);
  std::vector<TokenSeq> sources;
  for (int i = 0; i < 12; ++i) sources.push_back(task.sample(src_rng).source);

  Scheduler sched(weights, calib_sources(),
                  base_config(ServeBackend::kAccelerator, 1, 8));
  const ScheduleReport rep = sched.run(sources);
  EXPECT_EQ(rep.makespan_cycles(), 45514);
  EXPECT_EQ(rep.softmax_stall_cycles(), 1561);
  EXPECT_EQ(rep.boundary_stall_cycles(), 11863);
  EXPECT_EQ(rep.prefill_stall_cycles(), 0);
  EXPECT_EQ(rep.sa_busy_cycles(), 30177);
}

}  // namespace
}  // namespace tfacc
