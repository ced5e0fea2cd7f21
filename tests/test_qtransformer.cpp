// Tests for whole-model quantization: calibration, backend routing,
// agreement between the quantized backend and the accelerator backend, and
// the guards that keep extreme but finite weights out of undefined behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/fixed_point.hpp"
#include "core/backend.hpp"
#include "quant/qtransformer.hpp"
#include "tensor/compare.hpp"
#include "tensor/kernels.hpp"

namespace tfacc {
namespace {

ModelConfig hw_tiny() {
  // Smallest hardware-compatible config: one 64-wide head.
  ModelConfig cfg;
  cfg.name = "hw-tiny";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 1;
  return cfg;
}

Transformer make_model(int vocab, Rng& rng) {
  return Transformer(TransformerWeights::random(hw_tiny(), vocab, rng));
}

TEST(QuantizedTransformer, BuildQuantizesEveryBlock) {
  for (const ModelConfig& cfg : {hw_tiny(), ModelConfig::tiny()}) {
    SCOPED_TRACE(cfg.name);
    Rng rng(1);
    Transformer model(TransformerWeights::random(cfg, 20, rng));
    const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                                SoftmaxImpl::kHardware);
    for (const auto& layer : model.weights().encoder_layers) {
      EXPECT_NO_THROW(qt.mha_for(layer.mha));
      EXPECT_NO_THROW(qt.ffn_for(layer.ffn));
    }
    for (const auto& layer : model.weights().decoder_layers) {
      EXPECT_NO_THROW(qt.mha_for(layer.self_mha));
      EXPECT_NO_THROW(qt.mha_for(layer.cross_mha));
      EXPECT_NO_THROW(qt.ffn_for(layer.ffn));
    }
  }
}

TEST(QuantizedTransformer, BuildsAndTranslatesCloseToFp32) {
  Rng rng(2);
  Transformer model = make_model(24, rng);
  const std::vector<TokenSeq> calib{{3, 4, 5}, {6, 7, 8, 9}, {10, 11}};
  const auto qt = QuantizedTransformer::build(model, calib,
                                              /*max_len=*/8,
                                              SoftmaxImpl::kHardware);
  // Encoder memories must be numerically close between FP32 and INT8 paths.
  const TokenSeq src{3, 4, 5};
  const MatF ref = model.encode(src);
  model.set_backend(qt.backend());
  const MatF got = model.encode(src);
  model.set_backend(ResBlockBackend{});
  EXPECT_GT(cosine_similarity(ref, got), 0.98);
}

TEST(QuantizedTransformer, UnknownBlockThrows) {
  Rng rng(3);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kFloatExact);
  const MhaWeights stranger = MhaWeights::random(hw_tiny(), rng);
  EXPECT_THROW(qt.mha_for(stranger), CheckError);
}

TEST(QuantizedTransformer, TranslateRestoresBackend) {
  Rng rng(4);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  const TokenSeq fp32_before = model.translate_greedy({3, 4}, 6);
  qt.translate_greedy(model, {3, 4}, 6);
  // After the quantized call the FP32 backend must be active again.
  EXPECT_EQ(model.translate_greedy({3, 4}, 6), fp32_before);
}

// A throw out of calibration or out of a quantized decode must leave the
// FP32 default backend installed: at build(), the calibrating backend would
// otherwise fold into build()'s dead ranges on the next encode (the ASan
// job catches that); at translate_greedy, the INT8 backend would stay on.
TEST(QuantizedTransformer, BuildThatThrowsRestoresFp32Backend) {
  Rng rng(7);
  Transformer model = make_model(20, rng);
  const MatF fp32 = model.encode({3, 4, 5});
  // Token 99 is outside the 20-token vocabulary.
  EXPECT_THROW(QuantizedTransformer::build(model, {{3, 4, 5}, {3, 99}}, 6,
                                           SoftmaxImpl::kHardware),
               CheckError);
  EXPECT_TRUE(model.encode({3, 4, 5}) == fp32);
}

TEST(QuantizedTransformer, TranslateThatThrowsRestoresFp32Backend) {
  Rng rng(8);
  Transformer model = make_model(20, rng);
  const MatF fp32 = model.encode({3, 4, 5});
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  EXPECT_THROW(qt.translate_greedy(model, {3, 99}, 6), CheckError);
  EXPECT_TRUE(model.encode({3, 4, 5}) == fp32);
}

// --- Calibration capture ----------------------------------------------------
// A full-recompute greedy decode reruns every decoder block over each
// growing prefix, so its capture holds every row a block is ever calibrated
// on, most of them many times. Under max-abs, build() must quantize every
// block exactly as block builds over that capture do.

constexpr int kCalibVocab = 24;
constexpr int kCalibMaxLen = 6;

/// How a greedy decode capped at max_len ended.
enum class Exit { kEmpty, kEos, kCap };

Exit exit_of(const TokenSeq& out, int max_len) {
  if (out.empty()) return Exit::kEmpty;
  return static_cast<int>(out.size()) == max_len ? Exit::kCap : Exit::kEos;
}

/// The entry of `blocks` for the weights `w`, appended when missing.
template <typename Blocks, typename W>
auto& entry_for(Blocks& blocks, const W* w) {
  for (auto& b : blocks)
    if (b.weights == w) return b;
  return blocks.emplace_back(typename Blocks::value_type{w, {}});
}

/// Every block input seen while capturing_backend(store) is installed: one
/// entry per block, in first-capture order.
struct CaptureStore {
  struct Mha {
    const MhaWeights* weights;
    MhaQuantized::Calibration calib;
  };
  struct Ffn {
    const FfnWeights* weights;
    std::vector<MatF> inputs;
  };
  std::vector<Mha> mha;
  std::vector<Ffn> ffn;
};

/// The FP32 reference, recording every block input into `store`. Only the
/// batch hooks record, so supports_cached_decode() is false and a decode on
/// it recomputes in full.
ResBlockBackend capturing_backend(CaptureStore& store) {
  ResBlockBackend b;
  b.mha = [&store](const MatF& q, const MatF& kv, const MhaWeights& w,
                   const Mask& mask) {
    MhaQuantized::Calibration& calib = entry_for(store.mha, &w).calib;
    calib.q.push_back(q);
    calib.kv.push_back(kv);
    calib.mask.push_back(mask);
    return mha_resblock(q, kv, w, mask);
  };
  b.ffn = [&store](const MatF& x, const FfnWeights& w) {
    entry_for(store.ffn, &w).inputs.push_back(x);
    return ffn_resblock(x, w);
  };
  return b;
}

/// The capture of a full-recompute greedy decode of `src` on the FP32 model;
/// the decoded tokens go to `out`.
CaptureStore full_recompute_capture(Transformer& model, const TokenSeq& src,
                                    int max_len, TokenSeq& out) {
  CaptureStore store;
  model.set_backend(capturing_backend(store));
  out = model.translate_greedy(src, max_len, DecodeMode::kFullRecompute);
  model.set_backend(ResBlockBackend{});
  return store;
}

/// Appends `from` to `to`, or only its last element with `last_only`.
template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from, bool last_only) {
  to.insert(to.end(), last_only ? from.end() - 1 : from.begin(), from.end());
}

/// Every sentence's capture in one store, blocks in first-capture order.
/// With `last_only`, each block keeps one sample per sentence, its last: an
/// encoder block sees one sample per sentence anyway, and a decoder block's
/// last is the final decode step, whose prefix holds every row an earlier
/// step saw.
CaptureStore pool(const std::vector<CaptureStore>& captures, bool last_only) {
  CaptureStore all;
  for (const CaptureStore& c : captures) {
    for (const CaptureStore::Mha& b : c.mha) {
      MhaQuantized::Calibration& calib = entry_for(all.mha, b.weights).calib;
      append(calib.q, b.calib.q, last_only);
      append(calib.kv, b.calib.kv, last_only);
      append(calib.mask, b.calib.mask, last_only);
    }
    for (const CaptureStore::Ffn& b : c.ffn)
      append(entry_for(all.ffn, b.weights).inputs, b.inputs, last_only);
  }
  return all;
}

void expect_same(float a, float b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_same(const FixedPointScale& a, const FixedPointScale& b,
                 const char* what) {
  EXPECT_EQ(a.mantissa, b.mantissa) << what;
  EXPECT_EQ(a.shift, b.shift) << what;
}

void expect_same(const QuantizedLinear& a, const QuantizedLinear& b,
                 const char* what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(unpack_b_i8(a.wpack) == unpack_b_i8(b.wpack));
  EXPECT_EQ(a.bias, b.bias);
  expect_same(a.in_scale, b.in_scale, "in_scale");
  expect_same(a.w_scale, b.w_scale, "w_scale");
  expect_same(a.out_scale, b.out_scale, "out_scale");
  expect_same(a.requant, b.requant, "requant");
  ASSERT_EQ(a.col_w_scale.size(), b.col_w_scale.size());
  for (std::size_t j = 0; j < a.col_w_scale.size(); ++j) {
    expect_same(a.col_w_scale[j], b.col_w_scale[j], "col_w_scale");
    expect_same(a.col_requant[j], b.col_requant[j], "col_requant");
  }
}

void expect_same(const MhaQuantized& a, const MhaQuantized& b) {
  expect_same(a.q_in_scale, b.q_in_scale, "q_in_scale");
  expect_same(a.kv_in_scale, b.kv_in_scale, "kv_in_scale");
  ASSERT_EQ(a.heads.size(), b.heads.size());
  for (std::size_t h = 0; h < a.heads.size(); ++h) {
    SCOPED_TRACE(::testing::Message() << "head " << h);
    expect_same(a.heads[h].wq, b.heads[h].wq, "wq");
    expect_same(a.heads[h].wk, b.heads[h].wk, "wk");
    expect_same(a.heads[h].wv, b.heads[h].wv, "wv");
    expect_same(a.heads[h].av_requant, b.heads[h].av_requant, "av_requant");
  }
  expect_same(a.p_scale, b.p_scale, "p_scale");
  expect_same(a.wg, b.wg, "wg");
  expect_same(a.g_scale, b.g_scale, "g_scale");
  expect_same(a.wg_to_g, b.wg_to_g, "wg_to_g");
  expect_same(a.residual_to_g, b.residual_to_g, "residual_to_g");
  expect_same(a.out_scale, b.out_scale, "out_scale");
  expect_same(a.norm.out_scale(), b.norm.out_scale(), "norm.out_scale");
}

void expect_same(const FfnQuantized& a, const FfnQuantized& b) {
  expect_same(a.in_scale, b.in_scale, "in_scale");
  expect_same(a.w1, b.w1, "w1");
  expect_same(a.w2, b.w2, "w2");
  expect_same(a.g_scale, b.g_scale, "g_scale");
  expect_same(a.w2_to_g, b.w2_to_g, "w2_to_g");
  expect_same(a.residual_to_g, b.residual_to_g, "residual_to_g");
  expect_same(a.out_scale, b.out_scale, "out_scale");
  expect_same(a.norm.out_scale(), b.norm.out_scale(), "norm.out_scale");
}

/// Quantizes every block of `store` on its own and expects `qt` to hold the
/// very same block.
void expect_blocks_match(const QuantizedTransformer& qt,
                         const CaptureStore& store, SoftmaxImpl impl,
                         CalibMethod method) {
  for (std::size_t i = 0; i < store.mha.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "MHA block " << i);
    const CaptureStore::Mha& b = store.mha[i];
    expect_same(qt.mha_for(*b.weights),
                MhaQuantized::build(*b.weights, b.calib, impl, method));
  }
  for (std::size_t i = 0; i < store.ffn.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "FFN block " << i);
    const CaptureStore::Ffn& b = store.ffn[i];
    expect_same(qt.ffn_for(*b.weights),
                FfnQuantized::build(*b.weights, b.inputs, method));
  }
}

/// Random weights of `cfg` over a 24-token vocabulary, with the EOS column
/// of the output projection boosted so that EOS wins some steps, first steps
/// included.
TransformerWeights eos_boosted_weights(const ModelConfig& cfg, Rng& rng) {
  TransformerWeights weights =
      TransformerWeights::random(cfg, kCalibVocab, rng);
  for (int r = 0; r < weights.output_projection.rows(); ++r)
    weights.output_projection(r, kEosId) *= 8.0f;
  return weights;
}

/// Eight random calibration sources of 2 to 7 tokens.
std::vector<TokenSeq> calib_sources(Rng& rng) {
  std::vector<TokenSeq> sources(8);
  for (TokenSeq& src : sources) {
    src.resize(static_cast<std::size_t>(rng.uniform_int(2, 7)));
    for (int& t : src) t = rng.uniform_int(3, kCalibVocab - 1);
  }
  return sources;
}

TEST(QuantizedTransformer, BuildMatchesFullRecomputeCapture) {
  for (const ModelConfig& cfg : {hw_tiny(), ModelConfig::tiny()}) {
    SCOPED_TRACE(cfg.name);
    Rng rng(16);
    Transformer model(eos_boosted_weights(cfg, rng));
    const std::vector<TokenSeq> sources = calib_sources(rng);

    std::vector<CaptureStore> captures;
    int exits[3] = {0, 0, 0};
    for (const TokenSeq& src : sources) {
      TokenSeq out;
      captures.push_back(full_recompute_capture(model, src, kCalibMaxLen, out));
      ++exits[static_cast<int>(exit_of(out, kCalibMaxLen))];
    }
    // Each way a decode ends must occur, or the pin proves less than it says.
    EXPECT_GT(exits[static_cast<int>(Exit::kEmpty)], 0);
    EXPECT_GT(exits[static_cast<int>(Exit::kEos)], 0);
    EXPECT_GT(exits[static_cast<int>(Exit::kCap)], 0);

    const CaptureStore all = pool(captures, /*last_only=*/false);
    const std::size_t enc = model.weights().encoder_layers.size();
    const std::size_t dec = model.weights().decoder_layers.size();
    ASSERT_EQ(all.mha.size(), enc + 2 * dec);
    ASSERT_EQ(all.ffn.size(), enc + dec);
    const auto qt = QuantizedTransformer::build(model, sources, kCalibMaxLen,
                                                SoftmaxImpl::kHardware);
    expect_blocks_match(qt, all, SoftmaxImpl::kHardware, CalibMethod::kMaxAbs);

    // A percentile sees repeats, so build() must rank each distinct row
    // once, as the KV-cache decode computes it: over each sentence's last
    // full-recompute step.
    const auto qt999 = QuantizedTransformer::build(
        model, sources, kCalibMaxLen, SoftmaxImpl::kHardware,
        CalibMethod::kPercentile999);
    expect_blocks_match(qt999, pool(captures, /*last_only=*/true),
                        SoftmaxImpl::kHardware, CalibMethod::kPercentile999);
  }
}

// --- Golden pin of the whole build ------------------------------------------
// FNV-1a 64 over every calibrated field of every block, in (stack, layer,
// sublayer) order: the bits of each float scale, each FixedPointScale, the
// INT8 weights and INT32 biases, and each LayerNorm unit's out_scale. The
// comparison above builds both sides through the same block builds, so
// this hash is what holds build() itself still.

class BuildHash {
 public:
  std::uint64_t value() const { return h_; }

  void add(const QuantizedTransformer& qt, const TransformerWeights& w) {
    for (const auto& layer : w.encoder_layers) {
      add(qt.mha_for(layer.mha));
      add(qt.ffn_for(layer.ffn));
    }
    for (const auto& layer : w.decoder_layers) {
      add(qt.mha_for(layer.self_mha));
      add(qt.mha_for(layer.cross_mha));
      add(qt.ffn_for(layer.ffn));
    }
  }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(float v) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    bytes(&bits, sizeof bits);
  }
  void add(const FixedPointScale& s) {
    bytes(&s.mantissa, sizeof s.mantissa);
    bytes(&s.shift, sizeof s.shift);
  }
  void add(const QuantizedLinear& q) {
    const MatI8 w = unpack_b_i8(q.wpack);
    bytes(w.data(), w.size());
    bytes(q.bias.data(), q.bias.size() * sizeof(std::int32_t));
    add(q.in_scale);
    add(q.w_scale);
    add(q.out_scale);
    add(q.requant);
    for (std::size_t j = 0; j < q.col_w_scale.size(); ++j) {
      add(q.col_w_scale[j]);
      add(q.col_requant[j]);
    }
  }
  void add(const MhaQuantized& m) {
    add(m.q_in_scale);
    add(m.kv_in_scale);
    for (const MhaQuantized::Head& h : m.heads) {
      add(h.wq);
      add(h.wk);
      add(h.wv);
      add(h.av_requant);
    }
    add(m.p_scale);
    add(m.wg);
    add(m.g_scale);
    add(m.wg_to_g);
    add(m.residual_to_g);
    add(m.out_scale);
    add(m.norm.out_scale());
  }
  void add(const FfnQuantized& f) {
    add(f.in_scale);
    add(f.w1);
    add(f.w2);
    add(f.g_scale);
    add(f.w2_to_g);
    add(f.residual_to_g);
    add(f.out_scale);
    add(f.norm.out_scale());
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The build's FP32 decode runs on the selected kernel table, and its packs
// take that table's layout; every table must give the same build, bit for
// bit. An amx case skips where the host has no AMX (kAmx runs the simd
// table there).
class QuantizedBuildByKind
    : public ::testing::TestWithParam<kernels::Kind> {
 protected:
  void SetUp() override {
    if (GetParam() == kernels::Kind::kAmx && !kernels::amx_available())
      GTEST_SKIP() << "no AMX-INT8 tiles on this host (or the OS refused "
                      "the tile state): amx runs the simd table here";
    kernels::set_kind(GetParam());
  }
  void TearDown() override { kernels::set_kind(saved_); }

 private:
  kernels::Kind saved_ = kernels::selected();
};

TEST_P(QuantizedBuildByKind, BuildOutputIsPinned) {
  struct Pin {
    ModelConfig cfg;
    CalibMethod method;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {hw_tiny(), CalibMethod::kMaxAbs, 0xf41662437ece52f2ULL},
      {hw_tiny(), CalibMethod::kPercentile999, 0x23f95abffb65d1e8ULL},
      {ModelConfig::tiny(), CalibMethod::kMaxAbs, 0x506f4d1e81d695dbULL},
      {ModelConfig::tiny(), CalibMethod::kPercentile999, 0xf10ecef832389d65ULL},
  };
  for (const Pin& pin : pins) {
    const int method = static_cast<int>(pin.method);
    SCOPED_TRACE(::testing::Message() << pin.cfg.name << " method " << method);
    Rng rng(16);
    Transformer model(eos_boosted_weights(pin.cfg, rng));
    const std::vector<TokenSeq> sources = calib_sources(rng);
    const auto qt = QuantizedTransformer::build(
        model, sources, kCalibMaxLen, SoftmaxImpl::kHardware, pin.method);
    BuildHash h;
    h.add(qt, model.weights());
    EXPECT_EQ(h.value(), pin.hash) << std::hex << "0x" << h.value();
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, QuantizedBuildByKind,
                         ::testing::Values(kernels::Kind::kScalar,
                                           kernels::Kind::kSimd,
                                           kernels::Kind::kAmx),
                         [](const auto& info) {
                           return std::string(kernels::kind_name(info.param));
                         });

TEST(AcceleratorBackend, AgreesWithQuantizedBackendBitForBit) {
  // The accelerator computes the exact same INT8 arithmetic as the quantized
  // functional model, so the two backends must produce identical floats.
  Rng rng(5);
  Transformer model = make_model(24, rng);
  const std::vector<TokenSeq> calib{{3, 4, 5, 6}, {7, 8, 9}};
  const auto qt = QuantizedTransformer::build(model, calib, 8,
                                              SoftmaxImpl::kHardware);
  const TokenSeq src{4, 6, 8};

  model.set_backend(qt.backend());
  const MatF memory_q = model.encode(src);
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  model.set_backend(accelerator_backend(qt, acc, &fuser));
  const MatF memory_a = model.encode(src);
  model.set_backend(ResBlockBackend{});

  EXPECT_DOUBLE_EQ(max_abs_diff(memory_q, memory_a), 0.0);
  EXPECT_EQ(stats.mha_runs, 1);
  EXPECT_EQ(stats.ffn_runs, 1);
  EXPECT_GT(stats.total_cycles(), 0);
}

TEST(AcceleratorBackend, AccumulatesCyclesAcrossDecode) {
  Rng rng(6);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  model.set_backend(accelerator_backend(qt, acc, &fuser));
  model.translate_greedy({3, 4, 5}, 6);
  model.set_backend(ResBlockBackend{});
  EXPECT_GT(stats.mha_runs, stats.ffn_runs);  // self + cross per decoder step
  EXPECT_GT(stats.microseconds(200.0), 0.0);
}

// --- Extreme but finite weights ---------------------------------------------
// load_weights accepts any finite float, so quantizing a model must turn an
// absurd magnitude into a clean decode or a CheckError, never into undefined
// behaviour. The sanitizer CI job runs these with halt_on_error.

TEST(FixedPointScale, RejectsNonFiniteAndHugeScalesAndZeroesTinyOnes) {
  EXPECT_THROW(
      FixedPointScale::from_double(std::numeric_limits<double>::infinity()),
      CheckError);
  EXPECT_THROW(FixedPointScale::from_double(std::nan("")), CheckError);
  // Shift −15 is the last one whose left shift cannot wrap a 33-bit value.
  EXPECT_EQ(FixedPointScale::from_double(std::ldexp(1.0, 29)).shift, -15);
  EXPECT_THROW(FixedPointScale::from_double(std::ldexp(1.0, 30)), CheckError);
  // Shift 62 is the last one kept; past it the scale is zero, which rounds
  // every accumulator to 0 exactly as the tiny scale would.
  EXPECT_EQ(FixedPointScale::from_double(std::ldexp(1.0, -48)).shift, 62);
  for (const double tiny : {std::ldexp(1.0, -49), 1e-40}) {
    const FixedPointScale s = FixedPointScale::from_double(tiny);
    EXPECT_EQ(s.mantissa, 0) << tiny;
    EXPECT_EQ(s.shift, 0) << tiny;
    EXPECT_EQ(s.apply(std::numeric_limits<std::int32_t>::max()), 0) << tiny;
  }
}

TEST(QuantizedLinear, ClampsBiasToTheDotProductHeadroom) {
  MatF w(64, 2);
  w.fill(0.5f);
  EXPECT_EQ(QuantizedLinear::bias_bound(64), 2147483647 - 64 * 16384);
  for (const auto g :
       {WeightGranularity::kPerTensor, WeightGranularity::kPerColumn}) {
    const QuantizedLinear q =
        QuantizedLinear::build(w, {1e38f, -1e38f}, 1.0f, 1.0f, g);
    EXPECT_EQ(q.bias[0], QuantizedLinear::bias_bound(64));
    EXPECT_EQ(q.bias[1], -QuantizedLinear::bias_bound(64));
  }
  MatF tall(QuantizedLinear::kMaxK + 1, 1);
  tall.fill(0.5f);
  EXPECT_THROW(QuantizedLinear::build(tall, {0.0f}, 1.0f, 1.0f), CheckError);
}

/// The model of the extreme-weight cases, before its perturbation.
TransformerWeights tiny_weights() {
  Rng rng(3);
  return TransformerWeights::random(hw_tiny(), 12, rng);
}

/// Quantizes a model of `weights` on one source sentence and decodes that
/// sentence on the quantized and on the accelerator backend. Each must
/// decode or throw CheckError; with `must_decode`, each must decode.
void expect_decode_or_check_error(const TransformerWeights& weights,
                                  const char* what, bool must_decode) {
  const TokenSeq src{3, 4, 5, 6};
  for (const bool accelerator : {false, true}) {
    Transformer model(weights);
    bool decoded = false;
    try {
      const auto qt =
          QuantizedTransformer::build(model, {src}, 8, SoftmaxImpl::kHardware);
      Accelerator acc;
      AcceleratorStats stats;
      DecodeStepFuser fuser(acc, &stats);
      model.set_backend(accelerator ? accelerator_backend(qt, acc, &fuser)
                                    : qt.backend());
      model.translate_greedy(src, 8);
      model.set_backend(ResBlockBackend{});
      decoded = true;
    } catch (const CheckError&) {
      model.set_backend(ResBlockBackend{});
    }
    EXPECT_TRUE(decoded || !must_decode)
        << what << " threw CheckError on the "
        << (accelerator ? "accelerator" : "quantized") << " backend";
  }
}

void scale(MatF& m, float factor) {
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c) m(r, c) *= factor;
}

TEST(QuantizedTransformer, ExtremeFiniteWeightsDecodeOrThrow) {
  // Requantization scales so tiny that from_double normalized them to shift
  // 100, 127 and 71: rounding_shift_right then shifted past 64 bits.
  TransformerWeights w = tiny_weights();
  w.encoder_layers[0].ffn.w1(0, 0) = 1e30f;
  expect_decode_or_check_error(w, "encoder w1(0,0) = 1e30", false);
  w = tiny_weights();
  w.encoder_layers[0].ffn.w1(0, 0) = 1e38f;
  expect_decode_or_check_error(w, "encoder w1(0,0) = 1e38", false);
  w = tiny_weights();
  scale(w.encoder_layers[0].ffn.w2, 1e20f);
  expect_decode_or_check_error(w, "encoder w2 x 1e20", false);

  // Biases quantized to the int32 limit: the fused-bias GEMM's seed plus
  // the dot product overflowed int32.
  w = tiny_weights();
  w.encoder_layers[0].ffn.b2[0] = 1e38f;
  expect_decode_or_check_error(w, "encoder b2[0] = 1e38", false);
  w = tiny_weights();
  scale(w.encoder_layers[0].ffn.w2, 1e-10f);  // all 64 columns
  expect_decode_or_check_error(w, "encoder w2 x 1e-10", false);

  // Controls: extreme too, and they decoded cleanly before the guards.
  w = tiny_weights();
  scale(w.encoder_layers[0].ffn.w2, 1e10f);
  expect_decode_or_check_error(w, "encoder w2 x 1e10", true);
  w = tiny_weights();
  w.encoder_layers[0].mha.heads[0].wq(0, 0) = 1e-30f;
  expect_decode_or_check_error(w, "encoder wq(0,0) = 1e-30", true);
}

}  // namespace
}  // namespace tfacc
