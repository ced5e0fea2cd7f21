#include "quant/qtransformer.hpp"

#include "reference/search.hpp"

namespace tfacc {

namespace {

// The entry of `blocks` whose weights are `w`, or nullptr. A model has at
// most 3 x layers blocks of a kind, so a scan is all a lookup needs.
template <typename Blocks, typename W>
auto find_block(Blocks& blocks, const W& w) -> decltype(&blocks.front()) {
  for (auto& block : blocks)
    if (block.weights == &w) return &block;
  return nullptr;
}

// Reinstalls the FP32 default backend on `model` when it leaves scope, on
// the exception path too: a backend left installed would outlive what it
// folds into (the calibration's ranges) or keep serving the wrong
// arithmetic.
class Fp32BackendOnExit {
 public:
  explicit Fp32BackendOnExit(Transformer& model) : model_(model) {}
  ~Fp32BackendOnExit() { model_.set_backend(ResBlockBackend{}); }
  Fp32BackendOnExit(const Fp32BackendOnExit&) = delete;
  Fp32BackendOnExit& operator=(const Fp32BackendOnExit&) = delete;

 private:
  Transformer& model_;
};

// The ranges of every block one calibration has seen, in first-seen order.
struct BlockRanges {
  struct Mha {
    const MhaWeights* weights;
    MhaRanges ranges;
  };
  struct Ffn {
    const FfnWeights* weights;
    FfnRanges ranges;
  };

  MhaRanges& of(const MhaWeights& w) {
    Mha* block = find_block(mha, w);
    if (block == nullptr)
      block = &mha.emplace_back(Mha{&w, MhaRanges(w.heads.size(), method)});
    return block->ranges;
  }
  FfnRanges& of(const FfnWeights& w) {
    Ffn* block = find_block(ffn, w);
    if (block == nullptr) block = &ffn.emplace_back(Ffn{&w, FfnRanges(method)});
    return block->ranges;
  }

  CalibMethod method;
  std::vector<Mha> mha;
  std::vector<Ffn> ffn;
};

// The FP32 reference backend, folding every value a block's INT8 build
// needs into that block's ranges as it computes it. Each hook folds the
// block's inputs; the observed forms fold the rest.
ResBlockBackend calibrating_backend(BlockRanges& blocks) {
  ResBlockBackend b;
  b.mha = [&blocks](const MatF& q, const MatF& kv, const MhaWeights& w,
                    const Mask& mask) {
    MhaRanges& r = blocks.of(w);
    r.q_in.add(q);
    r.kv_in.add(kv);
    return mha_resblock_observed(q, kv, w, mask, &r);
  };
  b.ffn = [&blocks](const MatF& x, const FfnWeights& w) {
    FfnRanges& r = blocks.of(w);
    r.in.add(x);
    return ffn_resblock_observed(x, w, &r);
  };
  // The cross cache projects the encoder memory once per sentence: its K=V
  // input, and each head's K/V rows.
  b.mha_cross_cache = [&blocks](const MatF& memory, const MhaWeights& w) {
    MhaRanges& r = blocks.of(w);
    r.kv_in.add(memory);
    MhaCachePtr cache = ref_mha_cross_cache(memory, w);
    const auto& ref = static_cast<const RefMhaCache&>(*cache);
    for (std::size_t h = 0; h < ref.k.size(); ++h)
      r.key_value(h, ref.k[h], ref.v[h]);
    return cache;
  };
  // A decode step's query rows are also the K=V input of the rows it
  // appends.
  b.mha_cached_batch = [&blocks](const MatF& q,
                                 const std::vector<MhaCache*>& caches,
                                 const MhaWeights& w,
                                 const std::vector<Mask>& masks, bool append) {
    MhaRanges& r = blocks.of(w);
    r.q_in.add(q);
    if (append) r.kv_in.add(q);
    return ref_mha_cached_batch_observed(q, caches, w, masks, append, &r);
  };
  return b;
}

// Greedy-decodes every source on `model`'s KV-cache path in lockstep: each
// step is one decode_step_batch with one row per sentence still decoding,
// so each weight matrix streams once per step rather than once per step of
// each sentence. Every FP32 op of that path is row-independent, so each
// row, and the search it feeds, equals the sentence's own translate_greedy.
void decode_in_lockstep(const Transformer& model,
                        const std::vector<TokenSeq>& sources, int max_len) {
  TFACC_CHECK_ARG(max_len > 0);
  std::vector<GreedySearch> searches;
  searches.reserve(sources.size());
  for (const TokenSeq& src : sources)
    searches.emplace_back(
        max_len, model.begin_decode(model.encode(src), unpadded_length(src)));
  std::vector<GreedySearch*> live;
  std::vector<DecodeState*> states;
  std::vector<int> tokens;
  MatF logits;
  for (;;) {
    live.clear();
    states.clear();
    tokens.clear();
    for (GreedySearch& s : searches) {
      if (s.done()) continue;
      live.push_back(&s);
      states.push_back(&s.state(0));
      tokens.push_back(s.input_token(0));
    }
    if (live.empty()) return;
    model.decode_step_batch(states, tokens, logits);
    for (std::size_t r = 0; r < live.size(); ++r) {
      const float* row = logits.row(static_cast<int>(r));
      live[r]->advance({std::vector<float>(row, row + logits.cols())});
    }
  }
}

}  // namespace

QuantizedTransformer QuantizedTransformer::build(
    Transformer& model, const std::vector<TokenSeq>& calib_sources,
    int max_len, SoftmaxImpl impl, CalibMethod method) {
  TFACC_CHECK_ARG(!calib_sources.empty());

  BlockRanges blocks{method, {}, {}};
  {
    const Fp32BackendOnExit restore(model);
    model.set_backend(calibrating_backend(blocks));
    decode_in_lockstep(model, calib_sources, max_len);
  }

  QuantizedTransformer qt;
  for (const BlockRanges::Mha& b : blocks.mha)
    qt.mha_.push_back(
        {b.weights, MhaQuantized::build(*b.weights, b.ranges, impl)});
  for (const BlockRanges::Ffn& b : blocks.ffn)
    qt.ffn_.push_back({b.weights, FfnQuantized::build(*b.weights, b.ranges)});
  return qt;
}

const MhaQuantized& QuantizedTransformer::mha_for(const MhaWeights& w) const {
  const MhaBlock* block = find_block(mha_, w);
  TFACC_CHECK_ARG_MSG(block != nullptr,
                      "MHA block was not seen during calibration");
  return block->q;
}

const FfnQuantized& QuantizedTransformer::ffn_for(const FfnWeights& w) const {
  const FfnBlock* block = find_block(ffn_, w);
  TFACC_CHECK_ARG_MSG(block != nullptr,
                      "FFN block was not seen during calibration");
  return block->q;
}

ResBlockBackend QuantizedTransformer::backend() const {
  ResBlockBackend b;
  b.mha = [this](const MatF& q, const MatF& kv, const MhaWeights& w,
                 const Mask& mask) {
    const MhaQuantized& qm = mha_for(w);
    return qm.dequantize_out(
        qm.forward(qm.quantize_q(q), qm.quantize_kv(kv), mask));
  };
  b.ffn = [this](const MatF& x, const FfnWeights& w) {
    const FfnQuantized& qf = ffn_for(w);
    return qf.dequantize_out(qf.forward(qf.quantize_in(x)));
  };
  b.mha_self_cache = [this](const MhaWeights& w) -> MhaCachePtr {
    return std::make_unique<QuantKvCache>(mha_for(w).make_cache());
  };
  b.mha_cross_cache = [this](const MatF& memory,
                             const MhaWeights& w) -> MhaCachePtr {
    const MhaQuantized& qm = mha_for(w);
    auto cache = std::make_unique<QuantKvCache>(qm.make_cache());
    qm.append_kv(qm.quantize_kv(memory), *cache);
    return cache;
  };
  // Packed decode: the stacked rows share one quantization pass per scale
  // (q_in for queries/residual, kv_in for the appended K/V) and one
  // projection per weight matrix; attention stays per slot.
  b.mha_cached_batch = [this](const MatF& q,
                              const std::vector<MhaCache*>& caches,
                              const MhaWeights& w,
                              const std::vector<Mask>& masks, bool append) {
    const MhaQuantized& qm = mha_for(w);
    // Thread-local marshalling scratch: zero heap allocations once warm.
    BatchHookScratch& s = batch_hook_scratch();
    quant_kv_caches_into(caches, s);
    mask_ptrs_into(masks, s);
    if (append) qm.append_kv_batch(qm.quantize_kv(q), s.kv);
    return qm.dequantize_out(
        qm.forward_cached_batch(qm.quantize_q(q), s.ckv, s.masks));
  };
  return b;
}

TokenSeq QuantizedTransformer::translate_greedy(Transformer& model,
                                                const TokenSeq& src,
                                                int max_len,
                                                DecodeMode mode) const {
  const Fp32BackendOnExit restore(model);
  model.set_backend(backend());
  return model.translate_greedy(src, max_len, mode);
}

}  // namespace tfacc
