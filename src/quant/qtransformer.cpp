#include "quant/qtransformer.hpp"

#include <algorithm>

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
// captured (a CaptureStore) or keep serving the wrong arithmetic.
class Fp32BackendOnExit {
 public:
  explicit Fp32BackendOnExit(Transformer& model) : model_(model) {}
  ~Fp32BackendOnExit() { model_.set_backend(ResBlockBackend{}); }
  Fp32BackendOnExit(const Fp32BackendOnExit&) = delete;
  Fp32BackendOnExit& operator=(const Fp32BackendOnExit&) = delete;

 private:
  Transformer& model_;
};

}  // namespace

ResBlockBackend capturing_backend(CaptureStore& store) {
  // Only the batch-style hooks capture; the cached-MHA hooks keep their
  // reference defaults, so drive this backend with batch calls (encode,
  // decode_states, as build() does) to record every block. A greedy decode
  // falls back to full recompute, which records each prefix row again at
  // every later step.
  ResBlockBackend b;
  b.mha = [&store](const MatF& q, const MatF& kv, const MhaWeights& w,
                   const Mask& mask) {
    CaptureStore::Mha* block = find_block(store.mha, w);
    if (block == nullptr)
      block = &store.mha.emplace_back(CaptureStore::Mha{&w, {}});
    block->calib.q.push_back(q);
    block->calib.kv.push_back(kv);
    block->calib.mask.push_back(mask);
    return mha_resblock(q, kv, w, mask);
  };
  b.ffn = [&store](const MatF& x, const FfnWeights& w) {
    CaptureStore::Ffn* block = find_block(store.ffn, w);
    if (block == nullptr)
      block = &store.ffn.emplace_back(CaptureStore::Ffn{&w, {}});
    block->inputs.push_back(x);
    return ffn_resblock(x, w);
  };
  return b;
}

QuantizedTransformer QuantizedTransformer::build(
    Transformer& model, const std::vector<TokenSeq>& calib_sources,
    int max_len, SoftmaxImpl impl, CalibMethod method) {
  TFACC_CHECK_ARG(!calib_sources.empty());

  CaptureStore store;
  {
    const Fp32BackendOnExit restore(model);
    for (const TokenSeq& src : calib_sources) {
      // Decode on the FP32 KV-cache path, then capture one teacher-forced
      // pass over every token the decode fed: BOS + output, less the last
      // output token when the length cap stopped the decode. Attention is
      // causal and every other op is row-independent, so the pass computes
      // each row exactly as the decode step that fed it did.
      model.set_backend(ResBlockBackend{});
      const TokenSeq out = model.translate_greedy(src, max_len);
      TokenSeq fed{kBosId};
      fed.insert(fed.end(), out.begin(), out.end());
      fed.resize(std::min(fed.size(), static_cast<std::size_t>(max_len)));
      model.set_backend(capturing_backend(store));
      model.decode_states(fed, model.encode(src), unpadded_length(src));
    }
  }

  QuantizedTransformer qt;
  for (const CaptureStore::Mha& b : store.mha)
    qt.mha_.push_back(
        {b.weights, MhaQuantized::build(*b.weights, b.calib, impl, method)});
  for (const CaptureStore::Ffn& b : store.ffn)
    qt.ffn_.push_back(
        {b.weights, FfnQuantized::build(*b.weights, b.inputs, method)});
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
