#include "quant/qtransformer.hpp"

namespace tfacc {

ResBlockBackend capturing_backend(CaptureStore& store) {
  // Only the batch-style hooks capture; the cached-MHA hooks keep their
  // reference defaults, so drive this backend with
  // DecodeMode::kFullRecompute (as build() does) to record every block.
  ResBlockBackend b;
  b.mha = [&store](const MatF& q, const MatF& kv, const MhaWeights& w,
                   const Mask& mask) {
    if (store.mha.find(&w) == store.mha.end()) store.mha_order.push_back(&w);
    auto& calib = store.mha[&w];
    calib.q.push_back(q);
    calib.kv.push_back(kv);
    calib.mask.push_back(mask);
    return mha_resblock(q, kv, w, mask);
  };
  b.ffn = [&store](const MatF& x, const FfnWeights& w) {
    if (store.ffn.find(&w) == store.ffn.end()) store.ffn_order.push_back(&w);
    store.ffn[&w].push_back(x);
    return ffn_resblock(x, w);
  };
  return b;
}

QuantizedTransformer QuantizedTransformer::build(
    Transformer& model, const std::vector<TokenSeq>& calib_sources,
    int max_len, SoftmaxImpl impl, CalibMethod method) {
  TFACC_CHECK_ARG(!calib_sources.empty());

  CaptureStore store;
  model.set_backend(capturing_backend(store));
  // Full recompute: the capturing backend only hooks the batch-style
  // mha/ffn calls, and calibration wants the same growing-prefix inputs
  // deployment's batch ResBlocks would see.
  for (const auto& src : calib_sources)
    model.translate_greedy(src, max_len, DecodeMode::kFullRecompute);
  model.set_backend(ResBlockBackend{});

  // Quantize in first-capture order, not hash-map order: the maps are keyed
  // by weight addresses, and iterating them would make the build sequence
  // (and any diagnostics it emits) depend on allocator placement.
  QuantizedTransformer qt;
  for (const MhaWeights* weights : store.mha_order)
    qt.mha_.emplace(weights, MhaQuantized::build(*weights, store.mha.at(weights),
                                                 impl, method));
  for (const FfnWeights* weights : store.ffn_order)
    qt.ffn_.emplace(weights, FfnQuantized::build(*weights,
                                                 store.ffn.at(weights), method));
  return qt;
}

const MhaQuantized& QuantizedTransformer::mha_for(const MhaWeights& w) const {
  const auto it = mha_.find(&w);
  TFACC_CHECK_ARG_MSG(it != mha_.end(),
                      "MHA block was not seen during calibration");
  return it->second;
}

const FfnQuantized& QuantizedTransformer::ffn_for(const FfnWeights& w) const {
  const auto it = ffn_.find(&w);
  TFACC_CHECK_ARG_MSG(it != ffn_.end(),
                      "FFN block was not seen during calibration");
  return it->second;
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
  model.set_backend(backend());
  TokenSeq out = model.translate_greedy(src, max_len, mode);
  model.set_backend(ResBlockBackend{});
  return out;
}

}  // namespace tfacc
