#include "reference/decode_state.hpp"

#include "tensor/ops.hpp"

namespace tfacc {

RefMhaCache::RefMhaCache(std::size_t num_heads, int head_dim)
    : k(num_heads, MatF(0, head_dim)), v(num_heads, MatF(0, head_dim)) {}

MhaCachePtr RefMhaCache::clone() const {
  return std::make_unique<RefMhaCache>(*this);
}

int RefMhaCache::rows() const { return k.empty() ? 0 : k.front().rows(); }

MhaCachePtr ref_mha_self_cache(const MhaWeights& w) {
  TFACC_CHECK_ARG(!w.heads.empty());
  return std::make_unique<RefMhaCache>(w.heads.size(),
                                       w.heads.front().wk.cols());
}

MhaCachePtr ref_mha_cross_cache(const MatF& memory, const MhaWeights& w) {
  auto cache = ref_mha_self_cache(w);
  auto& ref = static_cast<RefMhaCache&>(*cache);
  for (std::size_t h = 0; h < w.heads.size(); ++h) {
    const auto& head = w.heads[h];
    ref.k[h].append_rows(add_bias(gemm(memory, head.wk), head.bk));
    ref.v[h].append_rows(add_bias(gemm(memory, head.wv), head.bv));
  }
  return cache;
}

MatF ref_mha_cached_batch(const MatF& q, const std::vector<MhaCache*>& caches,
                          const MhaWeights& w, const std::vector<Mask>& masks,
                          bool append) {
  return ref_mha_cached_batch_observed(q, caches, w, masks, append, nullptr);
}

MatF ref_mha_cached_batch_observed(
    const MatF& q, const std::vector<MhaCache*>& caches, const MhaWeights& w,
    const std::vector<Mask>& masks, bool append, MhaObserver* obs) {
  const int n = q.rows();
  TFACC_CHECK_ARG(static_cast<int>(caches.size()) == n &&
                  static_cast<int>(masks.size()) == n);
  const int head_dim = w.heads.front().wk.cols();
  // Heads write straight into their column block of P — no per-head output
  // list, no hconcat; matrix temporaries recycle through the byte pool, so a
  // warm step allocates nothing.
  MatF p(n, static_cast<int>(w.heads.size()) * head_dim);
  for (std::size_t h = 0; h < w.heads.size(); ++h) {
    const auto& head = w.heads[h];
    if (append) {
      // One stacked projection of every slot's new K/V row, scattered into
      // the per-slot caches (gemm/add_bias are row-independent, so row r
      // equals the row a per-slot projection would have produced).
      const MatF k_new = add_bias(gemm(q, head.wk), head.bk);
      const MatF v_new = add_bias(gemm(q, head.wv), head.bv);
      for (int r = 0; r < n; ++r) {
        auto& ref = dynamic_cast<RefMhaCache&>(*caches[static_cast<std::size_t>(r)]);
        ref.k[h].append_rows(k_new.block(r, 0, 1, head_dim));
        ref.v[h].append_rows(v_new.block(r, 0, 1, head_dim));
      }
      if (obs != nullptr) obs->key_value(h, k_new, v_new);
    }
    const MatF qi = add_bias(gemm(q, head.wq), head.bq);
    if (obs != nullptr) obs->query(h, qi);
    for (int r = 0; r < n; ++r) {
      const auto& ref =
          dynamic_cast<const RefMhaCache&>(*caches[static_cast<std::size_t>(r)]);
      p.set_block(r, static_cast<int>(h) * head_dim,
                  attention_head(qi.block(r, 0, 1, head_dim), ref.k[h],
                                 ref.v[h], masks[static_cast<std::size_t>(r)]));
    }
  }
  return mha_output_stage(q, p, w, obs);
}

DecodeState DecodeState::clone() const {
  DecodeState out;
  out.self_kv.reserve(self_kv.size());
  for (const auto& c : self_kv) out.self_kv.push_back(c->clone());
  out.cross_kv = cross_kv;  // immutable after begin_decode: share
  out.steps = steps;
  out.memory_rows = memory_rows;
  out.src_valid = src_valid;
  return out;
}

}  // namespace tfacc
