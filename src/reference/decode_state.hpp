// Incremental (KV-cached) decoding state.
//
// Autoregressive decoding re-reads the keys and values of every earlier
// position at every step; recomputing them from scratch makes one sentence
// O(L³) in emitted length. Every operation in the decoder stack is
// row-independent (gemm, bias, softmax, LayerNorm and the quantizers all
// process one row from that row's inputs alone), so projecting K/V once per
// position and replaying the stored rows is *bit-identical* to the full
// recompute — the property the equivalence suite in tests/test_kv_cache.cpp
// pins down for all three backends.
//
// A backend owns the representation of its cache (FP32 rows here; the INT8
// backends store the already-quantized rows so no requantization drift can
// occur); the decode loop only sees the MhaCache interface. Every cached
// attention call is packed: one query row per hypothesis, each against its
// own cache, and serial decode is simply the one-row case.
#pragma once

#include <memory>
#include <vector>

#include "reference/functional.hpp"
#include "reference/weights.hpp"

namespace tfacc {

/// Per-layer attention K/V cache, owned by the backend that created it.
class MhaCache {
 public:
  virtual ~MhaCache() = default;
  /// Deep copy, for beam-search hypothesis forking.
  virtual std::unique_ptr<MhaCache> clone() const = 0;
  /// Number of key/value rows currently cached.
  virtual int rows() const = 0;
};

using MhaCachePtr = std::unique_ptr<MhaCache>;

/// FP32 reference cache: the projected K/V rows of every head.
class RefMhaCache final : public MhaCache {
 public:
  RefMhaCache(std::size_t num_heads, int head_dim);
  MhaCachePtr clone() const override;
  int rows() const override;

  std::vector<MatF> k, v;  // per head, rows × head_dim
};

/// Reference implementations of the cached-MHA backend hooks
/// (the ResBlockBackend defaults, mirroring mha_resblock).
MhaCachePtr ref_mha_self_cache(const MhaWeights& w);
MhaCachePtr ref_mha_cross_cache(const MatF& memory, const MhaWeights& w);
/// Packed cached MHA over many independent hypotheses: row r of `q` belongs
/// to slot r. With `append`, it is first projected into caches[r] (decoder
/// self-attention — K = V = the new row); then it attends over caches[r]
/// under masks[r] (1 × caches[r]->rows() after the append). Projections run
/// over the stacked rows in one GEMM; attention stays per slot. With
/// `append`, caches must be distinct objects (each slot appends its own
/// row); without it, sharing a cache across slots is fine (read-only).
MatF ref_mha_cached_batch(const MatF& q, const std::vector<MhaCache*>& caches,
                          const MhaWeights& w, const std::vector<Mask>& masks,
                          bool append);
/// ref_mha_cached_batch, reporting to `obs` when it is not null: per head
/// the query projection and, with `append`, the K/V rows it appends; then
/// P, G and the output. Without an observer it is ref_mha_cached_batch and
/// allocates nothing more, so a warm step still allocates nothing.
MatF ref_mha_cached_batch_observed(
    const MatF& q, const std::vector<MhaCache*>& caches, const MhaWeights& w,
    const std::vector<Mask>& masks, bool append, MhaObserver* obs);

/// The whole incremental-decode state of one hypothesis: per-decoder-layer
/// self-attention caches (grown one row per step) and cross-attention caches
/// (projected once from the encoder memory, immutable afterwards and shared
/// between forked hypotheses).
struct DecodeState {
  std::vector<MhaCachePtr> self_kv;
  std::vector<std::shared_ptr<MhaCache>> cross_kv;
  int steps = 0;        ///< target rows fed so far (= position of next token)
  int memory_rows = 0;  ///< encoder memory rows (cross-attention key count)
  int src_valid = 0;    ///< non-padding source length for the cross mask

  /// Deep-copies the self caches; cross caches are shared (never mutated).
  DecodeState clone() const;
};

}  // namespace tfacc
