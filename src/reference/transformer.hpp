// Full encoder-decoder Transformer inference (Fig. 1), FP32.
//
// The paper's accelerator covers the MHA/FFN ResBlocks; embeddings, the
// positional encoding and the output softmax stay on the host. This module
// is the host-side golden model, and its ResBlock calls can be swapped for
// quantized or accelerator-simulated implementations via ResBlockBackend.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"
#include "reference/decode_state.hpp"
#include "reference/functional.hpp"
#include "reference/weights.hpp"

namespace tfacc {

/// Token ids. Conventions (shared with src/nlp): 0=PAD, 1=BOS, 2=EOS.
using TokenSeq = std::vector<int>;

constexpr int kPadId = 0;
constexpr int kBosId = 1;
constexpr int kEosId = 2;

/// Length of `seq` with trailing PAD tokens trimmed (attention-mask extent).
int unpadded_length(const TokenSeq& seq);

/// Sinusoidal positional encoding, rows = positions, cols = d_model
/// (Vaswani et al. 2017, Eq. 5.1; referenced by Fig. 1).
MatF positional_encoding(int max_len, int d_model);

/// Pluggable ResBlock implementations so the same decode loop can run on the
/// FP32 reference, the INT8 functional model, or the accelerator simulator.
///
/// The two cache factories and mha_cached_batch are the incremental-decode
/// interface; they must agree row-for-row with `mha` (the defaults do, and
/// so do the quantized and accelerator backends). A backend overriding
/// `mha` should override them together; if it does not,
/// supports_cached_decode() turns false and the decode loops fall back to
/// DecodeMode::kFullRecompute (which only ever calls `mha`/`ffn`), so a
/// partial override can never silently bypass the custom `mha`.
struct ResBlockBackend {
  std::function<MatF(const MatF& q, const MatF& kv, const MhaWeights&,
                     const Mask&)>
      mha = mha_resblock;
  std::function<MatF(const MatF& x, const FfnWeights&)> ffn = ffn_resblock;

  /// Empty self-attention cache for `w` (rows appended per decode step).
  std::function<MhaCachePtr(const MhaWeights&)> mha_self_cache =
      ref_mha_self_cache;
  /// Cross-attention cache with K/V projected once from the encoder memory.
  std::function<MhaCachePtr(const MatF& memory, const MhaWeights&)>
      mha_cross_cache = ref_mha_cross_cache;
  /// Cached MHA ResBlock over packed hypotheses: row r of q attends over
  /// caches[r] under masks[r], first appending its own K/V row to caches[r]
  /// when `append`. Row r must equal what `mha` computes for that row over
  /// the cached K/V (trivially true for the defaults and the shipped
  /// backends: every op is row-independent, the packing only amortizes
  /// projections/quantization). Serial decode is the one-row case.
  std::function<MatF(const MatF& q, const std::vector<MhaCache*>& caches,
                     const MhaWeights&, const std::vector<Mask>& masks,
                     bool append)>
      mha_cached_batch = ref_mha_cached_batch;

  /// True when the cached hooks can be trusted to agree with `mha`: either
  /// everything is still the reference default, or the cached hooks were
  /// overridden (deliberately, alongside `mha`). False — e.g. a custom
  /// `mha` with default cached hooks — makes the decode loops fall back to
  /// full recompute rather than compute attention with the wrong backend.
  bool supports_cached_decode() const;
};

/// How translate_greedy / translate_beam run the decoder stack. Both modes
/// produce bit-identical token sequences; kKvCache is O(L²) per sentence
/// where kFullRecompute is O(L³).
enum class DecodeMode {
  kKvCache,        ///< incremental: one new row per step over cached K/V
  kFullRecompute,  ///< re-run every layer over the whole prefix per step
};

/// Encoder-decoder Transformer inference engine.
class Transformer {
 public:
  /// Takes `weights` into a read-only block of its own.
  explicit Transformer(TransformerWeights weights);
  /// A view over weights that other Transformers may share (the cards of a
  /// serving farm): nothing is copied. Every view over one width starts from
  /// one shared positional table. The view owns only its backend and any
  /// growth of that table, and never writes the weights, so views may decode
  /// concurrently. QuantizedTransformer blocks are addressed by these
  /// weights, so one quantization serves every view over them.
  explicit Transformer(std::shared_ptr<const TransformerWeights> weights);

  const TransformerWeights& weights() const { return *weights_; }

  /// Replace the ResBlock implementations (e.g. with the accelerator).
  void set_backend(ResBlockBackend backend) { backend_ = std::move(backend); }

  /// Embed + positional-encode a token sequence (s × d_model). The
  /// positional table grows on demand — sequences are not capped at the
  /// construction-time length.
  MatF embed(const TokenSeq& tokens, const MatF& embedding) const;

  /// Run the encoder stack over an embedded source. `src_valid_len` marks
  /// padding for the attention mask.
  MatF encode(const TokenSeq& src) const;

  /// One decoder forward pass over `tgt` given encoder memory; returns the
  /// d_model states of every target position.
  MatF decode_states(const TokenSeq& tgt, const MatF& memory,
                     int src_valid_len) const;

  /// Logits of the *last* target position (vocab-sized row), full recompute.
  std::vector<float> next_token_logits(const TokenSeq& tgt, const MatF& memory,
                                       int src_valid_len) const;

  /// Begin an incremental decode against `memory`: build per-decoder-layer
  /// cross-attention caches and empty self-attention caches.
  DecodeState begin_decode(const MatF& memory, int src_valid_len) const;

  /// Feed `token` at the next target position (state.steps), advancing the
  /// state, and return the vocab logits row for the following position:
  /// a one-row decode_step_batch. Bit-identical to next_token_logits over
  /// the same token prefix.
  std::vector<float> decode_step(DecodeState& state, int token) const;

  /// One packed decode step over many independent hypotheses: feeds
  /// tokens[i] into *states[i] (each at its own position, against its own
  /// caches and masks — lengths may be ragged) through ONE stacked ResBlock
  /// pass per decoder sublayer, and writes hypothesis i's logits into row i
  /// of `logits` (reshaped to n × vocab only when its shape differs,
  /// drawing from the recycling byte pool). Row i is bit-identical to
  /// decode_step(*states[i], tokens[i]) run alone, because every op in the
  /// stack is row-independent; the packing exists so the systolic array
  /// streams full tiles instead of single rows. Self caches must be
  /// distinct objects; cross caches may be shared (beam siblings). A warm
  /// call performs ZERO heap allocations — every temporary recycles through
  /// the thread-local pool or persistent scratch (tests/test_kernels.cpp
  /// enforces this with an operator-new counter).
  void decode_step_batch(const std::vector<DecodeState*>& states,
                         const std::vector<int>& tokens, MatF& logits) const;

  /// Greedy autoregressive translation: BOS ... EOS, capped at max_len.
  /// The returned sequence excludes BOS and EOS.
  TokenSeq translate_greedy(const TokenSeq& src, int max_len,
                            DecodeMode mode = DecodeMode::kKvCache) const;

  /// Beam-search decoding parameters (GNMT-style length normalization:
  /// score = logprob / ((5 + len) / 6)^alpha).
  struct BeamConfig {
    int beam_size = 4;
    float length_penalty = 0.6f;
  };

  /// Beam-search translation; beam_size 1 degenerates to greedy.
  /// The returned sequence excludes BOS and EOS.
  TokenSeq translate_beam(const TokenSeq& src, int max_len,
                          const BeamConfig& beam,
                          DecodeMode mode = DecodeMode::kKvCache) const;
  /// Overload with default BeamConfig (beam 4, length penalty 0.6).
  TokenSeq translate_beam(const TokenSeq& src, int max_len) const;

 private:
  /// Snapshot of the positional-encoding table with at least `rows` rows;
  /// regrown geometrically when a longer sequence arrives. Growth swaps in a
  /// fresh table under a lock and earlier snapshots stay alive (shared_ptr),
  /// so concurrent const decodes on one model remain safe — and the
  /// encoding is a pure function of (position, d_model), so every regrowth
  /// reproduces existing rows bit-for-bit.
  std::shared_ptr<const MatF> positions(int rows) const
      TFACC_EXCLUDES(pos_mu_);

  std::shared_ptr<const TransformerWeights> weights_;  // never null
  ResBlockBackend backend_;
  mutable Mutex pos_mu_;
  mutable std::shared_ptr<const MatF> pos_encoding_
      TFACC_GUARDED_BY(pos_mu_);  // see positions()
};

}  // namespace tfacc
