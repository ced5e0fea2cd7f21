#include "reference/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "reference/search.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace tfacc {

namespace {
// Initial positional-table allocation; positions() grows past it on demand.
constexpr int kInitialPositions = 512;

// The kInitialPositions-row table of each width, built once per process and
// shared by every view over that width, so a further view (a serve card's
// encoder view, say) builds no table. The encoding is a pure function of
// position and width, so sharing changes no value. A view that needs more
// rows grows a table of its own, so no decode takes this lock.
class InitialPositions {
 public:
  std::shared_ptr<const MatF> get(int d_model) TFACC_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    std::shared_ptr<const MatF>& table = tables_[d_model];
    if (table == nullptr)
      table = std::make_shared<const MatF>(
          positional_encoding(kInitialPositions, d_model));
    return table;
  }

 private:
  Mutex mu_;
  std::map<int, std::shared_ptr<const MatF>> tables_ TFACC_GUARDED_BY(mu_);
};

std::shared_ptr<const MatF> initial_positions(int d_model) {
  static InitialPositions cache;
  return cache.get(d_model);
}

// Thread-local scratch of the packed decode step (decode_step_batch): the
// per-slot mask and cache-pointer lists are rebuilt each step, but their
// buffers persist across steps, keeping the warm step loop allocation-free.
struct StepScratch {
  std::vector<Mask> self_masks, cross_masks;
  std::vector<MhaCache*> self_caches, cross_caches;
};

StepScratch& step_scratch() {
  thread_local StepScratch s;
  return s;
}

/// Does this std::function still hold the free function it was defaulted to?
template <typename Sig, typename Fn>
bool holds_default(const std::function<Sig>& f, Fn* def) {
  Fn* const* target = f.template target<Fn*>();
  return target != nullptr && *target == def;
}
}  // namespace

bool ResBlockBackend::supports_cached_decode() const {
  if (!mha_cached_batch || !mha_self_cache || !mha_cross_cache) return false;
  const bool cached_is_default =
      holds_default(mha_cached_batch, &ref_mha_cached_batch) &&
      holds_default(mha_self_cache, &ref_mha_self_cache) &&
      holds_default(mha_cross_cache, &ref_mha_cross_cache);
  // Default cached hooks only match a default mha; overridden cached hooks
  // are the author's claim of consistency and are trusted.
  return !cached_is_default || holds_default(mha, &mha_resblock);
}

int unpadded_length(const TokenSeq& seq) {
  int valid = static_cast<int>(seq.size());
  while (valid > 0 && seq[static_cast<std::size_t>(valid - 1)] == kPadId)
    --valid;
  return valid;
}

MatF positional_encoding(int max_len, int d_model) {
  TFACC_CHECK_ARG(max_len > 0 && d_model > 0 && d_model % 2 == 0);
  MatF pe(max_len, d_model);
  for (int pos = 0; pos < max_len; ++pos) {
    for (int i = 0; i < d_model / 2; ++i) {
      const double angle =
          pos / std::pow(10000.0, (2.0 * i) / static_cast<double>(d_model));
      pe(pos, 2 * i) = static_cast<float>(std::sin(angle));
      pe(pos, 2 * i + 1) = static_cast<float>(std::cos(angle));
    }
  }
  return pe;
}

Transformer::Transformer(TransformerWeights weights)
    : Transformer(
          std::make_shared<const TransformerWeights>(std::move(weights))) {}

Transformer::Transformer(std::shared_ptr<const TransformerWeights> weights)
    : weights_(std::move(weights)) {
  TFACC_CHECK_ARG_MSG(weights_ != nullptr, "Transformer needs weights");
  weights_->config.validate();
  pos_encoding_ = initial_positions(weights_->config.d_model);
}

std::shared_ptr<const MatF> Transformer::positions(int rows) const {
  const MutexLock lock(pos_mu_);
  if (rows > pos_encoding_->rows()) {
    const int grown = std::max(rows, 2 * pos_encoding_->rows());
    pos_encoding_ = std::make_shared<const MatF>(
        positional_encoding(grown, weights_->config.d_model));
  }
  return pos_encoding_;
}

MatF Transformer::embed(const TokenSeq& tokens, const MatF& embedding) const {
  TFACC_CHECK_ARG(!tokens.empty());
  const int d_model = weights_->config.d_model;
  const float scale = std::sqrt(static_cast<float>(d_model));
  const auto pe = positions(static_cast<int>(tokens.size()));
  MatF out(static_cast<int>(tokens.size()), d_model);
  for (int r = 0; r < out.rows(); ++r) {
    const int id = tokens[static_cast<std::size_t>(r)];
    TFACC_CHECK_ARG_MSG(id >= 0 && id < weights_->vocab_size,
                        "token id " << id);
    for (int c = 0; c < d_model; ++c)
      out(r, c) = embedding(id, c) * scale + (*pe)(r, c);
  }
  return out;
}

MatF Transformer::encode(const TokenSeq& src) const {
  MatF x = embed(src, weights_->src_embedding);
  const int s = x.rows();
  // Padding tokens (id 0) at the tail are masked from attention keys.
  const Mask mask = padding_mask(s, s, unpadded_length(src));
  for (const auto& layer : weights_->encoder_layers) {
    x = backend_.mha(x, x, layer.mha, mask);
    x = backend_.ffn(x, layer.ffn);
  }
  return x;
}

MatF Transformer::decode_states(const TokenSeq& tgt, const MatF& memory,
                                int src_valid_len) const {
  MatF y = embed(tgt, weights_->tgt_embedding);
  const int t = y.rows();
  const Mask self_mask = causal_mask(t);
  const Mask cross_mask = padding_mask(t, memory.rows(), src_valid_len);
  for (const auto& layer : weights_->decoder_layers) {
    y = backend_.mha(y, y, layer.self_mha, self_mask);
    y = backend_.mha(y, memory, layer.cross_mha, cross_mask);
    y = backend_.ffn(y, layer.ffn);
  }
  return y;
}

std::vector<float> Transformer::next_token_logits(const TokenSeq& tgt,
                                                  const MatF& memory,
                                                  int src_valid_len) const {
  const MatF states = decode_states(tgt, memory, src_valid_len);
  const MatF last = states.block(states.rows() - 1, 0, 1, states.cols());
  const MatF logits = gemm(last, weights_->output_projection);
  std::vector<float> out(static_cast<std::size_t>(logits.cols()));
  for (int c = 0; c < logits.cols(); ++c)
    out[static_cast<std::size_t>(c)] = logits(0, c);
  return out;
}

DecodeState Transformer::begin_decode(const MatF& memory,
                                      int src_valid_len) const {
  TFACC_CHECK_ARG(src_valid_len >= 0 && src_valid_len <= memory.rows());
  DecodeState state;
  state.memory_rows = memory.rows();
  state.src_valid = src_valid_len;
  state.self_kv.reserve(weights_->decoder_layers.size());
  state.cross_kv.reserve(weights_->decoder_layers.size());
  for (const auto& layer : weights_->decoder_layers) {
    state.self_kv.push_back(backend_.mha_self_cache(layer.self_mha));
    state.cross_kv.emplace_back(
        backend_.mha_cross_cache(memory, layer.cross_mha));
  }
  return state;
}

std::vector<float> Transformer::decode_step(DecodeState& state,
                                            int token) const {
  MatF logits;
  decode_step_batch({&state}, {token}, logits);
  return std::vector<float>(logits.row(0), logits.row(0) + logits.cols());
}

void Transformer::decode_step_batch(const std::vector<DecodeState*>& states,
                                    const std::vector<int>& tokens,
                                    MatF& logits) const {
  TFACC_CHECK_ARG(!states.empty() && states.size() == tokens.size());
  const int n = static_cast<int>(states.size());
  const int vocab = weights_->output_projection.cols();
  if (logits.rows() != n || logits.cols() != vocab) logits = MatF(n, vocab);

  const int d_model = weights_->config.d_model;
  const float scale = std::sqrt(static_cast<float>(d_model));
  int max_pos = 0;
  for (int i = 0; i < n; ++i) {
    const DecodeState& s = *states[static_cast<std::size_t>(i)];
    TFACC_CHECK_ARG(s.self_kv.size() == weights_->decoder_layers.size());
    const int tok = tokens[static_cast<std::size_t>(i)];
    TFACC_CHECK_ARG_MSG(tok >= 0 && tok < weights_->vocab_size,
                        "token id " << tok);
    max_pos = std::max(max_pos, s.steps);
  }
  const auto pe = positions(max_pos + 1);

  // Per-thread step scratch: the mask and cache-pointer lists are rebuilt
  // every step but keep their buffers, so a warm step allocates nothing
  // (the masks themselves draw from the recycling byte pool).
  StepScratch& sc = step_scratch();

  // Stack every hypothesis's embedded input row (each at its own position).
  MatF y(n, d_model);
  sc.self_masks.clear();
  sc.cross_masks.clear();
  for (int i = 0; i < n; ++i) {
    const DecodeState& s = *states[static_cast<std::size_t>(i)];
    const int tok = tokens[static_cast<std::size_t>(i)];
    for (int c = 0; c < d_model; ++c)
      y(i, c) = weights_->tgt_embedding(tok, c) * scale + (*pe)(s.steps, c);
    // Row `steps` of causal_mask(steps + 1): every row the self cache holds
    // after this step's append.
    sc.self_masks.push_back(no_mask(1, s.steps + 1));
    sc.cross_masks.push_back(padding_mask(1, s.memory_rows, s.src_valid));
  }

  sc.self_caches.resize(states.size());
  sc.cross_caches.resize(states.size());
  for (std::size_t li = 0; li < weights_->decoder_layers.size(); ++li) {
    const auto& layer = weights_->decoder_layers[li];
    for (std::size_t i = 0; i < states.size(); ++i) {
      sc.self_caches[i] = states[i]->self_kv[li].get();
      sc.cross_caches[i] = states[i]->cross_kv[li].get();
    }
    y = backend_.mha_cached_batch(y, sc.self_caches, layer.self_mha,
                                  sc.self_masks, /*append=*/true);
    y = backend_.mha_cached_batch(y, sc.cross_caches, layer.cross_mha,
                                  sc.cross_masks, /*append=*/false);
    y = backend_.ffn(y, layer.ffn);
  }
  for (DecodeState* s : states) ++s->steps;

  kernels::gemm_f32_into(y, weights_->output_projection, logits);
}

TokenSeq Transformer::translate_beam(const TokenSeq& src, int max_len,
                                     const BeamConfig& beam,
                                     DecodeMode mode) const {
  TFACC_CHECK_ARG(max_len > 0);
  TFACC_CHECK_ARG(beam.beam_size >= 1);
  const MatF memory = encode(src);
  const int src_valid = unpadded_length(src);
  const bool cached = mode == DecodeMode::kKvCache &&
                      backend_.supports_cached_decode();

  // Invariant of a cached hypothesis: its state has consumed every token but
  // the last, so one decode_step(input_token) yields the next logits. The
  // serve/ scheduler drives the same BeamSearch machine with packed steps,
  // which is what makes its outputs bit-identical to this serial loop.
  BeamSearch search(max_len, beam,
                    cached ? std::optional<DecodeState>(
                                 begin_decode(memory, src_valid))
                           : std::nullopt);
  while (!search.done()) {
    std::vector<std::vector<float>> logits;
    logits.reserve(static_cast<std::size_t>(search.live()));
    for (int i = 0; i < search.live(); ++i)
      logits.push_back(cached
                           ? decode_step(search.state(i), search.input_token(i))
                           : next_token_logits(search.prefix(i), memory,
                                               src_valid));
    search.advance(logits);
  }
  return search.result();
}

TokenSeq Transformer::translate_beam(const TokenSeq& src, int max_len) const {
  return translate_beam(src, max_len, BeamConfig{});
}

TokenSeq Transformer::translate_greedy(const TokenSeq& src, int max_len,
                                       DecodeMode mode) const {
  TFACC_CHECK_ARG(max_len > 0);
  const MatF memory = encode(src);
  const int src_valid = unpadded_length(src);
  const bool cached = mode == DecodeMode::kKvCache &&
                      backend_.supports_cached_decode();

  GreedySearch search(max_len,
                      cached ? std::optional<DecodeState>(
                                   begin_decode(memory, src_valid))
                             : std::nullopt);
  while (!search.done()) {
    search.advance({cached ? decode_step(search.state(0),
                                         search.input_token(0))
                           : next_token_logits(search.prefix(0), memory,
                                               src_valid)});
  }
  return search.result();
}

}  // namespace tfacc
