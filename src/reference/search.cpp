#include "reference/search.hpp"

#include <algorithm>
#include <cmath>

namespace tfacc {

namespace {

/// Row log-softmax of raw logits.
std::vector<float> log_softmax(const std::vector<float>& logits) {
  float mx = logits[0];
  for (float v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (float v : logits) sum += std::exp(static_cast<double>(v) - mx);
  const float log_z = mx + static_cast<float>(std::log(sum));
  std::vector<float> out(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - log_z;
  return out;
}

/// GNMT length-normalized score of a hypothesis with `emitted` tokens.
float beam_score(float logprob, int emitted, float alpha) {
  const float len = std::max(1.0f, static_cast<float>(emitted));
  return logprob / std::pow((5.0f + len) / 6.0f, alpha);
}

}  // namespace

// --- GreedySearch ------------------------------------------------------------

GreedySearch::GreedySearch(int max_len, std::optional<DecodeState> initial)
    : max_len_(max_len), state_(std::move(initial)) {
  TFACC_CHECK_ARG(max_len > 0);
}

int GreedySearch::input_token(int i) const {
  TFACC_CHECK_ARG(i == 0 && !done_);
  return prefix_.back();
}

const TokenSeq& GreedySearch::prefix(int i) const {
  TFACC_CHECK_ARG(i == 0 && !done_);
  return prefix_;
}

DecodeState& GreedySearch::state(int i) {
  TFACC_CHECK_ARG(i == 0 && !done_);
  TFACC_CHECK_ARG_MSG(state_.has_value(), "greedy search not in cached mode");
  return *state_;
}

void GreedySearch::advance(const std::vector<std::vector<float>>& logits) {
  TFACC_CHECK_ARG(!done_ && logits.size() == 1);
  const auto& row = logits.front();
  const int next = static_cast<int>(
      std::max_element(row.begin(), row.end()) - row.begin());
  if (next == kEosId) {
    done_ = true;
    return;
  }
  prefix_.push_back(next);
  if (static_cast<int>(prefix_.size()) - 1 >= max_len_) done_ = true;
}

TokenSeq GreedySearch::result() const {
  return TokenSeq(prefix_.begin() + 1, prefix_.end());
}

// --- BeamSearch --------------------------------------------------------------

BeamSearch::BeamSearch(int max_len, Transformer::BeamConfig beam,
                       std::optional<DecodeState> initial)
    : max_len_(max_len), beam_(beam), cached_(initial.has_value()) {
  TFACC_CHECK_ARG(max_len > 0);
  TFACC_CHECK_ARG(beam.beam_size >= 1);
  // A non-finite alpha makes every beam_score NaN, which breaks the strict
  // weak ordering the candidate sort in advance() relies on.
  TFACC_CHECK_ARG_MSG(std::isfinite(beam.length_penalty),
                      "length_penalty must be finite, got "
                          << beam.length_penalty);
  Hypothesis first;
  first.tokens = {kBosId};
  if (cached_) first.state = std::move(*initial);
  live_.push_back(std::move(first));
}

bool BeamSearch::done() const {
  return step_ >= max_len_ || live_.empty() ||
         static_cast<int>(finished_.size()) >= beam_.beam_size;
}

int BeamSearch::live() const {
  return done() ? 0 : static_cast<int>(live_.size());
}

int BeamSearch::input_token(int i) const {
  TFACC_CHECK_ARG(i >= 0 && i < live());
  return live_[static_cast<std::size_t>(i)].tokens.back();
}

const TokenSeq& BeamSearch::prefix(int i) const {
  TFACC_CHECK_ARG(i >= 0 && i < live());
  return live_[static_cast<std::size_t>(i)].tokens;
}

DecodeState& BeamSearch::state(int i) {
  TFACC_CHECK_ARG(i >= 0 && i < live());
  TFACC_CHECK_ARG_MSG(cached_, "beam search not in cached mode");
  return live_[static_cast<std::size_t>(i)].state;
}

void BeamSearch::advance(const std::vector<std::vector<float>>& logits) {
  TFACC_CHECK_ARG(!done());
  TFACC_CHECK_ARG(logits.size() == live_.size());

  // Candidates reference their parent index; only the survivors of the beam
  // cut pay a cache clone (the last child of each parent steals instead).
  struct Candidate {
    TokenSeq tokens;
    float logprob = 0.0f;
    bool finished = false;
    std::size_t parent = 0;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const Hypothesis& hyp = live_[i];
    const auto logp = log_softmax(logits[i]);
    // Top beam_size expansions of this hypothesis.
    std::vector<int> order(logp.size());
    for (std::size_t j = 0; j < order.size(); ++j)
      order[j] = static_cast<int>(j);
    const std::size_t keep = std::min<std::size_t>(
        order.size(), static_cast<std::size_t>(beam_.beam_size));
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](int a, int b) {
                        return logp[static_cast<std::size_t>(a)] >
                               logp[static_cast<std::size_t>(b)];
                      });
    for (std::size_t k = 0; k < keep; ++k) {
      Candidate next;
      next.tokens = hyp.tokens;
      next.tokens.push_back(order[k]);
      next.logprob = hyp.logprob + logp[static_cast<std::size_t>(order[k])];
      next.finished = order[k] == kEosId;
      next.parent = i;
      candidates.push_back(std::move(next));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const Candidate& a, const Candidate& b) {
              return beam_score(a.logprob,
                                static_cast<int>(a.tokens.size()) - 1,
                                beam_.length_penalty) >
                     beam_score(b.logprob,
                                static_cast<int>(b.tokens.size()) - 1,
                                beam_.length_penalty);
            });

  std::vector<Hypothesis> next_live;
  std::vector<std::size_t> parents;
  for (auto& cand : candidates) {
    if (cand.finished) {
      Hypothesis done_hyp;
      done_hyp.tokens = std::move(cand.tokens);
      done_hyp.logprob = cand.logprob;
      finished_.push_back(std::move(done_hyp));
    } else if (static_cast<int>(next_live.size()) < beam_.beam_size) {
      Hypothesis h;
      h.tokens = std::move(cand.tokens);
      h.logprob = cand.logprob;
      next_live.push_back(std::move(h));
      parents.push_back(cand.parent);
    }
    if (static_cast<int>(finished_.size()) >= beam_.beam_size) break;
  }
  if (cached_) {
    // Fork the caches: the last surviving child of each parent steals the
    // parent's (already advanced) state; only additional children pay a
    // deep clone. In the common one-survivor-per-parent case no clone
    // happens at all.
    std::vector<int> remaining(live_.size(), 0);
    for (const std::size_t p : parents) ++remaining[p];
    for (std::size_t i = 0; i < next_live.size(); ++i) {
      const std::size_t p = parents[i];
      next_live[i].state = --remaining[p] == 0 ? std::move(live_[p].state)
                                               : live_[p].state.clone();
    }
  }
  live_ = std::move(next_live);
  ++step_;
}

TokenSeq BeamSearch::result() const {
  // The best hypothesis over finished-then-live, first maximum on ties —
  // the order the in-loop version produced by appending live to finished.
  const Hypothesis* best = nullptr;
  float best_score = 0.0f;
  auto consider = [&](const Hypothesis& h) {
    const float s = beam_score(h.logprob, static_cast<int>(h.tokens.size()) - 1,
                               beam_.length_penalty);
    if (best == nullptr || s > best_score) {
      best = &h;
      best_score = s;
    }
  };
  for (const Hypothesis& h : finished_) consider(h);
  for (const Hypothesis& h : live_) consider(h);
  TFACC_CHECK(best != nullptr);
  TokenSeq out(best->tokens.begin() + 1, best->tokens.end());
  if (!out.empty() && out.back() == kEosId) out.pop_back();
  return out;
}

}  // namespace tfacc
