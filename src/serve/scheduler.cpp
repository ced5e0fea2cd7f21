#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "core/schedules.hpp"
#include "reference/search.hpp"
#include "serve/admission_gate.hpp"
#include "serve/card_admission.hpp"
#include "serve/worker_pool.hpp"

namespace tfacc {

void SchedulerConfig::validate() const {
  TFACC_CHECK_ARG_MSG(num_cards >= 1,
                      "num_cards must be >= 1, got " << num_cards);
  TFACC_CHECK_ARG_MSG(max_len >= 1, "max_len must be >= 1, got " << max_len);
  TFACC_CHECK_ARG_MSG(beam_size >= 0,
                      "beam_size must be >= 0, got " << beam_size);
  TFACC_CHECK_ARG_MSG(std::isfinite(length_penalty),
                      "length_penalty must be finite, got " << length_penalty);
  TFACC_CHECK_ARG_MSG(slots_per_card >= slot_demand(),
                      "slots_per_card must be >= " << slot_demand()
                          << " (one sentence's hypotheses), got "
                          << slots_per_card);
  TFACC_CHECK_ARG_MSG(host_threads >= 0,
                      "host_threads must be >= 0 (0 = auto), got "
                          << host_threads);
  accel.validate();
}

Cycle ScheduleReport::makespan_cycles() const {
  Cycle m = 0;
  for (const AcceleratorStats& s : per_card)
    m = std::max(m, s.total_cycles());
  return m;
}

Cycle ScheduleReport::total_cycles() const {
  Cycle t = 0;
  for (const AcceleratorStats& s : per_card) t += s.total_cycles();
  return t;
}

double ScheduleReport::modeled_sentences_per_second() const {
  const Cycle makespan = makespan_cycles();
  if (makespan <= 0) return 0.0;
  return sentences() * clock_mhz * 1e6 / static_cast<double>(makespan);
}

long ScheduleReport::packed_steps() const {
  long n = 0;
  for (const CardStepStats& s : per_card_steps) n += s.steps;
  return n;
}

long ScheduleReport::packed_rows() const {
  long n = 0;
  for (const CardStepStats& s : per_card_steps) n += s.packed_rows;
  return n;
}

double ScheduleReport::packed_rows_mean() const {
  const long steps = packed_steps();
  return steps <= 0 ? 0.0
                    : static_cast<double>(packed_rows()) / steps;
}

double ScheduleReport::sa_utilization() const {
  const Cycle total = total_cycles();
  return total == 0 ? 0.0 : static_cast<double>(sa_busy_cycles()) / total;
}

Cycle ScheduleReport::sa_busy_cycles() const {
  Cycle busy = 0;
  for (const AcceleratorStats& s : per_card) busy += s.sa_busy_cycles;
  return busy;
}

Cycle ScheduleReport::softmax_busy_cycles() const {
  Cycle busy = 0;
  for (const AcceleratorStats& s : per_card) busy += s.softmax_busy_cycles;
  return busy;
}

Cycle ScheduleReport::layernorm_busy_cycles() const {
  Cycle busy = 0;
  for (const AcceleratorStats& s : per_card) busy += s.layernorm_busy_cycles;
  return busy;
}

Cycle ScheduleReport::softmax_stall_cycles() const {
  Cycle stall = 0;
  for (const AcceleratorStats& s : per_card) stall += s.softmax_stall_cycles;
  return stall;
}

Cycle ScheduleReport::boundary_stall_cycles() const {
  Cycle stall = 0;
  for (const AcceleratorStats& s : per_card) stall += s.boundary_stall_cycles;
  return stall;
}

Cycle ScheduleReport::prefill_stall_cycles() const {
  Cycle stall = 0;
  for (const AcceleratorStats& s : per_card) stall += s.prefill_stall_cycles;
  return stall;
}

long ScheduleReport::prefill_chunks() const {
  long n = 0;
  for (const CardStepStats& s : per_card_steps) n += s.prefill_chunks;
  return n;
}

// One card's mutable state: two Transformer views over the farm's shared
// weights and, on the accelerator backend, a cycle-level simulator. `model`
// decodes on the backend each run installs (timed on the accelerator);
// `encoder` runs admissions' encoder passes on the same backend untimed,
// since the step loop times an encoder pass from its shape. The INT8 model
// is the farm's.
struct Scheduler::Card {
  std::optional<Accelerator> acc;
  Transformer model;
  Transformer encoder;

  Card(std::shared_ptr<const TransformerWeights> weights,
       const SchedulerConfig& cfg)
      : model(weights), encoder(std::move(weights)) {
    if (cfg.backend == ServeBackend::kAccelerator) acc.emplace(cfg.accel);
  }
};

namespace {

std::unique_ptr<SentenceSearch> make_search(const SchedulerConfig& cfg,
                                            DecodeState state) {
  if (cfg.beam_size < 1)
    return std::make_unique<GreedySearch>(cfg.max_len, std::move(state));
  Transformer::BeamConfig beam;
  beam.beam_size = cfg.beam_size;
  beam.length_penalty = cfg.length_penalty;
  return std::make_unique<BeamSearch>(cfg.max_len, beam, std::move(state));
}

// Host threads the pool should hold: the knob, defaulted to one thread per
// card capped at the hardware concurrency, and always clamped to num_cards
// (a card is single-threaded, extra workers would idle).
int effective_threads(const SchedulerConfig& cfg) {
  int t = cfg.host_threads;
  if (t == 0) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    t = static_cast<int>(
        std::min(static_cast<unsigned>(cfg.num_cards), hw));
  }
  return std::min(t, cfg.num_cards);
}

// First exception thrown by any pool job; later ones are dropped (the first
// is what the caller rethrows). Annotated so the TSA wall covers the one
// piece of shared state the job wrappers touch.
struct FirstError {
  Mutex mu;
  std::exception_ptr eptr TFACC_GUARDED_BY(mu);

  void capture() TFACC_EXCLUDES(mu) {
    const MutexLock lock(mu);
    if (!eptr) eptr = std::current_exception();
  }
  void rethrow_if_set() TFACC_EXCLUDES(mu) {
    std::exception_ptr e;
    {
      const MutexLock lock(mu);
      e = eptr;
    }
    if (e) std::rethrow_exception(e);
  }
};

}  // namespace

// The per-card step loop, structured as a resumable machine so a pool
// worker can park it (only) when it truly cannot progress. One iteration is
// kTop → [kTopDrain] → kStepCompute → kMidDrain → kTop; the admission
// bookkeeping between the gate operations is CardAdmission's (see
// serve/card_admission.hpp for why the drain runs mid-step). A newly
// admitted sentence is never decode-ready in its admission step: its
// prefill chunks are non-empty, so it contributes no gather rows.
struct Scheduler::CardRun {
  using Status = WorkerPool::Status;
  using Drain = CardAdmission::Drain;

  // One admitted sentence: its id, its search state machine, and the
  // not-yet-timed prefill chunks of its encoder pass. A sentence
  // contributes decode rows only once every chunk has been spliced into a
  // prior step ledger (decode-ready in simulated time).
  struct Active {
    std::uint64_t id = 0;
    std::unique_ptr<SentenceSearch> search;
    std::vector<SublayerPlan> chunks;
    std::size_t next_chunk = 0;
    bool prefill_done() const { return next_chunk >= chunks.size(); }
  };

  enum class StepPhase { kTop, kTopDrain, kStepCompute, kMidDrain };

  CardRun(const SchedulerConfig& config, std::size_t card_id, Card& card_ref,
          const QuantizedTransformer* qt, AdmissionGate& gate_ref,
          ScheduleReport& report)
      : cfg(config),
        c(card_id),
        card(card_ref),
        gate(gate_ref),
        rep(report),
        stats(report.per_card[card_id]),
        step_stats(report.per_card_steps[card_id]),
        admission(cfg.slots_per_card, cfg.slot_demand(),
                  cfg.backend != ServeBackend::kAccelerator) {
    switch (cfg.backend) {
      case ServeBackend::kReference:
        card.model.set_backend(ResBlockBackend{});
        break;
      case ServeBackend::kQuantized:
        card.model.set_backend(qt->backend());
        break;
      case ServeBackend::kAccelerator:
        fuser.emplace(*card.acc, &stats);
        card.model.set_backend(accelerator_backend(*qt, *card.acc, &*fuser));
        break;
    }
  }

  /// Restore the card's default backend (normal completion or abandon after
  /// an exception — the backend must not dangle past this CardRun).
  void detach() { card.model.set_backend(ResBlockBackend{}); }

  // Virtual clock driving the admission order: simulated ResBlock cycles on
  // the accelerator; a work proxy (rows stepped + sentences admitted +
  // prefill chunks spliced) for the functional backends, which have no
  // cycle model.
  Cycle busy() const {
    return cfg.backend == ServeBackend::kAccelerator
               ? stats.total_cycles()
               : static_cast<Cycle>(step_stats.packed_rows +
                                    step_stats.sentences +
                                    step_stats.prefill_chunks);
  }

  Status resume() {
    for (;;) {
      switch (phase) {
        case StepPhase::kTop: {
          if (!admission.top(gate, c, busy())) {
            detach();
            return Status::kDone;
          }
          phase = active.empty() ? StepPhase::kTopDrain
                                 : StepPhase::kStepCompute;
          break;
        }
        case StepPhase::kTopDrain: {
          if (drain() == Drain::kParked) return Status::kParked;
          admit_pending();
          phase = active.empty() ? StepPhase::kTop : StepPhase::kStepCompute;
          break;
        }
        case StepPhase::kStepCompute: {
          step_compute();
          phase = StepPhase::kMidDrain;
          break;
        }
        case StepPhase::kMidDrain: {
          if (drain() == Drain::kParked) return Status::kParked;
          admit_pending();
          splice_range(ready.size(), active.size());
          if (fuser) (void)fuser->end_step();
          finish_step();
          phase = StepPhase::kTop;
          break;
        }
      }
    }
  }

  // Fill every vacant slot via the reservation protocol. Never blocks the
  // host: a pending grant parks the job (kParked) and the resume re-enters
  // here.
  Drain drain() {
    Drain d = admission.drain_step(gate, c);
    while (d == Drain::kMore) d = admission.drain_step(gate, c);
    return d;
  }

  void admit_pending() {
    for (TranslationRequest& req : admission.pending_admits) {
      ++step_stats.sentences;
      step_stats.admitted.push_back(req.id);
      active.push_back(make_active(req));
    }
    admission.pending_admits.clear();
  }

  // One bit-exact host-side encoder pass NOW (outputs can never depend on
  // timing), its cycle cost, planned from the model shape, cut into chunks
  // the step loop splices into upcoming step ledgers.
  Active make_active(const TranslationRequest& req) {
    Active a;
    a.id = req.id;
    const MatF memory = card.encoder.encode(req.src);
    const int rows = static_cast<int>(req.src.size());
    a.chunks = chunk_prefill(encoder_plans(card.model.weights().config, rows),
                             cfg.accel.prefill_chunk_rows);
    for (SublayerPlan& chunk : a.chunks)
      chunk.label = "s" + std::to_string(req.id) + "." + chunk.label;
    a.search = make_search(
        cfg, card.model.begin_decode(memory, unpadded_length(req.src)));
    return a;
  }

  // Splice ONE pending prefill chunk per not-yet-ready sentence in
  // [first, last) into this step — the fixed-size interleaving that stops
  // one long sentence from monopolizing a step while its siblings' beams
  // starve. Mid-drain admissions splice their first chunk through the same
  // call after the decode compute; the fused ledger orders lanes by splice
  // order either way, so the composed step ledger matches admit-at-top.
  void splice_range(std::size_t first, std::size_t last) {
    for (std::size_t ai = first; ai < last; ++ai) {
      Active& a = active[ai];
      if (a.prefill_done()) continue;
      const SublayerPlan& chunk = a.chunks[a.next_chunk++];
      ++step_stats.prefill_chunks;
      if (fuser) fuser->add_prefill_chunk(chunk);
    }
  }

  void step_compute() {
    // Gather the next-token row of every decode-ready hypothesis on this
    // card. Readiness is snapshotted BEFORE splicing: a sentence whose last
    // prefill chunk rides THIS step's ledger becomes decode-ready next step
    // (its encoder output exists, in simulated time, only once this step's
    // graph nodes complete).
    states.clear();
    tokens.clear();
    ready.assign(active.size(), 0);
    live_counts.assign(active.size(), 0);
    rows = 0;
    for (std::size_t ai = 0; ai < active.size(); ++ai) {
      if (!active[ai].prefill_done()) continue;
      ready[ai] = 1;
      const int k = active[ai].search->live();
      live_counts[ai] = k;
      rows += k;
      for (int i = 0; i < k; ++i) {
        states.push_back(&active[ai].search->state(i));
        tokens.push_back(active[ai].search->input_token(i));
      }
    }
    // A prefill-only iteration (every slot still encoding) packs no decode
    // rows and is NOT a packed step.
    if (rows > 0) {
      ++step_stats.steps;
      step_stats.packed_rows += rows;
      ++step_stats.rows_hist[static_cast<std::size_t>(
          std::min(rows, cfg.slots_per_card))];
    }

    // One packed pass for every row, timed with this step's prefill chunks
    // as ONE fused ledger: the card's virtual clock advances exactly once
    // per step.
    if (fuser) fuser->begin_step();
    splice_range(0, active.size());
    if (rows > 0) card.model.decode_step_batch(states, tokens, flat_logits);
  }

  void finish_step() {
    // Scatter the logits rows back to each decode-ready sentence's search
    // machine. Mid-drain admissions sit past ready.size() and contributed
    // no rows.
    std::size_t off = 0;
    for (std::size_t ai = 0; ai < ready.size(); ++ai) {
      if (!ready[ai]) continue;
      const std::size_t k = static_cast<std::size_t>(live_counts[ai]);
      sentence_rows.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        const float* row = flat_logits.row(static_cast<int>(off + i));
        sentence_rows[i].assign(row, row + flat_logits.cols());
      }
      active[ai].search->advance(sentence_rows);
      off += k;
    }
    // Finished sentences vacate their slots; the next iteration refills.
    for (std::size_t ai = 0; ai < active.size();) {
      if (active[ai].search->done()) {
        rep.outputs[active[ai].id] = active[ai].search->result();
        admission.vacate();
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(ai));
      } else {
        ++ai;
      }
    }
    gate.publish(c, admission.virtual_time(busy()));
  }

  // --- wiring ---------------------------------------------------------------
  const SchedulerConfig& cfg;
  std::size_t c;
  Card& card;
  AdmissionGate& gate;
  ScheduleReport& rep;
  AcceleratorStats& stats;
  CardStepStats& step_stats;
  std::optional<DecodeStepFuser> fuser;  // accelerator backend only
  CardAdmission admission;

  // --- step state -----------------------------------------------------------
  std::vector<Active> active;
  StepPhase phase = StepPhase::kTop;
  int rows = 0;
  // Per-iteration gather/scatter buffers, hoisted so their capacities
  // persist: together with the allocation-free decode_step_batch overload,
  // a warm steady-state step touches the heap only inside the search
  // machines.
  std::vector<DecodeState*> states;
  std::vector<int> tokens;
  std::vector<char> ready;
  std::vector<int> live_counts;
  MatF flat_logits;                               // rows × vocab
  std::vector<std::vector<float>> sentence_rows;  // advance() marshalling
};

Scheduler::Scheduler(const TransformerWeights& weights,
                     const std::vector<TokenSeq>& calib_sources,
                     SchedulerConfig cfg)
    : cfg_(cfg) {
  cfg_.validate();
  TFACC_CHECK_ARG_MSG(
      cfg_.backend == ServeBackend::kReference || !calib_sources.empty(),
      "need at least one calibration sentence");
  // One copy of the weights and one calibration serve the whole farm:
  // calibration is deterministic, so every card would build the same INT8
  // model. Its blocks are addressed by the shared weights, so card 0's view
  // calibrates for every card.
  weights_ = std::make_shared<const TransformerWeights>(weights);
  cards_.reserve(static_cast<std::size_t>(cfg_.num_cards));
  for (int c = 0; c < cfg_.num_cards; ++c)
    cards_.push_back(std::make_unique<Card>(weights_, cfg_));
  if (cfg_.backend != ServeBackend::kReference)
    qt_.emplace(QuantizedTransformer::build(cards_.front()->model,
                                            calib_sources, cfg_.max_len,
                                            cfg_.softmax));
  for (const std::unique_ptr<Card>& card : cards_) {
    if (cfg_.backend == ServeBackend::kQuantized)
      card->encoder.set_backend(qt_->backend());
    else if (cfg_.backend == ServeBackend::kAccelerator)
      card->encoder.set_backend(accelerator_backend(*qt_, *card->acc));
  }
  pool_ = std::make_unique<WorkerPool>(effective_threads(cfg_));
}

Scheduler::~Scheduler() = default;

ScheduleReport Scheduler::run(const std::vector<TokenSeq>& sources) {
  return run(sources, {});
}

ScheduleReport Scheduler::run(const std::vector<TokenSeq>& sources,
                              const std::vector<Cycle>& arrivals) {
  TFACC_CHECK_ARG_MSG(arrivals.empty() || arrivals.size() == sources.size(),
                      "arrivals must be empty or one per source, got "
                          << arrivals.size() << " for " << sources.size()
                          << " sources");
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    TFACC_CHECK_ARG_MSG(arrivals[i] >= 0,
                        "arrivals must be >= 0, got " << arrivals[i]
                            << " at index " << i);
  ScheduleReport rep;
  rep.clock_mhz = cfg_.accel.clock_mhz;
  rep.outputs.resize(sources.size());
  rep.per_card.assign(cards_.size(), AcceleratorStats{});
  rep.per_card_steps.assign(cards_.size(), CardStepStats{});
  for (CardStepStats& s : rep.per_card_steps)
    s.rows_hist.assign(static_cast<std::size_t>(cfg_.slots_per_card) + 1, 0);

  // push checks that the arrivals are non-decreasing.
  RequestQueue queue(cfg_.num_cards);
  for (std::size_t i = 0; i < sources.size(); ++i)
    queue.push(TranslationRequest{static_cast<std::uint64_t>(i), sources[i],
                                  arrivals.empty() ? 0 : arrivals[i]});

  AdmissionGate gate(cards_.size(), std::move(queue),
                     [this](std::size_t j) { pool_->unpark(j); });
  std::vector<std::unique_ptr<CardRun>> runs;
  runs.reserve(cards_.size());
  for (std::size_t c = 0; c < cards_.size(); ++c)
    runs.push_back(std::make_unique<CardRun>(
        cfg_, c, *cards_[c], qt_ ? &*qt_ : nullptr, gate, rep));
  FirstError error;
  std::vector<WorkerPool::Job> jobs;
  jobs.reserve(cards_.size());
  for (std::size_t c = 0; c < cards_.size(); ++c)
    jobs.push_back([&, c]() -> WorkerPool::Status {
      try {
        return runs[c]->resume();
      } catch (...) {
        error.capture();
        // Retire the card so siblings do not wait forever on its clock —
        // the old per-run threads would deadlock here instead.
        gate.retire(c);
        runs[c]->detach();
        return WorkerPool::Status::kDone;
      }
    });
  const auto t0 = std::chrono::steady_clock::now();
  pool_->run(std::move(jobs));
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  error.rethrow_if_set();
  return rep;
}

}  // namespace tfacc
