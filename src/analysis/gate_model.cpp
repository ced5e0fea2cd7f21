#include "analysis/gate_model.hpp"

#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "serve/admission_gate.hpp"
#include "serve/card_admission.hpp"

namespace tfacc {
namespace {

// ---------------------------------------------------------------------------
// Model state: the shipped AdmissionGate::Protocol (slots + request queue)
// and each card's shipped CardAdmission, plus what the model adds: the
// card's step phase, a compute model and the WorkerPool park bit.
// ---------------------------------------------------------------------------

using Protocol = AdmissionGate::Protocol;
using Phase = Protocol::Phase;
using PopOutcome = RequestQueue::PopOutcome;

/// Scheduler::CardRun::StepPhase plus an explicit publish point (publish
/// is its own mutex acquisition in finish_step, so it is its own atomic
/// transition here).
enum class Pc : std::uint8_t {
  kTop,
  kTopDrain,
  kCompute,
  kMidDrain,
  kPublish,
};

/// One card: `clock` is busy() — one tick per decoded row, plus one per
/// admitted sentence under proxy keys; `active` holds (id, remaining decode
/// steps).
struct Card {
  explicit Card(const GateModelConfig& cfg)
      : admission(cfg.slots_per_card, cfg.slot_demand, cfg.proxy_keys) {}

  CardAdmission admission;
  Pc pc = Pc::kTop;
  bool done = false;
  bool parked = false;  ///< WorkerPool: kParked, waiting for unpark
  Cycle clock = 0;
  Cycle spec_key = 0;  ///< frozen key the card last asked the gate to post
  std::vector<std::pair<int, int>> active;
  std::vector<int> admitted;  ///< admission log (request ids)
};

/// Whole-model state: cards + gate + the last resolved pop (the (key, id)
/// order check needs exactly one event of history, so it lives in the
/// memoized state).
struct State {
  std::vector<Card> cards;
  Protocol gate;
  Cycle last_pop_key = 0;
  int last_pop_card = -1;
  bool tamper_armed = true;  ///< one-shot tampers not yet fired
};

struct Explorer {
  const GateModelConfig& cfg;
  GateModelResult result;
  std::unordered_set<std::string> seen;
  bool stop = false;

  explicit Explorer(const GateModelConfig& c) : cfg(c) {}

  void fail(GateDiagCode code, int card, const std::string& msg) {
    if (stop) return;
    GateDiagnostic d;
    d.code = code;
    d.card = card;
    d.message = std::string(gate_diag_code_name(code)) + ": " + msg;
    result.diagnostics.push_back(std::move(d));
    stop = true;
  }
};

int decode_len(int id) { return 1 + id % 2; }

std::string fmt_pair(Cycle key, int card) {
  std::ostringstream os;
  os << "(key=" << key << ", card=" << card << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// The gate as CardAdmission sees it. Each member is one critical section of
// AdmissionGate, run on the model's Protocol; every grant it returns goes
// through the invariant probes. The tampers act here, from outside the
// shipped code.
// ---------------------------------------------------------------------------

struct ModelGate {
  State& st;
  Explorer& ex;
  bool ran = false;  ///< this transition's gate operation has executed

  void reserve(std::size_t c, Cycle key) {
    ran = true;
    Card& cd = st.cards[c];
    cd.spec_key = key;
    // Tamper: post the live clock (what a naive implementation reading the
    // in-step cycle counter would do) instead of the frozen snapshot.
    const bool live = ex.cfg.tamper == GateTamper::kFrozenKey;
    granted(st.gate.reserve(c, live ? cd.clock : key));
  }
  bool try_consume(std::size_t c, AdmissionGate::Grant* out) {
    ran = true;
    return st.gate.try_consume(c, out);  // the one op that never scans
  }
  void release(std::size_t c) {
    ran = true;
    granted(st.gate.release(c));
  }
  void publish(std::size_t c, Cycle t) {
    ran = true;
    granted(st.gate.publish(c, t));
  }
  void retire(std::size_t c) {
    ran = true;
    granted(st.gate.retire(c));
  }

  void granted(std::optional<std::size_t> g) {
    if (g) on_grant(*g);
    if (ex.cfg.tamper != GateTamper::kNonMinGrant || ex.stop) return;
    // Tamper: also grant the maximal pending pair whenever one is left.
    const std::size_t n = st.gate.slots.size();
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      const Protocol::Slot& s = st.gate.slots[i];
      if (!s.live || s.phase != Phase::kPending) continue;
      if (pick == n || s.key >= st.gate.slots[pick].key) pick = i;
    }
    if (pick == n) return;
    st.gate.grant(pick);
    on_grant(pick);
  }

  void on_grant(std::size_t g) {
    if (ex.stop) return;
    const int card = static_cast<int>(g);
    Protocol::Slot& s = st.gate.slots[g];
    ++ex.result.grants;

    // GATE-ORDER probe 1: the granted pair must be <= every live blocking
    // pair (pops enter the total order at the global minimum).
    for (std::size_t i = 0; i < st.gate.slots.size(); ++i) {
      const Protocol::Slot& o = st.gate.slots[i];
      if (!o.live || i == g) continue;
      const Cycle k = o.blocking_key();
      if (k < s.key || (k == s.key && i < g)) {
        ex.fail(GateDiagCode::kOrder, card,
                "granted " + fmt_pair(s.key, card) + " while live pair " +
                    fmt_pair(k, static_cast<int>(i)) + " is smaller");
        return;
      }
    }
    // GATE-ORDER probe 2: the pop log is non-decreasing in (key, id).
    if (st.last_pop_card >= 0 &&
        (s.key < st.last_pop_key ||
         (s.key == st.last_pop_key && card < st.last_pop_card))) {
      ex.fail(GateDiagCode::kOrder, card,
              "pop " + fmt_pair(s.key, card) + " resolved after pop " +
                  fmt_pair(st.last_pop_key, st.last_pop_card));
      return;
    }
    // GATE-KEY probe: the pop must execute at the frozen key the card's
    // step-top snapshot mandated, never at a live clock.
    if (s.key != st.cards[g].spec_key) {
      ex.fail(GateDiagCode::kKey, card,
              "pop executed at key=" + std::to_string(s.key) +
                  " but the frozen step-top snapshot key is " +
                  std::to_string(st.cards[g].spec_key));
      return;
    }
    st.last_pop_key = s.key;
    st.last_pop_card = card;

    if (s.grant.outcome == PopOutcome::kPopped && st.tamper_armed) {
      if (ex.cfg.tamper == GateTamper::kDoubleGrant) {
        // Tamper (one-shot): leave the request in the queue as well.
        st.tamper_armed = false;
        st.gate.queue.push(s.grant.req);
      } else if (ex.cfg.tamper == GateTamper::kDropGrant) {
        // Tamper (one-shot): discard the popped request, report drained.
        st.tamper_armed = false;
        s.grant.outcome = PopOutcome::kDrained;
      }
    }

    // on_grant: WorkerPool::unpark(card). The shipped gate calls it after
    // releasing its mutex; modeling it inside the grant transition is
    // exact, because unpark only marks the job runnable: an unpark that
    // lands before its card parks still leaves the job runnable, so a late
    // unpark cannot be lost.
    if (ex.cfg.tamper != GateTamper::kLostUnpark) st.cards[g].parked = false;
  }
};

// ---------------------------------------------------------------------------
// Scheduler::CardRun with a one-transition compute. One call = one DFS
// transition: run card-local code until exactly one gate operation has
// executed, then return. Parking happens at a try_consume that comes back
// pending, matching CardAdmission::Drain::kParked.
// ---------------------------------------------------------------------------

/// CardRun::admit_pending: the drain's pops become active sentences.
void admit_pending(Card& cd, const GateModelConfig& cfg) {
  for (const TranslationRequest& req : cd.admission.pending_admits) {
    const int id = static_cast<int>(req.id);
    cd.admitted.push_back(id);
    cd.active.emplace_back(id, decode_len(id));
    if (cfg.proxy_keys) ++cd.clock;  // proxy busy() counts admissions
  }
  cd.admission.pending_admits.clear();
}

void step_card(State& st, int c, Explorer& ex) {
  const std::size_t i = static_cast<std::size_t>(c);
  Card& cd = st.cards[i];
  ModelGate gate{st, ex};
  while (!gate.ran) {
    switch (cd.pc) {
      case Pc::kTop:
        if (!cd.admission.top(gate, i, cd.clock)) {
          cd.done = true;
          break;
        }
        cd.pc = cd.active.empty() ? Pc::kTopDrain : Pc::kCompute;
        break;
      case Pc::kCompute:
        // One packed step: every active sentence decodes one token on each
        // of its slot_demand rows, one tick per row.
        for (auto& sentence : cd.active) {
          --sentence.second;
          cd.clock += ex.cfg.slot_demand;
        }
        cd.pc = Pc::kMidDrain;
        break;
      case Pc::kTopDrain:
      case Pc::kMidDrain: {
        const CardAdmission::Drain d = cd.admission.drain_step(gate, i);
        if (d == CardAdmission::Drain::kParked) {
          cd.parked = true;  // WorkerPool: park until on_grant unparks
          break;
        }
        if (d == CardAdmission::Drain::kMore) break;
        admit_pending(cd, ex.cfg);
        if (cd.pc == Pc::kMidDrain)
          cd.pc = Pc::kPublish;
        else
          cd.pc = cd.active.empty() ? Pc::kTop : Pc::kCompute;
        break;
      }
      case Pc::kPublish:
        // CardRun::finish_step: finished sentences vacate their slots, then
        // the card publishes its clock.
        for (std::size_t k = cd.active.size(); k-- > 0;) {
          if (cd.active[k].second > 0) continue;
          cd.active.erase(cd.active.begin() + static_cast<std::ptrdiff_t>(k));
          cd.admission.vacate();
        }
        cd.pc = Pc::kTop;
        gate.publish(i, cd.admission.virtual_time(cd.clock));
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// DFS over interleavings.
// ---------------------------------------------------------------------------

void append_int(std::string& out, long long v) {
  out += std::to_string(v);
  out += ',';
}

std::string encode(const State& st) {
  std::string out;
  out.reserve(256);
  for (const Card& c : st.cards) {
    const CardAdmission& a = c.admission;
    append_int(out, static_cast<int>(c.pc));
    append_int(out, (c.done << 6) | (c.parked << 5) | (a.posted << 4) |
                        (a.holding << 3) | (a.queue_drained << 2) |
                        (a.arrivals_pending << 1));
    append_int(out, c.clock);
    append_int(out, a.busy_snapshot);
    append_int(out, a.clock_floor);
    append_int(out, c.spec_key);
    append_int(out, a.admitted_in_drain);
    append_int(out, a.reserved);
    for (const auto& sentence : c.active) {
      append_int(out, sentence.first);
      append_int(out, sentence.second);
    }
    out += ';';
    for (const TranslationRequest& req : a.pending_admits)
      append_int(out, static_cast<long long>(req.id));
    out += ';';
    for (const int id : c.admitted) append_int(out, id);
    out += '|';
  }
  for (const Protocol::Slot& s : st.gate.slots) {
    const bool popped = s.grant.outcome == PopOutcome::kPopped;
    append_int(out, (s.live << 4) | (static_cast<int>(s.phase) << 2) |
                        static_cast<int>(s.grant.outcome));
    append_int(out, s.clock);
    append_int(out, s.key);
    append_int(out, popped ? static_cast<long long>(s.grant.req.id) : -1);
    append_int(out, s.grant.next_arrival);
    out += '|';
  }
  for (const auto& shard : st.gate.queue.shards()) {
    for (const TranslationRequest& req : shard)
      append_int(out, static_cast<long long>(req.id));
    out += '|';
  }
  append_int(out, st.last_pop_key);
  append_int(out, st.last_pop_card);
  append_int(out, st.tamper_armed);
  return out;
}

/// What the user-visible determinism claim pins: which card admitted which
/// requests in which order, and every card's final clock (the ledger).
std::string terminal_fingerprint(const State& st) {
  std::string out;
  for (const Card& c : st.cards) {
    for (const int id : c.admitted) append_int(out, id);
    out += ':';
    append_int(out, c.clock);
    out += '|';
  }
  return out;
}

void check_quiescence(const State& st, Explorer& ex) {
  const int m = ex.cfg.num_requests;
  std::vector<int> admits(static_cast<std::size_t>(m), 0);
  for (const Card& c : st.cards)
    for (const int id : c.admitted) ++admits[static_cast<std::size_t>(id)];
  for (int id = 0; id < m; ++id) {
    if (admits[static_cast<std::size_t>(id)] > 1) {
      ex.fail(GateDiagCode::kDup, -1,
              "request " + std::to_string(id) + " admitted " +
                  std::to_string(admits[static_cast<std::size_t>(id)]) +
                  " times");
      return;
    }
    if (admits[static_cast<std::size_t>(id)] == 0) {
      ex.fail(GateDiagCode::kLost, -1,
              "request " + std::to_string(id) +
                  " never admitted by any card");
      return;
    }
  }
  if (st.gate.queue.pending() > 0) {
    ex.fail(GateDiagCode::kLost, -1,
            "queue still holds " + std::to_string(st.gate.queue.pending()) +
                " request(s) after every card retired");
    return;
  }
  const std::string fp = terminal_fingerprint(st);
  if (ex.result.terminal_fingerprint.empty()) {
    ex.result.terminal_fingerprint = fp;
  } else if (ex.result.terminal_fingerprint != fp) {
    ex.fail(GateDiagCode::kNondet, -1,
            "terminal state {" + fp + "} differs from {" +
                ex.result.terminal_fingerprint +
                "} reached by another interleaving");
    return;
  }
  ++ex.result.terminals;
}

void dfs(const State& st, Explorer& ex, int depth) {
  if (ex.stop) return;
  bool any_enabled = false;
  bool any_live = false;
  for (std::size_t c = 0; c < st.cards.size(); ++c) {
    const Card& cd = st.cards[c];
    if (cd.done) continue;
    any_live = true;
    if (cd.parked) continue;
    any_enabled = true;

    State next = st;
    step_card(next, static_cast<int>(c), ex);
    if (ex.stop) return;
    ++ex.result.transitions;
    if (!ex.seen.insert(encode(next)).second) continue;
    ++ex.result.states;
    if (ex.result.states > ex.cfg.max_states) {
      ex.result.truncated = true;
      ex.stop = true;
      return;
    }
    dfs(next, ex, depth + 1);
    if (ex.stop) return;
  }
  if (!any_enabled) {
    if (any_live) {
      std::string who;
      for (std::size_t c = 0; c < st.cards.size(); ++c)
        if (!st.cards[c].done) who += " " + std::to_string(c);
      ex.fail(GateDiagCode::kDeadlock, -1,
              "no enabled transition at depth " + std::to_string(depth) +
                  "; parked live card(s):" + who);
      return;
    }
    check_quiescence(st, ex);
  }
}

}  // namespace

const char* gate_diag_code_name(GateDiagCode code) {
  switch (code) {
    case GateDiagCode::kOrder: return "GATE-ORDER";
    case GateDiagCode::kKey: return "GATE-KEY";
    case GateDiagCode::kDeadlock: return "GATE-DEADLOCK";
    case GateDiagCode::kLost: return "GATE-LOST";
    case GateDiagCode::kDup: return "GATE-DUP";
    case GateDiagCode::kNondet: return "GATE-NONDET";
  }
  return "GATE-?";
}

const char* gate_tamper_name(GateTamper tamper) {
  switch (tamper) {
    case GateTamper::kNone: return "none";
    case GateTamper::kFrozenKey: return "frozen-key";
    case GateTamper::kLostUnpark: return "lost-unpark";
    case GateTamper::kDoubleGrant: return "double-grant";
    case GateTamper::kDropGrant: return "drop-grant";
    case GateTamper::kNonMinGrant: return "non-min-grant";
  }
  return "?";
}

std::string GateModelResult::to_string() const {
  std::ostringstream os;
  os << "states=" << states << " transitions=" << transitions
     << " terminals=" << terminals << " grants=" << grants;
  if (truncated) os << " TRUNCATED (max_states hit; bounds too large)";
  for (const GateDiagnostic& d : diagnostics)
    os << "\n  " << d.message
       << (d.card >= 0 ? " [card " + std::to_string(d.card) + "]" : "");
  return os.str();
}

GateModelResult check_gate_model(const GateModelConfig& cfg) {
  TFACC_CHECK_ARG_MSG(cfg.num_cards >= 1 && cfg.num_cards <= 4,
                      "num_cards must be in [1, 4], got " << cfg.num_cards);
  TFACC_CHECK_ARG_MSG(
      cfg.num_requests >= 0 && cfg.num_requests <= 4,
      "num_requests must be in [0, 4], got " << cfg.num_requests);
  TFACC_CHECK_ARG_MSG(
      cfg.slot_demand >= 1 && cfg.slot_demand <= cfg.slots_per_card,
      "slot_demand must be in [1, slots_per_card], got " << cfg.slot_demand);
  TFACC_CHECK_ARG_MSG(cfg.arrival_gap >= 0,
                      "arrival_gap must be >= 0, got " << cfg.arrival_gap);

  // Scheduler::run pushes sources in order; RequestQueue deals them
  // round-robin across the card shards.
  RequestQueue queue(cfg.num_cards);
  for (int id = 0; id < cfg.num_requests; ++id)
    queue.push(TranslationRequest{static_cast<std::uint64_t>(id), {},
                                  id * cfg.arrival_gap});
  const std::size_t n = static_cast<std::size_t>(cfg.num_cards);
  State init{std::vector<Card>(n, Card(cfg)), Protocol(n, std::move(queue))};

  Explorer ex(cfg);
  ex.seen.insert(encode(init));
  ex.result.states = 1;
  dfs(init, ex, 0);
  if (!ex.stop && ex.result.terminals == 0)
    ex.fail(GateDiagCode::kDeadlock, -1,
            "no interleaving quiesces: every path cycles (livelock)");
  return ex.result;
}

}  // namespace tfacc
