#include "analysis/gate_model.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"

namespace tfacc {
namespace {

// ---------------------------------------------------------------------------
// Abstract state. Everything below mirrors a named piece of the real
// implementation; each mirror cites its source so drift is reviewable.
// ---------------------------------------------------------------------------

/// AdmissionGate::Phase (serve/admission_gate.hpp).
enum class Phase : std::uint8_t { kIdle, kPending, kGranted, kHeld };

/// AdmissionGate::Slot. `outcome`/`req` stand in for the Grant payload
/// (burst arrivals: kPending never occurs, next_arrival is dead).
struct Slot {
  bool live = true;
  Cycle clock = 0;
  Phase phase = Phase::kIdle;
  Cycle key = 0;
  bool popped = false;  ///< grant outcome: true=kPopped, false=kDrained
  int req = -1;         ///< popped request id
};

/// Scheduler::CardRun::StepPhase plus an explicit publish point (publish
/// is its own mutex acquisition in finish_step, so it is its own atomic
/// transition here).
enum class Pc : std::uint8_t {
  kTop,
  kTopDrain,
  kCompute,
  kMidDrain,
  kMidPublish,
};

/// The abstracted CardRun (burst arrivals): clock is busy(), active holds
/// (id, remaining decode steps), pending mirrors pending_admits (activation
/// is deferred until the drain completes).
struct Card {
  Pc pc = Pc::kTop;
  bool done = false;
  bool parked = false;  ///< WorkerPool: kParked, waiting for unpark
  bool posted = false;
  bool holding = false;
  bool queue_drained = false;
  Cycle clock = 0;
  Cycle snapshot = 0;  ///< busy_snapshot at the step top
  Cycle spec_key = 0;  ///< frozen key the spec mandates for the live post
  int admitted_in_drain = 0;
  int reserved = 0;
  std::vector<std::pair<int, int>> active;  ///< (id, remaining steps)
  std::vector<int> pending;                 ///< admitted, not yet active
  std::vector<int> admitted;                ///< admission log (request ids)
};

/// Whole-model state: cards + gate + sharded queue + the last resolved pop
/// (the (key, id)-order check needs exactly one event of history, so it
/// lives in the memoized state).
struct State {
  std::vector<Card> cards;
  std::vector<Slot> slots;
  std::vector<std::vector<int>> shards;  ///< RequestQueue, ids only
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
// RequestQueue mirror (serve/request_queue.cpp): burst arrivals, so the
// arrival-aware try_pop degenerates to owner-front / thief-back over the
// most loaded sibling (first-lowest index wins victim ties, as the real
// scan does with its strict `>` comparison).
// ---------------------------------------------------------------------------

/// Returns true and sets `id` on kPopped; false means kDrained.
bool queue_pop(State& st, int c, int& id) {
  std::vector<int>& own = st.shards[static_cast<std::size_t>(c)];
  if (!own.empty()) {
    id = own.front();
    own.erase(own.begin());
    return true;
  }
  int victim = -1;
  std::size_t victim_load = 0;
  for (std::size_t s = 0; s < st.shards.size(); ++s) {
    if (static_cast<int>(s) == c) continue;
    if (st.shards[s].size() > victim_load) {
      victim_load = st.shards[s].size();
      victim = static_cast<int>(s);
    }
  }
  if (victim < 0) return false;
  std::vector<int>& v = st.shards[static_cast<std::size_t>(victim)];
  id = v.back();
  v.pop_back();
  return true;
}

// ---------------------------------------------------------------------------
// AdmissionGate mirror (serve/admission_gate.cpp). Every helper below is
// one critical section of the real gate; scan() is scan_locked() with the
// invariant probes (and the seeded tampers) spliced in.
// ---------------------------------------------------------------------------

void scan(State& st, Explorer& ex) {
  if (ex.stop) return;
  const std::size_t n = st.slots.size();

  // The real scan: global-minimum blocking pair, phase-agnostic. First
  // index among equal keys wins (strict `<`), i.e. the id tie-break.
  std::size_t min_c = n;
  Cycle min_k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = st.slots[i];
    if (!s.live) continue;
    const Cycle k = s.phase == Phase::kIdle ? s.clock : s.key;
    if (min_c == n || k < min_k) {
      min_c = i;
      min_k = k;
    }
  }

  // Pick the slot to grant. Faithful protocol: the minimum, iff pending.
  std::size_t grant_c = n;
  if (ex.cfg.tamper == GateTamper::kNonMinGrant) {
    // Tamper: grant the maximal pending pair whenever one exists.
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& s = st.slots[i];
      if (!s.live || s.phase != Phase::kPending) continue;
      if (grant_c == n || s.key >= st.slots[grant_c].key) grant_c = i;
    }
  } else if (min_c < n && st.slots[min_c].phase == Phase::kPending) {
    grant_c = min_c;
  }
  if (grant_c == n) return;

  Slot& s = st.slots[grant_c];
  const int card = static_cast<int>(grant_c);
  ++ex.result.grants;

  // GATE-ORDER probe 1: the granted pair must be <= every live blocking
  // pair (pops enter the total order at the global minimum).
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& o = st.slots[i];
    if (!o.live || i == grant_c) continue;
    const Cycle k = o.phase == Phase::kIdle ? o.clock : o.key;
    if (k < s.key || (k == s.key && i < grant_c)) {
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
  const Card& cd = st.cards[grant_c];
  if (s.key != cd.spec_key) {
    ex.fail(GateDiagCode::kKey, card,
            "pop executed at key=" + std::to_string(s.key) +
                " but the frozen step-top snapshot key is " +
                std::to_string(cd.spec_key));
    return;
  }
  st.last_pop_key = s.key;
  st.last_pop_card = card;

  // The pop itself, under the gate mutex, at the frozen key.
  int id = -1;
  bool popped = queue_pop(st, card, id);
  if (popped && ex.cfg.tamper == GateTamper::kDoubleGrant &&
      st.tamper_armed) {
    // Tamper (one-shot): leave the request in the queue as well.
    st.tamper_armed = false;
    st.shards[grant_c % st.shards.size()].insert(
        st.shards[grant_c % st.shards.size()].begin(), id);
  }
  if (popped && ex.cfg.tamper == GateTamper::kDropGrant && st.tamper_armed) {
    // Tamper (one-shot): discard the popped request, report drained.
    st.tamper_armed = false;
    popped = false;
    id = -1;
  }
  s.popped = popped;
  s.req = id;
  s.phase = Phase::kGranted;

  // on_grant_: WorkerPool::unpark(card), still under the gate mutex.
  if (ex.cfg.tamper != GateTamper::kLostUnpark)
    st.cards[grant_c].parked = false;
}

void gate_reserve(State& st, int c, Cycle key, Explorer& ex) {
  Slot& s = st.slots[static_cast<std::size_t>(c)];
  TFACC_CHECK(s.phase == Phase::kIdle || s.phase == Phase::kHeld);
  s.key = std::max(key, s.clock);
  s.clock = s.key;
  s.phase = Phase::kPending;
  scan(st, ex);
}

bool gate_try_consume(State& st, int c, bool& popped, int& req) {
  Slot& s = st.slots[static_cast<std::size_t>(c)];
  if (s.phase != Phase::kGranted) {
    TFACC_CHECK(s.phase == Phase::kPending);
    return false;
  }
  popped = s.popped;
  req = s.req;
  s.phase = Phase::kHeld;
  return true;  // no scan: try_consume is the one op that never resolves
}

void gate_release(State& st, int c, Explorer& ex) {
  Slot& s = st.slots[static_cast<std::size_t>(c)];
  TFACC_CHECK(s.phase == Phase::kHeld);
  s.phase = Phase::kIdle;
  scan(st, ex);
}

void gate_publish(State& st, int c, Cycle t, Explorer& ex) {
  Slot& s = st.slots[static_cast<std::size_t>(c)];
  s.clock = std::max(s.clock, t);
  scan(st, ex);
}

void gate_retire(State& st, int c, Explorer& ex) {
  Slot& s = st.slots[static_cast<std::size_t>(c)];
  s.live = false;
  s.phase = Phase::kIdle;
  scan(st, ex);
}

// ---------------------------------------------------------------------------
// CardRun mirror (serve/scheduler.cpp, burst arrivals). One
// call = one DFS transition: run card-local code until exactly one gate
// operation has executed, then return. Parking happens at try_consume
// (the op that returned false), matching Drain::kParked.
// ---------------------------------------------------------------------------

/// CardRun::admission_key, accelerator vs functional-proxy flavors. Burst
/// arrivals pin clock_floor to 0, so the floor term vanishes.
Cycle frozen_key(const Card& cd, const GateModelConfig& cfg) {
  return cfg.proxy_keys
             ? cd.snapshot + static_cast<Cycle>(cd.admitted_in_drain)
             : cd.snapshot;
}

void complete_drain(Card& cd);

void post_reservation(State& st, int c, Explorer& ex) {
  Card& cd = st.cards[static_cast<std::size_t>(c)];
  cd.spec_key = frozen_key(cd, ex.cfg);
  // Tamper: post the live clock (what a naive implementation reading the
  // in-step cycle counter would do) instead of the frozen snapshot.
  const Cycle posted =
      ex.cfg.tamper == GateTamper::kFrozenKey ? cd.clock : cd.spec_key;
  cd.posted = true;
  gate_reserve(st, c, posted, ex);
}

void step_card(State& st, int c, Explorer& ex) {
  Card& cd = st.cards[static_cast<std::size_t>(c)];
  const int slots = ex.cfg.slots_per_card;
  for (;;) {
    switch (cd.pc) {
      case Pc::kTop: {
        if (cd.queue_drained && cd.active.empty() && cd.pending.empty()) {
          cd.done = true;
          gate_retire(st, c, ex);
          return;
        }
        cd.snapshot = cd.clock;
        cd.admitted_in_drain = 0;
        if (!cd.active.empty()) {
          cd.pc = Pc::kCompute;
          // Post the step's reservation BEFORE the compute so a sibling's
          // scan can resolve it mid-step (the convoy-free core).
          if (!cd.posted && !cd.queue_drained && cd.reserved + 1 <= slots) {
            post_reservation(st, c, ex);
            return;
          }
          break;
        }
        cd.pc = Pc::kTopDrain;
        break;
      }
      case Pc::kCompute: {
        // One packed step: every active row decodes one token; the clock
        // charges one cycle per row (ragged finishes via decode_len).
        Cycle cost = 0;
        for (auto& hyp : cd.active) {
          --hyp.second;
          ++cost;
        }
        for (std::size_t i = cd.active.size(); i-- > 0;) {
          if (cd.active[i].second > 0) continue;
          cd.active.erase(cd.active.begin() + static_cast<std::ptrdiff_t>(i));
          --cd.reserved;
        }
        cd.clock += cost;
        cd.pc = Pc::kMidDrain;
        break;
      }
      case Pc::kTopDrain:
      case Pc::kMidDrain: {
        if (cd.holding) {
          cd.holding = false;
          if (cd.queue_drained || cd.reserved + 1 > slots) {
            // Done popping this drain: yield the turn, then complete (the
            // completion continuation is card-local, next case below).
            complete_drain(cd);
            gate_release(st, c, ex);
            return;
          }
          post_reservation(st, c, ex);  // keep the turn, re-reserve
          return;
        }
        if (!cd.posted) {
          if (cd.queue_drained || cd.reserved + 1 > slots) {
            complete_drain(cd);  // nothing to collect; no gate op
            break;
          }
          post_reservation(st, c, ex);
          return;
        }
        bool popped = false;
        int req = -1;
        if (!gate_try_consume(st, c, popped, req)) {
          cd.parked = true;  // WorkerPool: park until on_grant unparks
          return;
        }
        cd.posted = false;
        cd.holding = true;
        if (!popped) {
          cd.queue_drained = true;  // burst: empty is final
        } else {
          ++cd.reserved;
          ++cd.admitted_in_drain;
          cd.admitted.push_back(req);
          cd.pending.push_back(req);  // pack defers the encode
          if (ex.cfg.proxy_keys) ++cd.clock;  // proxy busy() counts admits
        }
        return;
      }
      case Pc::kMidPublish: {
        cd.pc = Pc::kTop;
        gate_publish(st, c, cd.clock, ex);
        return;
      }
    }
  }
}

/// Drain completed: activate deferred admissions and pick the next phase
/// (CardRun::admit_pending + the resume() phase hand-off).
void complete_drain(Card& cd) {
  for (const int id : cd.pending)
    cd.active.emplace_back(id, decode_len(id));
  cd.pending.clear();
  if (cd.pc == Pc::kTopDrain)
    cd.pc = cd.active.empty() ? Pc::kTop : Pc::kCompute;
  else
    cd.pc = Pc::kMidPublish;  // close_step/finish_step publish the clock
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
    append_int(out, static_cast<int>(c.pc));
    append_int(out, (c.done << 5) | (c.parked << 4) | (c.posted << 3) |
                        (c.holding << 2) | (c.queue_drained << 1));
    append_int(out, c.clock);
    append_int(out, c.snapshot);
    append_int(out, c.spec_key);
    append_int(out, c.admitted_in_drain);
    append_int(out, c.reserved);
    for (const auto& hyp : c.active) {
      append_int(out, hyp.first);
      append_int(out, hyp.second);
    }
    out += ';';
    for (const int id : c.pending) append_int(out, id);
    out += ';';
    for (const int id : c.admitted) append_int(out, id);
    out += '|';
  }
  for (const Slot& s : st.slots) {
    append_int(out, (s.live << 3) | (static_cast<int>(s.phase) << 1) |
                        static_cast<int>(s.popped));
    append_int(out, s.clock);
    append_int(out, s.key);
    append_int(out, s.req);
    out += '|';
  }
  for (const auto& shard : st.shards) {
    for (const int id : shard) append_int(out, id);
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
  for (const auto& shard : st.shards) {
    if (!shard.empty()) {
      ex.fail(GateDiagCode::kLost, -1,
              "queue still holds " + std::to_string(shard.size()) +
                  " request(s) after every card retired");
      return;
    }
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
      cfg.slots_per_card >= 1,
      "slots_per_card must be >= 1, got " << cfg.slots_per_card);

  Explorer ex(cfg);
  State init;
  init.cards.resize(static_cast<std::size_t>(cfg.num_cards));
  init.slots.resize(static_cast<std::size_t>(cfg.num_cards));
  init.shards.resize(static_cast<std::size_t>(cfg.num_cards));
  // Scheduler::run pushes sources in order; RequestQueue deals them
  // round-robin across the card shards.
  for (int id = 0; id < cfg.num_requests; ++id)
    init.shards[static_cast<std::size_t>(id % cfg.num_cards)].push_back(id);

  ex.seen.insert(encode(init));
  ex.result.states = 1;
  dfs(init, ex, 0);
  return ex.result;
}

}  // namespace tfacc
