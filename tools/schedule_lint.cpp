// schedule_lint — CI gate over every schedule builder (PR 7).
//
// Treats each builder as a program generator: sweeps a grid of shapes (slot
// counts 1/8/16, sequence lengths, prefill chunk sizes), builds every
// ledger the accelerator can emit TWICE on fresh timelines, and runs the
// typed schedule verifier (analysis/verifier.hpp) over each build — the
// second build also checks the canonical ledger hash against the first, so
// any non-determinism (hash-map iteration, uninitialized state,
// host-dependent ordering) fails the gate even when both builds are
// individually legal.
//
//   schedule_lint [--grid=small|full] [--verbose]
//     exit 0: every ledger in the grid verified clean
//     exit 1: at least one diagnostic (all printed, with stable codes)
//     exit 2: usage error
//
//   schedule_lint --tamper
//     Self-test: deliberately corrupts a schedule and exits 1 iff the
//     verifier catches it — registered in ctest with WILL_FAIL so CI
//     proves the gate can actually fail.
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "core/schedules.hpp"

namespace {

using namespace tfacc;

struct Lint {
  int ledgers = 0;
  int failures = 0;
  bool verbose = false;
};

/// Run one grid case: `build` constructs the ledger on a fresh timeline and
/// returns its verification (so every call is an independent rebuild). The
/// second build must reproduce the first's hash bit for bit.
void lint_case(Lint& lint, const std::string& name,
               const std::function<VerifyResult(const VerifyOptions&)>& build,
               bool program_order) {
  VerifyOptions opts;
  opts.program_order = program_order;
  const VerifyResult first = build(opts);
  opts.expect_hash = first.hash;
  const VerifyResult rebuild = build(opts);

  for (const auto* res : {&first, &rebuild}) {
    ++lint.ledgers;
    if (res->ok()) continue;
    ++lint.failures;
    std::fprintf(stderr, "FAIL %s%s\n%s\n", name.c_str(),
                 res == &rebuild ? " (rebuild)" : "",
                 res->to_string().c_str());
  }
  if (lint.verbose)
    std::printf("ok   %-60s hash=%016llx\n", name.c_str(),
                static_cast<unsigned long long>(first.hash));
}

/// The packed decode step's sublayers: self MHA, cross MHA, FFN per block.
std::vector<SublayerPlan> decode_plans(const std::vector<int>& totals,
                                       int d_model, int num_heads, int d_ff,
                                       int blocks) {
  const int slots = static_cast<int>(totals.size());
  std::vector<SublayerPlan> subs;
  for (int b = 0; b < blocks; ++b) {
    const std::string p = "dec" + std::to_string(b);
    subs.push_back(SublayerPlan::mha_cached_batch(p + ".self", totals, d_model,
                                                  num_heads, slots));
    subs.push_back(SublayerPlan::mha_cached_batch(p + ".cross", totals,
                                                  d_model, num_heads, 0));
    subs.push_back(SublayerPlan::ffn(p + ".ffn", slots, d_model, d_ff));
  }
  return subs;
}

void sweep(Lint& lint, bool full) {
  const std::vector<int> slot_grid = {1, 8, 16};
  const std::vector<int> chunk_grid = full ? std::vector<int>{1, 4, 16}
                                           : std::vector<int>{1, 16};
  const std::vector<int> seq_grid = full ? std::vector<int>{16, 33, 64}
                                         : std::vector<int>{16, 64};
  const AcceleratorConfig cfg;

  // schedule_mha — Algorithm 1, always pinned to program order.
  for (const int s : seq_grid)
    lint_case(
        lint, "mha s=" + std::to_string(s),
        [&, s](const VerifyOptions& o) {
          Timeline tl;
          const ScheduledRun r = schedule_mha(cfg, tl, s, s, 512, 8);
          return verify_schedule(r.graph, r.stats, o);
        },
        /*program_order=*/true);

  // schedule_ffn — greedy, no softmax edges.
  for (const int rows : {1, 16, 64})
    lint_case(
        lint, "ffn rows=" + std::to_string(rows),
        [&, rows](const VerifyOptions& o) {
          Timeline tl;
          const ScheduledRun r = schedule_ffn(cfg, tl, rows, 512, 2048);
          return verify_schedule(r.graph, r.stats, o);
        },
        /*program_order=*/false);

  // One-slot schedule_mha_cached_batch — serial incremental decode, greedy.
  for (const int total : {8, 64})
    for (const int project : {0, 1})
      lint_case(
          lint,
          "cached slots=1 total=" + std::to_string(total) +
              " project=" + std::to_string(project),
          [&, total, project](const VerifyOptions& o) {
            Timeline tl;
            const ScheduledRun r =
                schedule_mha_cached_batch(cfg, tl, {total}, 512, 8, project);
            return verify_schedule(r.graph, r.stats, o);
          },
          /*program_order=*/false);

  // schedule_mha_cached_batch — packed decode across the slot grid.
  for (const int slots : slot_grid)
    for (const int project : {0, slots}) {
      std::vector<int> totals;
      for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
      lint_case(
          lint,
          "mha_cached_batch slots=" + std::to_string(slots) +
              " project=" + std::to_string(project),
          [&, totals, project](const VerifyOptions& o) {
            Timeline tl;
            const ScheduledRun r =
                schedule_mha_cached_batch(cfg, tl, totals, 512, 8, project);
            return verify_schedule(r.graph, r.stats, o);
          },
          /*program_order=*/false);
    }

  // The packed decode step as one fused cross-sublayer ledger.
  for (const int slots : slot_grid) {
    std::vector<int> totals;
    for (int r = 0; r < slots; ++r) totals.push_back(4 + (3 * r) % 7);
    const auto subs = decode_plans(totals, 128, 2, 512, 2);
    lint_case(
        lint, "decode_step slots=" + std::to_string(slots),
        [&, subs](const VerifyOptions& o) {
          Timeline tl;
          const FusedRun run = schedule_fused_lanes(
              cfg, tl, {FusedLane{subs, false}}, IssuePolicy::kGreedy);
          return verify_fused(run, o);
        },
        /*program_order=*/false);
  }

  // Prefill chunks spliced into a mixed prefill/decode step ledger across
  // the chunk grid. The mixed ledger exercises the prefetch chain across
  // the prefill/decode seam — the PR 6 invariant.
  for (const int chunk_rows : chunk_grid) {
    const auto chunks =
        chunk_prefill(encoder_plans(ModelConfig::tiny(), 13), chunk_rows);
    for (const int slots : slot_grid) {
      std::vector<FusedLane> lanes;
      for (std::size_t i = 0; i < 2 && i < chunks.size(); ++i)
        lanes.push_back(FusedLane{{chunks[i]}, true});
      std::vector<int> totals;
      for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
      lanes.push_back(FusedLane{decode_plans(totals, 128, 2, 512, 1), false});
      lint_case(
          lint,
          "mixed_step slots=" + std::to_string(slots) +
              " chunk_rows=" + std::to_string(chunk_rows),
          [&, lanes](const VerifyOptions& o) {
            Timeline tl;
            return verify_fused(
                schedule_fused_lanes(cfg, tl, lanes, IssuePolicy::kGreedy),
                o);
          },
          /*program_order=*/false);
    }
  }
}

/// --tamper: corrupt a legal schedule and demand the verifier object. Exits
/// 1 (via the caller) iff diagnostics fire — the WILL_FAIL ctest entry.
int tamper() {
  AcceleratorConfig cfg;
  Timeline tl;
  ScheduledRun run = schedule_ffn(cfg, tl, 16, 512, 2048);
  // Slide the last op onto cycle 0: breaks its data deps and double-books
  // whatever resource owned cycle 0.
  Interval& iv = run.stats.intervals.back();
  const Cycle dur = iv.duration();
  iv.start = 0;
  iv.end = dur;
  run.stats.result_ready.back() =
      iv.end + run.graph.ops().back().result_latency;
  const VerifyResult res = verify_schedule(run.graph, run.stats);
  std::fprintf(stderr, "%s\n", res.to_string().c_str());
  return res.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  Lint lint;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--grid=small") == 0) {
      full = false;
    } else if (std::strcmp(a, "--grid=full") == 0) {
      full = true;
    } else if (std::strcmp(a, "--verbose") == 0) {
      lint.verbose = true;
    } else if (std::strcmp(a, "--tamper") == 0) {
      return tamper();
    } else {
      std::fprintf(stderr,
                   "usage: schedule_lint [--grid=small|full] [--verbose] "
                   "[--tamper]\n");
      return 2;
    }
  }

  sweep(lint, full);
  std::printf("schedule_lint: %d ledgers verified (%s grid), %d failure%s\n",
              lint.ledgers, full ? "full" : "small", lint.failures,
              lint.failures == 1 ? "" : "s");
  return lint.failures == 0 ? 0 : 1;
}
