// Tests for the AdmissionGate protocol model checker
// (src/analysis/gate_model.hpp): the faithful protocol verifies clean over
// every interleaving of every small-scope shape, each seeded tamper is
// caught by exactly its documented GATE-* code, and the exploration itself
// is deterministic (state/transition counts and the terminal fingerprint
// reproduce run to run — the checker can't be a flaky oracle).
#include "analysis/gate_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

namespace tfacc {
namespace {

GateModelConfig config(int cards, int reqs, int slots, bool proxy = false,
                       GateTamper tamper = GateTamper::kNone) {
  GateModelConfig cfg;
  cfg.num_cards = cards;
  cfg.num_requests = reqs;
  cfg.slots_per_card = slots;
  cfg.proxy_keys = proxy;
  cfg.tamper = tamper;
  return cfg;
}

std::string describe(const GateModelConfig& cfg, const GateModelResult& res) {
  return "cards=" + std::to_string(cfg.num_cards) +
         " reqs=" + std::to_string(cfg.num_requests) +
         " slots=" + std::to_string(cfg.slots_per_card) +
         (cfg.proxy_keys ? " proxy" : " accel") +
         " demand=" + std::to_string(cfg.slot_demand) +
         " gap=" + std::to_string(cfg.arrival_gap) + "\n" + res.to_string();
}

// --------------------------------------------------------------------------
// Faithful protocol: clean over the whole small-scope grid.
// --------------------------------------------------------------------------

// Greedy and beam (two slots per sentence), burst and staggered arrivals.
TEST(GateModel, FaithfulProtocolVerifiesCleanAcrossGrid) {
  for (int cards = 1; cards <= 3; ++cards)
    for (int reqs = 0; reqs <= 3; ++reqs)
      for (int slots = 1; slots <= 3; ++slots)
        for (const bool proxy : {false, true})
          for (const int demand : {1, 2})
            for (const Cycle gap : {0, 1, 2}) {
              if (demand > slots) continue;
              GateModelConfig cfg = config(cards, reqs, slots, proxy);
              cfg.slot_demand = demand;
              cfg.arrival_gap = gap;
              const GateModelResult res = check_gate_model(cfg);
              EXPECT_TRUE(res.ok()) << describe(cfg, res);
              EXPECT_EQ(res.terminals, 1) << describe(cfg, res);
            }
}

// The acceptance bound: cards=3, requests=3 explored exhaustively with
// zero diagnostics, and the space is genuinely concurrent (many distinct
// states, many interleavings collapsing onto ONE terminal).
TEST(GateModel, ThreeCardsThreeRequestsExhaustive) {
  const GateModelConfig cfg = config(3, 3, 2);
  const GateModelResult res = check_gate_model(cfg);
  EXPECT_TRUE(res.ok()) << describe(cfg, res);
  EXPECT_FALSE(res.truncated);
  EXPECT_GT(res.states, 100) << "suspiciously small exploration";
  EXPECT_GT(res.transitions, res.states) << "DFS explored no branching";
  EXPECT_EQ(res.terminals, 1)
      << "a deterministic protocol must quiesce in exactly one state";
  EXPECT_FALSE(res.terminal_fingerprint.empty());
}

// Determinism of the admission outcome across *shapes of concurrency*: a
// 1-card farm and a 3-card farm differ, but the same farm explored twice
// must land on the identical terminal fingerprint (see below), and every
// clean run reports exactly one terminal state.
TEST(GateModel, EveryCleanConfigQuiescesUniquely) {
  for (int cards = 1; cards <= 3; ++cards) {
    const GateModelConfig cfg = config(cards, 3, 2);
    const GateModelResult res = check_gate_model(cfg);
    ASSERT_TRUE(res.ok()) << describe(cfg, res);
    EXPECT_EQ(res.terminals, 1) << describe(cfg, res);
  }
}

// --------------------------------------------------------------------------
// Exploration determinism: the checker is a reproducible oracle.
// --------------------------------------------------------------------------

TEST(GateModel, StateCountsAndFingerprintReproduce) {
  const GateModelConfig cfg = config(3, 3, 3, /*proxy=*/true);
  const GateModelResult first = check_gate_model(cfg);
  const GateModelResult second = check_gate_model(cfg);
  ASSERT_TRUE(first.ok()) << describe(cfg, first);
  EXPECT_EQ(first.states, second.states);
  EXPECT_EQ(first.transitions, second.transitions);
  EXPECT_EQ(first.terminals, second.terminals);
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(first.terminal_fingerprint, second.terminal_fingerprint);
}

// Every --grid=full config, pinned: a change to the checker or to the
// protocol it explores moves one of these numbers. The fingerprint is
// pinned as its FNV-1a hash.
struct PinnedRun {
  int cards, reqs, slots, proxy;
  long long states, transitions, terminals, grants;
  std::uint64_t fingerprint_hash;
};

constexpr PinnedRun kFullGrid[] = {
    {1, 0, 1, 0, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 0, 1, 1, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 0, 2, 0, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 0, 2, 1, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 0, 3, 0, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 0, 3, 1, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 0, 4, 0, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 0, 4, 1, 5, 4, 1, 1, 0x0327f24d4a737277ULL},
    {1, 1, 1, 0, 9, 8, 1, 2, 0x782947d02eddafa0ULL},
    {1, 1, 1, 1, 9, 8, 1, 2, 0x9182c8d03d0b6581ULL},
    {1, 1, 2, 0, 8, 7, 1, 2, 0x782947d02eddafa0ULL},
    {1, 1, 2, 1, 8, 7, 1, 2, 0x9182c8d03d0b6581ULL},
    {1, 1, 3, 0, 8, 7, 1, 2, 0x782947d02eddafa0ULL},
    {1, 1, 3, 1, 8, 7, 1, 2, 0x9182c8d03d0b6581ULL},
    {1, 1, 4, 0, 8, 7, 1, 2, 0x782947d02eddafa0ULL},
    {1, 1, 4, 1, 8, 7, 1, 2, 0x9182c8d03d0b6581ULL},
    {1, 2, 1, 0, 14, 13, 1, 3, 0x8b91901a9ac5fa23ULL},
    {1, 2, 1, 1, 14, 13, 1, 3, 0xbf6f8a1ab81f5335ULL},
    {1, 2, 2, 0, 12, 11, 1, 3, 0x8b91901a9ac5fa23ULL},
    {1, 2, 2, 1, 12, 11, 1, 3, 0xbf6f8a1ab81f5335ULL},
    {1, 2, 3, 0, 11, 10, 1, 3, 0x8b91901a9ac5fa23ULL},
    {1, 2, 3, 1, 11, 10, 1, 3, 0xbf6f8a1ab81f5335ULL},
    {1, 2, 4, 0, 11, 10, 1, 3, 0x8b91901a9ac5fa23ULL},
    {1, 2, 4, 1, 11, 10, 1, 3, 0xbf6f8a1ab81f5335ULL},
    {1, 3, 1, 0, 18, 17, 1, 4, 0x9c77b5c8073973acULL},
    {1, 3, 1, 1, 18, 17, 1, 4, 0xb63e36c815c3fb6dULL},
    {1, 3, 2, 0, 16, 15, 1, 4, 0x9c77b5c8073973acULL},
    {1, 3, 2, 1, 16, 15, 1, 4, 0xb63e36c815c3fb6dULL},
    {1, 3, 3, 0, 14, 13, 1, 4, 0x9c77b5c8073973acULL},
    {1, 3, 3, 1, 14, 13, 1, 4, 0xb63e36c815c3fb6dULL},
    {1, 3, 4, 0, 13, 12, 1, 4, 0x9c77b5c8073973acULL},
    {1, 3, 4, 1, 13, 12, 1, 4, 0xb63e36c815c3fb6dULL},
    {1, 4, 1, 0, 23, 22, 1, 5, 0x0445f7622fa04069ULL},
    {1, 4, 1, 1, 23, 22, 1, 5, 0x2ea8f8dfa4315ddcULL},
    {1, 4, 2, 0, 21, 20, 1, 5, 0x0445f7622fa04069ULL},
    {1, 4, 2, 1, 21, 20, 1, 5, 0x2ea8f8dfa4315ddcULL},
    {1, 4, 3, 0, 18, 17, 1, 5, 0x0445f7622fa04069ULL},
    {1, 4, 3, 1, 18, 17, 1, 5, 0x2ea8f8dfa4315ddcULL},
    {1, 4, 4, 0, 16, 15, 1, 5, 0x0445f7622fa04069ULL},
    {1, 4, 4, 1, 16, 15, 1, 5, 0x2ea8f8dfa4315ddcULL},
    {2, 0, 1, 0, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 0, 1, 1, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 0, 2, 0, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 0, 2, 1, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 0, 3, 0, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 0, 3, 1, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 0, 4, 0, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 0, 4, 1, 17, 24, 1, 6, 0x223fb528ca2d70d5ULL},
    {2, 1, 1, 0, 29, 44, 1, 11, 0x2e31e508208017baULL},
    {2, 1, 1, 1, 29, 44, 1, 11, 0xacda5028bfdf5813ULL},
    {2, 1, 2, 0, 28, 43, 1, 10, 0x2e31e508208017baULL},
    {2, 1, 2, 1, 22, 31, 1, 9, 0xacda5028bfdf5813ULL},
    {2, 1, 3, 0, 28, 43, 1, 10, 0x2e31e508208017baULL},
    {2, 1, 3, 1, 22, 31, 1, 9, 0xacda5028bfdf5813ULL},
    {2, 1, 4, 0, 28, 43, 1, 10, 0x2e31e508208017baULL},
    {2, 1, 4, 1, 22, 31, 1, 9, 0xacda5028bfdf5813ULL},
    {2, 2, 1, 0, 46, 73, 1, 17, 0x0a9e2b132bd5ac85ULL},
    {2, 2, 1, 1, 46, 73, 1, 17, 0x9d65b9e4b774cb8bULL},
    {2, 2, 2, 0, 37, 56, 1, 14, 0xb65ebe834f414a01ULL},
    {2, 2, 2, 1, 33, 49, 1, 11, 0x9d65b9e4b774cb8bULL},
    {2, 2, 3, 0, 39, 62, 1, 14, 0xb65ebe834f414a01ULL},
    {2, 2, 3, 1, 33, 49, 1, 11, 0x9d65b9e4b774cb8bULL},
    {2, 2, 4, 0, 39, 62, 1, 14, 0xb65ebe834f414a01ULL},
    {2, 2, 4, 1, 33, 49, 1, 11, 0x9d65b9e4b774cb8bULL},
    {2, 3, 1, 0, 60, 97, 1, 22, 0xe4f1da3955c4e55eULL},
    {2, 3, 1, 1, 60, 97, 1, 22, 0x2e77e7d3bbc823e3ULL},
    {2, 3, 2, 0, 49, 78, 1, 18, 0xe4f1da3955c4e55eULL},
    {2, 3, 2, 1, 41, 62, 1, 14, 0x2e77e7d3bbc823e3ULL},
    {2, 3, 3, 0, 43, 66, 1, 17, 0x5013e8f0fee440ceULL},
    {2, 3, 3, 1, 40, 61, 1, 13, 0x2e77e7d3bbc823e3ULL},
    {2, 3, 4, 0, 45, 72, 1, 17, 0x5013e8f0fee440ceULL},
    {2, 3, 4, 1, 40, 61, 1, 13, 0x2e77e7d3bbc823e3ULL},
    {2, 4, 1, 0, 77, 126, 1, 28, 0x0c5cdb245639b97bULL},
    {2, 4, 1, 1, 77, 126, 1, 28, 0x8ccee5eee2e41fa7ULL},
    {2, 4, 2, 0, 58, 93, 1, 23, 0xdd32281e7989f2a3ULL},
    {2, 4, 2, 1, 52, 81, 1, 20, 0x8ccee5eee2e41fa7ULL},
    {2, 4, 3, 0, 55, 86, 1, 20, 0x0c5cdb245639b97bULL},
    {2, 4, 3, 1, 41, 61, 1, 15, 0x8ccee5eee2e41fa7ULL},
    {2, 4, 4, 0, 49, 76, 1, 20, 0x96458f8cba898fabULL},
    {2, 4, 4, 1, 41, 61, 1, 15, 0x8ccee5eee2e41fa7ULL},
    {3, 0, 1, 0, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 0, 1, 1, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 0, 2, 0, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 0, 2, 1, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 0, 3, 0, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 0, 3, 1, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 0, 4, 0, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 0, 4, 1, 53, 108, 1, 21, 0x82678f64dc56f387ULL},
    {3, 1, 1, 0, 89, 192, 1, 36, 0x1b355be3434d6318ULL},
    {3, 1, 1, 1, 89, 192, 1, 36, 0x95ce8e1f6a021691ULL},
    {3, 1, 2, 0, 88, 191, 1, 36, 0x1b355be3434d6318ULL},
    {3, 1, 2, 1, 64, 131, 1, 29, 0x95ce8e1f6a021691ULL},
    {3, 1, 3, 0, 88, 191, 1, 36, 0x1b355be3434d6318ULL},
    {3, 1, 3, 1, 64, 131, 1, 29, 0x95ce8e1f6a021691ULL},
    {3, 1, 4, 0, 88, 191, 1, 36, 0x1b355be3434d6318ULL},
    {3, 1, 4, 1, 64, 131, 1, 29, 0x95ce8e1f6a021691ULL},
    {3, 2, 1, 0, 142, 317, 1, 57, 0x6896134a979d3357ULL},
    {3, 2, 1, 1, 142, 317, 1, 57, 0xdac57e6a3b7a3059ULL},
    {3, 2, 2, 0, 109, 236, 1, 45, 0x8845ffe0f2b3c493ULL},
    {3, 2, 2, 1, 79, 159, 1, 35, 0xdac57e6a3b7a3059ULL},
    {3, 2, 3, 0, 123, 274, 1, 51, 0x8845ffe0f2b3c493ULL},
    {3, 2, 3, 1, 79, 159, 1, 35, 0xdac57e6a3b7a3059ULL},
    {3, 2, 4, 0, 123, 274, 1, 51, 0x8845ffe0f2b3c493ULL},
    {3, 2, 4, 1, 79, 159, 1, 35, 0xdac57e6a3b7a3059ULL},
    {3, 3, 1, 0, 188, 429, 1, 76, 0x32db366cdbdb12a6ULL},
    {3, 3, 1, 1, 188, 429, 1, 76, 0x5b4096e94341d62dULL},
    {3, 3, 2, 0, 142, 315, 1, 59, 0xd308e476ca359d1eULL},
    {3, 3, 2, 1, 111, 233, 1, 41, 0x5b4096e94341d62dULL},
    {3, 3, 3, 0, 127, 278, 1, 54, 0x2ceb98cc7f1dc264ULL},
    {3, 3, 3, 1, 111, 233, 1, 41, 0x5b4096e94341d62dULL},
    {3, 3, 4, 0, 141, 316, 1, 60, 0x2ceb98cc7f1dc264ULL},
    {3, 3, 4, 1, 111, 233, 1, 41, 0x5b4096e94341d62dULL},
    {3, 4, 1, 0, 248, 574, 1, 102, 0x8436b9b0bbc6cc2bULL},
    {3, 4, 1, 1, 250, 578, 1, 103, 0x235bdb24821c18fbULL},
    {3, 4, 2, 0, 173, 380, 1, 70, 0xa6907d97b6b6c49fULL},
    {3, 4, 2, 1, 136, 289, 1, 48, 0x235bdb24821c18fbULL},
    {3, 4, 3, 0, 160, 357, 1, 68, 0x78961d7056d3ad83ULL},
    {3, 4, 3, 1, 131, 277, 1, 47, 0x235bdb24821c18fbULL},
    {3, 4, 4, 0, 145, 320, 1, 63, 0x744ffa4618cae111ULL},
    {3, 4, 4, 1, 131, 277, 1, 47, 0x235bdb24821c18fbULL},
    {4, 0, 1, 0, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 0, 1, 1, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 0, 2, 0, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 0, 2, 1, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 0, 3, 0, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 0, 3, 1, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 0, 4, 0, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 0, 4, 1, 161, 432, 1, 66, 0xa9cc2bba4e4788c5ULL},
    {4, 1, 1, 0, 269, 756, 1, 111, 0x9df39489d1ab3422ULL},
    {4, 1, 1, 1, 269, 756, 1, 111, 0x1ef26d09063b0a83ULL},
    {4, 1, 2, 0, 268, 755, 1, 114, 0x9df39489d1ab3422ULL},
    {4, 1, 2, 1, 190, 515, 1, 89, 0x1ef26d09063b0a83ULL},
    {4, 1, 3, 0, 268, 755, 1, 114, 0x9df39489d1ab3422ULL},
    {4, 1, 3, 1, 190, 515, 1, 89, 0x1ef26d09063b0a83ULL},
    {4, 1, 4, 0, 268, 755, 1, 114, 0x9df39489d1ab3422ULL},
    {4, 1, 4, 1, 190, 515, 1, 89, 0x1ef26d09063b0a83ULL},
    {4, 2, 1, 0, 430, 1241, 1, 177, 0x274ef2d0a98f4bb5ULL},
    {4, 2, 1, 1, 430, 1241, 1, 177, 0xe1468d7dc70ef99bULL},
    {4, 2, 2, 0, 325, 920, 1, 138, 0xf997a135aa818b11ULL},
    {4, 2, 2, 1, 217, 581, 1, 105, 0xe1468d7dc70ef99bULL},
    {4, 2, 3, 0, 375, 1078, 1, 162, 0xf997a135aa818b11ULL},
    {4, 2, 3, 1, 217, 581, 1, 105, 0xe1468d7dc70ef99bULL},
    {4, 2, 4, 0, 375, 1078, 1, 162, 0xf997a135aa818b11ULL},
    {4, 2, 4, 1, 217, 581, 1, 105, 0xe1468d7dc70ef99bULL},
    {4, 3, 1, 0, 572, 1681, 1, 236, 0x4a3aea98f90dccb4ULL},
    {4, 3, 1, 1, 572, 1681, 1, 236, 0xf5834ac8ccff422fULL},
    {4, 3, 2, 0, 430, 1239, 1, 185, 0xe2a270cb3a20c33cULL},
    {4, 3, 2, 1, 257, 679, 1, 119, 0xf5834ac8ccff422fULL},
    {4, 3, 3, 0, 379, 1082, 1, 165, 0x53a68091c00f095eULL},
    {4, 3, 3, 1, 257, 679, 1, 119, 0xf5834ac8ccff422fULL},
    {4, 3, 4, 0, 429, 1240, 1, 189, 0x53a68091c00f095eULL},
    {4, 3, 4, 1, 257, 679, 1, 119, 0xf5834ac8ccff422fULL},
    {4, 4, 1, 0, 776, 2318, 1, 316, 0xd949fdd7c5f5b901ULL},
    {4, 4, 1, 1, 776, 2318, 1, 316, 0x14ffc4b93af39cb1ULL},
    {4, 4, 2, 0, 497, 1424, 1, 211, 0x5770b84655c61c51ULL},
    {4, 4, 2, 1, 351, 948, 1, 139, 0x14ffc4b93af39cb1ULL},
    {4, 4, 3, 0, 535, 1558, 1, 230, 0x904272edadc3fe5bULL},
    {4, 4, 3, 1, 351, 948, 1, 139, 0x14ffc4b93af39cb1ULL},
    {4, 4, 4, 0, 433, 1244, 1, 192, 0xa1d3f11106d98b9bULL},
    {4, 4, 4, 1, 351, 948, 1, 139, 0x14ffc4b93af39cb1ULL},
};
static_assert(std::size(kFullGrid) == 4 * 5 * 4 * 2, "one row per config");

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(GateModel, FullGridCountsAndFingerprintsArePinned) {
  for (const PinnedRun& pin : kFullGrid) {
    const GateModelConfig cfg =
        config(pin.cards, pin.reqs, pin.slots, pin.proxy != 0);
    const GateModelResult res = check_gate_model(cfg);
    ASSERT_TRUE(res.ok()) << describe(cfg, res);
    EXPECT_EQ(res.states, pin.states) << describe(cfg, res);
    EXPECT_EQ(res.transitions, pin.transitions) << describe(cfg, res);
    EXPECT_EQ(res.terminals, pin.terminals) << describe(cfg, res);
    EXPECT_EQ(res.grants, pin.grants) << describe(cfg, res);
    EXPECT_EQ(fnv1a(res.terminal_fingerprint), pin.fingerprint_hash)
        << describe(cfg, res) << "\nfingerprint " << res.terminal_fingerprint;
  }
}

// --------------------------------------------------------------------------
// Tamper self-tests: each seeded protocol bug must be caught by exactly
// its documented code (same pairing tools/gate_model_check pins). A tamper
// caught by the "wrong" code would mean the diagnostics don't localize.
// --------------------------------------------------------------------------

void expect_tamper_caught(GateTamper tamper, GateDiagCode expect, int cards,
                          int reqs, int slots) {
  const GateModelConfig cfg = config(cards, reqs, slots, false, tamper);
  const GateModelResult res = check_gate_model(cfg);
  ASSERT_FALSE(res.diagnostics.empty())
      << gate_tamper_name(tamper) << " went undetected\n"
      << describe(cfg, res);
  EXPECT_EQ(res.diagnostics.front().code, expect)
      << gate_tamper_name(tamper) << " caught by "
      << gate_diag_code_name(res.diagnostics.front().code) << " instead of "
      << gate_diag_code_name(expect) << "\n"
      << describe(cfg, res);
}

TEST(GateModelTamper, FrozenKeyTamperCaughtByGateKey) {
  // Needs a reservation posted after compute advanced the live clock past
  // the frozen step-top snapshot: a mid-drain re-reserve after a pop, which
  // needs two slots free at a step top while requests remain.
  expect_tamper_caught(GateTamper::kFrozenKey, GateDiagCode::kKey, 1, 4, 3);
}

TEST(GateModelTamper, LostUnparkTamperCaughtByGateDeadlock) {
  expect_tamper_caught(GateTamper::kLostUnpark, GateDiagCode::kDeadlock, 2,
                       2, 1);
}

TEST(GateModelTamper, DoubleGrantTamperCaughtByGateDup) {
  expect_tamper_caught(GateTamper::kDoubleGrant, GateDiagCode::kDup, 1, 2,
                       3);
}

TEST(GateModelTamper, DropGrantTamperCaughtByGateLost) {
  expect_tamper_caught(GateTamper::kDropGrant, GateDiagCode::kLost, 2, 2,
                       2);
}

TEST(GateModelTamper, NonMinGrantTamperCaughtByGateOrder) {
  expect_tamper_caught(GateTamper::kNonMinGrant, GateDiagCode::kOrder, 2, 3,
                       2);
}

// The frozen-key tamper must be INVISIBLE on a shape where every
// reservation posts before any compute runs (one card with enough slots
// drains the whole burst in its initial top drain, where live clock ==
// snapshot) — pinning that the tamper cases above are minimal, not
// vacuous: the checker distinguishes "tampered key happened to equal the
// frozen key" from "tampered key diverged".
TEST(GateModelTamper, FrozenKeyTamperInvisibleWithoutMidDrainReserve) {
  const GateModelConfig cfg =
      config(1, 2, 3, false, GateTamper::kFrozenKey);
  const GateModelResult res = check_gate_model(cfg);
  EXPECT_TRUE(res.ok()) << describe(cfg, res);
}

// Stable code names: CI output and the negative tests key on these
// strings; renaming one is a breaking change to the wall.
TEST(GateModel, DiagnosticCodeNamesAreStable) {
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kOrder), "GATE-ORDER");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kKey), "GATE-KEY");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kDeadlock),
               "GATE-DEADLOCK");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kLost), "GATE-LOST");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kDup), "GATE-DUP");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kNondet), "GATE-NONDET");
}

}  // namespace
}  // namespace tfacc
