// Property-based sweeps (TEST_P): cross-cutting invariants checked over a
// grid of {game family} × {protocol} × {engine}. These are the "no state is
// ever corrupted, no law is ever violated" guarantees the rest of the
// reproduction stands on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "dynamics/engine.hpp"
#include "protocol_oracle.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "dynamics/equilibrium.hpp"
#include "game/builders.hpp"
#include "game/potential.hpp"
#include "graph/generators.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"

namespace cid {
namespace {

enum class GameFamily {
  kLinearLinks,
  kQuadraticLinks,
  kMixedPolyLinks,
  kBraess,
  kLayered,
};

enum class ProtocolKind {
  kImitation,
  kImitationNoNu,
  kImitationVirtual,
  kExploration,
  kCombined,
};

std::string family_name(GameFamily f) {
  switch (f) {
    case GameFamily::kLinearLinks: return "LinearLinks";
    case GameFamily::kQuadraticLinks: return "QuadraticLinks";
    case GameFamily::kMixedPolyLinks: return "MixedPolyLinks";
    case GameFamily::kBraess: return "Braess";
    case GameFamily::kLayered: return "Layered";
  }
  return "?";
}

std::string protocol_name(ProtocolKind p) {
  switch (p) {
    case ProtocolKind::kImitation: return "Imitation";
    case ProtocolKind::kImitationNoNu: return "ImitationNoNu";
    case ProtocolKind::kImitationVirtual: return "ImitationVirtual";
    case ProtocolKind::kExploration: return "Exploration";
    case ProtocolKind::kCombined: return "Combined";
  }
  return "?";
}

CongestionGame build_game(GameFamily family, std::int64_t n) {
  switch (family) {
    case GameFamily::kLinearLinks:
      return make_uniform_links_game(5, make_linear(1.0), n);
    case GameFamily::kQuadraticLinks:
      return make_uniform_links_game(4, make_monomial(0.5, 2.0), n);
    case GameFamily::kMixedPolyLinks: {
      std::vector<LatencyPtr> fns{make_linear(1.0), make_affine(0.5, 2.0),
                                  make_monomial(0.2, 2.0),
                                  make_polynomial({1.0, 0.5, 0.1}),
                                  make_constant(30.0)};
      return make_singleton_game(std::move(fns), n);
    }
    case GameFamily::kBraess: {
      const auto net = make_braess_network();
      std::vector<LatencyPtr> fns{make_linear(0.5), make_constant(20.0),
                                  make_constant(20.0), make_linear(0.5),
                                  make_constant(1.0)};
      return make_network_game(net, std::move(fns), n);
    }
    case GameFamily::kLayered: {
      const auto net = make_layered_network(2, 2);
      std::vector<LatencyPtr> fns;
      for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
        fns.push_back(make_linear(0.5 + 0.25 * static_cast<double>(e % 3)));
      }
      return make_network_game(net, std::move(fns), n);
    }
  }
  CID_ENSURE(false, "unreachable");
  return make_uniform_links_game(1, make_linear(1.0), 1);
}

std::unique_ptr<Protocol> build_protocol(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kImitation:
      return std::make_unique<ImitationProtocol>();
    case ProtocolKind::kImitationNoNu: {
      ImitationParams p;
      p.nu_cutoff = false;
      return std::make_unique<ImitationProtocol>(p);
    }
    case ProtocolKind::kImitationVirtual: {
      ImitationParams p;
      p.virtual_agents = 1;
      p.nu_cutoff = false;
      return std::make_unique<ImitationProtocol>(p);
    }
    case ProtocolKind::kExploration:
      return std::make_unique<ExplorationProtocol>();
    case ProtocolKind::kCombined:
      return std::make_unique<CombinedProtocol>(ImitationParams{},
                                                ExplorationParams{});
  }
  CID_ENSURE(false, "unreachable");
  return nullptr;
}

using Config = std::tuple<GameFamily, ProtocolKind, EngineMode>;

class DynamicsProperties : public ::testing::TestWithParam<Config> {};

TEST_P(DynamicsProperties, RoundsPreserveEveryStructuralInvariant) {
  const auto [family, kind, mode] = GetParam();
  const std::int64_t n = 200;
  const auto game = build_game(family, n);
  const auto protocol = build_protocol(kind);
  Rng rng(0xAB);
  State x = State::uniform_random(game, rng);
  for (int round = 0; round < 25; ++round) {
    const RoundResult rr = draw_round(game, x, *protocol, rng, mode);
    // (1) feasible outflows per origin strategy
    std::vector<std::int64_t> outflow(
        static_cast<std::size_t>(game.num_strategies()), 0);
    for (const Migration& mv : rr.moves) {
      ASSERT_GT(mv.count, 0);
      ASSERT_NE(mv.from, mv.to);
      outflow[static_cast<std::size_t>(mv.from)] += mv.count;
    }
    for (StrategyId p = 0; p < game.num_strategies(); ++p) {
      ASSERT_LE(outflow[static_cast<std::size_t>(p)], x.count(p));
    }
    // (2) potential bookkeeping identity (exact ΔΦ from deltas)
    const double dphi = potential_gain(game, x, rr.moves);
    const double phi_before = game.potential(x);
    x.apply(game, rr.moves);
    ASSERT_NEAR(game.potential(x), phi_before + dphi,
                1e-7 * (1.0 + std::abs(phi_before)));
    // (3) full state consistency after application
    x.check_consistent(game);
  }
}

TEST_P(DynamicsProperties, MoveProbabilitiesFormASubdistribution) {
  const auto [family, kind, mode] = GetParam();
  (void)mode;
  const auto game = build_game(family, 150);
  const auto protocol = build_protocol(kind);
  Rng rng(0xCD);
  for (int trial = 0; trial < 10; ++trial) {
    const State x = State::uniform_random(game, rng);
    for (StrategyId p : x.support()) {
      double total = 0.0;
      for (StrategyId q = 0; q < game.num_strategies(); ++q) {
        if (q == p) continue;
        const double prob = oracle::move_probability(*protocol, game, x, p, q);
        ASSERT_GE(prob, 0.0);
        ASSERT_LE(prob, 1.0);
        total += prob;
      }
      ASSERT_LE(total, 1.0 + 1e-9);
    }
  }
}

TEST_P(DynamicsProperties, PotentialDriftIsNonPositive) {
  const auto [family, kind, mode] = GetParam();
  const auto game = build_game(family, 300);
  const auto protocol = build_protocol(kind);
  RunningStat drift;
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng(1000 + static_cast<std::uint64_t>(trial));
    State x = State::uniform_random(game, rng);
    const double phi0 = game.potential(x);
    for (int round = 0; round < 15; ++round) {
      step_round(game, x, *protocol, rng, mode);
    }
    drift.add(game.potential(x) - phi0);
  }
  // Super-martingale within noise (Corollary 3 / Lemma 14): allow 4 sigma.
  EXPECT_LE(drift.mean(), 4.0 * drift.sem() + 1e-9)
      << family_name(family) << "/" << protocol_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicsProperties,
    ::testing::Combine(
        ::testing::Values(GameFamily::kLinearLinks,
                          GameFamily::kQuadraticLinks,
                          GameFamily::kMixedPolyLinks, GameFamily::kBraess,
                          GameFamily::kLayered),
        ::testing::Values(ProtocolKind::kImitation,
                          ProtocolKind::kImitationNoNu,
                          ProtocolKind::kImitationVirtual,
                          ProtocolKind::kExploration,
                          ProtocolKind::kCombined),
        ::testing::Values(EngineMode::kAggregate, EngineMode::kPerPlayer)),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return family_name(std::get<0>(param_info.param)) +
             protocol_name(std::get<1>(param_info.param)) +
             (std::get<2>(param_info.param) == EngineMode::kAggregate
                  ? "Agg"
                  : "PerPlayer");
    });

// ---- Equilibrium-notion implications over random states --------------------

class EquilibriumImplications
    : public ::testing::TestWithParam<GameFamily> {};

TEST_P(EquilibriumImplications, NashImpliesStableImpliesApproxChain) {
  const auto game = build_game(GetParam(), 60);
  Rng rng(0xEF);
  for (int trial = 0; trial < 200; ++trial) {
    const State x = State::uniform_random(game, rng);
    if (is_nash(game, x)) {
      EXPECT_TRUE(is_imitation_stable(game, x, 0.0));
      EXPECT_DOUBLE_EQ(nash_gap(game, x), 0.0);
    }
    if (is_imitation_stable(game, x, 0.0)) {
      EXPECT_TRUE(is_imitation_stable(game, x, game.nu()));
      EXPECT_DOUBLE_EQ(imitation_gap(game, x), 0.0);
    }
    // gap monotonicity: support-restricted gap <= full-space gap.
    EXPECT_LE(imitation_gap(game, x), nash_gap(game, x) + 1e-9);
    // Definition 1 monotone in delta and eps.
    if (is_delta_eps_equilibrium(game, x, 0.1, 0.1)) {
      EXPECT_TRUE(is_delta_eps_equilibrium(game, x, 0.2, 0.1));
      EXPECT_TRUE(is_delta_eps_equilibrium(game, x, 0.1, 0.2));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, EquilibriumImplications,
                         ::testing::Values(GameFamily::kLinearLinks,
                                           GameFamily::kQuadraticLinks,
                                           GameFamily::kMixedPolyLinks,
                                           GameFamily::kBraess,
                                           GameFamily::kLayered),
                         [](const ::testing::TestParamInfo<GameFamily>& pinfo) {
                           return family_name(pinfo.param);
                         });

}  // namespace
}  // namespace cid
