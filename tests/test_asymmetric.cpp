// Tests for the asymmetric (multi-commodity) extension — the paper's §3
// remark that all convergence machinery carries over when players sample
// within their own strategy-space class.
#include <gtest/gtest.h>

#include <array>

#include "game/asymmetric.hpp"
#include "protocol_oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

/// Two commodities over 3 shared links: class 0 may use {0,1}, class 1 may
/// use {1,2}. Link 1 is contested.
AsymmetricGame two_commodity_game(std::int64_t n0, std::int64_t n1) {
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(1.0),
                              make_linear(1.0)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}};
  classes[0].num_players = n0;
  classes[1].strategies = {{1}, {2}};
  classes[1].num_players = n1;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

TEST(AsymmetricGame, ValidatesConstruction) {
  std::vector<LatencyPtr> fns{make_linear(1.0)};
  EXPECT_THROW(AsymmetricGame({}, {PlayerClass{{{0}}, 1}}),
               invariant_violation);
  EXPECT_THROW(AsymmetricGame(fns, {}), invariant_violation);
  EXPECT_THROW(AsymmetricGame(fns, {PlayerClass{{{0}}, 0}}),
               invariant_violation);
  EXPECT_THROW(AsymmetricGame(fns, {PlayerClass{{{5}}, 1}}),
               invariant_violation);
  EXPECT_THROW(AsymmetricGame(fns, {PlayerClass{{}, 1}}),
               invariant_violation);
}

TEST(AsymmetricGame, BasicAccessors) {
  const auto game = two_commodity_game(10, 6);
  EXPECT_EQ(game.num_classes(), 2);
  EXPECT_EQ(game.num_players(), 16);
  EXPECT_EQ(game.num_resources(), 3);
  EXPECT_DOUBLE_EQ(game.elasticity(), 1.0);
  EXPECT_DOUBLE_EQ(game.nu(), 1.0);
}

TEST(AsymmetricState, CongestionAggregatesAcrossClasses) {
  const auto game = two_commodity_game(10, 6);
  const AsymmetricState x(game, {{4, 6}, {5, 1}});
  EXPECT_EQ(x.congestion(0), 4);
  EXPECT_EQ(x.congestion(1), 11);  // 6 from class 0 + 5 from class 1
  EXPECT_EQ(x.congestion(2), 1);
  x.check_consistent(game);
  EXPECT_THROW(AsymmetricState(game, {{4, 5}, {5, 1}}), invariant_violation);
}

TEST(AsymmetricState, Initializers) {
  const auto game = two_commodity_game(11, 7);
  Rng rng(1);
  const auto u = AsymmetricState::uniform_random(game, rng);
  u.check_consistent(game);
  const auto e = AsymmetricState::spread_evenly(game);
  EXPECT_EQ(e.count(0, 0), 6);
  EXPECT_EQ(e.count(0, 1), 5);
  EXPECT_EQ(e.count(1, 0), 4);
  EXPECT_EQ(e.count(1, 1), 3);
}

TEST(AsymmetricGame, LatenciesSeeSharedCongestion) {
  const auto game = two_commodity_game(10, 6);
  const AsymmetricState x(game, {{4, 6}, {5, 1}});
  // Class-0 strategy 1 = link 1 at load 11.
  EXPECT_DOUBLE_EQ(game.strategy_latency(x, 0, 1), 11.0);
  // Class-1 player moving 0→1 (link1 → link2): sees link 2 at load 2.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 1, 0, 1), 2.0);
  // Class-0 player moving 0→1 joins the contested link: load 12.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 0, 0, 1), 12.0);
}

TEST(AsymmetricGame, RosenthalIdentityAcrossClasses) {
  const auto game = two_commodity_game(10, 6);
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    AsymmetricState x = AsymmetricState::uniform_random(game, rng);
    const auto c = static_cast<std::int32_t>(rng.uniform_int(2));
    const auto from = static_cast<StrategyId>(rng.uniform_int(2));
    const StrategyId to = 1 - from;
    if (x.count(c, from) == 0) continue;
    const double phi_before = game.potential(x);
    const double expost = game.expost_latency(x, c, from, to);
    const double before = game.strategy_latency(x, c, from);
    const std::array<ClassMigration, 1> mv{ClassMigration{c, from, to, 1}};
    x.apply(game, mv);
    EXPECT_NEAR(game.potential(x) - phi_before, expost - before, 1e-9);
  }
}

TEST(AsymmetricMoveProbability, ClassLocalSampling) {
  const auto game = two_commodity_game(10, 6);
  const AsymmetricState x(game, {{8, 2}, {5, 1}});
  AsymmetricImitationParams params;
  params.lambda = 0.25;
  params.nu_cutoff = false;
  // Class-0 player on link 0 (latency 8) copying link 1 (ex-post 8):
  // loads: link0=8, link1=7 (2 + 5), ex-post 8 → no strict improvement.
  EXPECT_DOUBLE_EQ(
      oracle::asymmetric_move_probability(game, x, params, 0, 0, 1), 0.0);
  // Class-1 player on link 1 (latency 7) copying link 2 (ex-post 2): gain 5.
  // Sampling: 1 same-class player on strategy 1, pool 5 → 1/5.
  const double p =
      oracle::asymmetric_move_probability(game, x, params, 1, 0, 1);
  EXPECT_NEAR(p, (1.0 / 5.0) * 0.25 * (7.0 - 2.0) / 7.0, 1e-12);
  // Unused target in class: zero.
  const AsymmetricState y(game, {{8, 2}, {6, 0}});
  EXPECT_DOUBLE_EQ(
      oracle::asymmetric_move_probability(game, y, params, 1, 0, 1), 0.0);
}

TEST(AsymmetricDynamics, RoundConservesClassMass) {
  const auto game = two_commodity_game(200, 100);
  Rng rng(3);
  AsymmetricState x(game, {{180, 20}, {90, 10}});
  AsymmetricImitationParams params;
  for (int round = 0; round < 30; ++round) {
    oracle::step_asymmetric_round(game, x, params, rng);
    x.check_consistent(game);
  }
}

TEST(AsymmetricDynamics, PotentialIsSupermartingaleEmpirically) {
  const auto game = two_commodity_game(300, 200);
  AsymmetricImitationParams params;
  params.lambda = 0.5;
  double total_drift = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    Rng rng(100 + static_cast<std::uint64_t>(trial));
    AsymmetricState x(game, {{250, 50}, {30, 170}});
    const double phi0 = game.potential(x);
    for (int round = 0; round < 20; ++round) {
      oracle::step_asymmetric_round(game, x, params, rng);
    }
    total_drift += game.potential(x) - phi0;
  }
  EXPECT_LT(total_drift / 40.0, 0.0);
}

TEST(AsymmetricDynamics, ConvergesToImitationStable) {
  const auto game = two_commodity_game(200, 100);
  Rng rng(4);
  AsymmetricState x(game, {{199, 1}, {99, 1}});
  AsymmetricImitationParams params;
  bool stable = false;
  for (int round = 0; round < 20000 && !stable; ++round) {
    oracle::step_asymmetric_round(game, x, params, rng);
    stable = is_asymmetric_imitation_stable(game, x, game.nu());
  }
  EXPECT_TRUE(stable);
  x.check_consistent(game);
}

TEST(AsymmetricEquilibrium, NashDetection) {
  const auto game = two_commodity_game(4, 4);
  // Loads: link0=2, link1=2+2=4... balance: class0 {2,2}, class1 {2,2} →
  // link1 has 4: class-0 player on link1 pays 4, moving to link0 ex-post 3:
  // not Nash. A Nash split pushes players off the contested link.
  EXPECT_FALSE(is_asymmetric_nash(game, AsymmetricState(game, {{2, 2},
                                                               {2, 2}})));
  // class0 {3,1}, class1 {1,3}: loads 3, 2, 3. Check: class-0 on link0
  // (3) → link1 ex-post 3: no gain. class-0 on link1 (2) → link0 ex-post
  // 4: no. class-1 on link1 (2): → link2 ex-post 4: no. class-1 on link2
  // (3) → link1 ex-post 3: no. Nash.
  EXPECT_TRUE(is_asymmetric_nash(game, AsymmetricState(game, {{3, 1},
                                                              {1, 3}})));
  // Nash implies imitation-stable.
  EXPECT_TRUE(is_asymmetric_imitation_stable(
      game, AsymmetricState(game, {{3, 1}, {1, 3}}), 0.0));
}

TEST(AsymmetricDynamics, SinglePlayerClassNeverMoves) {
  // A class with one player has nobody to imitate.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(1.0)};
  std::vector<PlayerClass> classes(1);
  classes[0].strategies = {{0}, {1}};
  classes[0].num_players = 1;
  const AsymmetricGame game(std::move(fns), std::move(classes));
  const AsymmetricState x(game, {{1, 0}});
  AsymmetricImitationParams params;
  params.nu_cutoff = false;
  EXPECT_DOUBLE_EQ(
      oracle::asymmetric_move_probability(game, x, params, 0, 0, 1), 0.0);
}

}  // namespace
}  // namespace cid
