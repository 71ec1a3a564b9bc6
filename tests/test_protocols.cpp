// Protocol-law tests: the migration probabilities of Protocol 1 and 2 are
// checked against hand-computed values, including the ν cutoff, the 1/d
// damping, sampling conventions, and the combined protocol's mixture law.
// Every probability is read through checked_move_probability, which holds
// the production kernel row bitwise equal to the per-pair oracle first, so
// each hand-computed value checks both.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "protocol_oracle.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

/// p_PQ(x) from the per-pair oracle, after checking that the protocol's
/// kernel row (one fill_row over a fresh LatencyContext) holds the same
/// double at Q.
double checked_move_probability(const Protocol& protocol,
                                const CongestionGame& game, const State& x,
                                StrategyId from, StrategyId to) {
  const double expected =
      oracle::move_probability(protocol, game, x, from, to);
  LatencyContext ctx;
  ctx.reset(game, x);
  std::vector<double> row(static_cast<std::size_t>(game.num_strategies()));
  dispatch_protocol_kernel(protocol, [&](const auto& kernel) {
    kernel.fill_row(game, ctx, from, row);
  });
  EXPECT_EQ(row[static_cast<std::size_t>(to)], expected)
      << protocol.name() << " " << from << "->" << to;
  return expected;
}

TEST(ImitationProtocol, HandComputedProbability) {
  // Two linear links a=1, n=10, x=(7,3): ℓ_0=7, ex-post ℓ_1(x+1)=4, ν=1,
  // d=1 (linear). Gain test 7 > 4+1 passes. μ = λ·(7−4)/7; sampling 3/9.
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  ImitationParams params;
  params.lambda = 0.25;
  const ImitationProtocol protocol(params);
  const double mu = oracle::acceptance_probability(protocol, game, x, 0, 1);
  EXPECT_NEAR(mu, 0.25 * 3.0 / 7.0, 1e-12);
  const double p = checked_move_probability(protocol, game, x, 0, 1);
  EXPECT_NEAR(p, (3.0 / 9.0) * mu, 1e-12);
  // Reverse direction is not improving.
  EXPECT_DOUBLE_EQ(checked_move_probability(protocol, game, x, 1, 0), 0.0);
}

TEST(ImitationProtocol, NuCutoffSuppressesSmallGains) {
  // x=(6,4): gain = 6 − 5 = 1 which is NOT > ν=1 → no move.
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {6, 4});
  const ImitationProtocol with_nu;
  EXPECT_DOUBLE_EQ(checked_move_probability(with_nu, game, x, 0, 1), 0.0);
  // Dropping the cutoff (Theorem 9 regime) restores a strict-gain move...
  ImitationParams params;
  params.nu_cutoff = false;
  const ImitationProtocol without_nu(params);
  EXPECT_GT(checked_move_probability(without_nu, game, x, 0, 1), 0.0);
  // ...but (5,5) has zero gain and still no move.
  const State balanced(game, {5, 5});
  EXPECT_DOUBLE_EQ(
      checked_move_probability(without_nu, game, balanced, 0, 1), 0.0);
}

TEST(ImitationProtocol, DampingDividesByElasticity) {
  // d = 3 for cubic latencies; with damping μ scales by 1/3.
  const auto game = make_uniform_links_game(2, make_monomial(1.0, 3.0), 12);
  const State x(game, {9, 3});
  ImitationParams damped;
  damped.lambda = 0.3;
  ImitationParams undamped = damped;
  undamped.damping = false;
  const ImitationProtocol a(damped), b(undamped);
  const double mu_damped = oracle::acceptance_probability(a, game, x, 0, 1);
  const double mu_undamped = oracle::acceptance_probability(b, game, x, 0, 1);
  ASSERT_GT(mu_damped, 0.0);
  EXPECT_NEAR(mu_undamped / mu_damped, 3.0, 1e-9);
  EXPECT_NEAR(checked_move_probability(b, game, x, 0, 1) /
                  checked_move_probability(a, game, x, 0, 1),
              3.0, 1e-9);
}

TEST(ImitationProtocol, SamplingConventions) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  ImitationParams incl;
  incl.convention = SamplingConvention::kIncludeSelf;
  const ImitationProtocol p_excl, p_incl(incl);
  const double ratio = checked_move_probability(p_excl, game, x, 0, 1) /
                       checked_move_probability(p_incl, game, x, 0, 1);
  EXPECT_NEAR(ratio, 10.0 / 9.0, 1e-12);
}

TEST(ImitationProtocol, CannotDiscoverUnusedStrategies) {
  const auto game = make_uniform_links_game(3, make_linear(1.0), 10);
  const State x(game, {10, 0, 0});
  const ImitationProtocol protocol;
  EXPECT_DOUBLE_EQ(checked_move_probability(protocol, game, x, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(checked_move_probability(protocol, game, x, 0, 2), 0.0);
}

TEST(ImitationProtocol, OverridesRespected) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  ImitationParams params;
  params.lambda = 0.25;
  params.nu_override = 100.0;  // kills every move
  const ImitationProtocol strict(params);
  EXPECT_DOUBLE_EQ(checked_move_probability(strict, game, x, 0, 1), 0.0);
  ImitationParams params2;
  params2.lambda = 0.25;
  params2.elasticity_override = 5.0;
  const ImitationProtocol damped5(params2);
  EXPECT_NEAR(oracle::acceptance_probability(damped5, game, x, 0, 1),
              0.25 / 5.0 * 3.0 / 7.0, 1e-12);
  EXPECT_NEAR(checked_move_probability(damped5, game, x, 0, 1),
              (3.0 / 9.0) * 0.25 / 5.0 * 3.0 / 7.0, 1e-12);
  // An override below the game's ν (= 1 here) lets the x=(6,4) gain of 1
  // through, which the game's own ν rejects.
  const State y(game, {6, 4});
  ImitationParams params3;
  params3.nu_override = 0.5;
  const ImitationProtocol loose(params3);
  EXPECT_GT(checked_move_probability(loose, game, y, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(
      checked_move_probability(ImitationProtocol(), game, y, 0, 1), 0.0);
}

TEST(ImitationProtocol, ValidatesParams) {
  ImitationParams bad;
  bad.lambda = 0.0;
  EXPECT_THROW(ImitationProtocol{bad}, invariant_violation);
  ImitationParams bad2;
  bad2.elasticity_override = 0.5;
  EXPECT_THROW(ImitationProtocol{bad2}, invariant_violation);
}

TEST(ImitationProtocol, SumOfMoveProbabilitiesAtMostOne) {
  const auto game = make_uniform_links_game(8, make_linear(1.0), 64);
  Rng rng(5);
  const ImitationProtocol protocol;
  for (int trial = 0; trial < 20; ++trial) {
    const State x = State::uniform_random(game, rng);
    for (StrategyId p : x.support()) {
      double total = 0.0;
      for (StrategyId q = 0; q < game.num_strategies(); ++q) {
        if (q != p) total += checked_move_probability(protocol, game, x, p, q);
      }
      EXPECT_LE(total, 1.0 + 1e-12);
    }
  }
}

TEST(ImitationProtocol, VirtualAgentsRestoreInnovativeness) {
  // §6 second alternative: with v virtual agents per strategy, unused
  // strategies keep a non-zero sampling probability.
  const auto game = make_uniform_links_game(3, make_linear(1.0), 12);
  const State x(game, {12, 0, 0});
  ImitationParams params;
  params.virtual_agents = 1;
  params.nu_cutoff = false;
  const ImitationProtocol protocol(params);
  const double p = checked_move_probability(protocol, game, x, 0, 1);
  // Sampling: (0 + 1)/(12 − 1 + 3) = 1/14; gain (12 − 1)/12; λ/d = 1/4.
  EXPECT_NEAR(p, (1.0 / 14.0) * 0.25 * (11.0 / 12.0), 1e-12);
  EXPECT_GT(checked_move_probability(protocol, game, x, 0, 2), 0.0);
  EXPECT_THROW(ImitationProtocol([] {
                 ImitationParams bad;
                 bad.virtual_agents = -1;
                 return bad;
               }()),
               invariant_violation);
  EXPECT_NE(protocol.name().find("virtual=1"), std::string::npos);
}

TEST(ImitationProtocol, VirtualAgentsKeepProbabilitySumBounded) {
  const auto game = make_uniform_links_game(8, make_linear(1.0), 40);
  Rng rng(6);
  ImitationParams params;
  params.virtual_agents = 3;
  params.nu_cutoff = false;
  params.lambda = 1.0;
  const ImitationProtocol protocol(params);
  for (int trial = 0; trial < 20; ++trial) {
    const State x = State::uniform_random(game, rng);
    for (StrategyId p = 0; p < game.num_strategies(); ++p) {
      if (x.count(p) == 0) continue;
      double total = 0.0;
      for (StrategyId q = 0; q < game.num_strategies(); ++q) {
        if (q != p) total += checked_move_probability(protocol, game, x, p, q);
      }
      EXPECT_LE(total, 1.0 + 1e-12);
    }
  }
}

TEST(ExplorationProtocol, HandComputedProbability) {
  // 2 links a=1, n=10, x=(7,3): damping = min(1, |P|·ℓmin/(βn))
  // = min(1, 2·1/10) = 0.2. μ = λ·0.2·(7−4)/7, sampling 1/2.
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  ExplorationParams params;
  params.lambda = 0.5;
  const ExplorationProtocol protocol(params);
  EXPECT_NEAR(oracle::acceptance_probability(protocol, game, x, 0, 1),
              0.5 * 0.2 * 3.0 / 7.0, 1e-12);
  EXPECT_NEAR(checked_move_probability(protocol, game, x, 0, 1),
              0.5 * 0.5 * 0.2 * 3.0 / 7.0, 1e-12);
}

TEST(ExplorationProtocol, NoNuCutoffAndReachesEmptyStrategies) {
  const auto game = make_uniform_links_game(3, make_linear(1.0), 9);
  const State x(game, {9, 0, 0});
  const ExplorationProtocol protocol;
  EXPECT_GT(checked_move_probability(protocol, game, x, 0, 1), 0.0);
  EXPECT_GT(checked_move_probability(protocol, game, x, 0, 2), 0.0);
  // Tiny gains still move (no ν): x=(5,4): gain 5 - 5 = 0 → no; (6,3) gain 2.
  const State y(game, {6, 3, 0});
  EXPECT_GT(checked_move_probability(protocol, game, y, 0, 1), 0.0);
}

TEST(CombinedProtocol, MixtureOfMarginals) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  ImitationParams ip;
  ExplorationParams ep;
  const ImitationProtocol imit(ip);
  const ExplorationProtocol expl(ep);
  const CombinedProtocol combined(ip, ep, 0.25);
  const double expect = 0.25 * checked_move_probability(expl, game, x, 0, 1) +
                        0.75 * checked_move_probability(imit, game, x, 0, 1);
  EXPECT_NEAR(checked_move_probability(combined, game, x, 0, 1), expect, 1e-12);
  EXPECT_THROW(CombinedProtocol(ip, ep, 1.5), invariant_violation);
}

TEST(Protocols, Names) {
  EXPECT_NE(ImitationProtocol().name().find("imitation"), std::string::npos);
  EXPECT_NE(ExplorationProtocol().name().find("exploration"),
            std::string::npos);
  EXPECT_NE(CombinedProtocol(ImitationParams{}, ExplorationParams{})
                .name()
                .find("combined"),
            std::string::npos);
}

}  // namespace
}  // namespace cid
