// End-to-end integration tests: whole-paper behaviours on real games.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/experiment.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/equilibrium.hpp"
#include "game/builders.hpp"
#include "game/potential.hpp"
#include "game/singleton.hpp"
#include "graph/generators.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"

namespace cid {
namespace {

StopPredicate stable_stop() {
  return [](const CongestionGame& g, const State& s, std::int64_t) {
    return is_imitation_stable(g, s, g.nu());
  };
}

StopPredicate nash_stop() {
  return [](const CongestionGame& g, const State& s, std::int64_t) {
    return is_nash(g, s);
  };
}

TEST(Integration, ImitationReachesImitationStableOnSingleton) {
  const auto game = make_uniform_links_game(5, make_linear(1.0), 200);
  Rng rng(1);
  State x = State::all_on(game, 0);
  // Seed the other links with a few players so imitation can spread.
  x.apply(game, std::vector<Migration>{{0, 1, 1}, {0, 2, 1}, {0, 3, 1},
                                       {0, 4, 1}});
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 20000;
  const RunResult rr =
      run_dynamics(game, x, protocol, rng,
                   EngineInvocation{opts, stable_stop(), {}, {}});
  EXPECT_TRUE(rr.converged);
  EXPECT_TRUE(is_imitation_stable(game, x, game.nu()));
  // With ν=1 and identical linear links, stable means near-balanced.
  for (StrategyId p = 0; p < 5; ++p) {
    EXPECT_NEAR(static_cast<double>(x.count(p)), 40.0, 2.0);
  }
}

TEST(Integration, ImitationReachesApproxEquilibriumOnBraess) {
  const auto net = make_braess_network();
  std::vector<LatencyPtr> fns{make_linear(0.1), make_constant(12.0),
                              make_constant(12.0), make_linear(0.1),
                              make_constant(1.0)};
  const auto game = make_network_game(net, std::move(fns), 100);
  Rng rng(2);
  State x = State::spread_evenly(game);
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 50000;
  const double eps = 0.1, delta = 0.1;
  const StopPredicate stop = [&](const CongestionGame& g, const State& s,
                                 std::int64_t) {
    return is_delta_eps_equilibrium(g, s, delta, eps);
  };
  const RunResult rr = run_dynamics(game, x, protocol, rng,
                                    EngineInvocation{opts, stop, {}, {}});
  EXPECT_TRUE(rr.converged);
}

TEST(Integration, PotentialIsSupermartingaleEmpirically) {
  // Corollary 3: E[ΔΦ] <= 0. Average per-round ΔΦ over many trials from a
  // fixed unbalanced state must be <= 0 within noise, and the average over
  // a long run must be strictly negative.
  const auto game = make_uniform_links_game(4, make_monomial(1.0, 2.0), 400);
  const ImitationProtocol protocol;
  const TrialSet set = run_trials(60, 99, [&](Rng& rng) {
    State x(game, {250, 100, 30, 20});
    double delta_sum = 0.0;
    for (int round = 0; round < 30; ++round) {
      const RoundResult rr =
          draw_round(game, x, protocol, rng, EngineMode::kAggregate);
      delta_sum += potential_gain(game, x, rr.moves);
      x.apply(game, rr.moves);
    }
    return delta_sum;
  });
  EXPECT_LT(set.summary.mean, 0.0);
  EXPECT_LT(set.summary.mean + 3.0 * set.sem, 0.0)
      << "potential decrease should be significant";
}

TEST(Integration, ExplorationConvergesToNashDespiteEmptyStart) {
  std::vector<LatencyPtr> fns{make_linear(2.0), make_linear(2.0),
                              make_linear(1.0)};
  const auto game = make_singleton_game(std::move(fns), 50);
  Rng rng(3);
  State x = State::all_on(game, 0);  // cheap link unused
  const ExplorationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 2000000;
  opts.check_interval = 16;
  const RunResult rr = run_dynamics(
      game, x, protocol, rng, EngineInvocation{opts, nash_stop(), {}, {}});
  EXPECT_TRUE(rr.converged) << "exploration should find the unused link";
  EXPECT_GT(x.count(2), 0);
}

TEST(Integration, CombinedProtocolConvergesToNash) {
  std::vector<LatencyPtr> fns{make_linear(2.0), make_linear(2.0),
                              make_linear(1.0)};
  const auto game = make_singleton_game(std::move(fns), 50);
  Rng rng(4);
  State x = State::all_on(game, 0);
  const CombinedProtocol protocol(ImitationParams{}, ExplorationParams{});
  RunOptions opts;
  opts.max_rounds = 2000000;
  opts.check_interval = 16;
  const RunResult rr = run_dynamics(
      game, x, protocol, rng, EngineInvocation{opts, nash_stop(), {}, {}});
  EXPECT_TRUE(rr.converged);
}

TEST(Integration, ImitationAloneStabilizesWithoutDiscovering) {
  // The §6 motivation: pure imitation can stabilize in a bad state when the
  // good strategy is unused.
  std::vector<LatencyPtr> fns{make_linear(2.0), make_linear(2.0),
                              make_linear(0.01)};
  const auto game = make_singleton_game(std::move(fns), 60);
  Rng rng(5);
  State x(game, {30, 30, 0});
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 5000;
  run_dynamics(game, x, protocol, rng,
               EngineInvocation{opts, stable_stop(), {}, {}});
  EXPECT_EQ(x.count(2), 0);
  EXPECT_FALSE(is_nash(game, x));
  EXPECT_TRUE(is_imitation_stable(game, x, game.nu()));
}

TEST(Integration, VirtualAgentImitationEscapesTheTrap) {
  // §6: with one virtual agent per strategy, pure imitation becomes
  // innovative and reaches Nash from the unused-best-link start.
  std::vector<LatencyPtr> fns{make_linear(2.0), make_linear(2.0),
                              make_linear(0.5)};
  const auto game = make_singleton_game(std::move(fns), 60);
  Rng rng(8);
  State x(game, {30, 30, 0});
  ImitationParams params;
  params.virtual_agents = 1;
  params.nu_cutoff = false;
  const ImitationProtocol protocol(params);
  RunOptions opts;
  opts.max_rounds = 500000;
  opts.check_interval = 16;
  const RunResult rr = run_dynamics(
      game, x, protocol, rng, EngineInvocation{opts, nash_stop(), {}, {}});
  EXPECT_TRUE(rr.converged);
  EXPECT_GT(x.count(2), 0);
}

TEST(Integration, LargePlayerCountRunsFastWithAggregateEngine) {
  // Sanity check that the aggregate engine handles n = 10^6 quickly enough
  // for the Theorem 7 bench (a handful of rounds here).
  const auto game = make_uniform_links_game(8, make_linear(1.0), 1000000);
  Rng rng(6);
  State x = State::uniform_random(game, rng);
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 50;
  const RunResult rr = run_dynamics(game, x, protocol, rng,
                                    EngineInvocation{opts, {}, {}, {}});
  EXPECT_EQ(rr.rounds, 50);
  x.check_consistent(game);
}

TEST(Integration, NoExtinctionInLargeScaledSingleton) {
  // Theorem 9 regime (scaled latencies, no offsets): no link empties over
  // a substantial horizon at moderate n.
  const int m = 4;
  const std::int64_t n = 2000;
  std::vector<LatencyPtr> fns;
  for (int e = 0; e < m; ++e) {
    fns.push_back(make_scaled(make_linear(1.0 + e), n));
  }
  const auto game = make_singleton_game(std::move(fns), n);
  Rng rng(7);
  State x = State::uniform_random(game, rng);
  ImitationParams params;
  params.nu_cutoff = false;  // Theorem 9 drops ν
  const ImitationProtocol protocol(params);
  RunOptions opts;
  opts.max_rounds = 400;
  bool extinct = false;
  const StopPredicate stop = [&](const CongestionGame&, const State& s,
                                 std::int64_t) {
    for (StrategyId p = 0; p < 4; ++p) {
      if (s.count(p) == 0) extinct = true;
    }
    return extinct;
  };
  run_dynamics(game, x, protocol, rng, EngineInvocation{opts, stop, {}, {}});
  EXPECT_FALSE(extinct);
}

}  // namespace
}  // namespace cid
