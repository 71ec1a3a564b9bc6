#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "game/builders.hpp"
#include "game/congestion_game.hpp"
#include "game/state.hpp"
#include "sweep/scenario.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

CongestionGame braess_game(std::int64_t n) {
  const auto net = make_braess_network();
  // Edges in creation order: s->u, s->v, u->t, v->t, u->v.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_constant(10.0),
                              make_constant(10.0), make_linear(1.0),
                              make_constant(1.0)};
  return make_network_game(net, std::move(fns), n);
}

TEST(CongestionGame, ValidatesInputs) {
  EXPECT_THROW(CongestionGame({}, {{0}}, 1), invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{0}}, 0),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{}}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{1}}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{0, 0}}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0), make_linear(1.0)},
                              {{1, 0}}, 1),
               invariant_violation);  // unsorted
}

TEST(CongestionGame, SingletonDetection) {
  const auto single = make_uniform_links_game(3, make_linear(1.0), 5);
  EXPECT_TRUE(single.is_singleton());
  EXPECT_EQ(single.num_strategies(), 3);
  const auto braess = braess_game(4);
  EXPECT_FALSE(braess.is_singleton());
  EXPECT_EQ(braess.num_strategies(), 3);
  EXPECT_EQ(braess.num_resources(), 5);
}

TEST(CongestionGame, ElasticityFlooredAtOne) {
  // All-constant latencies have elasticity 0; the protocol parameter floors
  // at 1 so 1/d never amplifies.
  const auto game = make_uniform_links_game(2, make_constant(5.0), 4);
  EXPECT_DOUBLE_EQ(game.elasticity(), 1.0);
  const auto cubic = make_uniform_links_game(2, make_monomial(1.0, 3.0), 4);
  EXPECT_DOUBLE_EQ(cubic.elasticity(), 3.0);
}

TEST(CongestionGame, NuIsMaxStrategySlopeSum) {
  // Braess: ν_P sums edge slopes; the s->u (x) + u->v (const) + v->t (x)
  // bridge path has ν = 1 + 0 + 1 = 2.
  const auto game = braess_game(4);
  double nu_max = 0.0;
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    nu_max = std::max(nu_max, game.nu_strategy(p));
  }
  EXPECT_DOUBLE_EQ(game.nu(), nu_max);
  EXPECT_DOUBLE_EQ(game.nu(), 2.0);
}

TEST(CongestionGame, ProtocolParameterBounds) {
  const auto game = make_uniform_links_game(4, make_linear(2.0), 10);
  EXPECT_DOUBLE_EQ(game.min_nonempty_latency(), 2.0);
  EXPECT_DOUBLE_EQ(game.beta_slope(), 2.0);      // linear slope a
  EXPECT_DOUBLE_EQ(game.max_latency_upper(), 20.0);  // a*n
  EXPECT_DOUBLE_EQ(game.nu(), 2.0);
}

// β as it was once computed eagerly at construction: one x = 1..n scan per
// strategy × resource incidence. The lazy per-resource β must equal it bit
// for bit.
double eager_beta(const CongestionGame& game) {
  double beta = 0.0;
  for (const Strategy& st : game.strategies()) {
    double acc = 0.0;
    for (Resource e : st) {
      acc += max_step_slope(game.latency(e), game.num_players());
    }
    beta = std::max(beta, acc);
  }
  return beta;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CongestionGame, LazyBetaMatchesEagerLoopForEveryScenario) {
  int symmetric = 0;
  for (const sweep::Scenario& scenario : sweep::all_scenarios()) {
    for (std::int64_t n : {50, 2000}) {
      sweep::ScenarioSpec spec;
      spec.name = scenario.name;
      const auto instance = sweep::make_scenario(spec, n);
      const CongestionGame* game = instance->congestion_game();
      if (game == nullptr) continue;  // asymmetric/threshold: no β
      ++symmetric;
      EXPECT_EQ(bits(game->beta_slope()), bits(eager_beta(*game)))
          << scenario.name << " n=" << n;
    }
  }
  // singleton-uniform, load-balancing and network-routing.
  EXPECT_EQ(symmetric, 3 * 2);
}

TEST(CongestionGame, LazyBetaMatchesEagerLoopWithSharedResources) {
  // Braess: s->u and v->t each lie on two of the three paths.
  const auto braess = braess_game(500);
  EXPECT_EQ(bits(braess.beta_slope()), bits(eager_beta(braess)));

  const auto net = make_layered_network(3, 3);
  Rng rng(11);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + rng.uniform();
    fns.push_back(rng.bernoulli(0.5) ? make_linear(a)
                                     : make_monomial(0.1 * a, 2.5));
  }
  const auto layered = make_network_game(net, std::move(fns), 777);
  EXPECT_EQ(bits(layered.beta_slope()), bits(eager_beta(layered)));
}

TEST(CongestionGame, LazyBetaSurvivesCopyAndMove) {
  const auto fresh = braess_game(300);
  const double expected = eager_beta(fresh);

  // Copied and moved before β is computed: each computes its own.
  CongestionGame copy_before = fresh;
  const CongestionGame moved_before = std::move(copy_before);
  EXPECT_EQ(bits(moved_before.beta_slope()), bits(expected));

  // Copied and moved after: the computed value travels along.
  EXPECT_EQ(bits(fresh.beta_slope()), bits(expected));
  CongestionGame copy_after = fresh;
  EXPECT_EQ(bits(copy_after.beta_slope()), bits(expected));
  const CongestionGame moved_after = std::move(copy_after);
  EXPECT_EQ(bits(moved_after.beta_slope()), bits(expected));

  CongestionGame assigned = braess_game(2);
  assigned = fresh;
  EXPECT_EQ(bits(assigned.beta_slope()), bits(expected));
}

TEST(CongestionGame, LazyBetaConcurrentFirstUse) {
  // Large enough n that the first computation takes a while, so the eight
  // first callers overlap.
  const auto game = make_monomial_fan_game(16, 2.0, 0.5, 200000);
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(t)] = bits(game.beta_slope());
    });
  }
  for (auto& thread : threads) thread.join();
  const std::uint64_t expected = bits(eager_beta(game));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], expected) << "thread " << t;
  }
}

TEST(CongestionGame, LatencyQueries) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  EXPECT_DOUBLE_EQ(game.resource_latency(x, 0), 7.0);
  EXPECT_DOUBLE_EQ(game.strategy_latency(x, 0), 7.0);
  EXPECT_DOUBLE_EQ(game.plus_latency(x, 1), 4.0);
  // Ex-post: mover from 0 to 1 sees load 4 on link 1.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 1, 1), 3.0);  // self-move: as-is
}

TEST(CongestionGame, ExpostSharedResourcesUnchanged) {
  // Two overlapping 2-resource strategies sharing resource 1.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(1.0),
                              make_linear(1.0)};
  CongestionGame game(std::move(fns), {{0, 1}, {1, 2}}, 6);
  const State x(game, {4, 2});
  // loads: r0=4, r1=6, r2=2. Mover 0->1: r1 shared (stays 6), r2 becomes 3.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 0, 1), 6.0 + 3.0);
  // Mover 1->0: r0 becomes 5, r1 stays 6.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 1, 0), 5.0 + 6.0);
}

TEST(CongestionGame, AverageLatencies) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  // L_av = (7*7 + 3*3)/10 = 5.8; L+_av = (7*8 + 3*4)/10 = 6.8.
  EXPECT_DOUBLE_EQ(game.average_latency(x), 5.8);
  EXPECT_DOUBLE_EQ(game.plus_average_latency(x), 6.8);
}

TEST(CongestionGame, PotentialClosedFormLinear) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  // Φ = Σ_{i<=7} i + Σ_{i<=3} i = 28 + 6 = 34.
  EXPECT_DOUBLE_EQ(game.potential(x), 34.0);
}

TEST(CongestionGame, DescribeMentionsShape) {
  const auto game = braess_game(4);
  const std::string d = game.describe();
  EXPECT_NE(d.find("n=4"), std::string::npos);
  EXPECT_NE(d.find("|P|=3"), std::string::npos);
}

TEST(NetworkGame, BraessPathsAreSorted) {
  const auto game = braess_game(4);
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    const Strategy& s = game.strategy(p);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
}

TEST(NetworkGame, RequiresMatchingLatencyCount) {
  const auto net = make_parallel_links(3);
  EXPECT_THROW(
      make_network_game(net, {make_linear(1.0)}, 2),
      invariant_violation);
}

}  // namespace
}  // namespace cid
