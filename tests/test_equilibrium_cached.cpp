// Cached vs reference equilibrium predicates.
//
// Every LatencyContext-backed predicate overload in
// dynamics/equilibrium.hpp (and the asymmetric-context overloads in
// dynamics/asymmetric_engine.hpp) must return EXACTLY what its
// context-free reference computes — same bools, same doubles, same
// ApproxEqReport field for field — including on contexts maintained
// INCREMENTALLY across many applied rounds, on every scenario family's
// game construction, on randomized games, and on states straddling the
// δ/ε decision boundaries.
//
// Family coverage: singleton-uniform, load-balancing, and network-routing
// exercise the symmetric predicates; asymmetric and multicommodity the
// class-wise ones. threshold-lb runs sequential best-response dynamics
// with no latency-cache stop predicate (the registry ignores stop rules
// there), so its latency family — the MaxCut-derived quadratics — is
// covered through an equivalent symmetric quadratic game instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynamics/asymmetric_engine.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/equilibrium.hpp"
#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "graph/generators.hpp"
#include "protocols/imitation.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

void expect_predicates_match(const CongestionGame& game, const State& x,
                             const LatencyContext& ctx, double delta,
                             double eps) {
  const double nu = game.nu();
  ASSERT_EQ(is_imitation_stable(ctx, nu), is_imitation_stable(game, x, nu));
  ASSERT_EQ(is_imitation_stable(ctx, 0.0), is_imitation_stable(game, x, 0.0));
  ASSERT_EQ(imitation_gap(ctx), imitation_gap(game, x));
  ASSERT_EQ(is_nash(ctx), is_nash(game, x));
  ASSERT_EQ(nash_gap(ctx), nash_gap(game, x));
  const ApproxEqReport cached = check_delta_eps_nu(ctx, delta, eps, nu);
  const ApproxEqReport reference =
      check_delta_eps_nu(game, x, delta, eps, nu);
  ASSERT_EQ(cached.average_latency, reference.average_latency);
  ASSERT_EQ(cached.plus_average_latency, reference.plus_average_latency);
  ASSERT_EQ(cached.expensive_mass, reference.expensive_mass);
  ASSERT_EQ(cached.cheap_mass, reference.cheap_mass);
  ASSERT_EQ(cached.unsatisfied_mass, reference.unsatisfied_mass);
  ASSERT_EQ(cached.at_equilibrium, reference.at_equilibrium);
  ASSERT_EQ(is_delta_eps_equilibrium(ctx, delta, eps),
            is_delta_eps_equilibrium(game, x, delta, eps));
}

/// Runs real imitation rounds on `game`, comparing cached vs reference
/// predicates on the incrementally refreshed context after every round.
void expect_match_along_trajectory(const CongestionGame& game,
                                   std::uint64_t seed, int rounds) {
  Rng rng(seed);
  State x = State::uniform_random(game, rng);
  const ImitationProtocol protocol;
  RoundWorkspace ws;
  RoundResult rr;
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  for (int round = 0; round < rounds; ++round) {
    expect_predicates_match(game, x, ctx, 0.1, 0.1);
    draw_round(game, x, protocol, rng, EngineMode::kAggregate, ws, rr);
    x.apply(game, rr.moves, scratch);
    ctx.refresh(scratch.touched);
  }
  expect_predicates_match(game, x, ctx, 0.1, 0.1);
}

// ---- Registry-family game constructions -------------------------------------

TEST(EquilibriumCached, SingletonUniformFamily) {
  // singleton-uniform defaults: m=10, degree=1, spread=0.
  expect_match_along_trajectory(make_monomial_fan_game(10, 1.0, 0.0, 2000),
                                41, 40);
}

TEST(EquilibriumCached, LoadBalancingFamily) {
  // load-balancing defaults: m heterogeneous linear links over [1, 2).
  std::vector<LatencyPtr> fns;
  for (int e = 0; e < 10; ++e) {
    fns.push_back(make_linear(1.0 + static_cast<double>(e) / 10.0));
  }
  expect_match_along_trajectory(make_singleton_game(std::move(fns), 2000),
                                42, 40);
}

TEST(EquilibriumCached, NetworkRoutingFamily) {
  // network-routing defaults: 3x2 layered network, latency_seed=7 mix.
  const auto net = make_layered_network(3, 2);
  Rng latency_rng(7);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    fns.push_back(latency_rng.bernoulli(0.5)
                      ? make_linear(a)
                      : make_monomial(0.05 * a, 2.0));
  }
  expect_match_along_trajectory(make_network_game(net, std::move(fns), 1500),
                                43, 40);
}

TEST(EquilibriumCached, ThresholdQuadraticLatencyFamily) {
  // threshold-lb's latency family (quadratics with MaxCut-scale weights)
  // on a symmetric singleton game — the registry's threshold dynamics
  // themselves never evaluate latency-cache predicates.
  std::vector<LatencyPtr> fns;
  Rng wrng(1234);
  for (int e = 0; e < 8; ++e) {
    fns.push_back(make_monomial(
        1.0 + static_cast<double>(wrng.uniform_int(64)), 2.0));
  }
  expect_match_along_trajectory(make_singleton_game(std::move(fns), 400), 44,
                                40);
}

TEST(EquilibriumCached, RandomizedGames) {
  for (const std::uint64_t seed : {100u, 101u, 102u, 103u}) {
    Rng grng(seed);
    const auto net = make_layered_network(
        2 + static_cast<std::int32_t>(grng.uniform_int(3)),
        1 + static_cast<std::int32_t>(grng.uniform_int(3)));
    std::vector<LatencyPtr> fns;
    for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
      const double a = 0.25 + grng.uniform();
      fns.push_back(grng.bernoulli(0.5)
                        ? make_linear(a)
                        : make_monomial(0.1 * a,
                                        grng.bernoulli(0.5) ? 2.0 : 3.0));
    }
    expect_match_along_trajectory(
        make_network_game(net, std::move(fns),
                          500 + static_cast<std::int64_t>(
                                    grng.uniform_int(3000))),
        seed + 7, 25);
  }
}

// ---- δ/ε boundary straddling ------------------------------------------------

TEST(EquilibriumCached, DeltaBoundaryStraddling) {
  // Two identical links, 75/25 split: the cheap link's mass is exactly
  // 0.25 when eps pins the thresholds between the two latencies. Sweep
  // delta through the decision boundary and eps through the classification
  // boundaries; cached and reference must agree at every point, including
  // where at_equilibrium flips.
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  const State x(game, {75, 25});
  LatencyContext ctx;
  ctx.reset(game, x);
  const ApproxEqReport base = check_delta_eps_nu(game, x, 0.5, 0.0, 0.0);
  ASSERT_GT(base.unsatisfied_mass, 0.0);  // the state is genuinely split
  bool flipped = false;
  for (double delta :
       {0.0, base.unsatisfied_mass - 1e-9, base.unsatisfied_mass,
        base.unsatisfied_mass + 1e-9, 1.0}) {
    delta = std::clamp(delta, 0.0, 1.0);
    for (const double eps : {0.0, 0.2, 0.5, 1.0 / 3.0, 2.0}) {
      const ApproxEqReport cached = check_delta_eps_nu(ctx, delta, eps, 0.0);
      const ApproxEqReport reference =
          check_delta_eps_nu(game, x, delta, eps, 0.0);
      ASSERT_EQ(cached.expensive_mass, reference.expensive_mass);
      ASSERT_EQ(cached.cheap_mass, reference.cheap_mass);
      ASSERT_EQ(cached.at_equilibrium, reference.at_equilibrium);
      flipped = flipped || cached.at_equilibrium;
    }
  }
  EXPECT_TRUE(flipped);  // the sweep crossed the boundary both ways
}

TEST(EquilibriumCached, ExactStabilityBoundary) {
  // A state that is imitation-stable at the game's nu but NOT at nu=0
  // (gap strictly between): both predicate forms must agree on both sides
  // of the cutoff, and the cached gap must be the exact double.
  const auto game = make_uniform_links_game(3, make_linear(1.0), 90);
  const State x(game, {31, 30, 29});
  LatencyContext ctx;
  ctx.reset(game, x);
  const double gap = imitation_gap(game, x);
  ASSERT_EQ(imitation_gap(ctx), gap);
  for (const double nu : {0.0, gap * 0.5, gap, gap * 1.5}) {
    ASSERT_EQ(is_imitation_stable(ctx, nu),
              is_imitation_stable(game, x, nu))
        << "nu=" << nu;
  }
}

// ---- Asymmetric families ----------------------------------------------------

AsymmetricGame asymmetric_family_game(std::int64_t n) {
  // The registry's "asymmetric" construction at its defaults (classes=2,
  // links_per_class=2).
  std::vector<LatencyPtr> fns;
  fns.push_back(make_linear(0.5));
  std::vector<PlayerClass> classes(2);
  Resource next = 1;
  for (std::int32_t c = 0; c < 2; ++c) {
    auto& cls = classes[static_cast<std::size_t>(c)];
    cls.strategies.push_back({0});
    for (std::int32_t k = 0; k < 2; ++k) {
      fns.push_back(make_linear(1.0 + 0.5 * static_cast<double>(k)));
      cls.strategies.push_back({next});
      ++next;
    }
    cls.num_players = n / 2 + (c < n % 2 ? 1 : 0);
  }
  return AsymmetricGame(std::move(fns), std::move(classes));
}

AsymmetricGame multicommodity_family_game(std::int64_t n) {
  // The registry's "multicommodity" construction at share=0.6.
  std::vector<LatencyPtr> fns{make_linear(1.5), make_linear(3.0),
                              make_linear(0.75), make_linear(3.0),
                              make_linear(1.5)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}, {2}};
  classes[0].num_players = (n * 6) / 10;
  classes[1].strategies = {{2}, {3}, {4}};
  classes[1].num_players = n - classes[0].num_players;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

void expect_asymmetric_match_along_trajectory(const AsymmetricGame& game,
                                              std::uint64_t seed,
                                              int rounds) {
  Rng rng(seed);
  AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  const AsymmetricImitationParams params;
  AsymmetricRoundWorkspace ws;
  AsymmetricRoundResult rr;
  for (int round = 0; round < rounds; ++round) {
    step_asymmetric_round(game, x, params, rng, ws, rr);
    ASSERT_EQ(is_asymmetric_imitation_stable(ws.ctx, game.nu()),
              is_asymmetric_imitation_stable(game, x, game.nu()))
        << "round " << round;
    ASSERT_EQ(is_asymmetric_imitation_stable(ws.ctx, 0.0),
              is_asymmetric_imitation_stable(game, x, 0.0))
        << "round " << round;
    ASSERT_EQ(is_asymmetric_nash(ws.ctx), is_asymmetric_nash(game, x))
        << "round " << round;
  }
}

TEST(EquilibriumCached, AsymmetricFamily) {
  expect_asymmetric_match_along_trajectory(asymmetric_family_game(900), 51,
                                           60);
}

TEST(EquilibriumCached, MulticommodityFamily) {
  expect_asymmetric_match_along_trajectory(multicommodity_family_game(900),
                                           52, 60);
}

}  // namespace
}  // namespace cid
