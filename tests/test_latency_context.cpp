// Property/fuzz tests for the incremental latency caches and the
// provably-zero-row pruning they enable.
//
//   1. Incremental == from-scratch: after arbitrary random State::apply
//      move sequences, a LatencyContext maintained through refresh()
//      equals a freshly reset one EXACTLY (double ==), entry for entry —
//      the invariant the whole batched kernel leans on. Same property for
//      the asymmetric context.
//   2. Pruning soundness: every origin the protocols' kernels declare
//      provably zero is re-verified nonzero-free by the per-pair
//      move_probability oracle (tests/protocol_oracle.hpp), across random
//      states and all protocols (and the asymmetric pruning against
//      oracle::asymmetric_move_probability).
//   3. Monotonicity gate: with a DECREASING latency function in the game,
//      plus_dominates() reports false and every row_provably_zero
//      conservatively declines to prune.
//   4. Ex-post table: summing expost_table(from) over a destination's
//      resources equals expost_latency(from, to) exactly, for every pair,
//      across refreshes (the network row kernels' bitwise basis).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dynamics/asymmetric_engine.hpp"
#include "dynamics/engine.hpp"
#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "protocol_oracle.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

CongestionGame fuzz_network_game(std::int64_t n, std::uint64_t seed) {
  const auto net = make_layered_network(3, 3);
  Rng rng(seed);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.25 + rng.uniform();
    fns.push_back(rng.bernoulli(0.5)
                      ? make_linear(a)
                      : make_monomial(0.1 * a, rng.bernoulli(0.5) ? 2.0 : 3.0));
  }
  return make_network_game(net, std::move(fns), n);
}

/// A random feasible migration batch: a handful of (from, to, count)
/// moves whose per-origin outflow respects the current counts.
std::vector<Migration> random_moves(const CongestionGame& game,
                                    const State& x, Rng& rng) {
  std::vector<Migration> moves;
  std::vector<std::int64_t> left(x.counts().begin(), x.counts().end());
  const auto k = static_cast<std::uint64_t>(game.num_strategies());
  const int batch = 1 + static_cast<int>(rng.uniform_int(4));
  for (int i = 0; i < batch; ++i) {
    const auto from = static_cast<StrategyId>(rng.uniform_int(k));
    auto to = static_cast<StrategyId>(rng.uniform_int(k));
    if (to == from) to = static_cast<StrategyId>((to + 1) % k);
    const std::int64_t avail = left[static_cast<std::size_t>(from)];
    if (avail <= 0) continue;
    const auto count = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(avail)) + 1);
    left[static_cast<std::size_t>(from)] -= count;
    moves.push_back(Migration{from, to, count});
  }
  return moves;
}

void expect_context_equals_rebuild(const CongestionGame& game, const State& x,
                                   const LatencyContext& incremental) {
  LatencyContext fresh;
  fresh.reset(game, x);
  for (Resource e = 0; e < game.num_resources(); ++e) {
    ASSERT_EQ(incremental.resource_latency(e), fresh.resource_latency(e))
        << "resource " << e;
    ASSERT_EQ(incremental.resource_latency_plus(e),
              fresh.resource_latency_plus(e))
        << "resource " << e;
  }
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    ASSERT_EQ(incremental.strategy_latency(p), fresh.strategy_latency(p))
        << "strategy " << p;
    ASSERT_EQ(incremental.plus_latency(p), fresh.plus_latency(p))
        << "strategy " << p;
    // And both agree with the uncached game methods (the bitwise
    // contract the cached predicates and protocol rows rely on).
    ASSERT_EQ(incremental.strategy_latency(p), game.strategy_latency(x, p));
    ASSERT_EQ(incremental.plus_latency(p), game.plus_latency(x, p));
    for (StrategyId q = 0; q < game.num_strategies(); ++q) {
      ASSERT_EQ(incremental.expost_latency(p, q),
                game.expost_latency(x, p, q))
          << p << "->" << q;
    }
  }
  ASSERT_EQ(incremental.plus_dominates(), fresh.plus_dominates());
}

TEST(LatencyContext, IncrementalRefreshEqualsRebuildUnderRandomApplies) {
  for (const std::uint64_t seed : {7u, 21u, 99u}) {
    const auto game = fuzz_network_game(3000, seed);
    Rng rng(seed * 13 + 1);
    State x = State::uniform_random(game, rng);
    LatencyContext ctx;
    ctx.reset(game, x);
    ApplyScratch scratch;
    for (int step = 0; step < 40; ++step) {
      const auto moves = random_moves(game, x, rng);
      x.apply(game, moves, scratch);
      ctx.refresh(scratch.touched);
      expect_context_equals_rebuild(game, x, ctx);
    }
  }
}

TEST(LatencyContext, SingletonIncrementalRefreshEqualsRebuild) {
  const auto game = make_monomial_fan_game(12, 2.0, 1.0, 500);
  Rng rng(3);
  State x = State::uniform_random(game, rng);
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  for (int step = 0; step < 60; ++step) {
    const auto moves = random_moves(game, x, rng);
    x.apply(game, moves, scratch);
    ctx.refresh(scratch.touched);
    expect_context_equals_rebuild(game, x, ctx);
  }
}

// ---- Per-origin ex-post table ------------------------------------------------

CongestionGame layered_game(std::int32_t width, std::int32_t depth,
                            std::int64_t n, std::uint64_t seed) {
  const auto net = make_layered_network(width, depth);
  Rng rng(seed);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + rng.uniform();
    fns.push_back(rng.bernoulli(0.5) ? make_linear(a)
                                     : make_monomial(0.05 * a, 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

// Summing the origin's table over a destination's resources, in stored
// order from 0.0, is the merge walk bit for bit — the identity the network
// row kernels (protocols/kernel.hpp) rest on — for every (from, to) pair,
// the diagonal included, before and after incremental refreshes.
void expect_table_sums_equal_merge(const CongestionGame& game,
                                   const LatencyContext& ctx) {
  std::vector<double> table;
  for (StrategyId from = 0; from < game.num_strategies(); ++from) {
    const std::span<const double> row = ctx.expost_table(from, table);
    ASSERT_EQ(row.size(), static_cast<std::size_t>(game.num_resources()));
    for (StrategyId to = 0; to < game.num_strategies(); ++to) {
      double acc = 0.0;
      for (Resource e : game.strategies()[static_cast<std::size_t>(to)]) {
        acc += row[static_cast<std::size_t>(e)];
      }
      ASSERT_EQ(acc, ctx.expost_latency(from, to)) << from << "->" << to;
    }
  }
}

TEST(LatencyContext, ExpostTableSumsEqualMergeWalk) {
  for (const auto& [width, depth] :
       {std::pair<std::int32_t, std::int32_t>{2, 3}, {4, 3}}) {
    SCOPED_TRACE("layered " + std::to_string(width) + "x" +
                 std::to_string(depth));
    const auto game = layered_game(width, depth, 2500, 19);
    Rng rng(29);
    State x = State::uniform_random(game, rng);
    LatencyContext ctx;
    ctx.reset(game, x);
    expect_table_sums_equal_merge(game, ctx);
    ApplyScratch scratch;
    for (int step = 0; step < 5; ++step) {
      const auto moves = random_moves(game, x, rng);
      x.apply(game, moves, scratch);
      ctx.refresh(scratch.touched);
      expect_table_sums_equal_merge(game, ctx);
    }
  }
}

// ---- Pruning soundness ------------------------------------------------------

std::vector<std::unique_ptr<Protocol>> pruning_protocols() {
  std::vector<std::unique_ptr<Protocol>> protocols;
  protocols.push_back(std::make_unique<ImitationProtocol>());
  ImitationParams virtual_params;
  virtual_params.virtual_agents = 2;
  protocols.push_back(std::make_unique<ImitationProtocol>(virtual_params));
  ImitationParams no_nu;
  no_nu.nu_cutoff = false;
  protocols.push_back(std::make_unique<ImitationProtocol>(no_nu));
  protocols.push_back(std::make_unique<ExplorationProtocol>());
  protocols.push_back(std::make_unique<CombinedProtocol>(
      ImitationParams{}, ExplorationParams{}, 0.5));
  return protocols;
}

/// The pruning verdict of the kernel `protocol` dispatches to.
bool row_provably_zero(const Protocol& protocol, const CongestionGame& game,
                       const LatencyContext& ctx, StrategyId from,
                       const RowBounds& bounds) {
  return dispatch_protocol_kernel(protocol, [&](const auto& kernel) {
    return kernel.row_provably_zero(game, ctx, from, bounds);
  });
}

TEST(LatencyContext, PrunedRowsVerifiedZeroByReferenceOracle) {
  const auto protocols = pruning_protocols();
  int pruned_total = 0;
  for (const std::uint64_t seed : {5u, 17u}) {
    const auto game = fuzz_network_game(2000, seed);
    Rng rng(seed + 100);
    State x = State::uniform_random(game, rng);
    LatencyContext ctx;
    ctx.reset(game, x);
    ApplyScratch scratch;
    for (int step = 0; step < 20; ++step) {
      const RowBounds bounds = compute_row_bounds(game, x, ctx);
      for (const auto& protocol : protocols) {
        SCOPED_TRACE(protocol->name());
        for (StrategyId from = 0; from < game.num_strategies(); ++from) {
          if (!row_provably_zero(*protocol, game, ctx, from, bounds)) {
            continue;
          }
          ++pruned_total;
          for (StrategyId to = 0; to < game.num_strategies(); ++to) {
            if (to == from) continue;
            ASSERT_EQ(oracle::move_probability(*protocol, game, x, from, to),
                      0.0)
                << "pruned origin " << from << " has nonzero entry to "
                << to;
          }
        }
      }
      const auto moves = random_moves(game, x, rng);
      x.apply(game, moves, scratch);
      ctx.refresh(scratch.touched);
    }
  }
  // The fuzz states must actually exercise pruning, or this test is vacuous.
  EXPECT_GT(pruned_total, 0);
}

TEST(LatencyContext, SingletonConvergedStatePrunesMinimalOrigins) {
  // Identical links, perfectly balanced state: EVERY origin's row is zero
  // (nobody can improve), so pruning must fire for all of them.
  const auto game = make_uniform_links_game(8, make_linear(1.0), 800);
  const State x(game, std::vector<std::int64_t>(8, 100));
  LatencyContext ctx;
  ctx.reset(game, x);
  const RowBounds bounds = compute_row_bounds(game, x, ctx);
  ASSERT_TRUE(bounds.plus_dominates);
  const ImitationProtocol imitation;
  const ImitationKernel kernel(imitation);
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    EXPECT_TRUE(kernel.row_provably_zero(game, ctx, p, bounds));
  }
}

TEST(LatencyContext, DecreasingLatencyDisablesPruning) {
  // A decreasing link makes ℓ_e(x_e+1) < ℓ_e(x_e): plus-dominance fails
  // and every protocol must decline to prune (the sufficient condition
  // ℓ_Q(x+1..) >= ℓ_Q(x) is gone).
  class DecreasingLatency final : public LatencyFunction {
   public:
    double value(double x) const override { return 100.0 - x; }
    std::string describe() const override { return "100-x"; }
  };
  std::vector<LatencyPtr> fns{make_linear(1.0),
                              std::make_shared<DecreasingLatency>(),
                              make_linear(2.0)};
  const auto game = make_singleton_game(std::move(fns), 60);
  const State x(game, {20, 20, 20});
  LatencyContext ctx;
  ctx.reset(game, x);
  EXPECT_FALSE(ctx.plus_dominates());
  const RowBounds bounds = compute_row_bounds(game, x, ctx);
  EXPECT_FALSE(bounds.plus_dominates);
  for (const auto& protocol : pruning_protocols()) {
    SCOPED_TRACE(protocol->name());
    for (StrategyId p = 0; p < game.num_strategies(); ++p) {
      EXPECT_FALSE(row_provably_zero(*protocol, game, ctx, p, bounds));
    }
  }
}

// ---- Asymmetric context -----------------------------------------------------

AsymmetricGame fuzz_asymmetric_game() {
  // Three classes over overlapping multi-resource strategies, so refresh
  // pass 2 crosses class boundaries through shared resources.
  std::vector<LatencyPtr> fns;
  for (int e = 0; e < 6; ++e) {
    fns.push_back(e % 2 == 0 ? make_linear(0.5 + 0.25 * e)
                             : make_monomial(0.05 * (e + 1), 2.0));
  }
  std::vector<PlayerClass> classes(3);
  classes[0].strategies = {{0, 1}, {2}, {0, 3}};
  classes[0].num_players = 400;
  classes[1].strategies = {{1, 2}, {3, 4}, {2}};
  classes[1].num_players = 300;
  classes[2].strategies = {{4, 5}, {0, 5}, {1, 3, 5}};
  classes[2].num_players = 500;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

std::vector<ClassMigration> random_class_moves(const AsymmetricGame& game,
                                               const AsymmetricState& x,
                                               Rng& rng) {
  std::vector<ClassMigration> moves;
  const int batch = 1 + static_cast<int>(rng.uniform_int(4));
  for (int i = 0; i < batch; ++i) {
    const auto c = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(game.num_classes())));
    const auto k = static_cast<std::uint64_t>(
        game.player_class(c).strategies.size());
    const auto from = static_cast<StrategyId>(rng.uniform_int(k));
    auto to = static_cast<StrategyId>(rng.uniform_int(k));
    if (to == from) to = static_cast<StrategyId>((to + 1) % k);
    const std::int64_t avail = x.count(c, from);
    if (avail <= 0) continue;
    // One move per origin per batch keeps the outflow trivially feasible.
    moves.push_back(ClassMigration{
        c, from, to,
        static_cast<std::int64_t>(
            rng.uniform_int(static_cast<std::uint64_t>(avail)) + 1)});
    break;
  }
  return moves;
}

TEST(AsymmetricLatencyContext, IncrementalRefreshEqualsRebuild) {
  const auto game = fuzz_asymmetric_game();
  Rng rng(11);
  AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  AsymmetricLatencyContext ctx;
  ctx.reset(game, x);
  AsymmetricApplyScratch scratch;
  for (int step = 0; step < 50; ++step) {
    const auto moves = random_class_moves(game, x, rng);
    x.apply(game, moves, scratch);
    ctx.refresh(scratch.touched);
    AsymmetricLatencyContext fresh;
    fresh.reset(game, x);
    for (Resource e = 0; e < game.num_resources(); ++e) {
      ASSERT_EQ(ctx.resource_latency(e), fresh.resource_latency(e));
      ASSERT_EQ(ctx.resource_latency_plus(e),
                fresh.resource_latency_plus(e));
    }
    for (std::int32_t c = 0; c < game.num_classes(); ++c) {
      const auto k = static_cast<StrategyId>(
          game.player_class(c).strategies.size());
      for (StrategyId p = 0; p < k; ++p) {
        ASSERT_EQ(ctx.strategy_latency(c, p), fresh.strategy_latency(c, p));
        ASSERT_EQ(ctx.strategy_latency(c, p),
                  game.strategy_latency(x, c, p));
        for (StrategyId q = 0; q < k; ++q) {
          ASSERT_EQ(ctx.expost_latency(c, p, q),
                    game.expost_latency(x, c, p, q));
        }
      }
    }
  }
}

TEST(AsymmetricLatencyContext, BatchedRowMatchesPerPairOracle) {
  const auto game = fuzz_asymmetric_game();
  Rng rng(23);
  AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  AsymmetricLatencyContext ctx;
  ctx.reset(game, x);
  const AsymmetricImitationParams params;
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const auto support = x.support(c);
    std::vector<double> row(support.size());
    for (StrategyId from : support) {
      fill_asymmetric_move_probabilities(game, ctx, params, c, from, support,
                                         row);
      for (std::size_t j = 0; j < support.size(); ++j) {
        const double oracle =
            support[j] == from
                ? 0.0
                : oracle::asymmetric_move_probability(game, x, params, c, from,
                                              support[j]);
        ASSERT_EQ(row[j], oracle)
            << "class " << c << " pair " << from << "->" << support[j];
      }
    }
  }
}

}  // namespace
}  // namespace cid
