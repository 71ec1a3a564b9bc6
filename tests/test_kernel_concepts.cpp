// ProtocolKernel / LatencyKernel concept suite.
//
// The engine redesign (protocols/kernel.hpp, dynamics/engine_kernel.hpp,
// latency/kernel.hpp) must be invisible at the bit level. This suite pins:
//
//   1. concept level — every paper protocol's kernel models ProtocolKernel
//      (and the virtual classes do NOT — the concept really separates the
//      two interfaces); LatencyTable models LatencyKernel; the asymmetric
//      imitation kernel models AsymmetricProtocolKernel;
//   2. dispatch level — dispatch_protocol_kernel resolves each concrete
//      protocol to its monomorphized kernel, falls back to VirtualKernel
//      for unrecognized protocols, and pins VirtualKernel under
//      force_virtual;
//   3. latency level — LatencyTable::value reproduces every registered
//      latency-function shape (constant, linear, affine, monomial,
//      polynomial, scaled, and the opaque exponential fallback) bitwise at
//      the integer loads the engines evaluate;
//   4. row level — each monomorphized kernel's fill_row (one row body,
//      over the singleton select and over the per-origin network ex-post
//      table) is bitwise-identical to the virtual fill_move_probabilities
//      row, sustained across incremental cache refreshes, every parameter
//      variant, games of different size on one thread, and concurrent
//      fills under row_threads > 1;
//   5. round/run level — the templated draw_round<K> / run_dynamics<K>
//      over the monomorphized kernel, the same templates over
//      VirtualKernel, the type-erased Protocol frontend, and the per-pair
//      reference oracle all produce identical Migration lists AND consume
//      the RNG stream identically, including under row_threads ∈ {1,2,4};
//   6. trial level — every registry scenario family is bitwise-invariant
//      under EngineTuning::virtual_frontend, and checkpoints written by
//      one frontend resume bitwise on the other;
//   7. API level — the EngineInvocation entrypoint and the deprecated
//      run_dynamics shims are interchangeable bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "dynamics/asymmetric_engine.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/engine_kernel.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "latency/kernel.hpp"
#include "latency/latency.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

// ---- 1. Concept membership --------------------------------------------------

static_assert(ProtocolKernel<VirtualKernel>);
static_assert(ProtocolKernel<ImitationKernel>);
static_assert(ProtocolKernel<ExplorationKernel>);
static_assert(ProtocolKernel<CombinedKernel>);
// The virtual classes expose fill_move_probabilities, not fill_row: the
// concept genuinely separates the two interfaces instead of accepting
// anything protocol-shaped.
static_assert(!ProtocolKernel<ImitationProtocol>);
static_assert(!ProtocolKernel<ExplorationProtocol>);
static_assert(!ProtocolKernel<CombinedProtocol>);

static_assert(LatencyKernel<LatencyTable>);
// LatencyFunction::value takes one argument (no resource index) — not a
// table.
static_assert(!LatencyKernel<LatencyFunction>);

static_assert(AsymmetricProtocolKernel<AsymmetricImitationKernel>);
static_assert(!AsymmetricProtocolKernel<ImitationKernel>);

// ---- 2. Kernel dispatch -----------------------------------------------------

template <typename Expected>
bool dispatches_to(const Protocol& protocol, bool force_virtual) {
  return dispatch_protocol_kernel(
      protocol, force_virtual, [](const auto& kernel) {
        return std::is_same_v<std::decay_t<decltype(kernel)>, Expected>;
      });
}

TEST(KernelDispatch, ConcreteProtocolsGetMonomorphizedKernels) {
  const ImitationProtocol imitation;
  const ExplorationProtocol exploration;
  const CombinedProtocol combined{ImitationParams{}, ExplorationParams{},
                                  0.5};
  EXPECT_TRUE(dispatches_to<ImitationKernel>(imitation, false));
  EXPECT_TRUE(dispatches_to<ExplorationKernel>(exploration, false));
  EXPECT_TRUE(dispatches_to<CombinedKernel>(combined, false));
}

TEST(KernelDispatch, ForceVirtualPinsTheAdapter) {
  const ImitationProtocol imitation;
  EXPECT_TRUE(dispatches_to<VirtualKernel>(imitation, true));
  EXPECT_EQ(VirtualKernel(imitation).name(), imitation.name());
}

TEST(KernelDispatch, UnrecognizedProtocolFallsBackToVirtualKernel) {
  // A protocol type the dispatch chain has never heard of must still run —
  // correct immediately via the VirtualKernel adapter, no engine changes.
  // (Wrapping rather than deriving: a subclass of ImitationProtocol would
  // still be caught by the dynamic_cast chain.)
  class OpaqueProtocol final : public Protocol {
   public:
    double move_probability(const CongestionGame& game, const State& x,
                            StrategyId from, StrategyId to) const override {
      return inner_.move_probability(game, x, from, to);
    }
    std::string name() const override { return "opaque"; }

   private:
    ImitationProtocol inner_;
  };
  const OpaqueProtocol opaque;
  EXPECT_TRUE(dispatches_to<VirtualKernel>(opaque, false));

  // And the fallback actually runs: one round on a real game.
  const auto game = make_monomial_fan_game(8, 1.0, 1.0, 500);
  Rng rng(3);
  State x = State::uniform_random(game, rng);
  const RoundResult rr =
      draw_round(game, x, opaque, rng, EngineMode::kAggregate);
  EXPECT_GE(rr.movers, 0);
}

// ---- 3. LatencyTable vs virtual latency functions ---------------------------

TEST(LatencyTableKernel, BitwiseMatchesEveryFunctionShape) {
  // One of each registered shape, including nesting that exercises the
  // ScaledLatency divisor and the opaque virtual fallback.
  std::vector<LatencyPtr> fns;
  fns.push_back(make_constant(2.5));
  fns.push_back(make_linear(1.5));
  fns.push_back(make_affine(0.5, 2.0));
  fns.push_back(make_monomial(0.7, 2.0));
  fns.push_back(make_monomial(3.0, 0.0));  // degree-0 monomial special case
  fns.push_back(make_polynomial({1.0, 0.0, 3.0, 0.5}));
  fns.push_back(make_polynomial({4.0}));
  fns.push_back(make_scaled(make_monomial(0.9, 3.0), 50));
  fns.push_back(make_scaled(make_polynomial({0.0, 2.0, 1.0}), 10));
  fns.push_back(make_exponential(1.1, 0.2));  // opaque fallback entry

  LatencyTable table;
  table.reserve(fns.size());
  for (const auto& fn : fns) table.add(*fn);
  ASSERT_EQ(table.size(), fns.size());

  for (std::size_t e = 0; e < fns.size(); ++e) {
    SCOPED_TRACE("entry " + std::to_string(e));
    for (std::int64_t load = 0; load <= 200; ++load) {
      const double x = static_cast<double>(load);
      // Bitwise: EXPECT_EQ on doubles, never EXPECT_NEAR.
      ASSERT_EQ(table.value(e, x), fns[e]->value(x)) << "load " << load;
    }
  }
}

TEST(LatencyTableKernel, ClearAllowsRebuildAgainstAnotherGame) {
  LatencyTable table;
  const auto poly = make_polynomial({1.0, 2.0, 3.0});
  table.add(*poly);
  EXPECT_EQ(table.size(), 1u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  const auto mono = make_monomial(2.0, 2.0);
  table.add(*mono);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.value(0, 7.0), mono->value(7.0));
}

// ---- 4. Row-level kernel identity -------------------------------------------

CongestionGame network_game_k8(std::int64_t n) {
  const auto net = make_layered_network(2, 3);
  Rng latency_rng(11);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(make_monomial(0.5 + latency_rng.uniform(),
                                latency_rng.bernoulli(0.5) ? 1.0 : 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

template <typename KernelT, typename ProtocolT>
void expect_rows_match_protocol(const CongestionGame& game,
                                const ProtocolT& protocol) {
  const KernelT kernel(protocol);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  Rng rng(41);
  State x = State::uniform_random(game, rng);
  RoundWorkspace ws;
  RoundResult rr;
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  std::vector<double> kernel_row(k);
  std::vector<double> virtual_row(k);
  for (int round = 0; round < 20; ++round) {
    for (StrategyId from = 0; from < game.num_strategies(); ++from) {
      kernel.fill_row(game, ctx, from, kernel_row);
      protocol.fill_move_probabilities(game, ctx, from, virtual_row);
      for (std::size_t to = 0; to < k; ++to) {
        ASSERT_EQ(kernel_row[to], virtual_row[to])
            << "round " << round << " pair " << from << "->" << to;
      }
    }
    // Mutate through a real draw so later iterations audit refreshed
    // cache entries (and, on singleton games, the SIMD select loop over
    // non-initial ell/ell_plus values).
    draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr);
    x.apply(game, rr.moves, scratch);
    ctx.refresh(scratch.touched);
    ws.ctx.refresh(scratch.touched);
  }
}

TEST(KernelRows, SingletonFastPathsMatchVirtualRows) {
  // Singleton game: under CID_SIMD=ON this drives the vectorizable select
  // loops; under =OFF the same assertions audit the delegating path.
  const auto game = make_monomial_fan_game(16, 1.0, 2.0, 4000);
  ImitationParams virtual_params;
  virtual_params.virtual_agents = 2;
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ImitationKernel>(
      game, ImitationProtocol(virtual_params));
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game,
      CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

TEST(KernelRows, NetworkTableRowsMatchVirtualRowsBitwise) {
  const auto game = network_game_k8(1500);
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game,
      CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

CongestionGame network_game_k64(std::int64_t n) {
  // 4^3 = 64 s-t paths over 40 edges: the bench_engine_micro cells 1/2
  // and long_sim game shape.
  const auto net = make_layered_network(4, 3);
  Rng latency_rng(7);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    fns.push_back(latency_rng.bernoulli(0.5) ? make_linear(a)
                                             : make_monomial(0.05 * a, 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

TEST(KernelRows, NetworkRowsMatchVirtualRowsForImitationParams) {
  const auto game = network_game_k8(1500);
  ImitationParams virtual_agents;
  virtual_agents.virtual_agents = 2;
  ImitationParams no_nu;
  no_nu.nu_cutoff = false;
  ImitationParams no_damping;
  no_damping.damping = false;
  for (const ImitationParams& params : {virtual_agents, no_nu, no_damping}) {
    for (const SamplingConvention convention :
         {SamplingConvention::kExcludeSelf, SamplingConvention::kIncludeSelf}) {
      ImitationParams variant = params;
      variant.convention = convention;
      const ImitationProtocol imitation(variant);
      SCOPED_TRACE(imitation.name());
      expect_rows_match_protocol<ImitationKernel>(game, imitation);
      expect_rows_match_protocol<CombinedKernel>(
          game, CombinedProtocol{variant, ExplorationParams{}, 0.5});
    }
  }
}

TEST(KernelRows, NetworkRowsMatchVirtualRowsForExplorationOverrides) {
  const auto game = network_game_k8(1500);
  ExplorationParams beta;
  beta.beta_override = 0.75;
  ExplorationParams lmin;
  lmin.lmin_override = 3.0;
  for (const ExplorationParams& params : {beta, lmin}) {
    expect_rows_match_protocol<ExplorationKernel>(game,
                                                  ExplorationProtocol(params));
    expect_rows_match_protocol<CombinedKernel>(
        game, CombinedProtocol{ImitationParams{}, params, 0.5});
  }
}

TEST(KernelRows, NetworkRowsMatchVirtualRowsForEveryExploreShare) {
  const auto game = network_game_k8(1500);
  for (const double p_explore : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(p_explore);
    expect_rows_match_protocol<CombinedKernel>(
        game,
        CombinedProtocol{ImitationParams{}, ExplorationParams{}, p_explore});
  }
}

TEST(KernelRows, NetworkRowsMatchVirtualRowsWithDecreasingLatency) {
  // One decreasing edge: ℓ_e(x_e+1) < ℓ_e(x_e) there, so the table mixes
  // ex-post values below the current ones and plus_dominates() is false
  // (no pruning shortcut hides a row).
  class DecreasingLatency final : public LatencyFunction {
   public:
    double value(double x) const override { return 5.0 + 400.0 / (1.0 + x); }
    std::string describe() const override { return "5+400/(1+x)"; }
  };
  const auto net = make_layered_network(2, 3);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(e == 1 ? LatencyPtr(std::make_shared<DecreasingLatency>())
                         : make_linear(0.01 * (1 + e)));
  }
  const auto game = make_network_game(net, std::move(fns), 1500);
  {
    Rng rng(41);  // the state expect_rows_match_protocol starts from
    const State x = State::uniform_random(game, rng);
    LatencyContext ctx;
    ctx.reset(game, x);
    ASSERT_FALSE(ctx.plus_dominates());
  }
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

TEST(KernelRows, OneKernelAlternatesBetweenNetworkGamesOfDifferentSize) {
  // The per-thread ex-post table is reused across rows: every switch
  // between the 2x3 and 4x3 games re-sizes it (both ways) on this thread.
  const auto small = network_game_k8(1500);
  const auto large = network_game_k64(4000);
  ASSERT_NE(small.num_resources(), large.num_resources());
  const CombinedProtocol protocol{ImitationParams{}, ExplorationParams{},
                                  0.5};
  const CombinedKernel kernel(protocol);
  struct Side {
    const CongestionGame* game;
    State x;
    LatencyContext ctx;
  };
  Rng rng(61);
  std::array<Side, 2> sides{Side{&small, State::uniform_random(small, rng), {}},
                            Side{&large, State::uniform_random(large, rng), {}}};
  for (Side& side : sides) side.ctx.reset(*side.game, side.x);
  std::vector<double> kernel_row;
  std::vector<double> virtual_row;
  for (int round = 0; round < 5; ++round) {
    for (StrategyId from = 0; from < large.num_strategies(); ++from) {
      for (Side& side : sides) {
        const CongestionGame& game = *side.game;
        const StrategyId origin = from % game.num_strategies();
        const auto k = static_cast<std::size_t>(game.num_strategies());
        kernel_row.assign(k, -1.0);
        virtual_row.assign(k, -2.0);
        kernel.fill_row(game, side.ctx, origin, kernel_row);
        protocol.fill_move_probabilities(game, side.ctx, origin, virtual_row);
        for (std::size_t to = 0; to < k; ++to) {
          ASSERT_EQ(kernel_row[to], virtual_row[to])
              << "m=" << game.num_resources() << " round " << round
              << " pair " << origin << "->" << to;
        }
      }
    }
    for (Side& side : sides) {
      RoundWorkspace ws;
      RoundResult rr;
      draw_round(*side.game, side.x, kernel, rng, EngineMode::kAggregate, ws,
                 rr);
      ApplyScratch scratch;
      side.x.apply(*side.game, rr.moves, scratch);
      side.ctx.refresh(scratch.touched);
    }
  }
}

template <typename KernelT, typename ProtocolT>
void expect_parallel_rows_match_protocol(const CongestionGame& game,
                                         const ProtocolT& protocol,
                                         int row_threads) {
  const KernelT kernel(protocol);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  Rng rng(53);
  State x = State::uniform_random(game, rng);
  RoundWorkspace ws;
  RoundResult rr;
  std::vector<double> virtual_row(k);
  for (int round = 0; round < 10; ++round) {
    engine_detail::prepare(game, x, ws);
    engine_detail::fill_rows_parallel(game, kernel, ws, /*prune=*/false,
                                      RowBounds{}, row_threads);
    for (std::size_t i = 0; i < ws.support.size(); ++i) {
      const StrategyId from = ws.support[i];
      protocol.fill_move_probabilities(game, ws.ctx, from, virtual_row);
      for (std::size_t to = 0; to < k; ++to) {
        ASSERT_EQ(ws.rows[i * k + to], virtual_row[to])
            << "round " << round << " pair " << from << "->" << to;
      }
    }
    draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr,
               row_threads);
    x.apply(game, rr.moves, ws.apply_scratch);
    ws.ctx.refresh(ws.apply_scratch.touched);
  }
}

TEST(KernelRows, NetworkRowsUnderFourRowThreadsMatchVirtualRows) {
  // Four pool threads fill rows concurrently, each through its own ex-post
  // table.
  const auto game = network_game_k64(20000);
  expect_parallel_rows_match_protocol<ImitationKernel>(
      game, ImitationProtocol(), 4);
  expect_parallel_rows_match_protocol<ExplorationKernel>(
      game, ExplorationProtocol(), 4);
  expect_parallel_rows_match_protocol<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5}, 4);
}

// ---- 5. Round- and run-level identity across all four paths -----------------

template <typename KernelT, typename ProtocolT>
void expect_four_paths_identical(const CongestionGame& game,
                                 const ProtocolT& protocol, EngineMode mode,
                                 std::int64_t rounds, std::uint64_t seed) {
  const KernelT mono(protocol);
  const VirtualKernel virt(protocol);
  // Four independent (rng, state, workspace) tuples; only the path differs.
  Rng mono_rng(seed), virt_rng(seed), front_rng(seed), oracle_rng(seed);
  State mono_x = State::uniform_random(game, mono_rng);
  State virt_x = State::uniform_random(game, virt_rng);
  State front_x = State::uniform_random(game, front_rng);
  State oracle_x = State::uniform_random(game, oracle_rng);
  RoundWorkspace mono_ws, virt_ws, front_ws;
  RoundResult mono_rr, virt_rr, front_rr;
  for (std::int64_t round = 0; round < rounds; ++round) {
    draw_round(game, mono_x, mono, mono_rng, mode, mono_ws, mono_rr);
    draw_round(game, virt_x, virt, virt_rng, mode, virt_ws, virt_rr);
    draw_round(game, front_x, protocol, front_rng, mode, front_ws, front_rr);
    const RoundResult oracle =
        draw_round_reference(game, oracle_x, virt, oracle_rng, mode);
    ASSERT_EQ(mono_rr.moves, virt_rr.moves) << "round " << round;
    ASSERT_EQ(mono_rr.moves, front_rr.moves) << "round " << round;
    ASSERT_EQ(mono_rr.moves, oracle.moves) << "round " << round;
    ASSERT_EQ(mono_rr.movers, oracle.movers) << "round " << round;
    ASSERT_EQ(mono_rng.state(), virt_rng.state()) << "round " << round;
    ASSERT_EQ(mono_rng.state(), front_rng.state()) << "round " << round;
    ASSERT_EQ(mono_rng.state(), oracle_rng.state()) << "round " << round;
    mono_x.apply(game, mono_rr.moves, mono_ws.apply_scratch);
    mono_ws.ctx.refresh(mono_ws.apply_scratch.touched);
    virt_x.apply(game, virt_rr.moves, virt_ws.apply_scratch);
    virt_ws.ctx.refresh(virt_ws.apply_scratch.touched);
    front_x.apply(game, front_rr.moves, front_ws.apply_scratch);
    front_ws.ctx.refresh(front_ws.apply_scratch.touched);
    oracle_x.apply(game, oracle.moves);
    ASSERT_TRUE(mono_x == oracle_x) << "round " << round;
  }
}

TEST(KernelRounds, MonoVirtualFrontendOracleIdenticalSingleton) {
  const auto game = make_monomial_fan_game(12, 1.0, 1.0, 5000);
  for (EngineMode mode :
       {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    const std::int64_t rounds = mode == EngineMode::kAggregate ? 50 : 20;
    expect_four_paths_identical<ImitationKernel>(game, ImitationProtocol(),
                                                 mode, rounds, 91);
    expect_four_paths_identical<ExplorationKernel>(
        game, ExplorationProtocol(), mode, rounds, 92);
    expect_four_paths_identical<CombinedKernel>(
        game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
        mode, rounds, 93);
  }
}

TEST(KernelRounds, MonoVirtualFrontendOracleIdenticalNetwork) {
  const auto game = network_game_k8(3000);
  expect_four_paths_identical<ImitationKernel>(
      game, ImitationProtocol(), EngineMode::kAggregate, 40, 94);
  expect_four_paths_identical<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
      EngineMode::kAggregate, 40, 95);
}

TEST(KernelRounds, MonoVirtualFrontendOracleIdenticalNetworkAllKernels) {
  const auto game = network_game_k8(3000);
  expect_four_paths_identical<ExplorationKernel>(
      game, ExplorationProtocol(), EngineMode::kAggregate, 40, 96);
  expect_four_paths_identical<ImitationKernel>(
      game, ImitationProtocol(), EngineMode::kPerPlayer, 20, 97);
  expect_four_paths_identical<ExplorationKernel>(
      game, ExplorationProtocol(), EngineMode::kPerPlayer, 20, 98);
  expect_four_paths_identical<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
      EngineMode::kPerPlayer, 20, 99);
}

TEST(KernelRounds, TemplatedRowThreadsBitwiseInvariant) {
  // Direct templated-API thread invariance (the frontends are covered by
  // the oracle suite): the persistent-pool fan-out must be invisible.
  const auto game = network_game_k8(2000);
  const ImitationProtocol protocol;
  const ImitationKernel kernel(protocol);
  std::vector<State> finals;
  std::vector<std::array<std::uint64_t, 4>> rng_states;
  for (const int row_threads : {1, 2, 4}) {
    Rng rng(71);
    State x = State::uniform_random(game, rng);
    RoundWorkspace ws;
    RoundResult rr;
    for (int round = 0; round < 30; ++round) {
      draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr,
                 row_threads);
      x.apply(game, rr.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
    }
    finals.push_back(std::move(x));
    rng_states.push_back(rng.state());
  }
  EXPECT_TRUE(finals[0] == finals[1]);
  EXPECT_TRUE(finals[0] == finals[2]);
  EXPECT_EQ(rng_states[0], rng_states[1]);
  EXPECT_EQ(rng_states[0], rng_states[2]);
}

TEST(KernelRuns, TemplatedRunMatchesFrontendRun) {
  const auto game = make_monomial_fan_game(10, 2.0, 1.0, 20000);
  const ImitationProtocol protocol;
  const ImitationKernel kernel(protocol);
  EngineInvocation call;
  call.options.max_rounds = 120;

  Rng kernel_rng(13);
  State kernel_x = State::uniform_random(game, kernel_rng);
  const RunResult via_kernel =
      run_dynamics(game, kernel_x, kernel, kernel_rng, call);

  Rng front_rng(13);
  State front_x = State::uniform_random(game, front_rng);
  const RunResult via_frontend =
      run_dynamics(game, front_x, protocol, front_rng, call);

  EXPECT_EQ(via_kernel.rounds, via_frontend.rounds);
  EXPECT_EQ(via_kernel.total_movers, via_frontend.total_movers);
  EXPECT_EQ(via_kernel.latency_evals, via_frontend.latency_evals);
  EXPECT_TRUE(kernel_x == front_x);
  EXPECT_EQ(kernel_rng.state(), front_rng.state());
}

// ---- 6. Trial-level virtual_frontend invariance -----------------------------

struct FamilyCase {
  const char* scenario;
  std::int64_t n;
  const char* protocol;
  std::int64_t rounds;
};

const FamilyCase kFamilies[] = {
    {"singleton-uniform", 2000, "imitation", 60},
    {"load-balancing", 2000, "combined", 60},
    {"network-routing", 1500, "exploration", 60},
    {"asymmetric", 900, "imitation", 60},
    {"multicommodity", 900, "imitation", 60},
    {"threshold-lb", 12, "imitation", 4000},
};

sweep::DynamicsConfig family_dynamics(std::int64_t rounds,
                                      bool virtual_frontend) {
  sweep::DynamicsConfig dynamics;
  dynamics.max_rounds = rounds;
  dynamics.stop = sweep::StopRule::kNash;
  dynamics.check_interval = 3;
  dynamics.virtual_frontend = virtual_frontend;
  return dynamics;
}

TEST(KernelTrials, AllSixFamiliesInvariantUnderVirtualFrontend) {
  // virtual_frontend keeps the batched engine but swaps the monomorphized
  // kernel for the VirtualKernel adapter — i.e. the exact pre-redesign
  // path. Every family (and the RNG stream) must be unable to tell.
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.scenario);
    sweep::ScenarioSpec spec;
    spec.name = c.scenario;
    const auto instance = sweep::make_scenario(spec, c.n);
    const auto protocol = sweep::parse_protocol_spec(c.protocol);
    const std::uint64_t seed = 8642;

    Rng mono_rng(seed);
    const sweep::TrialOutcome mono = instance->run_trial(
        protocol, family_dynamics(c.rounds, false), mono_rng);
    Rng virt_rng(seed);
    const sweep::TrialOutcome virt = instance->run_trial(
        protocol, family_dynamics(c.rounds, true), virt_rng);
    EXPECT_EQ(mono, virt);
    EXPECT_EQ(mono_rng.state(), virt_rng.state());
  }
}

TEST(KernelTrials, CheckpointsInterchangeableAcrossFrontends) {
  // A monomorphized-kernel trial checkpointed at round 9, killed, and
  // resumed on the VIRTUAL frontend must bitwise-match the uninterrupted
  // monomorphized run — snapshots carry no trace of the kernel frontend.
  sweep::ScenarioSpec spec;
  spec.name = "network-routing";
  const auto instance = sweep::make_scenario(spec, 1500);
  const auto protocol = sweep::parse_protocol_spec("combined");
  const std::uint64_t seed = 4242;
  const std::int64_t total_rounds = 60;

  Rng full_rng(seed);
  const sweep::TrialOutcome uninterrupted = instance->run_trial(
      protocol, family_dynamics(total_rounds, false), full_rng);

  const std::string snap =
      ::testing::TempDir() + "/kernel_frontend_interchange.snap";
  Rng killed_rng(seed);
  instance->run_trial_checkpointed(protocol, family_dynamics(9, false),
                                   killed_rng,
                                   sweep::TrialCheckpoint{snap, 0});
  const sweep::TrialOutcome resumed = instance->resume_trial(
      protocol, family_dynamics(total_rounds, true), snap);
  EXPECT_EQ(resumed, uninterrupted);
  EXPECT_GT(uninterrupted.rounds, 9.0);  // the resumed leg did real work
  std::remove(snap.c_str());
}

// ---- 7. EngineInvocation vs deprecated shims --------------------------------

TEST(EngineInvocationApi, MatchesStopPredicateShim) {
  const auto game = make_monomial_fan_game(10, 1.0, 1.0, 8000);
  const ImitationProtocol protocol;
  RunOptions options;
  options.max_rounds = 500;
  options.check_interval = 5;
  const StopPredicate stop = [](const CongestionGame&, const State&,
                                std::int64_t round) { return round >= 85; };

  Rng shim_rng(17);
  State shim_x = State::uniform_random(game, shim_rng);
  const RunResult via_shim =
      run_dynamics(game, shim_x, protocol, shim_rng, options, stop);

  EngineInvocation call;
  call.options = options;
  call.stop = stop;
  Rng call_rng(17);
  State call_x = State::uniform_random(game, call_rng);
  const RunResult via_call =
      run_dynamics(game, call_x, protocol, call_rng, call);

  EXPECT_EQ(via_call.rounds, via_shim.rounds);
  EXPECT_EQ(via_call.converged, via_shim.converged);
  EXPECT_EQ(via_call.total_movers, via_shim.total_movers);
  EXPECT_TRUE(call_x == shim_x);
  EXPECT_EQ(call_rng.state(), shim_rng.state());
  EXPECT_TRUE(via_call.converged);  // the predicate actually fired
}

TEST(EngineInvocationApi, MatchesNullptrShim) {
  // The PR 5 nullptr_t disambiguator == an EngineInvocation with no stop.
  const auto game = network_game_k8(1000);
  const ExplorationProtocol protocol;
  RunOptions options;
  options.max_rounds = 40;

  Rng shim_rng(19);
  State shim_x = State::uniform_random(game, shim_rng);
  const RunResult via_shim =
      run_dynamics(game, shim_x, protocol, shim_rng, options, nullptr);

  EngineInvocation call;
  call.options = options;
  Rng call_rng(19);
  State call_x = State::uniform_random(game, call_rng);
  const RunResult via_call =
      run_dynamics(game, call_x, protocol, call_rng, call);

  EXPECT_EQ(via_call.rounds, via_shim.rounds);
  EXPECT_EQ(via_call.total_movers, via_shim.total_movers);
  EXPECT_TRUE(call_x == shim_x);
  EXPECT_EQ(call_rng.state(), shim_rng.state());
  EXPECT_FALSE(via_call.converged);  // no predicate, ran to max_rounds
}

TEST(EngineInvocationApi, RejectsTwoStopPredicates) {
  const auto game = make_monomial_fan_game(4, 1.0, 1.0, 100);
  const ImitationProtocol protocol;
  EngineInvocation call;
  call.options.max_rounds = 1;
  call.stop = [](const CongestionGame&, const State&, std::int64_t) {
    return true;
  };
  call.cached_stop = [](const LatencyContext&, std::int64_t) {
    return true;
  };
  Rng rng(1);
  State x = State::uniform_random(game, rng);
  EXPECT_THROW(run_dynamics(game, x, protocol, rng, call),
               invariant_violation);
}

}  // namespace
}  // namespace cid
