// ProtocolKernel concept: the statically-dispatched protocol interface the
// templated round engines monomorphize over (dynamics/engine_kernel.hpp).
//
// Each paper protocol's formula is written exactly once, as its kernel's
// row body: fill_row writes p_PQ(x) for every destination Q of one origin
// P. The virtual Protocol class is only the type-erased handle the tools
// and the scenario registry hold (params + name); the engines resolve it
// to its kernel once per run, so the five engine phases inline the row
// fill instead of paying a virtual call per origin.
//
// Layering (how a protocol reaches the hot path):
//
//   Protocol (handle)  --dispatch_protocol_kernel-->  concrete kernel
//     ImitationProtocol   -> ImitationKernel
//     ExplorationProtocol -> ExplorationKernel
//     CombinedProtocol    -> CombinedKernel
//     anything else       -> error naming the protocol
//
// Each row body is generic in the ex-post source ℓ_Q(x + 1_Q − 1_P) and
// instantiated twice:
//
//   singleton game -> SingletonExpost: ell/ell_plus select per destination
//   network game   -> NetworkExpost:   per-origin ex-post table
//                     (LatencyContext::expost_table), summed over each
//                     destination's resources
//
// A new protocol is a new Protocol subclass plus a kernel modeling the
// concept and one dispatch case; the engines need no changes.
//
// Bitwise contract: every row equals, entry for entry, the per-pair
// formula the paper writes — the test-only oracle in
// tests/protocol_oracle.hpp keeps that formula per pair, and
// tests/test_kernel_concepts.cpp and tests/test_engine_oracle.cpp compare
// rows, rounds and whole runs against it bit for bit. The row bodies keep
// it by construction: hoisted constants are the same doubles every pair,
// ex-post sources add the merge walk's doubles in its order, and zero
// cases are ternary selects (never multiply-by-mask, which would turn a
// discarded-lane NaN into an output).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "game/congestion_game.hpp"
#include "game/latency_context.hpp"
#include "game/state.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/protocol.hpp"
#include "util/assert.hpp"

namespace cid {

/// The statically-dispatched protocol interface. fill_row writes the
/// origin's whole probability row (out spans game.num_strategies()
/// entries, out[from] = 0); row_provably_zero may return true only when
/// every entry fill_row would write is 0.0, which lets the aggregate
/// engine skip the fill and the draw (Rng::multinomial consumes nothing
/// for zero categories, so the RNG stream is unchanged). Kernels are cheap
/// value types (a pointer or two) the engines copy freely.
template <typename K>
concept ProtocolKernel =
    std::copy_constructible<K> &&
    requires(const K k, const CongestionGame& game, const LatencyContext& ctx,
             StrategyId from, std::span<double> out, const RowBounds& bounds) {
      { k.fill_row(game, ctx, from, out) } -> std::same_as<void>;
      { k.row_provably_zero(game, ctx, from, bounds) } -> std::same_as<bool>;
      { k.name() } -> std::convertible_to<std::string>;
    };

namespace kernel_detail {

/// Singleton ex-post source: the one destination resource reads ell when
/// shared with the origin, ell_plus otherwise — exactly what
/// ctx.expost_latency's merge walk computes for |Q| = 1.
struct SingletonExpost {
  std::span<const Strategy> strategies;
  std::span<const double> ell;
  std::span<const double> ell_plus;
  Resource res_from;

  double operator()(std::size_t to) const noexcept {
    const Resource res_to = strategies[to][0];
    const auto e = static_cast<std::size_t>(res_to);
    return res_to == res_from ? ell[e] : ell_plus[e];
  }
};

/// Network ex-post source: ℓ_Q(x + 1_Q − 1_P) as the sum of the origin's
/// ex-post table (LatencyContext::expost_table) over Q's resources, in
/// stored order from 0.0 — the merge walk's doubles in the merge walk's
/// order, so bitwise equal to ctx.expost_latency(from, Q).
struct NetworkExpost {
  std::span<const Strategy> strategies;
  std::span<const double> table;

  double operator()(std::size_t to) const noexcept {
    double acc = 0.0;
    for (Resource e : strategies[to]) {
      acc += table[static_cast<std::size_t>(e)];
    }
    return acc;
  }
};

/// The network ex-post table: one buffer per thread (fill_rows_parallel
/// fills rows concurrently), shared by every kernel type and reused across
/// rows and games, so it allocates only when a game with more resources
/// than any before it reaches this thread.
inline std::vector<double>& expost_table_scratch() {
  thread_local std::vector<double> table;
  return table;
}

/// Imitation's effective ν: the game's ν (or its override) under the ν
/// cutoff, 0 without it. The row bodies and the zero proof both read it
/// here, so the proof and the row it proves zero test the same gain.
inline double imitation_nu(const ImitationParams& params,
                           const CongestionGame& game) noexcept {
  return params.nu_cutoff ? params.nu_override.value_or(game.nu()) : 0.0;
}

/// Imitation's row is all zero when no destination beats ℓ_P(x) by more
/// than ν. Every populated destination Q has l_to >= ℓ_Q(x) >= floor
/// under plus-dominance (bitwise: the ex-post sum adds per-resource values
/// >= the ℓ_Q(x) terms in the same order, IEEE rounding is monotone, and
/// adding the same ν keeps it), so ℓ_P <= floor + ν fails the gain test
/// !(l_from > l_to + nu) for every destination. With virtual agents the
/// sampling reaches empty strategies, so the floor is the min over ALL
/// strategies; without, over the support only (empty targets are zeroed
/// anyway).
inline bool imitation_row_provably_zero(const ImitationParams& params,
                                        const CongestionGame& game,
                                        const LatencyContext& ctx,
                                        StrategyId from,
                                        const RowBounds& bounds) noexcept {
  if (!bounds.plus_dominates) return false;
  const double floor = params.virtual_agents > 0 ? bounds.min_latency
                                                 : bounds.min_support_latency;
  return !(ctx.strategy_latency(from) > floor + imitation_nu(params, game));
}

/// Exploration samples ALL strategies (empty ones included), so its row is
/// zero when ℓ_P(x) <= min over every strategy of ℓ_Q(x) and
/// plus-dominance lifts that to the ex-post latencies: the strict-
/// improvement test !(l_from > l_to) then fails row-wide and every entry
/// is sample_prob * 0.0 == 0.0 exactly.
inline bool exploration_row_provably_zero(const LatencyContext& ctx,
                                          StrategyId from,
                                          const RowBounds& bounds) noexcept {
  if (!bounds.plus_dominates) return false;
  return !(ctx.strategy_latency(from) > bounds.min_latency);
}

/// The shared kernel surface: `Derived` supplies one row body per protocol
/// formula, `fill_row_over(game, ctx, from, out, l_to)`, generic in the
/// ex-post source `l_to(to)`, and fill_row instantiates it with the source
/// that fits the game. `Derived` also writes its row_provably_zero next to
/// its row body; name forwards to the protocol handle.
template <typename ProtocolT, typename Derived>
class RowKernel {
 public:
  explicit RowKernel(const ProtocolT& protocol) noexcept
      : protocol_(&protocol) {}

  // Kept out of line: inlined into the engines' round loops (gcc 12 does
  // so once the engine translation unit has no other fill_row caller),
  // the row body made the metered aggregate and per-player rounds of
  // bench_engine_micro 3-12% slower in alternating pairs.
  [[gnu::noinline]] void fill_row(const CongestionGame& game,
                                  const LatencyContext& ctx, StrategyId from,
                                  std::span<double> out) const {
    const auto& self = static_cast<const Derived&>(*this);
    const std::span<const Strategy> strategies = game.strategies();
    if (game.is_singleton()) {
      self.fill_row_over(
          game, ctx, from, out,
          SingletonExpost{strategies, ctx.resource_latencies(),
                          ctx.resource_latencies_plus(),
                          strategies[static_cast<std::size_t>(from)][0]});
    } else {
      self.fill_row_over(
          game, ctx, from, out,
          NetworkExpost{strategies,
                        ctx.expost_table(from, expost_table_scratch())});
    }
  }
  std::string name() const { return protocol_->name(); }

 protected:
  const ProtocolT* protocol_;
};

}  // namespace kernel_detail

/// Imitation (paper §2.3, Protocol 1): sample a player, copy its strategy
/// Q with probability μ_PQ = (λ/d)·(ℓ_P − ℓ_Q(x+1_Q−1_P))/ℓ_P when that
/// gain exceeds ν. One row body serves singleton and network games alike.
class ImitationKernel
    : public kernel_detail::RowKernel<ImitationProtocol, ImitationKernel> {
 public:
  using RowKernel::RowKernel;

  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    return kernel_detail::imitation_row_provably_zero(protocol_->params(),
                                                      game, ctx, from, bounds);
  }

 private:
  friend RowKernel;

  template <typename ExpostSource>
  void fill_row_over(const CongestionGame& game, const LatencyContext& ctx,
                     StrategyId from, std::span<double> out,
                     const ExpostSource& expost) const {
    // Row constants (effective ν and d from the public params, λ/d, the
    // sampling pool) are the same doubles for every destination.
    const ImitationParams& params = protocol_->params();
    const std::span<const std::int64_t> counts = ctx.state().counts();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const std::int64_t v = params.virtual_agents;
    const std::int64_t pool =
        game.num_players() + v * game.num_strategies() -
        (params.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
    const double l_from = ctx.strategy_latency(from);
    const double nu = kernel_detail::imitation_nu(params, game);
    const double d =
        params.damping ? params.elasticity_override.value_or(game.elasticity())
                       : 1.0;
    const double lambda_over_d = params.lambda / d;
    for (std::size_t to = 0; to < k; ++to) {
      const std::int64_t targets = counts[to] + v;
      const double sample_prob =
          static_cast<double>(targets) / static_cast<double>(pool);
      const double l_to = expost(to);
      const double mu = lambda_over_d * (l_from - l_to) / l_from;
      // One select covering every zero case: self, empty target, vanished
      // sample probability, or failed gain test. Dead lanes may compute
      // inf/NaN in mu — the ternary discards them (never multiply-by-mask:
      // 0 * NaN != 0).
      const bool moves = static_cast<StrategyId>(to) != from &&
                         targets != 0 && sample_prob != 0.0 &&
                         (l_from > l_to + nu);
      out[to] = moves ? sample_prob * std::clamp(mu, 0.0, 1.0) : 0.0;
    }
  }
};

/// Exploration (paper §6, Protocol 2): sample a strategy uniformly, move
/// on any strict improvement with probability
/// μ_PQ = λ·min{1, |P|·ℓ_min/(β·n)}·(ℓ_P − ℓ_Q(x+1_Q−1_P))/ℓ_P.
class ExplorationKernel
    : public kernel_detail::RowKernel<ExplorationProtocol, ExplorationKernel> {
 public:
  using RowKernel::RowKernel;

  bool row_provably_zero(const CongestionGame& /*game*/,
                         const LatencyContext& ctx, StrategyId from,
                         const RowBounds& bounds) const {
    return kernel_detail::exploration_row_provably_zero(ctx, from, bounds);
  }

 private:
  friend RowKernel;

  template <typename ExpostSource>
  void fill_row_over(const CongestionGame& game, const LatencyContext& ctx,
                     StrategyId from, std::span<double> out,
                     const ExpostSource& expost) const {
    // The per-pair formula's non-improving entries are sample_prob * 0.0 —
    // bitwise +0.0, since sample_prob = 1/k is positive and finite — so
    // one 0.0 select covers both zero cases exactly.
    const ExplorationParams& params = protocol_->params();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const double sample_prob =
        1.0 / static_cast<double>(game.num_strategies());
    const double l_from = ctx.strategy_latency(from);
    const double beta = params.beta_override.value_or(game.beta_slope());
    const double lmin =
        params.lmin_override.value_or(game.min_nonempty_latency());
    const double num_strategies = static_cast<double>(game.num_strategies());
    const double n = static_cast<double>(game.num_players());
    const double damping = std::min(1.0, num_strategies * lmin / (beta * n));
    const double lambda_damping = params.lambda * damping;
    for (std::size_t to = 0; to < k; ++to) {
      const double l_to = expost(to);
      const double mu = lambda_damping * (l_from - l_to) / l_from;
      const bool moves =
          static_cast<StrategyId>(to) != from && (l_from > l_to);
      out[to] = moves ? sample_prob * std::clamp(mu, 0.0, 1.0) : 0.0;
    }
  }
};

/// Combined (paper §6, last paragraph): each player explores with
/// probability p and imitates otherwise, so an entry is
/// p·explore + (1−p)·imitate. One ex-post read per destination feeds both
/// sub-protocol cores.
class CombinedKernel
    : public kernel_detail::RowKernel<CombinedProtocol, CombinedKernel> {
 public:
  using RowKernel::RowKernel;

  /// An entry is p·explore + (1−p)·imitate, so the row is zero when both
  /// sub-rows are (0.0·anything + anything·0.0 stays 0.0 for the finite
  /// sub-probabilities involved).
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    return kernel_detail::imitation_row_provably_zero(
               protocol_->imitation().params(), game, ctx, from, bounds) &&
           kernel_detail::exploration_row_provably_zero(ctx, from, bounds);
  }

 private:
  friend RowKernel;

  template <typename ExpostSource>
  void fill_row_over(const CongestionGame& game, const LatencyContext& ctx,
                     StrategyId from, std::span<double> out,
                     const ExpostSource& expost) const {
    // Per entry, the exact values the two sub-protocol formulas give,
    // combined as p·explore + (1−p)·imitate in that order. The exploration
    // core's non-improving value is e_sample * 0.0 (== +0.0). The cores'
    // per-pair constants (β, ℓ_min, damping, ν, d) are hoisted once per
    // row: the same doubles every pair, so hoisting changes no bit.
    const ImitationParams& ip = protocol_->imitation().params();
    const ExplorationParams& ep = protocol_->exploration().params();
    const double p_explore = protocol_->p_explore();
    const double one_minus_p = 1.0 - p_explore;
    const std::span<const std::int64_t> counts = ctx.state().counts();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const double l_from = ctx.strategy_latency(from);
    // Imitation core constants.
    const std::int64_t v = ip.virtual_agents;
    const std::int64_t pool =
        game.num_players() + v * game.num_strategies() -
        (ip.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
    const double nu = kernel_detail::imitation_nu(ip, game);
    const double d =
        ip.damping ? ip.elasticity_override.value_or(game.elasticity()) : 1.0;
    const double i_lambda_over_d = ip.lambda / d;
    // Exploration core constants.
    const double e_sample =
        1.0 / static_cast<double>(game.num_strategies());
    const double beta = ep.beta_override.value_or(game.beta_slope());
    const double lmin = ep.lmin_override.value_or(game.min_nonempty_latency());
    const double num_strategies = static_cast<double>(game.num_strategies());
    const double n = static_cast<double>(game.num_players());
    const double e_damping =
        std::min(1.0, num_strategies * lmin / (beta * n));
    const double e_lambda_damping = ep.lambda * e_damping;
    for (std::size_t to = 0; to < k; ++to) {
      const double l_to = expost(to);
      const double e_mu = e_lambda_damping * (l_from - l_to) / l_from;
      const double e_val = (l_from > l_to)
                               ? e_sample * std::clamp(e_mu, 0.0, 1.0)
                               : e_sample * 0.0;
      const std::int64_t targets = counts[to] + v;
      const double i_sample =
          static_cast<double>(targets) / static_cast<double>(pool);
      const double i_mu = i_lambda_over_d * (l_from - l_to) / l_from;
      const bool i_moves =
          targets != 0 && i_sample != 0.0 && (l_from > l_to + nu);
      const double i_val =
          i_moves ? i_sample * std::clamp(i_mu, 0.0, 1.0) : 0.0;
      out[to] = static_cast<StrategyId>(to) == from
                    ? 0.0
                    : p_explore * e_val + one_minus_p * i_val;
    }
  }
};

static_assert(ProtocolKernel<ImitationKernel>);
static_assert(ProtocolKernel<ExplorationKernel>);
static_assert(ProtocolKernel<CombinedKernel>);

/// Resolves a type-erased Protocol to its concrete kernel and invokes
/// `f(kernel)` — THE frontend/kernel boundary: one dynamic_cast chain per
/// run (or per standalone draw), never per round. A Protocol subclass with
/// no kernel case here is an error naming it.
template <typename F>
decltype(auto) dispatch_protocol_kernel(const Protocol& protocol, F&& f) {
  if (const auto* imitation =
          dynamic_cast<const ImitationProtocol*>(&protocol)) {
    return f(ImitationKernel(*imitation));
  }
  if (const auto* exploration =
          dynamic_cast<const ExplorationProtocol*>(&protocol)) {
    return f(ExplorationKernel(*exploration));
  }
  if (const auto* combined = dynamic_cast<const CombinedProtocol*>(&protocol)) {
    return f(CombinedKernel(*combined));
  }
  throw invariant_violation("dispatch_protocol_kernel: protocol '" +
                            protocol.name() + "' has no kernel");
}

}  // namespace cid
