// ProtocolKernel concept: the statically-dispatched protocol interface the
// templated round engines monomorphize over (dynamics/engine_kernel.hpp).
//
// The virtual Protocol class stays exactly what it was — the type-erased
// frontend the CLIs and the scenario registry hold, and the per-pair
// REFERENCE ORACLE (move_probability) every kernel is audited against. A
// ProtocolKernel is the non-virtual mirror of its row API: `fill_row`,
// `row_provably_zero`, and `move_probability` with the same bitwise
// contracts, dispatched at compile time so the engines' five phases inline
// the row fill instead of paying a virtual call per origin, and run a
// branch-reduced select loop per row (gated by CID_SIMD).
//
// Layering (how a protocol reaches the hot path):
//
//   Protocol (virtual)  --dispatch_protocol_kernel-->  concrete kernel
//     ImitationProtocol   -> ImitationKernel     (devirtualized row body)
//     ExplorationProtocol -> ExplorationKernel   (devirtualized row body)
//     CombinedProtocol    -> CombinedKernel      (devirtualized row body)
//     anything else       -> VirtualKernel       (forwards virtually)
//
// Each paper kernel writes its protocol formula once, as a row body
// generic in the ex-post source ℓ_Q(x + 1_Q − 1_P), instantiated twice:
//
//   singleton game -> SingletonExpost: ell/ell_plus select per destination
//   network game   -> NetworkExpost:   per-origin ex-post table
//                     (LatencyContext::expost_table), summed over each
//                     destination's resources
//
// A new protocol therefore needs NO engine changes: implement the virtual
// Protocol (correct immediately via VirtualKernel), and optionally add a
// dedicated kernel + dispatch case when its row fill earns a fast path.
//
// Bitwise contract: every kernel's fill_row writes the byte-identical row
// the wrapped protocol's fill_move_probabilities writes, which in turn
// mirrors move_probability per pair — so batched, monomorphized, SIMD, and
// per-pair reference paths all consume the RNG identically and produce
// interchangeable checkpoints (tests/test_kernel_concepts.cpp and
// tests/test_engine_oracle.cpp enforce this). The row bodies preserve it
// by construction: identical hoisted constants, identical expression
// order, ex-post sources that add the merge walk's doubles in its order,
// and ternary selects (never multiply-by-mask, which would turn a
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
#include "latency/kernel.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/protocol.hpp"

namespace cid {

/// The statically-dispatched protocol interface. Semantics (and bitwise
/// contracts) of the three members are exactly those of the virtual
/// Protocol methods they mirror: fill_row = fill_move_probabilities,
/// row_provably_zero = row_provably_zero, move_probability = the per-pair
/// reference oracle. Kernels are cheap value types (a pointer or two) the
/// engines copy freely.
template <typename K>
concept ProtocolKernel =
    std::copy_constructible<K> &&
    requires(const K k, const CongestionGame& game, const LatencyContext& ctx,
             const State& x, StrategyId from, StrategyId to,
             std::span<double> out, const RowBounds& bounds) {
      { k.fill_row(game, ctx, from, out) } -> std::same_as<void>;
      { k.row_provably_zero(game, ctx, from, bounds) } -> std::same_as<bool>;
      { k.move_probability(game, x, from, to) } -> std::same_as<double>;
      { k.name() } -> std::convertible_to<std::string>;
    };

/// Type-erasure adapter: any virtual Protocol, presented as a kernel. This
/// is the pre-redesign batched path, bit for bit — dispatch_protocol_kernel
/// falls back to it for unrecognized protocols, and the engines force it
/// (EngineTuning::virtual_frontend) when a caller wants the virtual
/// frontend audited against the monomorphized kernels.
class VirtualKernel {
 public:
  explicit VirtualKernel(const Protocol& protocol) noexcept
      : protocol_(&protocol) {}

  void fill_row(const CongestionGame& game, const LatencyContext& ctx,
                StrategyId from, std::span<double> out) const {
    protocol_->fill_move_probabilities(game, ctx, from, out);
  }
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    return protocol_->row_provably_zero(game, ctx, from, bounds);
  }
  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const {
    return protocol_->move_probability(game, x, from, to);
  }
  std::string name() const { return protocol_->name(); }

 private:
  const Protocol* protocol_;
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

/// The shared kernel surface: `Derived` supplies one row body per protocol
/// formula, `fill_row_over(game, ctx, from, out, l_to)`, generic in the
/// ex-post source `l_to(to)`, and fill_row instantiates it with the source
/// that fits the game; the rest forwards to the final protocol's methods
/// (direct, devirtualized calls). Under CID_SIMD=OFF fill_row delegates to
/// the virtual row instead, which is what lets the cross-binary audit
/// compare the two.
template <typename ProtocolT, typename Derived>
class RowKernel {
 public:
  explicit RowKernel(const ProtocolT& protocol) noexcept
      : protocol_(&protocol) {}

  void fill_row(const CongestionGame& game, const LatencyContext& ctx,
                StrategyId from, std::span<double> out) const {
    if constexpr (kSimdCompiled) {
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
    } else {
      protocol_->fill_move_probabilities(game, ctx, from, out);
    }
  }
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    return protocol_->row_provably_zero(game, ctx, from, bounds);
  }
  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const {
    return protocol_->move_probability(game, x, from, to);
  }
  std::string name() const { return protocol_->name(); }

 protected:
  const ProtocolT* protocol_;
};

}  // namespace kernel_detail

/// Monomorphized imitation kernel. One row body serves singleton and
/// network games alike; the branchy zero cases of the virtual row become
/// one ternary select per entry.
class ImitationKernel
    : public kernel_detail::RowKernel<ImitationProtocol, ImitationKernel> {
 public:
  using RowKernel::RowKernel;

 private:
  friend RowKernel;

  template <typename ExpostSource>
  void fill_row_over(const CongestionGame& game, const LatencyContext& ctx,
                     StrategyId from, std::span<double> out,
                     const ExpostSource& expost) const {
    // Hoisted constants mirror ImitationProtocol::fill_move_probabilities
    // term for term (effective nu/d reconstructed from the public params —
    // same expressions as the private effective_* helpers).
    const ImitationParams& params = protocol_->params();
    const std::span<const std::int64_t> counts = ctx.state().counts();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const std::int64_t v = params.virtual_agents;
    const std::int64_t pool =
        game.num_players() + v * game.num_strategies() -
        (params.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
    const double l_from = ctx.strategy_latency(from);
    const double nu =
        params.nu_cutoff ? params.nu_override.value_or(game.nu()) : 0.0;
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
      // One select covering every zero case of the scalar loop, in the
      // same semantics: self, empty target, vanished sample probability,
      // or failed gain test. Dead lanes may compute inf/NaN in mu — the
      // ternary discards them (never multiply-by-mask: 0 * NaN != 0).
      const bool moves = static_cast<StrategyId>(to) != from &&
                         targets != 0 && sample_prob != 0.0 &&
                         (l_from > l_to + nu);
      out[to] = moves ? sample_prob * std::clamp(mu, 0.0, 1.0) : 0.0;
    }
  }
};

/// Monomorphized exploration kernel (same layering as ImitationKernel).
class ExplorationKernel
    : public kernel_detail::RowKernel<ExplorationProtocol, ExplorationKernel> {
 public:
  using RowKernel::RowKernel;

 private:
  friend RowKernel;

  template <typename ExpostSource>
  void fill_row_over(const CongestionGame& game, const LatencyContext& ctx,
                     StrategyId from, std::span<double> out,
                     const ExpostSource& expost) const {
    // Mirrors ExplorationProtocol::fill_move_probabilities. Its
    // non-improving entries are sample_prob * 0.0 — bitwise +0.0, since
    // sample_prob = 1/k is positive and finite — so one 0.0 select covers
    // both zero cases exactly.
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

/// Monomorphized combined kernel: one ex-post read per destination feeds
/// both sub-protocol cores, exactly as the scalar row fill shares one
/// ex-post merge between them.
class CombinedKernel
    : public kernel_detail::RowKernel<CombinedProtocol, CombinedKernel> {
 public:
  using RowKernel::RowKernel;

 private:
  friend RowKernel;

  template <typename ExpostSource>
  void fill_row_over(const CongestionGame& game, const LatencyContext& ctx,
                     StrategyId from, std::span<double> out,
                     const ExpostSource& expost) const {
    // Mirrors CombinedProtocol::fill_move_probabilities: per entry, the
    // exact values the two move_probability_cached cores return, combined
    // as p·explore + (1−p)·imitate in the same order. The exploration core
    // returns sample_prob * 0.0 (== +0.0) for non-improving targets, so
    // its select writes 0.0 exactly like the imitation-style cases. The
    // cores' per-pair constants (β, ℓ_min, damping, ν, d) are hoisted once
    // per row: the same doubles every pair, so hoisting changes no bit.
    const ImitationParams& ip = protocol_->imitation().params();
    const ExplorationParams& ep = protocol_->exploration().params();
    const double p_explore = protocol_->p_explore();
    const double one_minus_p = 1.0 - p_explore;
    const std::span<const std::int64_t> counts = ctx.state().counts();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const double l_from = ctx.strategy_latency(from);
    // Imitation core constants (ImitationProtocol::move_probability_cached).
    const std::int64_t v = ip.virtual_agents;
    const std::int64_t pool =
        game.num_players() + v * game.num_strategies() -
        (ip.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
    const double nu = ip.nu_cutoff ? ip.nu_override.value_or(game.nu()) : 0.0;
    const double d =
        ip.damping ? ip.elasticity_override.value_or(game.elasticity()) : 1.0;
    const double i_lambda_over_d = ip.lambda / d;
    // Exploration core constants (ExplorationProtocol::move_probability_cached).
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

static_assert(ProtocolKernel<VirtualKernel>);
static_assert(ProtocolKernel<ImitationKernel>);
static_assert(ProtocolKernel<ExplorationKernel>);
static_assert(ProtocolKernel<CombinedKernel>);

/// Resolves a type-erased Protocol to its concrete kernel and invokes
/// `f(kernel)` — THE frontend/kernel boundary: one dynamic_cast chain per
/// run (or per standalone draw), never per round. `force_virtual` pins the
/// VirtualKernel adapter regardless of the dynamic type (the
/// reference-oracle and virtual-frontend audit paths).
template <typename F>
decltype(auto) dispatch_protocol_kernel(const Protocol& protocol,
                                        bool force_virtual, F&& f) {
  if (!force_virtual) {
    if (const auto* imitation =
            dynamic_cast<const ImitationProtocol*>(&protocol)) {
      return f(ImitationKernel(*imitation));
    }
    if (const auto* exploration =
            dynamic_cast<const ExplorationProtocol*>(&protocol)) {
      return f(ExplorationKernel(*exploration));
    }
    if (const auto* combined =
            dynamic_cast<const CombinedProtocol*>(&protocol)) {
      return f(CombinedKernel(*combined));
    }
  }
  return f(VirtualKernel(protocol));
}

}  // namespace cid
