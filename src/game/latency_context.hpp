// Per-round latency cache for the batched round kernel.
//
// One concurrent round evaluates ℓ_P(x) and ℓ_Q(x+1_Q−1_P) for every
// (origin, destination) pair — naively O(k²·|P|) virtual latency-function
// calls per round. All of those quantities are assembled from just three
// per-entity tables:
//
//   ell[e]      = ℓ_e(x_e)        (resource at its current congestion)
//   ell_plus[e] = ℓ_e(x_e + 1)    (resource with one extra player)
//   strat[p]    = ℓ_P(x)          (per-strategy sum of ell over P)
//
// LatencyContext computes the tables once per round — O(m + Σ_P |P|)
// latency-function evaluations on a full reset, only the entries a
// migration batch actually touched on an incremental refresh — and answers
// every per-pair query from the cache. expost_latency walks the two sorted
// resource lists in a linear merge reading cached values only, so a pair
// costs O(|P|+|Q|) array reads and ZERO latency-function calls (O(1) for
// singleton games).
//
// Bitwise contract: every accessor reproduces the corresponding
// CongestionGame method exactly — same function evaluations, same
// floating-point accumulation order — so the batched kernel's probability
// rows are bit-identical to the per-pair reference path (enforced by
// tests/test_engine_oracle.cpp). This is why expost_latency re-walks the
// merge instead of using the algebraically equal ℓ_Q(x) + Σ_{e∈Q\P} Δ_e
// form: the delta form rounds differently. expost_table is the batched
// form of the same walk: one per-origin table whose per-destination sums
// add the walk's doubles in the walk's order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "game/congestion_game.hpp"
#include "game/state.hpp"
#include "latency/kernel.hpp"

namespace cid {

class LatencyContext {
 public:
  /// Full rebuild against (game, x). Call once per run (or whenever the
  /// state changed in ways not reported through refresh()).
  void reset(const CongestionGame& game, const State& x);

  /// Incremental rebuild after `x` changed: `touched` lists the resources a
  /// migration batch may have touched (duplicates and net-zero changes
  /// welcome — entries whose congestion is unchanged are skipped against
  /// the recorded load). Only touched resources are re-evaluated and only
  /// strategies containing one of them get their ℓ_P sum re-derived.
  void refresh(std::span<const Resource> touched);

  bool ready() const noexcept { return game_ != nullptr; }
  const CongestionGame& game() const noexcept { return *game_; }
  const State& state() const noexcept { return *x_; }

  /// ℓ_e(x_e) — bitwise equal to game.resource_latency(x, e).
  double resource_latency(Resource e) const noexcept {
    return ell_[static_cast<std::size_t>(e)];
  }

  /// ℓ_e(x_e + 1).
  double resource_latency_plus(Resource e) const noexcept {
    return ell_plus_[static_cast<std::size_t>(e)];
  }

  /// The full ℓ_e(x_e) table, indexed by dense resource id — contiguous,
  /// for the SIMD row kernels (protocols/kernel.hpp singleton fast paths)
  /// that turn the per-pair ex-post merge into plain array reads.
  std::span<const double> resource_latencies() const noexcept { return ell_; }

  /// The full ℓ_e(x_e + 1) table (see resource_latencies()).
  std::span<const double> resource_latencies_plus() const noexcept {
    return ell_plus_;
  }

  /// ℓ_P(x) — bitwise equal to game.strategy_latency(x, p).
  double strategy_latency(StrategyId p) const noexcept {
    return strat_[static_cast<std::size_t>(p)];
  }

  /// ℓ⁺_P(x) = ℓ_P(x + 1_P) — bitwise equal to game.plus_latency(x, p):
  /// same per-resource evaluations (the ell_plus table), same accumulation
  /// order. O(|P|) cache reads, zero latency-function calls.
  double plus_latency(StrategyId p) const noexcept;

  /// True iff ℓ_e(x_e + 1) >= ℓ_e(x_e) for EVERY resource at the cached
  /// loads. When this holds, ex-post latencies dominate current latencies
  /// term-by-term (IEEE rounding is monotone, so the dominance survives
  /// the float summation), which is what makes the engines'
  /// provably-zero-row pruning sound. Maintained incrementally: O(1) to
  /// query. A game with a decreasing latency function simply reports
  /// false and pruning disables itself.
  bool plus_dominates() const noexcept { return non_monotone_ == 0; }

  /// ℓ_Q(x + 1_Q − 1_P) — bitwise equal to game.expost_latency(x, from,
  /// to). Linear merge of the two sorted strategies over cached values.
  double expost_latency(StrategyId from, StrategyId to) const noexcept;

  /// The per-origin ex-post table behind the network row kernels
  /// (protocols/kernel.hpp): `table` becomes the ell_plus table with
  /// `from`'s resources overwritten by their ell values, and the returned
  /// span views it. Summing that table over Q's resources in stored order,
  /// starting from 0.0, is then bitwise equal to expost_latency(from, Q)
  /// for every Q: the merge walk adds ell[e] exactly for the resources
  /// shared with `from` and ell_plus[e] for the rest, in the same order,
  /// and for Q == from it sums ell over `from`, which is ℓ_P(x). One O(m)
  /// build per origin replaces a merge walk per (origin, destination)
  /// pair. `table` keeps its capacity, so a caller that reuses it (one
  /// per thread) allocates only when m grows.
  std::span<const double> expost_table(StrategyId from,
                                       std::vector<double>& table) const;

  /// Latency-function evaluations performed since reset (a plain counter:
  /// the engines surface it as evals/round observability at zero
  /// steady-state cost).
  std::int64_t latency_evals() const noexcept { return evals_; }

 private:
  void recompute_resource(std::size_t e);

  const CongestionGame* game_ = nullptr;
  const State* x_ = nullptr;
  LatencyTable table_;  // devirtualized ℓ_e evaluation (CID_SIMD fast path)
  std::vector<double> ell_;
  std::vector<double> ell_plus_;
  std::vector<double> strat_;
  std::vector<std::int64_t> load_;       // congestion the cache reflects
  std::vector<std::uint64_t> strat_epoch_;  // last refresh that re-summed p
  std::vector<Resource> fresh_;          // scratch: deduped touched list
  std::uint64_t epoch_ = 0;
  std::int64_t evals_ = 0;
  std::int64_t non_monotone_ = 0;        // resources with ℓ_e(x_e+1) < ℓ_e(x_e)
};

}  // namespace cid
