// Protocol interface consumed by the dynamics engines.
//
// Both of the paper's protocols are two-stage (sample a target, then accept
// with a gain-dependent probability), executed independently by every player
// in parallel. For simulation, only the *marginal* per-player law matters:
//
//   p_PQ(x) = P[a fixed player on P ends the round on Q | state x],
//
// which is what a protocol kernel's fill_row writes for every destination Q
// of one origin P (protocols/kernel.hpp). The per-player engine draws each
// player's destination from this categorical directly (exactly the protocol
// law, with the two sampling stages marginalized out); the aggregate engine
// draws the whole origin-strategy cohort as one multinomial — identical
// joint law, since players act independently given x.
#pragma once

#include <string>

#include "game/congestion_game.hpp"
#include "game/latency_context.hpp"
#include "game/state.hpp"

namespace cid {

/// Per-round state summary the aggregate engine hands to a kernel's
/// row_provably_zero so a protocol can prove a whole origin row is zero
/// without filling it. Computed once per round in O(k) (see
/// compute_row_bounds in dynamics/engine.hpp).
struct RowBounds {
  /// min_{Q : x_Q > 0} ℓ_Q(x) (+inf when the support is empty).
  double min_support_latency = 0.0;
  /// min over ALL strategies of ℓ_Q(x).
  double min_latency = 0.0;
  /// LatencyContext::plus_dominates(): ℓ_e(x_e+1) >= ℓ_e(x_e) everywhere,
  /// hence ℓ_Q(x+1_Q−1_P) >= ℓ_Q(x) for every pair (term-by-term float
  /// dominance; IEEE rounding is monotone). Every row_provably_zero must
  /// return false when this is false — the bounds prove nothing then.
  bool plus_dominates = false;
};

/// A protocol as the tools and the scenario registry hold it: a
/// type-erased handle over one of the concrete protocol classes, whose
/// public params() (and p_explore() for the combined protocol) fully
/// determine its formula. The formula itself lives once, in the
/// protocol's kernel row body (protocols/kernel.hpp); the engines resolve
/// a Protocol to that kernel once per run (dispatch_protocol_kernel).
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;
};

}  // namespace cid
