// IMITATION PROTOCOL (paper §2.3, Protocol 1).
//
// Each round, every player on path P samples another player uniformly at
// random; if the sampled player's path Q would improve the sampler's latency
// by more than ν (evaluated ex post, ℓ_P(x) > ℓ_Q(x+1_Q−1_P) + ν), the
// sampler migrates with probability
//
//     μ_PQ = (λ/d) · (ℓ_P(x) − ℓ_Q(x+1_Q−1_P)) / ℓ_P(x).
//
// The 1/d damping (d = elasticity bound) is what prevents concurrent
// overshooting (§2.3's two-link example); the ν cutoff controls
// probabilistic effects on nearly-empty resources. Both are individually
// switchable here because the paper itself discusses dropping them
// (Theorem 9 drops ν for large singleton games; bench E6 ablates 1/d).
#pragma once

#include <optional>

#include "protocols/protocol.hpp"

namespace cid {

/// Whether the uniformly sampled player may be the sampler itself.
/// The paper says "samples *another* player", i.e. kExcludeSelf (target on Q
/// with probability x_Q/(n−1)); kIncludeSelf (x_Q/n) is offered because some
/// follow-up work uses it and the difference is O(1/n).
enum class SamplingConvention { kExcludeSelf, kIncludeSelf };

struct ImitationParams {
  /// Migration-probability scale λ. The paper's proofs require a small
  /// constant (λ ≤ 1/512 suffices everywhere); empirically the dynamics are
  /// well-behaved for much larger λ — bench E6 locates the threshold.
  double lambda = 0.25;

  /// Divide μ by the elasticity bound d (Protocol 1). Disable only for the
  /// overshooting ablation.
  bool damping = true;

  /// Require anticipated gain > ν (Protocol 1). Theorem 9 justifies
  /// dropping this for large singleton games, turning imitation-stable
  /// convergence into Nash convergence.
  bool nu_cutoff = true;

  SamplingConvention convention = SamplingConvention::kExcludeSelf;

  /// §6's second alternative for restoring innovativeness: add `v` virtual
  /// agents to every strategy, so the probability of sampling a strategy
  /// never vanishes (a player on P samples Q with probability
  /// (x_Q + v)/(n − 1 + v·|P|)). With v > 0 the dynamics can rediscover
  /// unused strategies and converge to Nash equilibria in the long run.
  /// (We implement the sampling effect; the paper's base-load latency shift
  /// is a constant reparameterization of the latency functions and is left
  /// to the caller.)
  std::int64_t virtual_agents = 0;

  /// Overrides for the game-derived parameters (testing / ablations).
  std::optional<double> nu_override;
  std::optional<double> elasticity_override;
};

/// λ small enough for every constant in the paper's proofs.
inline constexpr double kStrictLambda = 1.0 / 512.0;

class ImitationProtocol final : public Protocol {
 public:
  explicit ImitationProtocol(ImitationParams params = {});

  std::string name() const override;

  const ImitationParams& params() const noexcept { return params_; }

 private:
  ImitationParams params_;
};

}  // namespace cid
