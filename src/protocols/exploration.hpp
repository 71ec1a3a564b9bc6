// EXPLORATION PROTOCOL (paper §6, Protocol 2).
//
// Each player samples a *strategy* uniformly at random (1/|P| each) instead
// of a player — so unused strategies remain reachable — and migrates on any
// strict improvement with probability
//
//     μ_PQ = min{ 1, λ · (|P|·ℓ_min)/(β·n) · (ℓ_P − ℓ_Q(x+1_Q−1_P))/ℓ_P }.
//
// The damping differs from imitation's 1/d because uniform sampling can
// direct an expected load increase far exceeding a resource's current load;
// β (max slope over integer loads) and ℓ_min (cheapest non-empty resource)
// bound the worst case instead. Under this protocol the dynamics converge
// to exact Nash equilibria (Theorem 15) — at the price of much slower
// convergence (bench E11/E12 quantify the gap).
#pragma once

#include <optional>

#include "protocols/protocol.hpp"

namespace cid {

struct ExplorationParams {
  double lambda = 0.25;

  /// Overrides for game-derived damping ingredients (testing / ablations).
  std::optional<double> beta_override;   // max slope β
  std::optional<double> lmin_override;   // ℓ_min = min_e ℓ_e(1)
};

class ExplorationProtocol final : public Protocol {
 public:
  explicit ExplorationProtocol(ExplorationParams params = {});

  std::string name() const override;

  const ExplorationParams& params() const noexcept { return params_; }

 private:
  ExplorationParams params_;
};

}  // namespace cid
