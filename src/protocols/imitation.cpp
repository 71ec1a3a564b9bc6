#include "protocols/imitation.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace cid {

ImitationProtocol::ImitationProtocol(ImitationParams params)
    : params_(params) {
  CID_ENSURE(params_.lambda > 0.0 && params_.lambda <= 1.0,
             "lambda must be in (0, 1]");
  if (params_.nu_override) {
    CID_ENSURE(*params_.nu_override >= 0.0, "nu override must be >= 0");
  }
  if (params_.elasticity_override) {
    CID_ENSURE(*params_.elasticity_override >= 1.0,
               "elasticity override must be >= 1");
  }
  CID_ENSURE(params_.virtual_agents >= 0,
             "virtual agent count must be >= 0");
}

std::string ImitationProtocol::name() const {
  std::ostringstream os;
  os << "imitation(lambda=" << params_.lambda;
  if (!params_.damping) os << ", no-damping";
  if (!params_.nu_cutoff) os << ", no-nu";
  if (params_.virtual_agents > 0) {
    os << ", virtual=" << params_.virtual_agents;
  }
  os << ")";
  return os.str();
}

}  // namespace cid
