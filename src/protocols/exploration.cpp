#include "protocols/exploration.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace cid {

ExplorationProtocol::ExplorationProtocol(ExplorationParams params)
    : params_(params) {
  CID_ENSURE(params_.lambda > 0.0 && params_.lambda <= 1.0,
             "lambda must be in (0, 1]");
  if (params_.beta_override) {
    CID_ENSURE(*params_.beta_override > 0.0, "beta override must be > 0");
  }
  if (params_.lmin_override) {
    CID_ENSURE(*params_.lmin_override > 0.0, "lmin override must be > 0");
  }
}

std::string ExplorationProtocol::name() const {
  std::ostringstream os;
  os << "exploration(lambda=" << params_.lambda << ")";
  return os.str();
}

}  // namespace cid
