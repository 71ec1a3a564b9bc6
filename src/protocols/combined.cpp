#include "protocols/combined.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace cid {

CombinedProtocol::CombinedProtocol(ImitationParams imitation,
                                   ExplorationParams exploration,
                                   double p_explore)
    : imitation_(imitation),
      exploration_(exploration),
      p_explore_(p_explore) {
  CID_ENSURE(p_explore_ >= 0.0 && p_explore_ <= 1.0,
             "p_explore must be in [0, 1]");
}

std::string CombinedProtocol::name() const {
  std::ostringstream os;
  os << "combined(p_explore=" << p_explore_ << ", " << imitation_.name()
     << ", " << exploration_.name() << ")";
  return os.str();
}

}  // namespace cid
