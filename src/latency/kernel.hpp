// LatencyKernel concept + LatencyTable: devirtualized latency evaluation
// for the round kernels' hot loops.
//
// The batched engines evaluate ℓ_e at integer loads millions of times per
// run, and every call used to be a virtual LatencyFunction::value dispatch —
// exactly the indirection that blocks the optimizer from vectorizing the
// LatencyContext refresh. LatencyTable flattens a game's latency functions
// into one contiguous parameter array at context-reset time (a cold path):
// each resource is classified once by dynamic_cast into constant / monomial
// / polynomial (with one level of ScaledLatency recognized as a divisor),
// and the hot-path value() is a non-virtual switch over plain arithmetic —
// polynomial coefficients live in a single shared vector, Horner-evaluated
// in place. Unrecognized function types fall back to the original virtual
// call per entry, so the table is complete for ANY latency function.
//
// Bitwise contract: value(e, x) reproduces game.latency(e).value(x)
// bit-for-bit — same expressions, same evaluation order, including
// ScaledLatency's x/n pre-division (the always-applied divisor defaults to
// 1.0, and x / 1.0 == x bitwise). The only delta is deliberate: the
// argument-range CID_ENSUREs of the virtual implementations are demoted to
// CID_DCHECK here (hot loop; the engines only ever pass loads >= 0).
//
// CID_SIMD (CMake option, default ON) gates every use of this fast path:
// building with -DCID_SIMD=OFF keeps the table compiled but routes all
// evaluation back through the virtual functions, which CI uses to prove
// the two paths byte-identical end to end.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "latency/latency.hpp"
#include "util/assert.hpp"

#ifndef CID_SIMD
#define CID_SIMD 1
#endif

namespace cid {

/// Whether latency evaluation goes through the LatencyTable (CID_SIMD
/// != 0). The latency contexts branch on this `if constexpr`, so an =0
/// build evaluates every ℓ_e through the virtual latency functions.
inline constexpr bool kSimdCompiled = CID_SIMD != 0;

/// Anything that can answer ℓ_e(x) for a dense resource index without
/// virtual dispatch. LatencyTable models it; a custom backend (e.g. a
/// fluid-limit engine with closed-form latencies) can substitute its own.
template <typename K>
concept LatencyKernel = requires(const K k, std::size_t e, double x) {
  { k.value(e, x) } -> std::same_as<double>;
  { k.size() } -> std::convertible_to<std::size_t>;
};

class LatencyTable {
 public:
  /// Drops every entry (the table can be rebuilt against a new game).
  void clear() noexcept {
    entries_.clear();
    coef_.clear();
  }

  void reserve(std::size_t m) { entries_.reserve(m); }

  /// Appends the next resource (index size()) backed by `fn`, classifying
  /// it into a flat fast-path entry. `fn` must outlive the table — opaque
  /// entries keep a pointer for the virtual fallback (the LatencyContexts
  /// already hold their game for the same duration).
  void add(const LatencyFunction& fn);

  std::size_t size() const noexcept { return entries_.size(); }

  /// ℓ_e(x), bitwise equal to the virtual fn.value(x) the entry was built
  /// from. Precondition (debug-checked only — hot loop): x >= 0.
  double value(std::size_t e, double x) const {
    const Entry& en = entries_[e];
    switch (en.kind) {
      case Kind::kConstant:
        return en.a;
      case Kind::kMonomial: {
        const double xx = x / en.divisor;
        CID_DCHECK(xx >= 0.0, "latency argument must be non-negative");
        if (en.b == 0.0) return en.a;
        return en.a * std::pow(xx, en.b);
      }
      case Kind::kPolynomial: {
        const double xx = x / en.divisor;
        CID_DCHECK(xx >= 0.0, "latency argument must be non-negative");
        // Horner in descending order — the exact loop
        // PolynomialLatency::value runs, over the shared coefficient pool.
        double acc = 0.0;
        const double* c = coef_.data() + en.offset;
        for (std::size_t i = en.len; i-- > 0;) acc = acc * xx + c[i];
        return acc;
      }
      case Kind::kOpaque:
        // Unrecognized type: the original virtual call (which applies any
        // scaling itself — opaque entries keep divisor at the neutral 1.0).
        return en.fn->value(x);
    }
    CID_ENSURE(false, "unreachable latency kind");
    return 0.0;
  }

 private:
  enum class Kind : std::uint8_t {
    kOpaque,
    kConstant,
    kMonomial,
    kPolynomial,
  };
  struct Entry {
    Kind kind = Kind::kOpaque;
    double a = 0.0;        // constant c / monomial coefficient
    double b = 0.0;        // monomial degree
    double divisor = 1.0;  // ScaledLatency n; x / 1.0 == x bitwise otherwise
    std::uint32_t offset = 0;  // polynomial slice [offset, offset+len) of coef_
    std::uint32_t len = 0;
    const LatencyFunction* fn = nullptr;  // opaque fallback target
  };

  std::vector<Entry> entries_;
  std::vector<double> coef_;  // every polynomial's coefficients, contiguous
};

static_assert(LatencyKernel<LatencyTable>);

}  // namespace cid
