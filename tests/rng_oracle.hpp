// Test-only oracle for Rng::binomial: the sampler as it stood before the
// draw-phase fast paths (the pow-free k = 0 accept in the inversion and
// the integer-threshold Bernoulli loop), kept verbatim. It runs on its
// own Xoshiro256pp, so a test can feed it the same seed as an Rng and
// assert that both return the same values and leave the same state.
//
// Do not optimise this file: its value is that it is the old code.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <math.h>  // lgamma_r (POSIX)

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid::oracle {

class ReferenceBinomial {
 public:
  explicit ReferenceBinomial(std::uint64_t seed) noexcept : gen_(seed) {}

  std::array<std::uint64_t, 4> state() const noexcept { return gen_.state(); }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    gen_.set_state(s);
  }

  double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  std::int64_t binomial(std::int64_t n, double p) {
    CID_ENSURE(n >= 0, "binomial requires n >= 0");
    if (n == 0) return 0;
    p = std::clamp(p, 0.0, 1.0);
    if (p == 0.0) return 0;
    if (p == 1.0) return n;

    // Exploit symmetry so the working probability is <= 1/2.
    if (p > 0.5) return n - binomial(n, 1.0 - p);

    const double mean = static_cast<double>(n) * p;
    if (n <= 32) {
      std::int64_t k = 0;
      for (std::int64_t i = 0; i < n; ++i) k += bernoulli(p) ? 1 : 0;
      return k;
    }
    if (mean < 12.0) return binomial_inversion(n, p);
    return binomial_btrs(n, p);
  }

 private:
  std::int64_t binomial_inversion(std::int64_t n, double p) {
    const double q = 1.0 - p;
    const double s = p / q;
    const double f0 = std::pow(q, static_cast<double>(n));
    for (;;) {
      double u = uniform();
      double f = f0;
      const std::int64_t cap =
          std::min<std::int64_t>(n, static_cast<std::int64_t>(
                                        static_cast<double>(n) * p + 64.0 +
                                        16.0 * std::sqrt(static_cast<double>(n) *
                                                         p * q)));
      for (std::int64_t k = 0; k <= cap; ++k) {
        if (u < f) return k;
        u -= f;
        f *= s * static_cast<double>(n - k) / static_cast<double>(k + 1);
      }
    }
  }

  std::int64_t binomial_btrs(std::int64_t n, double p) {
    const double nd = static_cast<double>(n);
    const double q = 1.0 - p;
    const double spq = std::sqrt(nd * p * q);
    const double b = 1.15 + 2.53 * spq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = nd * p + 0.5;
    const double v_r = 0.92 - 4.2 / b;
    const double alpha = (2.83 + 5.1 / b) * spq;
    const double lpq = std::log(p / q);
    const double m = std::floor((nd + 1.0) * p);

    auto lgamma1p = [](double x) {
      int sign = 0;
      return ::lgamma_r(x + 1.0, &sign);
    };
    const double h = lgamma1p(m) + lgamma1p(nd - m);

    for (;;) {
      double u = uniform() - 0.5;
      double v = uniform();
      double us = 0.5 - std::abs(u);
      double kd = std::floor((2.0 * a / us + b) * u + c);
      if (kd < 0.0 || kd > nd) continue;
      if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(kd);
      v = std::log(v * alpha / (a / (us * us) + b));
      const double t =
          h - lgamma1p(kd) - lgamma1p(nd - kd) + (kd - m) * lpq;
      if (v <= t) return static_cast<std::int64_t>(kd);
    }
  }

  Xoshiro256pp gen_;
};

}  // namespace cid::oracle
