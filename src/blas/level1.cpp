#include "blas/level1.hpp"

#include <cmath>
#include <limits>

#include "blas/lanes.hpp"

namespace camult::blas {

idx iamax(idx n, const double* x, idx incx) {
  if (n <= 0) return -1;
  idx best = 0;
  double best_val = std::abs(x[0]);
  for (idx i = 1; i < n; ++i) {
    const double v = std::abs(x[i * incx]);
    if (v > best_val) {
      best_val = v;
      best = i;
    }
  }
  return best;
}

void swap(idx n, double* x, idx incx, double* y, idx incy) {
  for (idx i = 0; i < n; ++i) {
    std::swap(x[i * incx], y[i * incy]);
  }
}

void scal(idx n, double alpha, double* x, idx incx) {
  if (incx == 1) {
    for (idx i = 0; i < n; ++i) x[i] *= alpha;
  } else {
    for (idx i = 0; i < n; ++i) x[i * incx] *= alpha;
  }
}

void axpy(idx n, double alpha, const double* x, idx incx, double* y,
          idx incy) {
  if (alpha == 0.0) return;
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) y[i] += alpha * x[i];
  } else {
    for (idx i = 0; i < n; ++i) y[i * incy] += alpha * x[i * incx];
  }
}

double dot(idx n, const double* x, idx incx, const double* y, idx incy) {
  double s = 0.0;
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) s += x[i] * y[i];
  } else {
    for (idx i = 0; i < n; ++i) s += x[i * incx] * y[i * incy];
  }
  return s;
}

namespace {

// The scaled sum of squares (dnrm2 before LAPACK 3.10): safe for any finite
// input, at the price of a division per element.
double nrm2_scaled(idx n, const double* x, idx incx) {
  double scale = 0.0;
  double ssq = 1.0;
  for (idx i = 0; i < n; ++i) {
    const double v = std::abs(x[i * incx]);
    if (v == 0.0) continue;
    if (scale < v) {
      const double r = scale / v;
      ssq = 1.0 + ssq * r * r;
      scale = v;
    } else {
      const double r = v / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

// A plain sum of squares is as good as the scaled one when it lands at or
// above this: no square overflowed (the sum is finite), and squares that
// underflowed lose at most 2^-1074 each, which n of them cannot lift to an
// ulp of a sum this large.
constexpr double kNrm2SafeMin =
    std::numeric_limits<double>::min() / std::numeric_limits<double>::epsilon();

}  // namespace

double nrm2(idx n, const double* x, idx incx) {
  // Fast path: the sum of squares in detail::kLanes accumulators. A sum
  // outside [kNrm2SafeMin, DBL_MAX] (overflow, all-tiny or zero input, NaN,
  // Inf) is thrown away and the scaled loop decides, so those cases return
  // exactly what it returns.
  constexpr idx L = detail::kLanes;
  const idx nv = n - n % L;
  double ssq = 0.0;
  if (incx == 1) {
    detail::Lanes acc{};
    detail::Lanes v;
    for (idx i = 0; i < nv; i += L) {
      detail::load_lanes(v, x + i);
      acc += v * v;
    }
    if (nv < n) {
      detail::load_lanes_tail(v, x + nv, n - nv);
      acc += v * v;
    }
    ssq = detail::reduce_lanes(acc);
  } else {
    double acc[L] = {};
    for (idx i = 0; i < n; ++i) {
      const double v = x[i * incx];
      acc[i % L] += v * v;
    }
    ssq = detail::reduce_lanes(acc);
  }
  if (ssq >= kNrm2SafeMin && ssq <= std::numeric_limits<double>::max()) {
    return std::sqrt(ssq);
  }
  return nrm2_scaled(n, x, incx);
}

void copy(idx n, const double* x, idx incx, double* y, idx incy) {
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) y[i] = x[i];
  } else {
    for (idx i = 0; i < n; ++i) y[i * incy] = x[i * incx];
  }
}

double asum(idx n, const double* x, idx incx) {
  double s = 0.0;
  for (idx i = 0; i < n; ++i) s += std::abs(x[i * incx]);
  return s;
}

}  // namespace camult::blas
