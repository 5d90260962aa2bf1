#include "blas/level2.hpp"

#include <algorithm>
#include <cassert>

#include "blas/lanes.hpp"

namespace camult::blas {
namespace {

using detail::Lanes;

constexpr idx kDotCols = 4;

// dots[c] = A(:, c) . x for the NB columns at a (leading dimension lda),
// unit-stride x: one x load feeds NB independent lane accumulators.
template <int NB>
void dot_cols(idx m, const double* a, idx lda, const double* x,
              double* dots) {
  constexpr idx L = detail::kLanes;
  Lanes acc[NB];
  for (int c = 0; c < NB; ++c) acc[c] = Lanes{};
  const idx mv = m - m % L;
  Lanes xv;
  Lanes av;
  for (idx i = 0; i < mv; i += L) {
    detail::load_lanes(xv, x + i);
    for (int c = 0; c < NB; ++c) {
      detail::load_lanes(av, a + c * lda + i);
      acc[c] += av * xv;
    }
  }
  if (mv < m) {
    detail::load_lanes_tail(xv, x + mv, m - mv);
    for (int c = 0; c < NB; ++c) {
      detail::load_lanes_tail(av, a + c * lda + mv, m - mv);
      acc[c] += av * xv;
    }
  }
  for (int c = 0; c < NB; ++c) dots[c] = detail::reduce_lanes(acc[c]);
}

using DotColsFn = void (*)(idx, const double*, idx, const double*, double*);
constexpr DotColsFn kDotColsFns[kDotCols] = {&dot_cols<1>, &dot_cols<2>,
                                             &dot_cols<3>, &dot_cols<4>};

}  // namespace

void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          idx incx, double beta, double* y, idx incy) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx ylen = (trans == Trans::NoTrans) ? m : n;

  if (beta == 0.0) {
    for (idx i = 0; i < ylen; ++i) y[i * incy] = 0.0;
  } else if (beta != 1.0) {
    for (idx i = 0; i < ylen; ++i) y[i * incy] *= beta;
  }
  if (alpha == 0.0 || m == 0 || n == 0) return;

  if (trans == Trans::NoTrans) {
    // y += alpha * A * x, column by column (stride-1 on A).
    for (idx j = 0; j < n; ++j) {
      const double t = alpha * x[j * incx];
      if (t == 0.0) continue;
      const double* col = a.col_ptr(j);
      if (incy == 1) {
        for (idx i = 0; i < m; ++i) y[i] += t * col[i];
      } else {
        for (idx i = 0; i < m; ++i) y[i * incy] += t * col[i];
      }
    }
  } else {
    // y_j += alpha * dot(A(:,j), x), term i in lane i % kLanes, so no dot
    // product is one serial chain of adds.
    if (incx == 1) {
      for (idx j = 0; j < n; j += kDotCols) {
        const idx nb = std::min<idx>(kDotCols, n - j);
        double dots[kDotCols];
        kDotColsFns[static_cast<std::size_t>(nb - 1)](m, a.col_ptr(j), a.ld(),
                                                      x, dots);
        for (idx c = 0; c < nb; ++c) y[(j + c) * incy] += alpha * dots[c];
      }
      return;
    }
    constexpr idx L = detail::kLanes;
    const idx mv = m - m % L;
    for (idx j = 0; j < n; ++j) {
      const double* col = a.col_ptr(j);
      double acc[L] = {};
      for (idx i = 0; i < mv; i += L) {
        for (idx r = 0; r < L; ++r) acc[r] += col[i + r] * x[(i + r) * incx];
      }
      for (idx i = mv; i < m; ++i) acc[i - mv] += col[i] * x[i * incx];
      y[j * incy] += alpha * detail::reduce_lanes(acc);
    }
  }
}

void ger(double alpha, const double* x, idx incx, const double* y, idx incy,
         MatrixView a) {
  if (alpha == 0.0) return;
  const idx m = a.rows();
  const idx n = a.cols();
  for (idx j = 0; j < n; ++j) {
    const double t = alpha * y[j * incy];
    if (t == 0.0) continue;
    double* col = a.col_ptr(j);
    if (incx == 1) {
      for (idx i = 0; i < m; ++i) col[i] += t * x[i];
    } else {
      for (idx i = 0; i < m; ++i) col[i] += t * x[i * incx];
    }
  }
}

void trsv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x,
          idx incx) {
  assert(a.rows() == a.cols());
  const idx n = a.rows();
  const bool unit = (diag == Diag::Unit);

  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Lower) {
      // Forward substitution.
      for (idx j = 0; j < n; ++j) {
        if (!unit) x[j * incx] /= a(j, j);
        const double t = x[j * incx];
        for (idx i = j + 1; i < n; ++i) x[i * incx] -= t * a(i, j);
      }
    } else {
      // Backward substitution.
      for (idx j = n - 1; j >= 0; --j) {
        if (!unit) x[j * incx] /= a(j, j);
        const double t = x[j * incx];
        for (idx i = 0; i < j; ++i) x[i * incx] -= t * a(i, j);
      }
    }
  } else {
    if (uplo == Uplo::Lower) {
      // Solve A^T x = b with A lower => backward over columns of A.
      for (idx j = n - 1; j >= 0; --j) {
        double s = x[j * incx];
        for (idx i = j + 1; i < n; ++i) s -= a(i, j) * x[i * incx];
        x[j * incx] = unit ? s : s / a(j, j);
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        double s = x[j * incx];
        for (idx i = 0; i < j; ++i) s -= a(i, j) * x[i * incx];
        x[j * incx] = unit ? s : s / a(j, j);
      }
    }
  }
}

void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x,
          idx incx) {
  assert(a.rows() == a.cols());
  const idx n = a.rows();
  const bool unit = (diag == Diag::Unit);

  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        // x_i (i<j) accumulate contributions of x_j before x_j is scaled.
        const double t = x[j * incx];
        if (t != 0.0) {
          for (idx i = 0; i < j; ++i) x[i * incx] += t * a(i, j);
        }
        if (!unit) x[j * incx] = t * a(j, j);
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        const double t = x[j * incx];
        if (t != 0.0) {
          for (idx i = j + 1; i < n; ++i) x[i * incx] += t * a(i, j);
        }
        if (!unit) x[j * incx] = t * a(j, j);
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        double s = unit ? x[j * incx] : x[j * incx] * a(j, j);
        for (idx i = 0; i < j; ++i) s += a(i, j) * x[i * incx];
        x[j * incx] = s;
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        double s = unit ? x[j * incx] : x[j * incx] * a(j, j);
        for (idx i = j + 1; i < n; ++i) s += a(i, j) * x[i * incx];
        x[j * incx] = s;
      }
    }
  }
}

}  // namespace camult::blas
