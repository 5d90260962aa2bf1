// lanes.hpp — internal: the fixed-order eight-lane accumulation shared by
// the blas kernels that sum long dot products (gemm_inner, nrm2, gemv with
// Trans). Term p of a sum goes to lane p % kLanes, and the lanes are folded
// in one fixed order, so a result depends only on the operands, never on the
// ISA the lanes were vectorised for or on how a caller tiled the work.
#pragma once

#include <cstring>

#include "matrix/view.hpp"

namespace camult::blas::detail {

inline constexpr idx kLanes = 8;

/// Eight lanes as a GCC/Clang vector extension rather than intrinsics: one
/// zmm register under AVX-512, two ymm under AVX2, four xmm on the portable
/// baseline, with the same per-lane arithmetic in every case. Lanes travel
/// through memcpy and references only, never by value across a call, so no
/// vector calling convention is involved.
typedef double Lanes __attribute__((vector_size(kLanes * sizeof(double))));

inline void load_lanes(Lanes& v, const double* p) {
  std::memcpy(&v, p, sizeof(Lanes));
}

/// The first count (< kLanes) lanes from p, the rest zero.
inline void load_lanes_tail(Lanes& v, const double* p, idx count) {
  v = Lanes{};
  std::memcpy(&v, p, static_cast<std::size_t>(count) * sizeof(double));
}

/// Fold lanes (r, r + 4), then (0, 2) and (1, 3), then the two halves.
inline double reduce_lanes(const double* l) {
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

inline double reduce_lanes(const Lanes& v) {
  double l[kLanes];
  std::memcpy(l, &v, sizeof(Lanes));
  return reduce_lanes(l);
}

}  // namespace camult::blas::detail
