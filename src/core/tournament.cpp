#include "core/tournament.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "blas/pack.hpp"
#include "lapack/getf2.hpp"
#include "lapack/getrf.hpp"

namespace camult::core {
namespace {

// Elect pivots from a stack of candidate rows: GEPP on a scratch copy
// leased from the calling worker's buffer pool, then gather the winning
// rows (original values, read from `values`) and their indices.
Candidates elect(ConstMatrixView values, const std::vector<idx>& index,
                 idx b, lapack::LuPanelKernel kernel) {
  const idx rows = values.rows();
  const idx cols = values.cols();
  const idx k = std::min(b, rows);

  blas::ScratchBuffer buf(static_cast<std::size_t>(rows * cols));
  MatrixView scratch(buf.data(), rows, cols, rows);
  copy_into(values, scratch);
  PivotVector ipiv;
  // Zero pivots tolerated: the row order is still the GEPP order.
  if (kernel == lapack::LuPanelKernel::Recursive) {
    lapack::rgetf2(scratch, ipiv);
  } else {
    lapack::getf2(scratch, ipiv);
  }

  // Positions after applying the swap sequence: permuted[r] = original slot.
  Permutation perm = ipiv_to_permutation(ipiv, rows);

  Candidates out;
  out.values = Matrix(k, cols);
  out.row_index.resize(static_cast<std::size_t>(k));
  for (idx r = 0; r < k; ++r) {
    const idx src = perm[static_cast<std::size_t>(r)];
    for (idx j = 0; j < cols; ++j) out.values(r, j) = values(src, j);
    out.row_index[static_cast<std::size_t>(r)] =
        index[static_cast<std::size_t>(src)];
  }
  // Keep the LU factors of the winners (top k x cols of the factored stack).
  out.lu_top = Matrix(k, cols);
  copy_into(scratch.rows_range(0, k), out.lu_top.view());
  return out;
}

}  // namespace

Candidates tournament_leaf(ConstMatrixView block, idx row_offset, idx b,
                           lapack::LuPanelKernel kernel) {
  assert(!block.empty());
  std::vector<idx> index(static_cast<std::size_t>(block.rows()));
  for (idx i = 0; i < block.rows(); ++i) {
    index[static_cast<std::size_t>(i)] = row_offset + i;
  }
  return elect(block, index, b, kernel);
}

Candidates tournament_combine(const std::vector<const Candidates*>& sources,
                              idx b, lapack::LuPanelKernel kernel) {
  assert(!sources.empty());
  const idx cols = sources.front()->values.cols();
  idx total = 0;
  for (const Candidates* c : sources) total += c->values.rows();

  Matrix stacked(total, cols);
  std::vector<idx> index;
  index.reserve(static_cast<std::size_t>(total));
  idx row = 0;
  for (const Candidates* c : sources) {
    copy_into(c->values.view(),
              stacked.view().rows_range(row, c->values.rows()));
    index.insert(index.end(), c->row_index.begin(), c->row_index.end());
    row += c->values.rows();
  }
  return elect(stacked.view(), index, b, kernel);
}

PanelScreen screen_panel(ConstMatrixView panel) {
  PanelScreen s;
  for (idx j = 0; j < panel.cols(); ++j) {
    const double* col = panel.col_ptr(j);
    for (idx i = 0; i < panel.rows(); ++i) {
      const double v = col[i];
      if (!std::isfinite(v)) {
        s.nonfinite = true;
      } else if (std::abs(v) > s.absmax) {
        s.absmax = std::abs(v);
      }
    }
  }
  return s;
}

PanelScreen fold_screens(const std::vector<PanelScreen>& parts) {
  PanelScreen s;
  for (const PanelScreen& p : parts) {
    s.nonfinite = s.nonfinite || p.nonfinite;
    s.absmax = std::max(s.absmax, p.absmax);
  }
  return s;
}

RootCheck check_packed_lu(ConstMatrixView lu, idx b) {
  RootCheck c;
  const idx jmax = std::min(b, lu.cols());
  for (idx j = 0; j < jmax; ++j) {
    const idx imax = std::min(j + 1, lu.rows());
    for (idx i = 0; i < imax; ++i) {
      const double v = std::abs(lu(i, j));
      if (v > c.umax || std::isnan(v)) c.umax = v;
    }
    if (j < lu.rows() && lu(j, j) == 0.0) c.zero_pivot = true;
  }
  return c;
}

PivotVector winners_to_pivots(const std::vector<idx>& winners,
                              idx panel_rows) {
  // position_of[r] = current row of the panel row that started at r.
  // Only rows that move are tracked.
  std::unordered_map<idx, idx> position_of;
  auto pos = [&](idx original) {
    auto it = position_of.find(original);
    return it == position_of.end() ? original : it->second;
  };
  std::unordered_map<idx, idx> original_at;  // current row -> original row
  auto orig = [&](idx current) {
    auto it = original_at.find(current);
    return it == original_at.end() ? current : it->second;
  };

  PivotVector ipiv(winners.size());
  for (std::size_t k = 0; k < winners.size(); ++k) {
    const idx dst = static_cast<idx>(k);
    const idx src = pos(winners[k]);
    assert(src >= dst && src < panel_rows);
    (void)panel_rows;
    ipiv[k] = src;
    if (src != dst) {
      const idx orig_dst = orig(dst);
      const idx orig_src = orig(src);
      position_of[orig_dst] = src;
      position_of[orig_src] = dst;
      original_at[src] = orig_dst;
      original_at[dst] = orig_src;
    }
  }
  return ipiv;
}

}  // namespace camult::core
