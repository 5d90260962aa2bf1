// tournament.hpp — tournament-pivoting kernels (the preprocessing step of
// TSLU, paper Section II).
//
// Each node of the reduction tree plays a "match": Gaussian elimination with
// partial pivoting on the stacked candidate rows elects the b best pivot
// rows, which advance to the next round. Candidates carry the ORIGINAL row
// values (the arrow notation's f(A) returns permuted rows of A, not U) plus
// their global row indices so the final permutation can be reconstructed.
#pragma once

#include <vector>

#include "lapack/getrf.hpp"
#include "matrix/matrix.hpp"
#include "matrix/permutation.hpp"

namespace camult::core {

/// A set of <= b candidate pivot rows surviving a tournament round.
struct Candidates {
  Matrix values;               ///< r x b candidate rows (original values)
  std::vector<idx> row_index;  ///< global row index of each candidate row
  /// Packed LU factors (getf2 layout) of the stacked rows this node
  /// eliminated, restricted to its top r x b block. Only consumed at the
  /// root, where it provides L_KK / U_KK for free.
  Matrix lu_top;
};

/// Leaf match: GEPP on a copy of `block` (rows of the panel starting at
/// global row `row_offset`); elects min(b, block.rows()) pivot rows. The
/// copy is the only one: it lives in a slab leased from the calling
/// thread's blas::ScratchBuffer pool, and the winners' original values are
/// gathered from `block` itself.
Candidates tournament_leaf(
    ConstMatrixView block, idx row_offset, idx b,
    lapack::LuPanelKernel kernel = lapack::LuPanelKernel::Recursive);

/// Internal match: stack the candidate sets and run GEPP on a pooled copy
/// of the stack; elects min(b, total rows) pivot rows. `sources` must be
/// non-empty.
Candidates tournament_combine(
    const std::vector<const Candidates*>& sources, idx b,
    lapack::LuPanelKernel kernel = lapack::LuPanelKernel::Recursive);

/// Convert the winners into a LAPACK-style swap sequence over the panel:
/// swap step k brings winner k (global row winners[k]) to row k. The
/// sequence accounts for earlier swaps displacing rows.
PivotVector winners_to_pivots(const std::vector<idx>& winners, idx panel_rows);

/// Input screening for the health monitor: largest finite magnitude in
/// `panel` and whether any entry is non-finite. Runs on the pre-mutation
/// panel (the tournament only reads it), so the verdict describes the
/// actual input.
struct PanelScreen {
  double absmax = 0.0;  ///< max |finite entry|; 0 for an all-zero panel
  bool nonfinite = false;
};
PanelScreen screen_panel(ConstMatrixView panel);
/// The screen of a matrix from the screens of row blocks that partition it
/// (OR of nonfinite, max of absmax). Both are order-independent, so the
/// result equals screen_panel of the whole matrix bit for bit.
PanelScreen fold_screens(const std::vector<PanelScreen>& parts);

/// Degeneracy check on a packed LU block (getf2 layout — U on and above the
/// diagonal): max |U| over the leading `b` columns and whether any diagonal
/// entry is exactly zero. Applied to the tournament root's lu_top this
/// tells, BEFORE the panel is overwritten, whether installing the
/// tournament's U_KK would divide by zero or exceed the growth limit.
struct RootCheck {
  double umax = 0.0;
  bool zero_pivot = false;
};
RootCheck check_packed_lu(ConstMatrixView lu, idx b);

}  // namespace camult::core
