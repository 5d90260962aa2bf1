#include "core/calu.hpp"

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "blas/blas.hpp"
#include "core/factor_driver.hpp"
#include "core/partition.hpp"
#include "core/tournament.hpp"
#include "core/tslu.hpp"
#include "lapack/getf2.hpp"
#include "lapack/laswp.hpp"

namespace camult::core {
// Named (not anonymous) so CaluAsync::Impl — whose type is declared in the
// public header — can derive from the driver over CaluAlgo without giving
// an external-linkage class an internal-linkage base.
namespace calu_impl {

using detail::add_tile_range;
using detail::DriverState;
using detail::tile_key;
using rt::AccessMode;
using rt::BlockAccess;
using rt::TaskKind;

// Key spaces for the dependency tracker: matrix tiles, tournament candidate
// slots, and the per-iteration pivot decision. The candidate-slot stride is
// derived from the real per-iteration slot bound (DriverState::key_stride)
// — a fixed stride would silently alias iteration k's keys with iteration
// k+1's once a panel produced more slots than the stride, corrupting the
// DAG. The iteration index `k` here is a KeyRing slot in windowed mode (the
// dep-key spaces wrap modulo window + 2 — see lookahead.hpp) and the global
// index otherwise; checked_key_offset throws instead of wrapping past the
// 2^59 per-space envelope, which keeps (1<<60) | (1<<61) | (1<<62) disjoint.
rt::BlockKey cand_key(idx k, idx slot, idx stride) {
  return (idx{1} << 60) + checked_key_offset(k, stride, slot);
}
rt::BlockKey piv_key(idx k) {
  return (idx{1} << 61) + checked_key_offset(k, 1, 0);
}
// One key per (iteration, leaf) packed L block; same stride bound as the
// candidate slots, so the spaces stay disjoint across iterations.
rt::BlockKey pack_key(idx k, idx slot, idx stride) {
  return (idx{1} << 62) + checked_key_offset(k, stride, slot);
}

// Per-iteration shared state, kept alive until the graph drains.
struct IterState {
  RowPartition part;             // panel row partition (panel-relative)
  std::vector<Candidates> slot;  // tournament slots
  PivotVector piv;               // panel-local swap sequence
  // Packed L block per leaf, built by the iteration's pack tasks and read
  // (concurrently) by its S tasks; an end-of-iteration task returns the
  // slabs to the buffer pool so iteration k+1's packs reuse them.
  std::vector<blas::PackedPanel> lpack;
  idx jb = 0;
  // The health monitor refactored this panel with full GEPP inside the
  // pivot task; the L tasks (whose work GEPP already did) become no-ops.
  // Plain bool: written by the pivot task, read by tasks ordered after it
  // through the panel-tile dependency edges.
  bool fell_back = false;
};

// Per-panel health verdict, single-writer (panel k's pivot task), read at
// collect after the graph drained.
struct PanelHealthSlot {
  double growth = 0.0;
  bool nonfinite = false;
  bool fell_back = false;
};

// The CALU policy of the shared right-looking driver (factor_driver.hpp).
// Task lambdas hold raw pointers into these members (result.ipiv,
// panel_info slots, IterStates); the driver never moves.
struct CaluAlgo {
  using Options = CaluOptions;
  using Result = CaluResult;

  CaluAlgo(DriverState& ctx, const CaluOptions& o) : C(ctx), opts(o) {
    result.ipiv.assign(static_cast<std::size_t>(C.k_total), 0);
    panel_info.assign(static_cast<std::size_t>(C.n_panels), 0);
    panel_health.assign(static_cast<std::size_t>(C.n_panels),
                        PanelHealthSlot{});
    iters.reserve(static_cast<std::size_t>(C.n_panels));
  }

  void submit_iteration(idx k);
  void submit_tail();
  void retire(idx k);
  void fold();

  DriverState& C;
  const CaluOptions& opts;
  CaluResult result;
  std::vector<idx> panel_info;
  std::vector<PanelHealthSlot> panel_health;
  std::vector<std::unique_ptr<IterState>> iters;
};

// Submit every task of panel iteration k (tournament, pivot, L, pack, U, S,
// pack release). Identical task bodies, priorities, and dependency structure
// whether the pump runs it eagerly (full-DAG) or throttled (windowed) — only
// the dep-key indices wrap through the KeyRing in windowed mode, which
// resolves to the same edges because the previous slot owner has retired.
void CaluAlgo::submit_iteration(idx k) {
  MatrixView a = C.a;
  const idx m = C.m;
  const idx n = C.n;
  const idx k_total = C.k_total;
  const idx b = C.b;
  const idx n_blocks = C.n_blocks;
  const idx m_blocks = C.m_blocks;
  const idx cand_stride = C.key_stride;
  const idx kr = C.ring.slot(k);  // dep-key iteration index
  const LookaheadPriorities& prio = C.prio;

  {
    const idx row0 = k * b;                        // panel top row
    const idx jb = std::min(b, k_total - row0);    // panel width
    const idx col0 = row0;                         // panel left column
    const idx panel_rows = m - row0;
    const idx kb = row0 / b;                       // block row/col index

    auto st = std::make_unique<IterState>();
    st->jb = jb;
    st->part = partition_panel_rows(panel_rows, b, opts.tr, jb);
    const idx leaves = st->part.count();
    st->slot.resize(static_cast<std::size_t>(leaves));
    if (opts.pack_trailing) st->lpack.resize(static_cast<std::size_t>(leaves));
    IterState* S = st.get();
    iters.push_back(std::move(st));

    MatrixView panel = a.block(row0, col0, panel_rows, jb);

    // --- Task P (leaves): tournament round 1.
    for (idx i = 0; i < leaves; ++i) {
      const idx lstart = S->part.start[static_cast<std::size_t>(i)];
      const idx lrows = S->part.rows[static_cast<std::size_t>(i)];
      std::vector<BlockAccess> acc;
      add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                     kb, AccessMode::Read);
      acc.push_back({cand_key(kr, i, cand_stride), AccessMode::Write});
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "leaf" + std::to_string(i);
      const lapack::LuPanelKernel kern = opts.leaf_kernel;
      C.add_task(acc, std::move(topts),
                 [S, panel, lstart, lrows, i, b, kern]() {
                   S->slot[static_cast<std::size_t>(i)] = tournament_leaf(
                       panel.block(lstart, 0, lrows, panel.cols()), lstart, b,
                       kern);
                 });
    }

    // --- Task P (tree nodes).
    for (const ReductionStep& step :
         reduction_schedule(static_cast<int>(leaves), opts.tree)) {
      std::vector<BlockAccess> acc;
      acc.push_back({cand_key(kr, step.sources.front(), cand_stride),
                     AccessMode::ReadWrite});
      for (std::size_t s = 1; s < step.sources.size(); ++s) {
        acc.push_back(
            {cand_key(kr, step.sources[s], cand_stride), AccessMode::Read});
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "node l" + std::to_string(step.level);
      std::vector<int> sources = step.sources;
      const lapack::LuPanelKernel kern = opts.leaf_kernel;
      C.add_task(acc, std::move(topts), [S, sources, b, kern]() {
        std::vector<const Candidates*> srcs;
        srcs.reserve(sources.size());
        for (int s : sources) {
          srcs.push_back(&S->slot[static_cast<std::size_t>(s)]);
        }
        Candidates combined = tournament_combine(srcs, b, kern);
        S->slot[static_cast<std::size_t>(sources.front())] =
            std::move(combined);
      });
    }

    // --- Task P (pivot placement): build the swap sequence, swap the panel
    // rows, install the root's packed LU as the top jb x jb block.
    {
      std::vector<BlockAccess> acc;
      acc.push_back({cand_key(kr, 0, cand_stride), AccessMode::Read});
      acc.push_back({piv_key(kr), AccessMode::Write});
      add_tile_range(acc, kb, m_blocks, kb, AccessMode::ReadWrite);
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "pivot";
      PivotVector* global_ipiv = &result.ipiv;
      idx* info_slot = &panel_info[static_cast<std::size_t>(k)];
      PanelHealthSlot* hslot = &panel_health[static_cast<std::size_t>(k)];
      const bool monitor = opts.monitor;
      const double growth_limit = opts.growth_limit;
      const lapack::LuPanelKernel kern = opts.leaf_kernel;
      C.add_task(acc, std::move(topts), [S, panel, row0, jb, global_ipiv,
                                         info_slot, hslot, monitor,
                                         growth_limit, kern]() {
        const Candidates& root = S->slot[0];
        // Health decision point: the tournament only READ the panel, and
        // the root's packed LU is exactly the U_KK about to be installed —
        // so a degenerate outcome (zero pivot / growth past the limit) is
        // known while a full-panel GEPP retry is still possible. A
        // non-finite panel is flagged but never "rescued" (GEPP on NaN is
        // equally lost).
        PanelScreen scr;
        if (monitor) scr = screen_panel(panel);
        RootCheck rc = check_packed_lu(root.lu_top.view(), jb);
        const bool fall_back =
            monitor && !scr.nonfinite &&
            (rc.zero_pivot || (growth_limit > 0.0 && scr.absmax > 0.0 &&
                               rc.umax > growth_limit * scr.absmax));
        if (fall_back) {
          S->fell_back = true;
          const idx inf = kern == lapack::LuPanelKernel::Recursive
                              ? lapack::rgetf2(panel, S->piv)
                              : lapack::getf2(panel, S->piv);
          if (inf != 0) *info_slot = row0 + inf;
          // GEPP factored the whole panel (the L tasks become no-ops);
          // re-measure growth from the factors it actually produced.
          rc = check_packed_lu(panel, jb);
        } else {
          S->piv = winners_to_pivots(root.row_index, panel.rows());
          lapack::laswp(panel, 0, jb, S->piv);
          copy_into(root.lu_top.view().block(0, 0, jb, jb),
                    panel.rows_range(0, jb));
          for (idx j = 0; j < jb; ++j) {
            if (panel(j, j) == 0.0 && *info_slot == 0) {
              *info_slot = row0 + j + 1;
            }
          }
        }
        for (idx j = 0; j < jb; ++j) {
          (*global_ipiv)[static_cast<std::size_t>(row0 + j)] =
              row0 + S->piv[static_cast<std::size_t>(j)];
        }
        if (monitor) {
          hslot->nonfinite = scr.nonfinite;
          hslot->fell_back = fall_back;
          hslot->growth = scr.absmax > 0.0 ? rc.umax / scr.absmax : 0.0;
        }
      });
    }

    // --- Task L: remaining rows of the panel's L factor, one task per leaf.
    for (idx i = 0; i < leaves; ++i) {
      idx lstart = S->part.start[static_cast<std::size_t>(i)];
      idx lrows = S->part.rows[static_cast<std::size_t>(i)];
      if (i == 0) {  // top jb rows already hold L_KK/U_KK
        lstart += jb;
        lrows -= jb;
      }
      if (lrows <= 0) continue;
      std::vector<BlockAccess> acc;
      acc.push_back({tile_key(kb, kb), AccessMode::Read});  // U_KK
      add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                     kb, AccessMode::ReadWrite);
      rt::TaskOptions topts;
      topts.kind = TaskKind::LFactor;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.lfactor(k);
      topts.label = "L" + std::to_string(i);
      idx* info_slot = &panel_info[static_cast<std::size_t>(k)];
      C.add_task(acc, std::move(topts), [S, panel, lstart, lrows, jb,
                                         info_slot]() {
        // Ordered after the pivot task through the panel-tile edges, so
        // both flags are stable here. A fallback panel was fully factored
        // by GEPP already; a singular U_KK (monitor off / non-finite input)
        // takes the guarded solve so the factors stay finite.
        if (S->fell_back) return;
        if (*info_slot == 0) {
          blas::trsm(blas::Side::Right, blas::Uplo::Upper,
                     blas::Trans::NoTrans, blas::Diag::NonUnit, 1.0,
                     panel.rows_range(0, jb), panel.rows_range(lstart, lrows));
        } else {
          guarded_l_solve(panel.rows_range(0, jb),
                          panel.rows_range(lstart, lrows));
        }
      });
    }

    // Trailing column segments: when the (last) panel is narrower than its
    // column block, the leftover columns of block kb still need this
    // iteration's U treatment; then the full blocks to the right, grouped
    // into super-blocks of update_cols_per_task panels (the Section V
    // "B > b" extension; 1 recovers the base algorithm).
    struct ColSegment {
      idx col0, cols, jblk0, jblk1;  // [jblk0, jblk1) tile columns
    };
    std::vector<ColSegment> segments;
    if (col0 + jb < std::min(n, (kb + 1) * b)) {
      segments.push_back(
          {col0 + jb, std::min(n, (kb + 1) * b) - (col0 + jb), kb, kb + 1});
    }
    const idx group = std::max<idx>(1, opts.update_cols_per_task);
    for (idx jblk = kb + 1; jblk < n_blocks; jblk += group) {
      const idx jend = std::min(n_blocks, jblk + group);
      const idx jcol0 = jblk * b;
      segments.push_back(
          {jcol0, std::min(n, jend * b) - jcol0, jblk, jend});
    }

    // --- Pack tasks: copy each leaf's L block into microkernel panel
    // layout ONCE; every S task of this iteration then consumes the shared
    // read-only pack instead of repacking L per column segment. The pack
    // reads the L tiles (ordering it after the L tasks and before the
    // deferred left swaps, which see the tiles' post-update values) and
    // publishes the pack_key the S tasks read.
    const bool pack_here = opts.pack_trailing && !segments.empty();
    if (pack_here) {
      for (idx i = 0; i < leaves; ++i) {
        idx lstart = S->part.start[static_cast<std::size_t>(i)];
        idx lrows = S->part.rows[static_cast<std::size_t>(i)];
        if (i == 0) {
          lstart += jb;
          lrows -= jb;
        }
        if (lrows <= 0) continue;
        std::vector<BlockAccess> acc;
        add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                       kb, AccessMode::Read);
        acc.push_back({pack_key(kr, i, cand_stride), AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Generic;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.lfactor(k);  // critical path ahead of the S's
        topts.label = "pack i" + std::to_string(i);
        MatrixView lblk = a.block(row0 + lstart, col0, lrows, jb);
        C.add_task(acc, std::move(topts), [S, lblk, i]() {
          S->lpack[static_cast<std::size_t>(i)] =
              blas::pack_a(lblk, blas::Trans::NoTrans);
        });
      }
    }

    // --- Task U per trailing column segment: permute, then triangular
    // solve.
    for (const ColSegment& seg : segments) {
      const idx jblk = seg.jblk0;
      const idx jcol0 = seg.col0;
      const idx jcols = seg.cols;
      std::vector<BlockAccess> acc;
      acc.push_back({piv_key(kr), AccessMode::Read});
      acc.push_back({tile_key(kb, kb), AccessMode::Read});  // L_KK
      for (idx j2 = seg.jblk0; j2 < seg.jblk1; ++j2) {
        add_tile_range(acc, kb, m_blocks, j2, AccessMode::ReadWrite);
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::UFactor;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.ufactor(k, jblk);
      topts.label = "U j" + std::to_string(jblk);
      MatrixView col = a.block(row0, jcol0, panel_rows, jcols);
      MatrixView lkk = a.block(row0, col0, jb, jb);
      C.add_task(acc, std::move(topts), [S, col, lkk, jb]() {
        lapack::laswp(col, 0, jb, S->piv);
        blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::NoTrans,
                   blas::Diag::Unit, 1.0, lkk, col.rows_range(0, jb));
      });
    }

    // --- Task S per (leaf, trailing column segment): gemm update.
    for (const ColSegment& seg : segments) {
      const idx jblk = seg.jblk0;
      const idx jcol0 = seg.col0;
      const idx jcols = seg.cols;
      for (idx i = 0; i < leaves; ++i) {
        idx lstart = S->part.start[static_cast<std::size_t>(i)];
        idx lrows = S->part.rows[static_cast<std::size_t>(i)];
        if (i == 0) {
          lstart += jb;
          lrows -= jb;
        }
        if (lrows <= 0) continue;
        std::vector<BlockAccess> acc;
        if (pack_here) {
          // The packed copy replaces the L tiles as the data source; the
          // Read on pack_key inherits the ordering the pack task set up.
          acc.push_back({pack_key(kr, i, cand_stride), AccessMode::Read});
        } else {
          add_tile_range(acc, kb + lstart / b,
                         kb + (lstart + lrows + b - 1) / b, kb,
                         AccessMode::Read);                  // L blocks
        }
        for (idx j2 = seg.jblk0; j2 < seg.jblk1; ++j2) {
          acc.push_back({tile_key(kb, j2), AccessMode::Read});  // U row
          add_tile_range(acc, kb + lstart / b,
                         kb + (lstart + lrows + b - 1) / b, j2,
                         AccessMode::ReadWrite);
        }
        rt::TaskOptions topts;
        topts.kind = TaskKind::Update;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.update(k, jblk);
        topts.label = "S i" + std::to_string(i) + " j" + std::to_string(jblk);
        MatrixView lblk = a.block(row0 + lstart, col0, lrows, jb);
        MatrixView ublk = a.block(row0, jcol0, jb, jcols);
        MatrixView cblk = a.block(row0 + lstart, jcol0, lrows, jcols);
        if (pack_here) {
          C.add_task(acc, std::move(topts), [S, ublk, cblk, i]() {
            blas::gemm_packed(-1.0, S->lpack[static_cast<std::size_t>(i)],
                              blas::Trans::NoTrans, ublk, 1.0, cblk);
          });
        } else {
          C.add_task(acc, std::move(topts), [lblk, ublk, cblk]() {
            blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0, lblk,
                       ublk, 1.0, cblk);
          });
        }
      }
    }

    // --- Pack release: once every S task of this iteration has consumed
    // the packs (Write-after-Read on the pack keys), return the slabs to
    // the buffer pool so the next iteration's pack tasks recycle them
    // instead of growing resident memory by half the matrix.
    if (pack_here) {
      std::vector<BlockAccess> acc;
      for (idx i = 0; i < leaves; ++i) {
        acc.push_back({pack_key(kr, i, cand_stride), AccessMode::Write});
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::Generic;
      topts.iteration = static_cast<int>(k);
      topts.priority = 0;
      topts.label = "packfree";
      C.add_task(acc, std::move(topts), [S]() {
        for (auto& p : S->lpack) p = blas::PackedPanel();
      });
    }
  }
}

// --- Deferred left swaps (Algorithm 1, line 41), one task per column
// block: apply the pivots of every later iteration, in order. Submitted
// after the last panel iteration; in windowed mode they ride in iteration
// n_panels - 1 (nondecreasing tags) and their bodies read the retained
// per-iteration piv vectors — which is exactly why the retire hook frees
// tournament slots and pack slabs but never piv.
void CaluAlgo::submit_tail() {
  MatrixView a = C.a;
  const idx m = C.m;
  const idx n = C.n;
  const idx k_total = C.k_total;
  const idx b = C.b;
  const idx n_panels = C.n_panels;
  const idx n_blocks = C.n_blocks;
  const idx m_blocks = C.m_blocks;
  // In windowed mode only iterations >= n_panels - 1 - window can still be
  // in flight here (the pump waited for everything older to retire before
  // submitting the last panel), and those occupy distinct KeyRing slots
  // whose latest tracker writer IS their pivot task — so depending on that
  // suffix alone yields the same effective edges as the full-DAG loop over
  // every later iteration, without touching O(n_panels) stale keys.
  const idx dep_floor =
      C.window > 0 ? std::max<idx>(0, n_panels - 1 - C.window) : 0;
  for (idx jblk = 0; jblk < n_blocks && jblk * b < k_total; ++jblk) {
    const idx jcol0 = jblk * b;
    const idx jcols = std::min(b, n - jcol0);
    if (jblk + 1 >= n_panels) continue;  // no later pivots to apply
    std::vector<BlockAccess> acc;
    for (idx kk = std::max(jblk + 1, dep_floor); kk < n_panels; ++kk) {
      acc.push_back({piv_key(C.ring.slot(kk)), AccessMode::Read});
    }
    add_tile_range(acc, jblk + 1, m_blocks, jblk, AccessMode::ReadWrite);
    rt::TaskOptions topts;
    topts.kind = TaskKind::Generic;
    topts.iteration = static_cast<int>(n_panels - 1);
    topts.priority = 0;
    topts.label = "lswap j" + std::to_string(jblk);
    std::vector<IterState*> later;
    for (idx kk = jblk + 1; kk < n_panels; ++kk) {
      later.push_back(iters[static_cast<std::size_t>(kk)].get());
    }
    MatrixView colv = a.block(0, jcol0, m, jcols);
    const idx jb_here = jblk;
    C.add_task(acc, std::move(topts), [later, colv, jb_here, b]() {
      idx kk = jb_here + 1;
      for (IterState* it : later) {
        MatrixView below = colv.trailing(kk * b, 0);
        lapack::laswp(below, 0, it->jb, it->piv);
        ++kk;
      }
    });
  }
}

// Retirement frees the per-iteration working set the trailing tasks no
// longer need — tournament candidate blocks and pack slabs (the packfree
// task already emptied the slabs; shrink releases the vectors too). The piv
// vector, jb, and fell_back stay: the deferred left swaps and the
// collect-time folds read them after the iteration is long gone.
void CaluAlgo::retire(idx k) {
  IterState& st = *iters[static_cast<std::size_t>(k)];
  st.slot.clear();
  st.slot.shrink_to_fit();
  st.lpack.clear();
  st.lpack.shrink_to_fit();
}

// Fold the per-panel infos and health slots the pivot tasks wrote.
void CaluAlgo::fold() {
  for (idx inf : panel_info) {
    if (inf != 0) {
      result.info = inf;
      break;
    }
  }
  HealthReport& health = result.health;
  for (std::size_t k = 0; k < panel_health.size(); ++k) {
    const PanelHealthSlot& slot = panel_health[k];
    if (slot.nonfinite) health.nan_detected = true;
    if (slot.fell_back) {
      ++health.fallback_panels;
      health.fallback_list.push_back(static_cast<idx>(k));
    }
    if (slot.growth > health.max_growth) health.max_growth = slot.growth;
  }
}

}  // namespace calu_impl

using CaluDriver = detail::FactorDriver<calu_impl::CaluAlgo>;

template <>
struct CaluAsync::Impl : CaluDriver {
  using CaluDriver::CaluDriver;
};
template class FactorAsync<CaluOptions, CaluResult>;

CaluResult calu_factor(MatrixView a, const CaluOptions& opts) {
  return CaluDriver(a, opts).collect();
}

std::vector<CaluResult> calu_factor_batch(const std::vector<MatrixView>& as,
                                          const CaluOptions& opts) {
  return detail::factor_batch<calu_impl::CaluAlgo>(as, opts);
}

}  // namespace camult::core
