#include "core/caqr.hpp"

#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/factor_driver.hpp"
#include "core/partition.hpp"
#include "core/tournament.hpp"  // screen_panel (the health input screen)
#include "matrix/norms.hpp"

namespace camult::core {
// Named (not anonymous) so CaqrAsync::Impl — whose type is declared in the
// public header — can derive from the driver over CaqrAlgo without giving
// an external-linkage class an internal-linkage base.
namespace caqr_impl {

using detail::add_tile_range;
using detail::DriverState;
using detail::tile_key;
using rt::AccessMode;
using rt::BlockAccess;
using rt::TaskKind;

// The leaf/node key stride is derived from the real per-iteration slot
// bound (DriverState::key_stride) — a fixed stride would silently alias
// iteration k's keys with iteration k+1's once a panel produced more slots
// than the stride, corrupting the DAG. The iteration index `k` here is a
// KeyRing slot in windowed mode (wrapping modulo window + 2 — see
// lookahead.hpp) and the global index otherwise; checked_key_offset throws
// instead of wrapping past the 2^59 per-space envelope, which keeps the
// spaces disjoint even through the pack keys' 2*offset+1 even/odd doubling.
rt::BlockKey leaf_key(idx k, idx slot, idx stride) {
  return (idx{1} << 60) + checked_key_offset(k, stride, slot);
}
rt::BlockKey node_key(idx k, idx node, idx stride) {
  return (idx{1} << 61) + checked_key_offset(k, stride, node);
}
// Packed-V keys: even slots for leaf packs, odd for node packs, so both
// live in one (1 << 62) space without colliding.
rt::BlockKey pack_leaf_key(idx k, idx slot, idx stride) {
  return (idx{1} << 62) + 2 * checked_key_offset(k, stride, slot);
}
rt::BlockKey pack_node_key(idx k, idx node, idx stride) {
  return (idx{1} << 62) + 2 * checked_key_offset(k, stride, node) + 1;
}

// Shared packed reflectors of one iteration (V2 of each leaf / dense
// node), built by pack tasks, read concurrently by the S tasks, released
// once the iteration's updates drain. Kept out of the public
// CaqrIterationFactors: the packs are scratch, not part of the Q factor.
struct IterPacks {
  std::vector<lapack::LarfbPackedV> leaf;
  std::vector<lapack::LarfbPackedV> node;
};

// The CAQR policy of the shared right-looking driver (factor_driver.hpp).
// Task lambdas point into result.iterations' heap array and the heap
// IterPacks.
struct CaqrAlgo {
  using Options = CaqrOptions;
  using Result = CaqrResult;

  CaqrAlgo(DriverState& ctx, const CaqrOptions& o) : C(ctx), opts(o) {
    result.m = C.m;
    result.n = C.n;
    result.iterations.resize(static_cast<std::size_t>(C.n_panels));
    packs.reserve(static_cast<std::size_t>(C.n_panels));
    // Screen the input before the first task can mutate it (the driver
    // builds the graph after this): the verdict describes the caller's
    // matrix, not intermediate update state. Householder QR never falls
    // back, so unlike CALU one whole-matrix scan suffices.
    if (opts.monitor) screen = screen_panel(C.a);
  }

  void submit_iteration(idx k);
  void submit_tail() {}  // no cross-iteration tail, unlike CALU
  void retire(idx k);
  void fold();

  DriverState& C;
  const CaqrOptions& opts;
  CaqrResult result;
  std::vector<std::unique_ptr<IterPacks>> packs;
  PanelScreen screen;  ///< input screen (monitor only)
};

// Submit every task of panel iteration k (leaf QR, packs, leaf updates,
// tree nodes + node updates, pack release). Identical task bodies,
// priorities, and dependency structure whether the pump runs it eagerly
// (full-DAG) or throttled (windowed) — only the dep-key indices wrap
// through the KeyRing, which resolves to the same edges because the
// previous slot owner has retired.
void CaqrAlgo::submit_iteration(idx k) {
  MatrixView a = C.a;
  const idx m = C.m;
  const idx n = C.n;
  const idx k_total = C.k_total;
  const idx b = C.b;
  const idx n_blocks = C.n_blocks;
  const idx key_stride = C.key_stride;
  const idx kr = C.ring.slot(k);  // dep-key iteration index
  const LookaheadPriorities& prio = C.prio;

  {
    const idx row0 = k * b;
    const idx jb = std::min(b, k_total - row0);
    const idx panel_rows = m - row0;
    const idx kb = row0 / b;

    CaqrIterationFactors& F = result.iterations[static_cast<std::size_t>(k)];
    F.row0 = row0;
    F.jb = jb;
    F.part = partition_panel_rows(panel_rows, b, opts.tr, jb);
    const idx leaves = F.part.count();
    F.leaves.resize(static_cast<std::size_t>(leaves));
    const auto schedule =
        reduction_schedule(static_cast<int>(leaves), opts.tree);
    F.nodes.resize(schedule.size());

    packs.push_back(std::make_unique<IterPacks>());
    IterPacks* P = packs.back().get();
    P->leaf.resize(static_cast<std::size_t>(leaves));
    P->node.resize(schedule.size());

    MatrixView panel = a.block(row0, row0, panel_rows, jb);

    // --- Task P (leaves): QR of each leaf block.
    for (idx i = 0; i < leaves; ++i) {
      const idx lstart = F.part.start[static_cast<std::size_t>(i)];
      const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
      std::vector<BlockAccess> acc;
      add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                     kb, AccessMode::ReadWrite);
      acc.push_back({leaf_key(kr, i, key_stride), AccessMode::Write});
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "leaf" + std::to_string(i);
      CaqrIterationFactors* Fp = &F;
      C.add_task(acc, std::move(topts), [Fp, panel, lstart, lrows, i]() {
        Fp->leaves[static_cast<std::size_t>(i)] = tsqr_leaf_kernel(
            panel.block(lstart, 0, lrows, panel.cols()), lstart);
      });
    }

    // Trailing column segments: the leftover columns of the panel's own
    // block (when jb < b), then all full blocks to the right.
    struct ColSegment {
      idx col0, cols, jblk;
    };
    std::vector<ColSegment> segments;
    if (row0 + jb < std::min(n, (kb + 1) * b)) {
      segments.push_back(
          {row0 + jb, std::min(n, (kb + 1) * b) - (row0 + jb), kb});
    }
    for (idx jblk = kb + 1; jblk < n_blocks; ++jblk) {
      segments.push_back({jblk * b, std::min(b, n - jblk * b), jblk});
    }

    // --- Leaf pack tasks: pack each leaf's V2 into microkernel layout
    // ONCE; every leaf S of this iteration shares the read-only pack. The
    // V tile reads order the pack after the leaf QR; the S tasks read the
    // pack key (plus the leaf's top tile, whose unit-lower V1 the larfb
    // trmm consumes straight from the panel).
    const bool pack_here = opts.pack_trailing && !segments.empty();
    if (pack_here) {
      for (idx i = 0; i < leaves; ++i) {
        const idx lstart = F.part.start[static_cast<std::size_t>(i)];
        const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
        if (lrows <= jb) continue;  // no V2: nothing gemm-shaped to pack
        std::vector<BlockAccess> acc;
        acc.push_back({leaf_key(kr, i, key_stride), AccessMode::Read});
        add_tile_range(acc, kb + lstart / b,
                       kb + (lstart + lrows + b - 1) / b, kb,
                       AccessMode::Read);
        acc.push_back({pack_leaf_key(kr, i, key_stride), AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Generic;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.lfactor(k);  // critical path ahead of the S's
        topts.label = "pack i" + std::to_string(i);
        CaqrIterationFactors* Fp = &F;
        ConstMatrixView panel_c = panel;
        C.add_task(acc, std::move(topts), [P, Fp, panel_c, i]() {
          P->leaf[static_cast<std::size_t>(i)] = tsqr_leaf_pack(
              panel_c, Fp->leaves[static_cast<std::size_t>(i)]);
        });
      }
    }

    // --- Task S (leaf updates): apply each leaf's reflector to its rows of
    // every trailing column segment.
    for (const ColSegment& seg : segments) {
      const idx jblk = seg.jblk;
      const idx jcol0 = seg.col0;
      const idx jcols = seg.cols;
      for (idx i = 0; i < leaves; ++i) {
        const idx lstart = F.part.start[static_cast<std::size_t>(i)];
        const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
        const bool packed = pack_here && lrows > jb;
        std::vector<BlockAccess> acc;
        acc.push_back({leaf_key(kr, i, key_stride), AccessMode::Read});
        if (packed) {
          // V2 comes from the shared pack; V1 still reads the top tile.
          acc.push_back({tile_key(kb + lstart / b, kb), AccessMode::Read});
          acc.push_back({pack_leaf_key(kr, i, key_stride), AccessMode::Read});
        } else {
          add_tile_range(acc, kb + lstart / b,
                         kb + (lstart + lrows + b - 1) / b, kb,
                         AccessMode::Read);  // leaf V tiles
        }
        add_tile_range(acc, kb + lstart / b,
                       kb + (lstart + lrows + b - 1) / b, jblk,
                       AccessMode::ReadWrite);
        rt::TaskOptions topts;
        topts.kind = TaskKind::Update;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.update(k, jblk);
        topts.label = "Sleaf i" + std::to_string(i) + " j" +
                      std::to_string(jblk);
        CaqrIterationFactors* Fp = &F;
        ConstMatrixView panel_c = panel;
        MatrixView cpart = a.block(row0, jcol0, panel_rows, jcols);
        if (packed) {
          C.add_task(acc, std::move(topts), [P, Fp, panel_c, cpart, i]() {
            tsqr_leaf_apply(blas::Trans::Trans, panel_c,
                            Fp->leaves[static_cast<std::size_t>(i)],
                            P->leaf[static_cast<std::size_t>(i)], cpart);
          });
        } else {
          C.add_task(acc, std::move(topts), [Fp, panel_c, cpart, i]() {
            tsqr_leaf_apply(blas::Trans::Trans, panel_c,
                            Fp->leaves[static_cast<std::size_t>(i)], cpart);
          });
        }
      }
    }

    // --- Tree: P (node QR) and S (node updates) per reduction step.
    for (std::size_t step_i = 0; step_i < schedule.size(); ++step_i) {
      const ReductionStep& step = schedule[step_i];
      std::vector<idx> src_start;
      src_start.reserve(step.sources.size());
      for (int s : step.sources) {
        src_start.push_back(F.part.start[static_cast<std::size_t>(s)]);
      }

      {
        std::vector<BlockAccess> acc;
        // New R overwrites the target's top tile; other sources' R tiles are
        // read (their below-triangle V tails are untouched).
        acc.push_back(
            {tile_key(kb + src_start[0] / b, kb), AccessMode::ReadWrite});
        for (std::size_t s = 1; s < src_start.size(); ++s) {
          acc.push_back(
              {tile_key(kb + src_start[s] / b, kb), AccessMode::Read});
        }
        acc.push_back({node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Panel;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.panel(k);
        topts.label = "node l" + std::to_string(step.level);
        CaqrIterationFactors* Fp = &F;
        const std::size_t slot = step_i;
        std::vector<idx> starts = src_start;
        const bool structured =
            opts.structured_nodes && starts.size() == 2;
        C.add_task(acc, std::move(topts),
                   [Fp, panel, starts, slot, jb, structured]() {
          if (structured) {
            Fp->nodes[slot] =
                tsqr_node_kernel_tri(panel, starts[0], starts[1], jb);
          } else {
            Fp->nodes[slot] = tsqr_node_kernel(panel, starts, jb);
          }
        });
      }

      // Node pack task: dense nodes only (structured tpqrt nodes have no
      // larfb-shaped V2). The node.vt buffer is node-local, so the only
      // ordering needed is after the node QR (via node_key).
      const bool node_packed =
          pack_here && !(opts.structured_nodes && src_start.size() == 2);
      if (node_packed) {
        std::vector<BlockAccess> acc;
        acc.push_back({node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Read});
        acc.push_back({pack_node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Generic;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.lfactor(k);
        topts.label = "pack l" + std::to_string(step.level);
        CaqrIterationFactors* Fp = &F;
        const std::size_t slot = step_i;
        C.add_task(acc, std::move(topts), [P, Fp, slot]() {
          P->node[slot] = tsqr_node_pack(Fp->nodes[slot]);
        });
      }

      for (const ColSegment& seg : segments) {
        const idx jblk = seg.jblk;
        const idx jcol0 = seg.col0;
        const idx jcols = seg.cols;
        std::vector<BlockAccess> acc;
        acc.push_back({node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Read});
        if (node_packed) {
          acc.push_back({pack_node_key(kr, static_cast<idx>(step_i),
                                       key_stride),
                         AccessMode::Read});
        }
        for (idx s : src_start) {
          acc.push_back({tile_key(kb + s / b, jblk), AccessMode::ReadWrite});
        }
        rt::TaskOptions topts;
        topts.kind = TaskKind::Update;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.update(k, jblk);
        topts.label = "Snode l" + std::to_string(step.level) + " j" +
                      std::to_string(jblk);
        CaqrIterationFactors* Fp = &F;
        const std::size_t slot = step_i;
        MatrixView cpart = a.block(row0, jcol0, panel_rows, jcols);
        if (node_packed) {
          C.add_task(acc, std::move(topts), [P, Fp, cpart, slot]() {
            tsqr_node_apply(blas::Trans::Trans, Fp->nodes[slot],
                            P->node[slot], cpart);
          });
        } else {
          C.add_task(acc, std::move(topts), [Fp, cpart, slot]() {
            tsqr_node_apply(blas::Trans::Trans, Fp->nodes[slot], cpart);
          });
        }
      }
    }

    // --- Pack release: after every S task of the iteration has consumed
    // the shared packs (Write-after-Read on the pack keys), hand the slabs
    // back to the buffer pool for the next iteration's packs.
    if (pack_here) {
      std::vector<BlockAccess> acc;
      for (idx i = 0; i < leaves; ++i) {
        acc.push_back({pack_leaf_key(kr, i, key_stride), AccessMode::Write});
      }
      for (std::size_t s = 0; s < schedule.size(); ++s) {
        acc.push_back({pack_node_key(kr, static_cast<idx>(s), key_stride),
                       AccessMode::Write});
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::Generic;
      topts.iteration = static_cast<int>(k);
      topts.priority = 0;
      topts.label = "packfree";
      C.add_task(acc, std::move(topts), [P]() {
        for (auto& vp : P->leaf) vp = lapack::LarfbPackedV();
        for (auto& vp : P->node) vp = lapack::LarfbPackedV();
      });
    }
  }
}

// Retirement releases the iteration's pack scratch (the packfree task
// already emptied the slabs; shrink releases the vectors too). The public
// per-iteration factors in result.iterations ARE the Q factor and are never
// touched.
void CaqrAlgo::retire(idx k) {
  IterPacks& p = *packs[static_cast<std::size_t>(k)];
  p.leaf.clear();
  p.leaf.shrink_to_fit();
  p.node.clear();
  p.node.shrink_to_fit();
}

// Growth of the triangular factor: max|R| over the upper trapezoid against
// the input's absmax. For QR this is bounded by sqrt(n)·||A|| in exact
// arithmetic, so a large value means the input was already extreme (badly
// scaled), not that the factorization misbehaved.
void CaqrAlgo::fold() {
  if (!opts.monitor) return;
  HealthReport& health = result.health;
  health.nan_detected = screen.nonfinite;
  double rmax = 0.0;
  const idx kmax = std::min(result.m, result.n);
  for (idx j = 0; j < result.n; ++j) {
    const idx imax = std::min(j + 1, kmax);
    for (idx i = 0; i < imax; ++i) {
      const double v = std::abs(C.a(i, j));
      if (v > rmax) rmax = v;
    }
  }
  health.max_growth = screen.absmax > 0.0 ? rmax / screen.absmax : 0.0;
}

}  // namespace caqr_impl

using CaqrDriver = detail::FactorDriver<caqr_impl::CaqrAlgo>;

template <>
struct CaqrAsync::Impl : CaqrDriver {
  using CaqrDriver::CaqrDriver;
};
template class FactorAsync<CaqrOptions, CaqrResult>;

CaqrResult caqr_factor(MatrixView a, const CaqrOptions& opts) {
  return CaqrDriver(a, opts).collect();
}

std::vector<CaqrResult> caqr_factor_batch(const std::vector<MatrixView>& as,
                                          const CaqrOptions& opts) {
  return detail::factor_batch<caqr_impl::CaqrAlgo>(as, opts);
}

void caqr_apply_q(blas::Trans trans, ConstMatrixView a,
                  const CaqrResult& factors, MatrixView c) {
  assert(c.rows() == factors.m);
  auto apply_iteration = [&](const CaqrIterationFactors& F,
                             blas::Trans dir) {
    ConstMatrixView panel =
        a.block(F.row0, F.row0, factors.m - F.row0, F.jb);
    MatrixView crows = c.rows_range(F.row0, factors.m - F.row0);
    if (dir == blas::Trans::Trans) {
      for (const TsqrLeaf& leaf : F.leaves) {
        tsqr_leaf_apply(blas::Trans::Trans, panel, leaf, crows);
      }
      for (const TsqrNode& node : F.nodes) {
        tsqr_node_apply(blas::Trans::Trans, node, crows);
      }
    } else {
      for (auto it = F.nodes.rbegin(); it != F.nodes.rend(); ++it) {
        tsqr_node_apply(blas::Trans::NoTrans, *it, crows);
      }
      for (const TsqrLeaf& leaf : F.leaves) {
        tsqr_leaf_apply(blas::Trans::NoTrans, panel, leaf, crows);
      }
    }
  };

  if (trans == blas::Trans::Trans) {
    for (const CaqrIterationFactors& F : factors.iterations) {
      apply_iteration(F, blas::Trans::Trans);
    }
  } else {
    for (auto it = factors.iterations.rbegin();
         it != factors.iterations.rend(); ++it) {
      apply_iteration(*it, blas::Trans::NoTrans);
    }
  }
}

Matrix caqr_explicit_q(ConstMatrixView a, const CaqrResult& factors) {
  const idx k = std::min(factors.m, factors.n);
  Matrix q = Matrix::identity(factors.m, k);
  caqr_apply_q(blas::Trans::NoTrans, a, factors, q.view());
  return q;
}

Matrix caqr_extract_r(ConstMatrixView a, const CaqrResult& factors) {
  const idx k = std::min(factors.m, factors.n);
  Matrix r = Matrix::zeros(k, factors.n);
  for (idx j = 0; j < factors.n; ++j) {
    const idx top = std::min(j + 1, k);
    for (idx i = 0; i < top; ++i) r(i, j) = a(i, j);
  }
  return r;
}

double caqr_residual(ConstMatrixView a_orig, ConstMatrixView a_factored,
                     const CaqrResult& factors) {
  const idx m = factors.m;
  const idx n = factors.n;
  const idx k = std::min(m, n);
  Matrix qr = Matrix::zeros(m, n);
  Matrix r = caqr_extract_r(a_factored, factors);
  copy_into(r.view(), qr.view().rows_range(0, k));
  caqr_apply_q(blas::Trans::NoTrans, a_factored, factors, qr.view());
  double diff2 = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      const double d = qr(i, j) - a_orig(i, j);
      diff2 += d * d;
    }
  }
  const double na = norm_fro(a_orig);
  if (na == 0.0) return std::sqrt(diff2);
  return std::sqrt(diff2) /
         (na * static_cast<double>(std::max(m, n)) *
          std::numeric_limits<double>::epsilon());
}

}  // namespace camult::core
