// Internal to the kernel engine (DESIGN.md §10, §16); not a public header.
//
// The engine's bodies: halo-tile gathers, the full and clipped tile
// computes, the engine_apply{7,125}_simd brick loops and the array row
// cores.
// The file is included twice per build, textually and inside a namespace:
// kernel_engine.cc includes it in brickx::stencil (the baseline copy,
// compiled for the build's target ISA), and on x86-64 kernel_engine_avx2.cc
// includes it in brickx::stencil::avx2 (the same code at -mavx2), so the
// two copies share no symbol. It therefore includes nothing itself; each
// includer first includes <algorithm>, <array>, <atomic>, <cstdio>,
// <cstring>, common/error.h, common/simd.h, stencil/kernel_engine.h and
// stencil/stencils.h.
//
// Width-templated code takes its vector width as a template parameter and
// never reads simd::kActiveWidth: that constant follows the including
// translation unit's target ISA, which differs between the two copies.

namespace {

/// A brick-local cell box [lo, hi) (axis 0 = x, like Box<3>); coordinates
/// may reach R cells past the brick on either side.
struct LocalBox {
  int lo[3], hi[3];
};

/// Per-axis tile segmentation for the halo gather: segment s in {0, 1, 2}
/// is the part of a footprint range that lies in the low neighbor, the
/// brick itself, or the high neighbor.
struct AxisSeg {
  int len;       ///< cells in the segment (0: the footprint misses it)
  int src_lo;    ///< first local coordinate inside the source brick
  int tile_lo;   ///< first tile coordinate
};

/// Segment `s` of the footprint range [lo, hi) (brick-local, within
/// [-R, B + R)) on an axis of brick extent `B`.
template <int B, int R>
AxisSeg footprint_seg(int s, int lo, int hi) {
  const int a = std::max(lo, (s - 1) * B), b = std::min(hi, s * B);
  return AxisSeg{std::max(b - a, 0), a - (s - 1) * B, a + R};
}

/// Copy a tile row segment of `n` <= N doubles as a fixed-size copy the
/// compiler inlines: segments are at most a brick row long, and a library
/// memcpy call per short row would dominate the gather.
template <int N>
void copy_run(double* __restrict dst, const double* __restrict src, int n) {
  if (n == N) {
    std::memcpy(dst, src, N * sizeof(double));
  } else if constexpr (N > 1) {
    copy_run<N - 1>(dst, src, n);
  }
}

/// Gather the footprint box `fp` of a brick into its halo tile, through
/// the brick's adjacency row `adj`. Only neighbors
/// the footprint reaches are touched, and each must be allocated — the
/// check Brick::at() makes, so a footprint past the ghost frame raises the
/// naive kernels' error.
template <int BK, int BJ, int BI, int R>
void gather_box(const Brick<BK, BJ, BI>& in,
                const std::array<std::int32_t, 27>& adj, const LocalBox& fp,
                double* __restrict tile) {
  constexpr int SJ = BJ + 2 * R, SI = BI + 2 * R;
  for (int sz = 0; sz < 3; ++sz) {
    const AxisSeg zs = footprint_seg<BK, R>(sz, fp.lo[2], fp.hi[2]);
    if (zs.len == 0) continue;
    for (int sy = 0; sy < 3; ++sy) {
      const AxisSeg ys = footprint_seg<BJ, R>(sy, fp.lo[1], fp.hi[1]);
      if (ys.len == 0) continue;
      for (int sx = 0; sx < 3; ++sx) {
        const AxisSeg xs = footprint_seg<BI, R>(sx, fp.lo[0], fp.hi[0]);
        if (xs.len == 0) continue;
        const std::int32_t nb = adj[static_cast<std::size_t>(
            sx + 3 * sy + 9 * sz)];
        BX_CHECK(nb != BrickInfo<3>::kNoBrick,
                 "stencil reached past the allocated ghost zone");
        const double* __restrict s = in.field_data(nb);
        for (int kk = 0; kk < zs.len; ++kk)
          for (int jj = 0; jj < ys.len; ++jj)
            copy_run<std::max(BI, R)>(
                tile + ((zs.tile_lo + kk) * SJ + (ys.tile_lo + jj)) * SI +
                    xs.tile_lo,
                s + ((zs.src_lo + kk) * BJ + (ys.src_lo + jj)) * BI +
                    xs.src_lo,
                xs.len);
      }
    }
  }
}

/// Gather the star-shaped radius-1 halo of a full brick (center + the six
/// face slabs — the only tile cells the 7-point stencil reads; tile edges
/// and corners stay unwritten and unread). Requires only the six face
/// neighbors.
template <int BK, int BJ, int BI>
void gather_star1(const Brick<BK, BJ, BI>& in,
                  const std::array<std::int32_t, 27>& adj,
                  double* __restrict tile) {
  constexpr int SJ = BJ + 2, SI = BI + 2;
  // Face direction codes: (di+1) + 3*(dj+1) + 9*(dk+1).
  constexpr int kXm = 12, kXp = 14, kYm = 10, kYp = 16, kZm = 4, kZp = 22;
  for (int c : {kXm, kXp, kYm, kYp, kZm, kZp})
    BX_CHECK(adj[static_cast<std::size_t>(c)] != BrickInfo<3>::kNoBrick,
             "stencil reached past the allocated ghost zone");
  const double* __restrict ctr = in.field_data(adj[13]);
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j)
      std::memcpy(tile + ((k + 1) * SJ + (j + 1)) * SI + 1,
                  ctr + (k * BJ + j) * BI,
                  static_cast<std::size_t>(BI) * sizeof(double));
  const double* __restrict zm = in.field_data(adj[kZm]);
  const double* __restrict zp = in.field_data(adj[kZp]);
  for (int j = 0; j < BJ; ++j) {
    std::memcpy(tile + (j + 1) * SI + 1, zm + ((BK - 1) * BJ + j) * BI,
                static_cast<std::size_t>(BI) * sizeof(double));
    std::memcpy(tile + ((BK + 1) * SJ + (j + 1)) * SI + 1, zp + (j * BI),
                static_cast<std::size_t>(BI) * sizeof(double));
  }
  const double* __restrict ym = in.field_data(adj[kYm]);
  const double* __restrict yp = in.field_data(adj[kYp]);
  for (int k = 0; k < BK; ++k) {
    std::memcpy(tile + ((k + 1) * SJ) * SI + 1,
                ym + (k * BJ + (BJ - 1)) * BI,
                static_cast<std::size_t>(BI) * sizeof(double));
    std::memcpy(tile + ((k + 1) * SJ + (BJ + 1)) * SI + 1, yp + (k * BJ) * BI,
                static_cast<std::size_t>(BI) * sizeof(double));
  }
  const double* __restrict xm = in.field_data(adj[kXm]);
  const double* __restrict xp = in.field_data(adj[kXp]);
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j) {
      tile[((k + 1) * SJ + (j + 1)) * SI] = xm[(k * BJ + j) * BI + (BI - 1)];
      tile[((k + 1) * SJ + (j + 1)) * SI + (BI + 1)] = xp[(k * BJ + j) * BI];
    }
}

/// Star footprint of a clipped brick: the clip widened by one along x
/// (center rows), plus the one-cell y and z face slabs. Edge and corner
/// neighbors are never read, so they need not exist.
template <int BK, int BJ, int BI>
void gather_star1_clip(const Brick<BK, BJ, BI>& in,
                       const std::array<std::int32_t, 27>& adj,
                       const LocalBox& c, double* __restrict tile) {
  LocalBox rows = c;
  rows.lo[0] -= 1;
  rows.hi[0] += 1;
  gather_box<BK, BJ, BI, 1>(in, adj, rows, tile);
  for (int a : {1, 2}) {
    LocalBox lo = c, hi = c;
    lo.lo[a] = c.lo[a] - 1;
    lo.hi[a] = c.lo[a];
    hi.lo[a] = c.hi[a];
    hi.hi[a] = c.hi[a] + 1;
    gather_box<BK, BJ, BI, 1>(in, adj, lo, tile);
    gather_box<BK, BJ, BI, 1>(in, adj, hi, tile);
  }
}

/// Flat full-brick compute, 7-point: row pointers into the tile, contiguous
/// x loop. Same accumulation order as the naive kernel's expression.
template <int BK, int BJ, int BI>
void compute7_tile(const double* __restrict tile, double* __restrict o) {
  constexpr int SJ = BJ + 2, SI = BI + 2;
  const auto& c = Stencil7::c;
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j) {
      const double* __restrict r0 = tile + ((k + 1) * SJ + (j + 1)) * SI + 1;
      const double* __restrict ym = tile + ((k + 1) * SJ + j) * SI + 1;
      const double* __restrict yp = tile + ((k + 1) * SJ + (j + 2)) * SI + 1;
      const double* __restrict zm = tile + (k * SJ + (j + 1)) * SI + 1;
      const double* __restrict zp = tile + ((k + 2) * SJ + (j + 1)) * SI + 1;
      double* __restrict orow = o + (k * BJ + j) * BI;
      for (int i = 0; i < BI; ++i)
        orow[i] = c[0] * r0[i] + c[1] * r0[i - 1] + c[2] * r0[i + 1] +
                  c[3] * ym[i] + c[4] * yp[i] + c[5] * zm[i] + c[6] * zp[i];
    }
}

/// Flat full-brick compute, 125-point. Taps iterate in the outer loops and
/// cells in the contiguous inner loop, so the accumulation vectorizes
/// across cells; each cell's partial sums still arrive in ascending tap
/// order (dz slowest, dx fastest) — the naive kernel's exact FP order.
template <int BK, int BJ, int BI>
void compute125_tile(const double* __restrict tile,
                     const double* __restrict w, double* __restrict o) {
  constexpr int SJ = BJ + 4, SI = BI + 4;
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j) {
      double acc[BI] = {};
      int t = 0;
      for (int dz = 0; dz < 5; ++dz)
        for (int dy = 0; dy < 5; ++dy) {
          const double* __restrict row =
              tile + ((k + dz) * SJ + (j + dy)) * SI;
          for (int dx = 0; dx < 5; ++dx) {
            const double wt = w[t++];
            const double* __restrict p = row + dx;
            for (int i = 0; i < BI; ++i) acc[i] += wt * p[i];
          }
        }
      double* __restrict orow = o + (k * BJ + j) * BI;
      for (int i = 0; i < BI; ++i) orow[i] = acc[i];
    }
}

/// Copy the clipped x range [c.lo[0], c.hi[0]) of a computed row from the
/// aligned row buffer into brick row `orow`.
void store_clipped(double* __restrict orow, const double* __restrict buf,
                   const LocalBox& c) {
  std::memcpy(orow + c.lo[0], buf + c.lo[0],
              static_cast<std::size_t>(c.hi[0] - c.lo[0]) * sizeof(double));
}

/// Explicit-vector tile compute, 7-point: one output cell per lane, W
/// cells per step. The per-lane expression is the scalar fast path's
/// 7-term expression verbatim, so every lane accumulates in the naive FP
/// order and the results are bit-identical at any width. Tile rows are
/// read with unaligned loads (row stride BI + 2 is not a lane multiple).
///
/// A full brick (`kClip` false) runs constant trip counts and stores
/// aligned straight into the brick — the dispatch guard proved it safe.
/// A clipped brick runs only the (k, j) rows of its clip `c`, the lanes
/// covering its x range, and stores the clipped cells through an aligned
/// row buffer, so it needs no guard. Lanes outside the clip read tile
/// cells the footprint gather skipped (zero or a previous brick's data)
/// and are discarded.
template <int BK, int BJ, int BI, int W, bool kClip>
void compute7_tile_simd(const double* __restrict tile, double* __restrict o,
                        const LocalBox& c) {
  static_assert(BI % W == 0, "guarded by the dispatcher");
  using V = simd::DVec<W>;
  constexpr int SJ = BJ + 2, SI = BI + 2;
  const auto& cf = Stencil7::c;
  const V c0 = V::broadcast(cf[0]), c1 = V::broadcast(cf[1]),
          c2 = V::broadcast(cf[2]), c3 = V::broadcast(cf[3]),
          c4 = V::broadcast(cf[4]), c5 = V::broadcast(cf[5]),
          c6 = V::broadcast(cf[6]);
  const int k0 = kClip ? c.lo[2] : 0, k1 = kClip ? c.hi[2] : BK;
  const int j0 = kClip ? c.lo[1] : 0, j1 = kClip ? c.hi[1] : BJ;
  const int x0 = kClip ? c.lo[0] / W * W : 0, x1 = kClip ? c.hi[0] : BI;
  alignas(simd::kAlign) double buf[BI];
  for (int k = k0; k < k1; ++k)
    for (int j = j0; j < j1; ++j) {
      const double* __restrict r0 = tile + ((k + 1) * SJ + (j + 1)) * SI + 1;
      const double* __restrict ym = tile + ((k + 1) * SJ + j) * SI + 1;
      const double* __restrict yp = tile + ((k + 1) * SJ + (j + 2)) * SI + 1;
      const double* __restrict zm = tile + (k * SJ + (j + 1)) * SI + 1;
      const double* __restrict zp = tile + ((k + 2) * SJ + (j + 1)) * SI + 1;
      double* __restrict orow = o + (k * BJ + j) * BI;
      double* __restrict dst = kClip ? buf : orow;
      for (int x = x0; x < x1; x += W) {
        const V r = c0 * V::loadu(r0 + x) + c1 * V::loadu(r0 + x - 1) +
                    c2 * V::loadu(r0 + x + 1) + c3 * V::loadu(ym + x) +
                    c4 * V::loadu(yp + x) + c5 * V::loadu(zm + x) +
                    c6 * V::loadu(zp + x);
        r.store(dst + x);
      }
      if constexpr (kClip) store_clipped(orow, buf, c);
    }
}

/// Explicit-vector tile compute, 125-point: taps outer, lanes inner,
/// with TWO output rows (j, j+1) in flight per pass. The vector
/// accumulators live in registers across all 125 taps, and the row pair
/// doubles the number of independent add chains — each accumulator's adds
/// form a 125-deep latency chain the scalar path serializes per row, so
/// the pairing is what buys the >= 1.5x over the autovectorized fast path
/// (the BENCH_kernels.json simd-vs-fast axis). Lanes are cells and rows
/// are independent, so each cell's partial sums still arrive in ascending
/// dz-dy-dx tap order: bit-identical to the naive kernel at every width.
///
/// `kClip` as for compute7_tile_simd: a clipped brick computes whole rows
/// (the accumulators stay a compile-time count) over the clip's (k, j)
/// rows only. An odd clip height pairs its last row with the row below it
/// (the pair start is capped at BJ - 2, so every read stays in the tile),
/// and only rows inside the clip are stored.
template <int BK, int BJ, int BI, int W, bool kClip>
void compute125_tile_simd(const double* __restrict tile,
                          const double* __restrict w, double* __restrict o,
                          const LocalBox& c) {
  static_assert(BI % W == 0, "guarded by the dispatcher");
  using V = simd::DVec<W>;
  constexpr int SJ = BJ + 4, SI = BI + 4;
  constexpr int NV = BI / W;
  static_assert(BJ % 2 == 0, "row pairing needs an even j extent");
  const int k0 = kClip ? c.lo[2] : 0, k1 = kClip ? c.hi[2] : BK;
  const int j0 = kClip ? c.lo[1] : 0, j1 = kClip ? c.hi[1] : BJ;
  alignas(simd::kAlign) double buf[2][BI];
  for (int k = k0; k < k1; ++k)
    for (int j = j0; j < j1; j += 2) {
      const int js = kClip ? std::min(j, BJ - 2) : j;
      V a0[NV], a1[NV];
      for (int u = 0; u < NV; ++u) {
        a0[u] = V::zero();
        a1[u] = V::zero();
      }
      int t = 0;
      for (int dz = 0; dz < 5; ++dz)
        for (int dy = 0; dy < 5; ++dy) {
          const double* __restrict r0 =
              tile + ((k + dz) * SJ + (js + dy)) * SI;
          const double* __restrict r1 = r0 + SI;
          for (int dx = 0; dx < 5; ++dx) {
            const V wt = V::broadcast(w[t++]);
            for (int u = 0; u < NV; ++u) {
              a0[u] += wt * V::loadu(r0 + dx + u * W);
              a1[u] += wt * V::loadu(r1 + dx + u * W);
            }
          }
        }
      double* __restrict o0 = o + (k * BJ + js) * BI;
      double* __restrict o1 = o0 + BI;
      double* __restrict d0 = kClip ? buf[0] : o0;
      double* __restrict d1 = kClip ? buf[1] : o1;
      for (int u = 0; u < NV; ++u) {
        a0[u].store(d0 + u * W);
        a1[u].store(d1 + u * W);
      }
      if constexpr (kClip) {
        if (js >= j) store_clipped(o0, buf[0], c);
        if (js + 1 < j1) store_clipped(o1, buf[1], c);
      }
    }
}

/// One-line diagnostic the first time a width-W dispatch degrades to the
/// scalar fast path (alignment guard, DESIGN.md §16). Results are
/// unaffected — only the vector stores are.
void note_scalar_fallback(int w, const char* why) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr,
                 "brickx: simd: width-%d vector path unavailable (%s); "
                 "using the scalar fast path\n",
                 w, why);
}

/// Decide once per apply call whether the width-W vector tiles may run
/// over this output brick accessor; diagnoses the first degradation.
template <int BK, int BJ, int BI, int W>
bool simd_dispatch(const Brick<BK, BJ, BI>& out) {
  if constexpr (W == 1) {
    return false;  // scalar fast path IS width 1; nothing to guard
  } else {
    const char* why = simd_brick_reason<BK, BJ, BI>(out, W);
    if (why == nullptr) return true;
    note_scalar_fallback(W, why);
    return false;
  }
}

/// Clip the cell box of the brick at cell origin `base` against
/// `out_cells`, in brick-local coordinates. Non-empty for every brick
/// inside brick_grid_range().
template <int BK, int BJ, int BI>
LocalBox clip_brick(const Vec3& base, const Box<3>& out_cells) {
  const int B[3] = {BI, BJ, BK};
  LocalBox c;
  for (int a = 0; a < 3; ++a) {
    c.lo[a] = static_cast<int>(
        std::max<std::int64_t>(out_cells.lo[a] - base[a], 0));
    c.hi[a] = static_cast<int>(
        std::min<std::int64_t>(out_cells.hi[a] - base[a], B[a]));
  }
  return c;
}

/// True when the clip covers the whole brick.
template <int BK, int BJ, int BI>
bool is_full(const LocalBox& c) {
  return c.lo[0] == 0 && c.lo[1] == 0 && c.lo[2] == 0 && c.hi[0] == BI &&
         c.hi[1] == BJ && c.hi[2] == BK;
}

}  // namespace

template <int BK, int BJ, int BI, int W>
void engine_apply7_simd(const BrickDecomp<3>& dec,
                        const Brick<BK, BJ, BI>& out,
                        const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  // Clipped tiles store through a row buffer, so they need no alignment
  // guard — only a lane count that divides the brick row.
  constexpr int WC = BI % W == 0 ? W : 1;
  const Vec3 B{BI, BJ, BK};
  const Box<3> gr = brick_grid_range(dec, out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  // Zeroed once: lanes a clip discards may read cells no gather wrote.
  alignas(simd::kAlign) double tile[(BK + 2) * (BJ + 2) * (BI + 2)] = {};
  for (std::int64_t gz = gr.lo[2]; gz < gr.hi[2]; ++gz)
    for (std::int64_t gy = gr.lo[1]; gy < gr.hi[1]; ++gy)
      for (std::int64_t gx = gr.lo[0]; gx < gr.hi[0]; ++gx) {
        const Vec3 g{gx, gy, gz};
        const std::int64_t b = dec.brick_at(g);
        const auto& adj = in.info().adjacent(b);
        const LocalBox clip = clip_brick<BK, BJ, BI>(g * B, out_cells);
        if (!is_full<BK, BJ, BI>(clip)) {
          gather_star1_clip<BK, BJ, BI>(in, adj, clip, tile);
          compute7_tile_simd<BK, BJ, BI, WC, true>(tile, out.field_data(b),
                                                   clip);
          continue;
        }
        gather_star1<BK, BJ, BI>(in, adj, tile);
        if constexpr (W > 1 && BI % W == 0) {
          if (vec) {
            compute7_tile_simd<BK, BJ, BI, W, false>(tile, out.field_data(b),
                                                     clip);
            continue;
          }
        }
        compute7_tile<BK, BJ, BI>(tile, out.field_data(b));
      }
}

template <int BK, int BJ, int BI, int W>
void engine_apply125_simd(const BrickDecomp<3>& dec,
                          const Brick<BK, BJ, BI>& out,
                          const Brick<BK, BJ, BI>& in,
                          const Box<3>& out_cells) {
  static_assert(BK >= 2 && BJ >= 2 && BI >= 2,
                "brick extents must cover the radius-2 neighborhood");
  constexpr int WC = BI % W == 0 ? W : 1;  // as in engine_apply7_simd
  const Vec3 B{BI, BJ, BK};
  const auto& w = Stencil125::taps();
  const Box<3> gr = brick_grid_range(dec, out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  alignas(simd::kAlign) double tile[(BK + 4) * (BJ + 4) * (BI + 4)] = {};
  for (std::int64_t gz = gr.lo[2]; gz < gr.hi[2]; ++gz)
    for (std::int64_t gy = gr.lo[1]; gy < gr.hi[1]; ++gy)
      for (std::int64_t gx = gr.lo[0]; gx < gr.hi[0]; ++gx) {
        const Vec3 g{gx, gy, gz};
        const std::int64_t b = dec.brick_at(g);
        const LocalBox clip = clip_brick<BK, BJ, BI>(g * B, out_cells);
        LocalBox fp = clip;  // the cube footprint: clip grown by 2
        for (int a = 0; a < 3; ++a) {
          fp.lo[a] -= 2;
          fp.hi[a] += 2;
        }
        gather_box<BK, BJ, BI, 2>(in, in.info().adjacent(b), fp, tile);
        if (!is_full<BK, BJ, BI>(clip)) {
          compute125_tile_simd<BK, BJ, BI, WC, true>(tile, w.data(),
                                                     out.field_data(b), clip);
          continue;
        }
        if constexpr (W > 1 && BI % W == 0) {
          if (vec) {
            compute125_tile_simd<BK, BJ, BI, W, false>(
                tile, w.data(), out.field_data(b), clip);
            continue;
          }
        }
        compute125_tile<BK, BJ, BI>(tile, w.data(), out.field_data(b));
      }
}

namespace {

/// Pointer-core 7-point row kernel shared by the CellArray3 and the
/// multi-field span entry points: `ibase`/`obase` are frame-shaped
/// lexicographic slabs over `ib`/`ob`.
void apply7_rows(const Box<3>& ib, const double* __restrict ibase,
                 const Box<3>& ob, double* __restrict obase,
                 const Box<3>& out_cells) {
  if (out_cells.empty()) return;
  const auto& c = Stencil7::c;
  for (int a = 0; a < 3; ++a) {
    BX_CHECK(ib.lo[a] <= out_cells.lo[a] - 1 &&
                 out_cells.hi[a] + 1 <= ib.hi[a],
             "input array does not cover the radius-1 halo of out_cells");
    BX_CHECK(ob.lo[a] <= out_cells.lo[a] && out_cells.hi[a] <= ob.hi[a],
             "output array does not cover out_cells");
  }
  const Vec3 ie = ib.extent(), oe = ob.extent();
  const std::int64_t x0 = out_cells.lo[0];
  const std::int64_t nx = out_cells.hi[0] - x0;
  for (std::int64_t z = out_cells.lo[2]; z < out_cells.hi[2]; ++z)
    for (std::int64_t y = out_cells.lo[1]; y < out_cells.hi[1]; ++y) {
      auto irow = [&](std::int64_t zz, std::int64_t yy) {
        return ibase +
               ((zz - ib.lo[2]) * ie[1] + (yy - ib.lo[1])) * ie[0] +
               (x0 - ib.lo[0]);
      };
      const double* __restrict r0 = irow(z, y);
      const double* __restrict ym = irow(z, y - 1);
      const double* __restrict yp = irow(z, y + 1);
      const double* __restrict zm = irow(z - 1, y);
      const double* __restrict zp = irow(z + 1, y);
      double* __restrict orow =
          obase + ((z - ob.lo[2]) * oe[1] + (y - ob.lo[1])) * oe[0] +
          (x0 - ob.lo[0]);
      for (std::int64_t x = 0; x < nx; ++x)
        orow[x] = c[0] * r0[x] + c[1] * r0[x - 1] + c[2] * r0[x + 1] +
                  c[3] * ym[x] + c[4] * yp[x] + c[5] * zm[x] + c[6] * zp[x];
    }
}

/// Register-blocked 125-point strip: kStrip cells of one row, or of two
/// consecutive rows when `kPair`, held in W-lane accumulators across all
/// 125 taps — the shape of compute125_tile_simd. `rows[zy]` addresses
/// tap row (dz, dy) of the first row at the strip's first cell minus 2;
/// the second row is `istride` (input) / `ostride` (output) doubles on.
/// Lanes are cells, so each cell's partial sums arrive in ascending
/// dz-dy-dx tap order: the naive FP order.
constexpr int kStrip = 8;

template <int W, bool kPair>
void strip125(const double* const* rows, std::int64_t istride,
              const double* __restrict w, double* __restrict o,
              std::int64_t ostride) {
  using V = simd::DVec<W>;
  constexpr int NV = kStrip / W;
  V a0[NV], a1[NV];
  for (int u = 0; u < NV; ++u) {
    a0[u] = V::zero();
    a1[u] = V::zero();
  }
  int t = 0;
  for (int zy = 0; zy < 25; ++zy) {
    const double* __restrict r0 = rows[zy];
    const double* __restrict r1 = r0 + istride;
    for (int dx = 0; dx < 5; ++dx) {
      const V wt = V::broadcast(w[t++]);
      for (int u = 0; u < NV; ++u) {
        a0[u] += wt * V::loadu(r0 + dx + u * W);
        if constexpr (kPair) a1[u] += wt * V::loadu(r1 + dx + u * W);
      }
    }
  }
  for (int u = 0; u < NV; ++u) {
    a0[u].storeu(o + u * W);
    if constexpr (kPair) a1[u].storeu(o + ostride + u * W);
  }
}

/// Pointer-core 125-point row kernel (same sharing): (z, y-pair) rows of
/// kStrip-cell register-blocked strips — an odd y extent ends on a
/// single-row pass — then a scalar tail in the same tap order for the last
/// nx % kStrip cells of each row.
template <int W>
void apply125_rows(const Box<3>& ib, const double* __restrict ibase,
                   const Box<3>& ob, double* __restrict obase,
                   const Box<3>& out_cells) {
  if (out_cells.empty()) return;
  const auto& w = Stencil125::taps();
  for (int a = 0; a < 3; ++a) {
    BX_CHECK(ib.lo[a] <= out_cells.lo[a] - 2 &&
                 out_cells.hi[a] + 2 <= ib.hi[a],
             "input array does not cover the radius-2 halo of out_cells");
    BX_CHECK(ob.lo[a] <= out_cells.lo[a] && out_cells.hi[a] <= ob.hi[a],
             "output array does not cover out_cells");
  }
  const Vec3 ie = ib.extent(), oe = ob.extent();
  const std::int64_t x0 = out_cells.lo[0];
  const std::int64_t nx = out_cells.hi[0] - x0;
  const std::int64_t nstrip = nx - nx % kStrip;
  for (std::int64_t z = out_cells.lo[2]; z < out_cells.hi[2]; ++z)
    for (std::int64_t y = out_cells.lo[1]; y < out_cells.hi[1]; y += 2) {
      const bool pair = y + 1 < out_cells.hi[1];
      // 25 row base pointers (dz, dy) of row y, each positioned at x0 - 2
      // so the dx tap loop reads p[dx] for dx in [0, 5).
      const double* rows[25];
      for (int dz = 0; dz < 5; ++dz)
        for (int dy = 0; dy < 5; ++dy)
          rows[dz * 5 + dy] =
              ibase +
              ((z + dz - 2 - ib.lo[2]) * ie[1] + (y + dy - 2 - ib.lo[1])) *
                  ie[0] +
              (x0 - 2 - ib.lo[0]);
      double* __restrict orow =
          obase + ((z - ob.lo[2]) * oe[1] + (y - ob.lo[1])) * oe[0] +
          (x0 - ob.lo[0]);
      for (std::int64_t x = 0; x < nstrip; x += kStrip) {
        const double* strip[25];
        for (int zy = 0; zy < 25; ++zy) strip[zy] = rows[zy] + x;
        if (pair) {
          strip125<W, true>(strip, ie[0], w.data(), orow + x, oe[0]);
        } else {
          strip125<W, false>(strip, ie[0], w.data(), orow + x, oe[0]);
        }
      }
      for (int r = 0; r < (pair ? 2 : 1); ++r)
        for (std::int64_t x = nstrip; x < nx; ++x) {
          double acc = 0.0;
          int t = 0;
          for (int zy = 0; zy < 25; ++zy)
            for (int dx = 0; dx < 5; ++dx)
              acc += w[static_cast<std::size_t>(t++)] *
                     rows[zy][r * ie[0] + x + dx];
          orow[r * oe[0] + x] = acc;
        }
    }
}

}  // namespace
