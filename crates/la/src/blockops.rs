//! Blocked inner products and updates over sets of long vectors: the two
//! kernels of block classical Gram–Schmidt, `C = VᵀW` ([`block_dot`]) and
//! `W ← W − V·C` ([`block_sub`]).
//!
//! Both stream the vectors in row panels of [`PANEL_ROWS`] rows, so one
//! pass over `V` serves every column of `W` while the panel stays in
//! cache. Their summation orders are fixed and documented on each
//! function: an output entry depends only on the input columns it
//! combines, never on how many columns come along, their positions, or
//! any thread count (the kernels are single-threaded). A width-1 call
//! therefore gives every entry the bits of the widest call.

/// Rows per panel. Both kernels process rows `[0, 256)`, `[256, 512)`, …
/// in order; [`block_dot`]'s summation order depends on this value.
pub const PANEL_ROWS: usize = 256;

/// Independent partial sums per inner product within a panel.
const LANES: usize = 2;
/// Columns of `V` per [`block_dot`] register tile.
const DOT_TILE_V: usize = 2;
/// Columns of `W` per [`block_dot`] register tile (one staged group).
const DOT_TILE_W: usize = 4;
/// Columns of `W` per [`block_sub`] register tile.
const SUB_TILE_W: usize = 4;
/// Rows per [`block_sub`] register tile.
const SUB_TILE_ROWS: usize = 4;

/// Common length of a set of columns.
fn common_len<S: AsRef<[f64]>>(cols: &[S]) -> Option<usize> {
    let n = cols.first()?.as_ref().len();
    assert!(
        cols.iter().all(|c| c.as_ref().len() == n),
        "columns differ in length"
    );
    Some(n)
}

/// `c = Vᵀ W`: `c[i + j·k] = vᵢ · wⱼ` for the `k = v.len()` columns of
/// `V` and the `m = w.len()` columns of `W` (`c` is `k × m`,
/// column-major).
///
/// Summation order of each entry: rows are split into panels of
/// [`PANEL_ROWS`]; within a panel, the products of even rows (counted
/// from the panel start) are summed in row order into `s₀` and those of
/// odd rows into `s₁`, the panel's value is `s₀ + s₁`, and the entry is
/// the sum of the panel values in panel order, starting from `0.0`. This
/// depends on the two columns alone.
///
/// # Panics
///
/// Panics if the columns differ in length or `c.len() != k·m`.
pub fn block_dot<V: AsRef<[f64]>, W: AsRef<[f64]>>(v: &[V], w: &[W], c: &mut [f64]) {
    let (k, m) = (v.len(), w.len());
    assert_eq!(c.len(), k * m, "coefficient block is not k × m");
    c.fill(0.0);
    let (Some(n), Some(nw)) = (common_len(v), common_len(w)) else {
        return;
    };
    assert_eq!(n, nw, "V and W columns differ in length");
    if m == 1 {
        for (ci, vi) in c.iter_mut().zip(v) {
            *ci = dot_pair(vi.as_ref(), w[0].as_ref());
        }
        return;
    }
    let groups = m.div_ceil(DOT_TILE_W);
    // The panel of W, staged row-interleaved per group of DOT_TILE_W
    // columns (zero-padded past column m) so a tile reads its rows
    // contiguously.
    let rows = PANEL_ROWS.min(n);
    let mut stage = vec![[0.0f64; DOT_TILE_W]; groups * rows];
    for r0 in (0..n).step_by(PANEL_ROWS) {
        let len = PANEL_ROWS.min(n - r0);
        for (g, block) in stage.chunks_exact_mut(rows).enumerate() {
            for b in 0..DOT_TILE_W {
                let j = g * DOT_TILE_W + b;
                if j < m {
                    let col = &w[j].as_ref()[r0..r0 + len];
                    for (row, &x) in block.iter_mut().zip(col) {
                        row[b] = x;
                    }
                }
            }
        }
        for i in (0..k).step_by(DOT_TILE_V) {
            let ti = DOT_TILE_V.min(k - i);
            for (g, block) in stage.chunks_exact(rows).enumerate() {
                let block = &block[..len];
                let sums = if ti == 2 {
                    dot_tile(
                        [
                            &v[i].as_ref()[r0..r0 + len],
                            &v[i + 1].as_ref()[r0..r0 + len],
                        ],
                        block,
                    )
                } else {
                    let [s] = dot_tile([&v[i].as_ref()[r0..r0 + len]], block);
                    [s, [0.0; DOT_TILE_W]]
                };
                for (a, row) in sums.iter().enumerate().take(ti) {
                    for (b, &s) in row.iter().enumerate() {
                        let j = g * DOT_TILE_W + b;
                        if j < m {
                            c[(i + a) + j * k] += s;
                        }
                    }
                }
            }
        }
    }
}

/// One entry of [`block_dot`] in its documented order, without staging
/// (the single-column case).
fn dot_pair(v: &[f64], w: &[f64]) -> f64 {
    let mut c = 0.0;
    for (vp, wp) in v.chunks(PANEL_ROWS).zip(w.chunks(PANEL_ROWS)) {
        let (vg, vt) = vp.as_chunks::<LANES>();
        let (wg, wt) = wp.as_chunks::<LANES>();
        let mut s = [0.0f64; LANES];
        for (x, y) in vg.iter().zip(wg) {
            for l in 0..LANES {
                s[l] += x[l] * y[l];
            }
        }
        for (l, (&x, &y)) in vt.iter().zip(wt).enumerate() {
            s[l] += x * y;
        }
        c += s[0] + s[1];
    }
    c
}

/// One panel of an `A × DOT_TILE_W` tile of [`block_dot`]: every
/// pair's panel value, in the documented lane order. `w` holds the
/// panel rows of the tile's `W` columns side by side.
#[inline(always)]
fn dot_tile<const A: usize>(v: [&[f64]; A], w: &[[f64; DOT_TILE_W]]) -> [[f64; DOT_TILE_W]; A] {
    let len = w.len();
    let v = v.map(|x| &x[..len]);
    let mut acc = [[[0.0f64; DOT_TILE_W]; LANES]; A];
    let full = len - len % LANES;
    for r in (0..full).step_by(LANES) {
        for l in 0..LANES {
            let y = w[r + l];
            for a in 0..A {
                let x = v[a][r + l];
                for b in 0..DOT_TILE_W {
                    acc[a][l][b] += x * y[b];
                }
            }
        }
    }
    for r in full..len {
        let y = w[r];
        for a in 0..A {
            let x = v[a][r];
            for b in 0..DOT_TILE_W {
                acc[a][r - full][b] += x * y[b];
            }
        }
    }
    acc.map(|[s0, s1]| std::array::from_fn(|b| s0[b] + s1[b]))
}

/// `W ← W − V·C`: `wⱼ[r] ← wⱼ[r] − Σᵢ vᵢ[r]·c[i + j·k]` for the
/// `k = v.len()` columns of `V` and the `m = w.len()` columns of `W`
/// (`c` is `k × m`, column-major).
///
/// Summation order of each entry: starting from `wⱼ[r]`, the products
/// `vᵢ[r]·c[i + j·k]` are subtracted one at a time in ascending `i` —
/// the bits of `k` successive `axpy(−cᵢⱼ, vᵢ, wⱼ)` calls. This depends
/// on column `j` of `W` and `C` alone.
///
/// # Panics
///
/// Panics if the columns differ in length or `c.len() != k·m`.
pub fn block_sub<V: AsRef<[f64]>, W: AsMut<[f64]>>(v: &[V], c: &[f64], w: &mut [W]) {
    let (k, m) = (v.len(), w.len());
    assert_eq!(c.len(), k * m, "coefficient block is not k × m");
    if k == 0 || m == 0 {
        return;
    }
    let n = common_len(v).expect("k > 0");
    assert!(
        w.iter_mut().all(|x| x.as_mut().len() == n),
        "V and W columns differ in length"
    );
    if m == 1 {
        let w0 = w[0].as_mut();
        for (vi, &ci) in v.iter().zip(c) {
            for (y, &x) in w0.iter_mut().zip(vi.as_ref()) {
                *y -= x * ci;
            }
        }
        return;
    }
    // Coefficients regrouped per tile: `coef[g·k + i][b] = c[i + (g·T + b)·k]`
    // (zero past column m), so a tile reads one row of them per `vᵢ`.
    let groups = m.div_ceil(SUB_TILE_W);
    let mut coef = vec![[0.0f64; SUB_TILE_W]; groups * k];
    for (j, cj) in c.chunks_exact(k).enumerate() {
        for (i, &x) in cj.iter().enumerate() {
            coef[(j / SUB_TILE_W) * k + i][j % SUB_TILE_W] = x;
        }
    }
    let mut panel: Vec<&[f64]> = Vec::with_capacity(k);
    for r0 in (0..n).step_by(PANEL_ROWS) {
        let r1 = (r0 + PANEL_ROWS).min(n);
        panel.clear();
        panel.extend(v.iter().map(|x| &x.as_ref()[r0..r1]));
        for (g, tile) in w.chunks_mut(SUB_TILE_W).enumerate() {
            let coef = &coef[g * k..(g + 1) * k];
            match tile.len() {
                4 => sub_tile::<4, W>(&panel, coef, tile, r0, r1),
                3 => sub_tile::<3, W>(&panel, coef, tile, r0, r1),
                2 => sub_tile::<2, W>(&panel, coef, tile, r0, r1),
                _ => sub_tile::<1, W>(&panel, coef, tile, r0, r1),
            }
        }
    }
}

/// Rows `[r0, r1)` of `B` columns of [`block_sub`]; `v` holds the same
/// rows of every `vᵢ`, `coef[i]` the tile's coefficients of `vᵢ`.
#[inline(always)]
fn sub_tile<const B: usize, W: AsMut<[f64]>>(
    v: &[&[f64]],
    coef: &[[f64; SUB_TILE_W]],
    w: &mut [W],
    r0: usize,
    r1: usize,
) {
    let len = r1 - r0;
    let cols: [&mut [f64]; B] = {
        let mut it = w.iter_mut();
        std::array::from_fn(|_| &mut it.next().expect("B columns").as_mut()[r0..r1])
    };
    let full = len - len % SUB_TILE_ROWS;
    for r in (0..full).step_by(SUB_TILE_ROWS) {
        let mut acc = [[0.0f64; SUB_TILE_ROWS]; B];
        for b in 0..B {
            acc[b].copy_from_slice(&cols[b][r..r + SUB_TILE_ROWS]);
        }
        for (x, cf) in v.iter().zip(coef) {
            let x: &[f64; SUB_TILE_ROWS] = x[r..r + SUB_TILE_ROWS].try_into().expect("tile rows");
            for b in 0..B {
                for l in 0..SUB_TILE_ROWS {
                    acc[b][l] -= x[l] * cf[b];
                }
            }
        }
        for b in 0..B {
            cols[b][r..r + SUB_TILE_ROWS].copy_from_slice(&acc[b]);
        }
    }
    for r in full..len {
        for b in 0..B {
            let mut s = cols[b][r];
            for (x, cf) in v.iter().zip(coef) {
                s -= x[r] * cf[b];
            }
            cols[b][r] = s;
        }
    }
}
