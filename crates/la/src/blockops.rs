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
//!
//! Each kernel is built for AVX-512, AVX2 and baseline x86-64, and runs
//! the widest build the CPU reports ([`simd_dispatch!`]). The builds
//! differ only in their register tiles, which no summation order
//! depends on: in [`block_dot`] vector lanes run across columns of `W`
//! (a lane holds one entry's `s₀` or `s₁`, never a sum across entries),
//! in [`block_sub`] each lane holds one entry's chain of subtractions,
//! and nothing fuses a multiply-add. Every build therefore gives every
//! entry the same bits.
//!
//! [`simd_dispatch!`]: crate::simd_dispatch

/// Rows per panel. Both kernels process rows `[0, 256)`, `[256, 512)`, …
/// in order; [`block_dot`]'s summation order depends on this value.
pub const PANEL_ROWS: usize = 256;

/// Independent partial sums per inner product within a panel.
const LANES: usize = 2;
/// Columns of `V` per [`block_sub`] pass over a panel tile: a tile's
/// entries take the subtractions of `v₀..v₈`, then of `v₈..v₁₆`, …, so
/// each entry's order stays ascending while a pass streams 8 columns.
const SUB_CHUNK_K: usize = 8;

/// Common length of a set of columns.
fn common_len<S: AsRef<[f64]>>(cols: &[S]) -> Option<usize> {
    let n = cols.first()?.as_ref().len();
    assert!(
        cols.iter().all(|c| c.as_ref().len() == n),
        "columns differ in length"
    );
    Some(n)
}

crate::simd_dispatch! {
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
    pub fn block_dot<V: AsRef<[f64]>, W: AsRef<[f64]>>(v: &[V], w: &[W], c: &mut [f64]) => block_dot_body
}

/// [`block_dot`] for one instruction-set tier (`VEC` lanes per
/// register), which picks the register tile (see `EXPERIMENTS.md` for
/// the tuning).
#[inline(always)]
fn block_dot_body<V: AsRef<[f64]>, W: AsRef<[f64]>, const VEC: usize>(
    v: &[V],
    w: &[W],
    c: &mut [f64],
) {
    match VEC {
        8 => block_dot_tiled::<V, W, 8, 8>(v, w, c),
        4 => block_dot_tiled::<V, W, 4, 4>(v, w, c),
        _ => block_dot_tiled::<V, W, 2, 4>(v, w, c),
    }
}

/// [`block_dot`] with register tiles of `DOT_TILE_V ≤ 8` columns of `V`
/// by `DOT_TILE_W` columns of `W`.
#[inline(always)]
fn block_dot_tiled<
    V: AsRef<[f64]>,
    W: AsRef<[f64]>,
    const DOT_TILE_V: usize,
    const DOT_TILE_W: usize,
>(
    v: &[V],
    w: &[W],
    c: &mut [f64],
) {
    const { assert!(DOT_TILE_V <= 8, "one dot_tile arm per width 1..=8") };
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
            let vi = &v[i..k.min(i + DOT_TILE_V)];
            for (g, block) in stage.chunks_exact(rows).enumerate() {
                let block = &block[..len];
                let sums: &[[f64; DOT_TILE_W]] = match vi.len() {
                    8 => &dot_tile::<8, DOT_TILE_W, V>(vi, r0, block),
                    7 => &dot_tile::<7, DOT_TILE_W, V>(vi, r0, block),
                    6 => &dot_tile::<6, DOT_TILE_W, V>(vi, r0, block),
                    5 => &dot_tile::<5, DOT_TILE_W, V>(vi, r0, block),
                    4 => &dot_tile::<4, DOT_TILE_W, V>(vi, r0, block),
                    3 => &dot_tile::<3, DOT_TILE_W, V>(vi, r0, block),
                    2 => &dot_tile::<2, DOT_TILE_W, V>(vi, r0, block),
                    _ => &dot_tile::<1, DOT_TILE_W, V>(vi, r0, block),
                };
                for (a, row) in sums.iter().enumerate() {
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
#[inline(always)]
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

/// One panel of an `A × TW` tile of [`block_dot`]: every pair's panel
/// value, in the documented lane order. `v` holds the tile's `A`
/// columns of `V` (read from row `r0`), `w` the panel rows of its `W`
/// columns side by side.
#[inline(always)]
fn dot_tile<const A: usize, const TW: usize, V: AsRef<[f64]>>(
    v: &[V],
    r0: usize,
    w: &[[f64; TW]],
) -> [[f64; TW]; A] {
    let len = w.len();
    let v: [&[f64]; A] = std::array::from_fn(|a| &v[a].as_ref()[r0..r0 + len]);
    let mut acc = [[[0.0f64; TW]; LANES]; A];
    let full = len - len % LANES;
    for r in (0..full).step_by(LANES) {
        for l in 0..LANES {
            let y = w[r + l];
            for a in 0..A {
                let x = v[a][r + l];
                for b in 0..TW {
                    acc[a][l][b] += x * y[b];
                }
            }
        }
    }
    for r in full..len {
        let y = w[r];
        for a in 0..A {
            let x = v[a][r];
            for b in 0..TW {
                acc[a][r - full][b] += x * y[b];
            }
        }
    }
    acc.map(|[s0, s1]| std::array::from_fn(|b| s0[b] + s1[b]))
}

crate::simd_dispatch! {
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
    pub fn block_sub<V: AsRef<[f64]>, W: AsMut<[f64]>>(v: &[V], c: &[f64], w: &mut [W]) => block_sub_body
}

/// [`block_sub`] for one instruction-set tier (`VEC` lanes per
/// register), which picks the register tile.
#[inline(always)]
fn block_sub_body<V: AsRef<[f64]>, W: AsMut<[f64]>, const VEC: usize>(
    v: &[V],
    c: &[f64],
    w: &mut [W],
) {
    match VEC {
        8 => block_sub_tiled::<V, W, 8, 8>(v, c, w),
        4 => block_sub_tiled::<V, W, 4, 8>(v, c, w),
        _ => block_sub_tiled::<V, W, 4, 4>(v, c, w),
    }
}

/// [`block_sub`] with register tiles of `SUB_TILE_W ≤ 8` columns of `W`
/// by `SUB_TILE_ROWS` rows.
#[inline(always)]
fn block_sub_tiled<
    V: AsRef<[f64]>,
    W: AsMut<[f64]>,
    const SUB_TILE_W: usize,
    const SUB_TILE_ROWS: usize,
>(
    v: &[V],
    c: &[f64],
    w: &mut [W],
) {
    const { assert!(SUB_TILE_W <= 8, "one sub_tile arm per width 1..=8") };
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
            for (pv, pc) in panel.chunks(SUB_CHUNK_K).zip(coef.chunks(SUB_CHUNK_K)) {
                match tile.len() {
                    8 => sub_tile::<8, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                    7 => sub_tile::<7, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                    6 => sub_tile::<6, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                    5 => sub_tile::<5, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                    4 => sub_tile::<4, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                    3 => sub_tile::<3, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                    2 => sub_tile::<2, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                    _ => sub_tile::<1, SUB_TILE_W, SUB_TILE_ROWS, W>(pv, pc, tile, r0, r1),
                }
            }
        }
    }
}

/// Rows `[r0, r1)` of `B ≤ TW` columns of [`block_sub`]; `v` holds the
/// same rows of every `vᵢ`, `coef[i]` the tile's coefficients of `vᵢ`.
#[inline(always)]
fn sub_tile<const B: usize, const TW: usize, const TR: usize, W: AsMut<[f64]>>(
    v: &[&[f64]],
    coef: &[[f64; TW]],
    w: &mut [W],
    r0: usize,
    r1: usize,
) {
    let len = r1 - r0;
    let cols: [&mut [f64]; B] = {
        let mut it = w.iter_mut();
        std::array::from_fn(|_| &mut it.next().expect("B columns").as_mut()[r0..r1])
    };
    let full = len - len % TR;
    for r in (0..full).step_by(TR) {
        let mut acc = [[0.0f64; TR]; B];
        for b in 0..B {
            acc[b].copy_from_slice(&cols[b][r..r + TR]);
        }
        for (x, cf) in v.iter().zip(coef) {
            let x: &[f64; TR] = x[r..r + TR].try_into().expect("tile rows");
            for b in 0..B {
                for l in 0..TR {
                    acc[b][l] -= x[l] * cf[b];
                }
            }
        }
        for b in 0..B {
            cols[b][r..r + TR].copy_from_slice(&acc[b]);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Columns with exact zeros and `-0.0` mixed into their values.
    fn columns(n: usize, cols: usize, seed: usize) -> Vec<Vec<f64>> {
        (0..cols)
            .map(|j| {
                (0..n)
                    .map(|r| match (r * 31 + j * 17 + seed) % 11 {
                        0 => 0.0,
                        1 => -0.0,
                        h => ((r * 7 + j * 13 + seed) as f64 * 0.37).sin() * h as f64,
                    })
                    .collect()
            })
            .collect()
    }

    type Dot = fn(&[Vec<f64>], &[Vec<f64>], &mut [f64]);
    type Sub = fn(&[Vec<f64>], &[f64], &mut [Vec<f64>]);

    /// The dispatched kernels (the widest build this CPU runs) and the
    /// AVX2 and AVX-512 tilings give the portable build's bits for every
    /// `k, m` up to twice the widest tile plus one, at row counts with
    /// panel and tile tails.
    #[test]
    fn dispatched_kernels_match_the_portable_build_bit_for_bit() {
        let bits = |x: &[f64]| x.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let widest = 8;
        for n in [1, 3, 17, PANEL_ROWS - 1, PANEL_ROWS + 21] {
            for k in 1..=2 * widest + 1 {
                let v = columns(n, k, 1);
                for m in 1..=2 * widest + 1 {
                    let w = columns(n, m, 2);
                    let coef = columns(k * m, 1, 3).concat();
                    let dot = |f: Dot| {
                        let mut c = vec![0.0; k * m];
                        f(&v, &w, &mut c);
                        bits(&c)
                    };
                    let sub = |f: Sub| {
                        let mut x = w.clone();
                        f(&v, &coef, &mut x);
                        bits(&x.concat())
                    };
                    let want = (
                        dot(block_dot_body::<_, _, 2>),
                        sub(block_sub_body::<_, _, 2>),
                    );
                    for (tier, got) in [
                        ("dispatched", (dot(block_dot), sub(block_sub))),
                        (
                            "avx2 tiles",
                            (
                                dot(block_dot_body::<_, _, 4>),
                                sub(block_sub_body::<_, _, 4>),
                            ),
                        ),
                        (
                            "avx512 tiles",
                            (
                                dot(block_dot_body::<_, _, 8>),
                                sub(block_sub_body::<_, _, 8>),
                            ),
                        ),
                    ] {
                        assert_eq!(got.0, want.0, "block_dot {tier} n={n} k={k} m={m}");
                        assert_eq!(got.1, want.1, "block_sub {tier} n={n} k={k} m={m}");
                    }
                }
            }
        }
    }
}
