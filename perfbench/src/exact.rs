//! Exact port impedances of the full system — the reference every
//! returned model is checked against.
//!
//! `Z(s) = s^{out}·Bᵀ(G + σ(s)C)⁻¹B` by a complex sparse LDLᵀ on the
//! `G`/`C` union pattern. The ordering is the caller's: minimum degree
//! is fine up to a few thousand unknowns, and the power grid passes a
//! geometric nested dissection, which at 10⁵ unknowns is orders of
//! magnitude cheaper than any graph ordering in the workspace.

use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};
use mpvl_sparse::{compute_ordering, AddScaledPlan, CscMat, NumericLdlt, Ordering, SymbolicLdlt};
use std::sync::Arc;

/// Largest system the dense fallback may factor when the unpivoted
/// sparse LDLᵀ breaks down.
const DENSE_FALLBACK_MAX: usize = 4000;

/// `Z(s)` at every Laplace point in `s_points`, ordering the union
/// pattern by `perm` (`perm[new] = old`), or by minimum degree when
/// `perm` is `None`.
///
/// # Errors
///
/// A message when a point cannot be solved (an exact pole, or a sparse
/// breakdown on a system too large for the dense fallback).
pub fn exact_z(
    sys: &MnaSystem,
    s_points: &[Complex64],
    perm: Option<Vec<usize>>,
) -> Result<Vec<Mat<Complex64>>, String> {
    let g: CscMat<Complex64> = sys.g.map(Complex64::from_real);
    let c: CscMat<Complex64> = sys.c.map(Complex64::from_real);
    let plan = AddScaledPlan::new(&g, &c);
    let mut k = plan.build(Complex64::ONE, &g, Complex64::ONE, &c);
    let perm = perm.unwrap_or_else(|| compute_ordering(&k.adjacency(), Ordering::MinDegree));
    let sym = Arc::new(SymbolicLdlt::analyze_with_perm(&k, perm).map_err(|e| e.to_string())?);
    let mut num = NumericLdlt::new(sym);
    let bz = sys.b.map(Complex64::from_real);
    s_points
        .iter()
        .map(|&s| {
            let sigma = sys.sigma(s);
            plan.apply_into(
                Complex64::ONE,
                g.values(),
                sigma,
                c.values(),
                k.values_mut(),
            );
            match num.refactor_with_threads(&k, mpvl_par::thread_count()) {
                Ok(()) => Ok(bz.t_matmul(&num.solve_mat(&bz)).scale(sys.output_factor(s))),
                Err(_) if sys.dim() <= DENSE_FALLBACK_MAX => sys
                    .dense_z(s)
                    .map_err(|e| format!("exact solve at s = {s:?}: {e}")),
                Err(e) => Err(format!("exact solve at s = {s:?}: {e}")),
            }
        })
        .collect()
}

/// `s = j·2πf` for each frequency.
pub fn jw(freqs_hz: &[f64]) -> Vec<Complex64> {
    freqs_hz
        .iter()
        .map(|f| Complex64::new(0.0, 2.0 * std::f64::consts::PI * f))
        .collect()
}

/// Normwise relative error `max|a − b| / max|b|`.
pub fn rel_err(a: &Mat<Complex64>, b: &Mat<Complex64>) -> f64 {
    (a - b).max_abs() / b.max_abs().max(f64::MIN_POSITIVE)
}

/// Nested dissection of a set of mesh points, `perm[new] = old`: split
/// the bounding box across its longer side, order both halves
/// recursively, and the separator line last.
pub fn nested_dissection(coords: &[[usize; 2]]) -> Vec<usize> {
    let mut perm = Vec::with_capacity(coords.len());
    dissect(coords, (0..coords.len()).collect(), &mut perm);
    perm
}

fn dissect(coords: &[[usize; 2]], ids: Vec<usize>, perm: &mut Vec<usize>) {
    if ids.len() <= 32 {
        perm.extend(ids);
        return;
    }
    let extent = |axis: usize| {
        let along = ids.iter().map(|&i| coords[i][axis]);
        (along.clone().min().unwrap_or(0), along.max().unwrap_or(0))
    };
    let (rows, cols) = (extent(0), extent(1));
    let axis = usize::from(cols.1 - cols.0 > rows.1 - rows.0);
    let (lo, hi) = [rows, cols][axis];
    if lo == hi {
        perm.extend(ids);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let (mut left, mut right, mut sep) = (Vec::new(), Vec::new(), Vec::new());
    for i in ids {
        match coords[i][axis].cmp(&mid) {
            std::cmp::Ordering::Less => left.push(i),
            std::cmp::Ordering::Greater => right.push(i),
            std::cmp::Ordering::Equal => sep.push(i),
        }
    }
    dissect(coords, left, perm);
    dissect(coords, right, perm);
    perm.extend(sep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{grid_coords, power_grid, GridParams};
    use mpvl_circuit::{generators::rc_ladder, parse_spice};
    use mpvl_sparse::is_permutation;
    use mpvl_testkit::SmallRng;

    #[test]
    fn matches_the_dense_reference() {
        let sys = MnaSystem::assemble(&rc_ladder(30, 100.0, 1e-12)).unwrap();
        let s = jw(&[1e6, 1e9]);
        let z = exact_z(&sys, &s, None).unwrap();
        for (zi, &si) in z.iter().zip(&s) {
            assert!(rel_err(zi, &sys.dense_z(si).unwrap()) < 1e-12);
        }
    }

    #[test]
    fn nested_dissection_orders_a_grid() {
        let p = GridParams {
            side: 20,
            pads: 2,
            ..GridParams::full()
        };
        let text = power_grid(&p, &mut SmallRng::seed_from_u64(1));
        let (ckt, names) = parse_spice(&text).unwrap();
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let coords = grid_coords(&names, sys.dim()).unwrap();
        let perm = nested_dissection(&coords);
        assert!(is_permutation(&perm, sys.dim()));
        let s = jw(&[1e8]);
        let z = exact_z(&sys, &s, Some(perm)).unwrap();
        assert!(rel_err(&z[0], &sys.dense_z(s[0]).unwrap()) < 1e-12);
    }
}
