//! Exact moment computation, for verifying the Padé property.
//!
//! The moments of `Z` about the (shifted) expansion point are
//! `mₖ = (−1)ᵏ Bᵀ (G̃⁻¹C)ᵏ G̃⁻¹ B` with `G̃ = G + s₀C`; each additional
//! moment costs one block solve with `G̃` plus one sparse multiply by `C`.
//! This is exactly the quantity AWE computes explicitly (§3.1) — and the
//! reason AWE is unstable: the columns of `(G̃⁻¹C)ᵏG̃⁻¹B` converge to the
//! dominant eigenvector, so the moments lose information exponentially
//! fast in `k`. Here they are used only with small `k`, as a test oracle.

use crate::{GFactor, SympvlError};
use mpvl_circuit::MnaSystem;
use mpvl_la::Mat;

/// Computes the exact moments `m₀ … m_{count−1}` of
/// `Z(σ) = Bᵀ(G + σC)⁻¹B` about `σ = s₀`.
///
/// # Errors
///
/// Returns [`SympvlError::Factorization`] when `G + s₀C` is singular.
pub fn exact_moments(sys: &MnaSystem, s0: f64, count: usize) -> Result<Vec<Mat<f64>>, SympvlError> {
    let shifted = if s0 == 0.0 {
        sys.g.clone()
    } else {
        sys.g.add_scaled(1.0, &sys.c, s0)
    };
    let factor = GFactor::factor(&shifted, sys.num_node_unknowns)?;
    let n = sys.dim();
    let p = sys.num_ports();
    let mut out = Vec::with_capacity(count);
    // W_0 = G̃^{-1} B ; W_{k+1} = G̃^{-1} C W_k ; m_k = (-1)^k B^T W_k.
    // j_diag is hoisted out of the per-solve loop, and the block solve
    // routes through the blocked M⁻¹ appliers (bit-identical per column).
    let j_diag = factor.j_diag();
    let solve_mat = |m: &Mat<f64>| -> Mat<f64> {
        // G̃^{-1} X = M^{-T} J M^{-1} X.
        let mut y = factor.apply_minv_mat(m);
        for j in 0..p {
            for (v, s) in y.col_mut(j).iter_mut().zip(&j_diag) {
                *v *= s;
            }
        }
        factor.apply_minv_t_mat(&y)
    };
    let mut w = solve_mat(&sys.b);
    let mut cw = Mat::zeros(n, p);
    for k in 0..count {
        let mk = sys.b.t_matmul(&w);
        out.push(if k % 2 == 1 { mk.map(|v| -v) } else { mk });
        if k + 1 < count {
            sys.c.matvec_mat_into(&w, &mut cw);
            w = solve_mat(&cw);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::Circuit;
    use mpvl_la::Complex64;

    #[test]
    fn moments_match_taylor_series_of_small_system() {
        // Parallel RC: Z(sigma) = 1/(g + sigma c) = (1/g) sum (-sigma c/g)^k.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add_resistor("R", n1, 0, 2.0); // g = 0.5
        ckt.add_capacitor("C", n1, 0, 3.0);
        ckt.add_port("p", n1, 0);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let ms = exact_moments(&sys, 0.0, 4).unwrap();
        let (g, c): (f64, f64) = (0.5, 3.0);
        for (k, m) in ms.iter().enumerate() {
            let expect = (1.0 / g) * (c / g).powi(k as i32);
            // m_k = (-1)^k B (G^{-1}C)^k G^{-1} B = (c/g)^k / g with our
            // sign convention m_k = (-1)^k * positive -> Z = sum x^k m_k.
            let direct = expect * if k % 2 == 1 { -1.0 } else { 1.0 };
            let _ = expect;
            assert!(
                (m[(0, 0)] - direct).abs() < 1e-12 * direct.abs().max(1.0),
                "k={k}: {} vs {direct}",
                m[(0, 0)]
            );
        }
        // Series sums to Z at small sigma.
        let sigma: f64 = 0.001;
        let series: f64 = (0..4).map(|k| ms[k][(0, 0)] * sigma.powi(k as i32)).sum();
        let z = sys.dense_z(Complex64::from_real(sigma)).unwrap()[(0, 0)].re;
        assert!((series - z).abs() < 1e-6);
    }

    #[test]
    fn shifted_moments_expand_about_s0() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add_resistor("R", n1, 0, 1.0);
        ckt.add_capacitor("C", n1, 0, 1.0);
        ckt.add_port("p", n1, 0);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        // Z(sigma) = 1/(1 + sigma); about s0 = 1: 1/(2 + x) = 0.5 - x/4 + ...
        let ms = exact_moments(&sys, 1.0, 3).unwrap();
        assert!((ms[0][(0, 0)] - 0.5).abs() < 1e-12);
        assert!((ms[1][(0, 0)] + 0.25).abs() < 1e-12);
        assert!((ms[2][(0, 0)] - 0.125).abs() < 1e-12);
    }
}
