//! **Figure 2** — the PEEC circuit transfer function (paper §7.1).
//!
//! Reproduces the experiment: an LC two-port in the `σ = s²` form with a
//! frequency shift for the singular `G`; the exact `|Z₂₁|` over the band
//! against SyMPVL models of order 20 (visibly missing resonances), 50
//! ("a good match", the paper's headline order), and 56 ("a perfect
//! match" after 6 more iterations).
//!
//! ```sh
//! cargo run --release -p mpvl-bench --bin fig2_peec
//! ```

use mpvl_bench::{max, median, rel_err, write_csv};
use mpvl_circuit::generators::{peec, stats, PeecParams};
use mpvl_la::Complex64;
use mpvl_sim::{ac_sweep, try_lin_space};
use sympvl::{sympvl, Shift, SympvlOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figure 2: PEEC LC two-port, exact vs SyMPVL ===");
    let params = PeecParams::default();
    let model_def = peec(&params);
    let st = stats(&model_def.circuit);
    println!(
        "circuit: {} nodes, {} inductors, {} mutual couplings, {} capacitors (substitute for Ruehli's PEEC model)",
        st.nodes, st.inductors, st.mutuals, st.capacitors
    );
    let sys = &model_def.system;
    println!(
        "σ = s² form, dim {}, p = 2 (B = [a, l] per eq. 25)",
        sys.dim()
    );

    // The paper's frequency shift (eq. 26) for the singular G.
    let s0 = (2.0 * std::f64::consts::PI * 1e9).powi(2);
    println!("frequency shift s0 = {s0:.4e} (σ domain)");

    let freqs = try_lin_space(1e8, 5e9, 160)?;
    let exact = ac_sweep(sys, &freqs)?;

    let orders = [20usize, 50, 56];
    let mut models = Vec::new();
    for &n in &orders {
        models.push(sympvl(
            sys,
            n,
            &SympvlOptions::new().with_shift(Shift::Value(s0))?,
        )?);
    }

    let mut rows = Vec::new();
    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); orders.len()];
    println!(
        "{:>12} {:>13} {:>13} {:>13} {:>13}",
        "freq (Hz)", "|Z21| exact", "n=20", "n=50", "n=56"
    );
    for (i, pt) in exact.iter().enumerate() {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * pt.freq_hz);
        let z_exact = pt.z[(1, 0)];
        let mut row = vec![pt.freq_hz, z_exact.abs()];
        let mut mags = Vec::new();
        for (k, m) in models.iter().enumerate() {
            let z = m.eval(s)?[(1, 0)];
            errs[k].push(rel_err(z, z_exact));
            mags.push(z.abs());
            row.push(z.abs());
        }
        rows.push(row);
        if i % 16 == 0 {
            println!(
                "{:>12.4e} {:>13.5e} {:>13.5e} {:>13.5e} {:>13.5e}",
                pt.freq_hz,
                z_exact.abs(),
                mags[0],
                mags[1],
                mags[2]
            );
        }
    }
    println!("\nmodel accuracy over the 0.1–5 GHz band (|Z21| relative error):");
    for (k, &n) in orders.iter().enumerate() {
        println!(
            "  order {:>2}: median {:.3e}, worst {:.3e}  (matches {} moments)",
            n,
            median(&errs[k]),
            max(&errs[k]),
            models[k].matched_moments()
        );
    }
    println!(
        "\npaper shape check: order 20 misses resonances (large error), order 50 tracks the band, order 56 converged further"
    );
    write_csv(
        "fig2_peec",
        &["freq_hz", "z21_exact", "z21_n20", "z21_n50", "z21_n56"],
        &rows,
    );
    Ok(())
}
