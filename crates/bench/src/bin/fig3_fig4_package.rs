//! **Figures 3 and 4** — the 64-pin package model (paper §7.2).
//!
//! Voltage transfer from pin 1's external terminal to (Fig. 3) the same
//! pin's internal terminal and (Fig. 4) the neighbouring signal pin's
//! internal terminal, comparing reduced models of order 48, 64, and 80
//! against the exact analysis of the ~2000-unknown RLC model.
//!
//! ```sh
//! cargo run --release -p mpvl-bench --bin fig3_fig4_package
//! ```

use mpvl_bench::{max, median, rel_err, write_csv};
use mpvl_circuit::generators::{package, stats, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_la::Complex64;
use mpvl_sim::{ac_sweep, try_lin_space};
use sympvl::{sympvl, Shift, SympvlOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figures 3 & 4: 64-pin package model, exact vs SyMPVL ===");
    let params = PackageParams::default();
    let ckt = package(&params);
    let st = stats(&ckt);
    println!(
        "package: {} pins ({} signal → 16 ports), {} R / {} C / {} L / {} K elements",
        params.pins,
        params.signal_pins.len(),
        st.resistors,
        st.capacitors,
        st.inductors,
        st.mutuals
    );
    let sys = MnaSystem::assemble_general(&ckt)?;
    println!(
        "MNA dimension {} (paper: ≈2000); most accurate model below uses only 80 state variables",
        sys.dim()
    );

    let freqs = try_lin_space(1e8, 2e9, 48)?;
    println!("running exact AC sweep ({} factorizations)...", freqs.len());
    let exact = ac_sweep(&sys, &freqs)?;

    // In-band expansion point.
    let s0 = Shift::Value(2.0 * std::f64::consts::PI * 7e8);
    let orders = [48usize, 64, 80];
    let mut models = Vec::new();
    for &n in &orders {
        models.push(sympvl(&sys, n, &SympvlOptions::new().with_shift(s0)?)?);
    }

    // Port map (generator layout): 0 = pin1 ext, 1 = pin1 int,
    // 2 = pin2(neighbouring signal pin) ext, 3 = pin2 int.
    let cases = [
        ("fig3_pin1_to_pin1int", 1usize),
        ("fig4_pin1_to_pin2int", 3usize),
    ];
    for (name, out_port) in cases {
        println!("\n--- {name}: |V_out/V_in| with pin 1 external driven ---");
        println!(
            "{:>12} {:>12} {:>12} {:>12} {:>12}",
            "freq (Hz)", "exact", "n=48", "n=64", "n=80"
        );
        let mut rows = Vec::new();
        let mut errs: Vec<Vec<f64>> = vec![Vec::new(); orders.len()];
        for (i, pt) in exact.iter().enumerate() {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * pt.freq_hz);
            let h_exact = pt.z[(out_port, 0)] / pt.z[(0, 0)];
            let mut row = vec![pt.freq_hz, h_exact.abs()];
            let mut mags = Vec::new();
            for (k, m) in models.iter().enumerate() {
                let z = m.eval(s)?;
                let h = z[(out_port, 0)] / z[(0, 0)];
                errs[k].push(rel_err(h, h_exact));
                mags.push(h.abs());
                row.push(h.abs());
            }
            rows.push(row);
            if i % 6 == 0 {
                println!(
                    "{:>12.4e} {:>12.5e} {:>12.5e} {:>12.5e} {:>12.5e}",
                    pt.freq_hz,
                    h_exact.abs(),
                    mags[0],
                    mags[1],
                    mags[2]
                );
            }
        }
        println!("accuracy (relative voltage-transfer error):");
        for (k, &n) in orders.iter().enumerate() {
            println!(
                "  order {:>2}: median {:.3e}, worst {:.3e}",
                n,
                median(&errs[k]),
                max(&errs[k])
            );
        }
        write_csv(
            name,
            &["freq_hz", "h_exact", "h_n48", "h_n64", "h_n80"],
            &rows,
        );
    }
    println!(
        "\npaper shape check: accuracy improves monotonically 48 → 64 → 80; order 80 ({}x reduction) tracks the band closely",
        sys.dim() / 80
    );
    Ok(())
}
