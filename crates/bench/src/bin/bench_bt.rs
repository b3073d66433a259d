//! Balanced truncation vs single-point Padé at equal order, on the
//! strongly-coupled PEEC inductive case over a 2-decade band.
//!
//! The headline pair is `bt/worst_band_error` vs
//! `pade/worst_band_error` at q = 16: the band-global Hankel criterion
//! must beat a mid-band Padé expansion of the same order on
//! worst-over-band relative error (Gate 6, checked here; the band-global
//! Hankel criterion vs local moment matching is algorithmic, so it holds
//! on any core count). An accuracy-at-equal-order table at
//! q = 8/12/16 rides along for the EXPERIMENTS table, plus the full
//! reduction timings for both backends and the final extended-Krylov
//! basis dimension of the q = 16 reduction (`bt/basis_dim`). The
//! Lyapunov leg alone is timed by the `balanced/lyapunov` span inside
//! `reduce_balanced`.
//!
//! The PEEC structure is lossless LC, so its poles sit exactly on the
//! physical axis; errors are measured on the lightly damped contour
//! s = ω(0.02 + j) — a Q ≈ 50 measurement — where the transfer
//! function is smooth (see the `sympvl::balanced` module docs).
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_bt`;
//! writes `target/bench/BENCH_bt.json`, then checks the gate.

use mpvl_bench::Gates;
use mpvl_circuit::generators::{peec, PeecParams};
use mpvl_circuit::MnaSystem;
use mpvl_la::Complex64;
use mpvl_sim::log_space;
use mpvl_testkit::bench::Bench;
use sympvl::{
    expansion_shift, reduce_balanced, sympvl, BtOptions, ReducedModel, Shift, SympvlOptions,
};

/// Worst relative error of `model` against the exact response on the
/// damped contour s = ω(δ + j), skipping probes that land on a pole.
fn worst_contour_error(sys: &MnaSystem, model: &ReducedModel, freqs: &[f64], delta: f64) -> f64 {
    let mut worst = 0.0f64;
    for &f in freqs {
        let w = 2.0 * std::f64::consts::PI * f;
        let s = Complex64::new(delta * w, w);
        let zx = sys.dense_z(s).expect("exact response");
        let Ok(z) = model.eval(s) else {
            continue;
        };
        worst = worst.max((&z - &zx).max_abs() / zx.max_abs().max(1e-300));
    }
    worst
}

fn main() {
    let mut bench = Bench::new("bt");

    // The strongly-coupled case balanced truncation exists for: the
    // PEEC partial-inductance structure (J = I with s_power = 2, every
    // inductor coupled to every other).
    let sys = peec(&PeecParams::default()).system;
    let (f_lo, f_hi) = (1e8, 1e10);
    let delta = 0.02;
    let freqs = log_space(f_lo, f_hi, 33);
    println!(
        "workload: PEEC inductive model, dim {}, {} ports, band {:.0e}..{:.0e} Hz, contour δ={delta}",
        sys.dim(),
        sys.num_ports(),
        f_lo,
        f_hi
    );

    let bt_opts = |q: usize| {
        BtOptions::for_band(f_lo, f_hi)
            .expect("band")
            .with_order(q)
            .expect("order")
    };
    // The strongest single-point baseline: same order, expanded at the
    // band's geometric center.
    let pade_opts = SympvlOptions::new()
        .with_shift(Shift::Value(expansion_shift(
            (f_lo * f_hi).sqrt(),
            sys.s_power,
        )))
        .expect("shift");

    bench.bench("bt/reduce", || {
        reduce_balanced(&sys, &bt_opts(16)).expect("balanced truncation");
    });
    bench.bench("pade/reduce", || {
        sympvl(&sys, 16, &pade_opts).expect("single-point reduction");
    });

    // Accuracy at equal order (worst relative error on the damped
    // contour): the headline pair at q = 16, the table behind it.
    println!("\naccuracy at equal order (worst relative error on the damped contour):");
    for q in [8usize, 12, 16] {
        let bt = reduce_balanced(&sys, &bt_opts(q)).expect("balanced truncation");
        let pade = sympvl(&sys, q, &pade_opts).expect("single-point reduction");
        let eb = worst_contour_error(&sys, &bt.model, &freqs, delta);
        let ep = worst_contour_error(&sys, &pade, &freqs, delta);
        println!(
            "  q={q:>2}: BT {eb:.3e} (bound {:.3e})  vs  mid-band Padé {ep:.3e}",
            bt.hankel_bound
        );
        if q == 16 {
            println!(
                "        basis dim {}, {} iterations, converged = {}",
                bt.basis_dim, bt.iterations, bt.converged
            );
            bench.push_value("bt/basis_dim", bt.basis_dim as f64);
            bench.push_value("bt/worst_band_error", eb);
            bench.push_value("pade/worst_band_error", ep);
            bench.push_value("bt/hankel_bound", bt.hankel_bound);
        } else {
            bench.push_value(&format!("bt/worst_band_error_q{q}"), eb);
            bench.push_value(&format!("pade/worst_band_error_q{q}"), ep);
        }
    }

    let mut gates = Gates::new("bt");
    gates.check(
        &bench,
        ["bt/worst_band_error", "pade/worst_band_error"],
        |[eb, ep]| {
            if !(eb.is_finite() && ep.is_finite()) || eb >= ep {
                Err(format!(
                    "balanced-truncation worst-band error {eb:.3e} is not below the \
                     equal-order mid-band Padé error {ep:.3e} — the band-global Hankel \
                     criterion is not paying for its Lyapunov solve"
                ))
            } else {
                Ok(format!(
                    "balanced-truncation worst-band error {eb:.3e} vs equal-order Padé \
                     {ep:.3e} on the PEEC band ({:.2}x tighter)",
                    ep / eb
                ))
            }
        },
    );
    gates.finish(bench);
}
