//! Multi-point vs single-point SyMPVL at equal total order, over a
//! 3-decade band on the paper's §7.2 package case.
//!
//! The headline pair is `multipoint/worst_band_error` vs
//! `singlepoint/worst_band_error` at the default budget: the 2-point
//! merged model must beat a mid-band single-point expansion of the same
//! total order on worst-over-band relative error (Gate 5, checked here;
//! the comparison is where the moments are spent, not how fast, so it
//! holds on any core count). An accuracy-vs-order sweep rides along for
//! the EXPERIMENTS table, plus reduction timings for both drivers.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_multipoint`;
//! writes `target/bench/BENCH_multipoint.json`, then checks the gate.

use mpvl_bench::Gates;
use mpvl_circuit::generators::{package, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};
use mpvl_sim::{ac_sweep, log_space, AcPoint};
use mpvl_testkit::bench::Bench;
use sympvl::{
    expansion_shift, reduce_multipoint, sympvl, MultiPointOptions, ReducedModel, Shift,
    SympvlOptions,
};

/// Worst relative error of `model` against the exact sweep, skipping
/// probe frequencies that land on a model pole.
fn worst_band_error(model: &ReducedModel, exact: &[AcPoint]) -> f64 {
    let mut worst = 0.0f64;
    for pt in exact {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * pt.freq_hz);
        let Ok(z): Result<Mat<Complex64>, _> = model.eval(s) else {
            continue;
        };
        worst = worst.max((&z - &pt.z).max_abs() / pt.z.max_abs().max(1e-300));
    }
    worst
}

fn main() {
    let mut bench = Bench::new("multipoint");

    // A compact version of the paper's package model: 2 coupled signal
    // pins (4 ports) out of 12, 6 RLC sections per pin.
    let sys = MnaSystem::assemble(&package(&PackageParams {
        pins: 12,
        signal_pins: vec![0, 1],
        sections: 6,
        ..PackageParams::default()
    }))
    .expect("assemble package");
    let (f_lo, f_hi) = (1e7, 1e10);
    let freqs = log_space(f_lo, f_hi, 25);
    let exact = ac_sweep(&sys, &freqs).expect("exact sweep");
    println!(
        "workload: package model, dim {}, {} ports, band {:.0e}..{:.0e} Hz",
        sys.dim(),
        sys.num_ports(),
        f_lo,
        f_hi
    );

    let total = 16;
    let multi_opts = MultiPointOptions::for_band(f_lo, f_hi)
        .expect("band")
        .with_total_order(total)
        .expect("order")
        .with_points(vec![f_lo, f_hi])
        .expect("points");
    // The strongest single-point baseline: same total order, expanded
    // at the band's geometric center.
    let single_opts = SympvlOptions::new()
        .with_shift(Shift::Value(expansion_shift(
            (f_lo * f_hi).sqrt(),
            sys.s_power,
        )))
        .expect("shift");

    bench.bench("multipoint/reduce_2pt", || {
        reduce_multipoint(&sys, &multi_opts).expect("multi-point reduction");
    });
    bench.bench("singlepoint/reduce", || {
        sympvl(&sys, total, &single_opts).expect("single-point reduction");
    });

    // Headline accuracy pair at the default budget (Gate 5), then the
    // accuracy-vs-order table behind it.
    println!("\naccuracy vs total order (worst relative error over the band):");
    for q in [8usize, 16, 24] {
        let multi = reduce_multipoint(
            &sys,
            &multi_opts.clone().with_total_order(q).expect("order"),
        )
        .expect("multi-point reduction");
        let single = sympvl(&sys, q, &single_opts).expect("single-point reduction");
        let em = worst_band_error(&multi.model, &exact);
        let es = worst_band_error(&single, &exact);
        println!(
            "  q={q:>2}: 2-point {em:.3e} (merged order {})  vs  single mid-band {es:.3e}",
            multi.model.order()
        );
        if q == total {
            bench.push_value("multipoint/worst_band_error", em);
            bench.push_value("singlepoint/worst_band_error", es);
        } else {
            bench.push_value(&format!("multipoint/worst_band_error_q{q}"), em);
            bench.push_value(&format!("singlepoint/worst_band_error_q{q}"), es);
        }
    }

    // Adaptive placement at the same budget: up to 4 points, spent where
    // the endpoint models disagree.
    let adaptive = reduce_multipoint(
        &sys,
        &MultiPointOptions::for_band(f_lo, f_hi)
            .expect("band")
            .with_total_order(total)
            .expect("order")
            .with_max_points(4)
            .expect("cap"),
    )
    .expect("adaptive multi-point reduction");
    let ea = worst_band_error(&adaptive.model, &exact);
    println!(
        "adaptive placement: {} points {:?}, worst error {ea:.3e}",
        adaptive.point_freqs_hz.len(),
        adaptive.point_freqs_hz
    );
    bench.push_value("multipoint_adaptive/worst_band_error", ea);
    bench.push_value(
        "multipoint_adaptive/points",
        adaptive.point_freqs_hz.len() as f64,
    );

    let mut gates = Gates::new("multipoint");
    gates.check(
        &bench,
        [
            "multipoint/worst_band_error",
            "singlepoint/worst_band_error",
        ],
        |[em, es]| {
            if !(em.is_finite() && es.is_finite()) || em >= es {
                Err(format!(
                    "2-point worst-band error {em:.3e} is not below the equal-order \
                     single-point error {es:.3e} — the multi-point merge is not paying \
                     for its points"
                ))
            } else {
                Ok(format!(
                    "2-point worst-band error {em:.3e} vs single-point {es:.3e} at \
                     equal total order ({:.2}x tighter)",
                    es / em
                ))
            }
        },
    );
    gates.finish(bench);
}
