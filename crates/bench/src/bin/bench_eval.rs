//! Compiled pole–residue evaluation vs. the per-point LU path.
//!
//! The tentpole claim: once a reduced model is compiled to pole–residue
//! form, each frequency point costs O(q·p²) with zero allocation instead
//! of an O(q³) LU factorization. This bench measures both paths over the
//! same order × point-count grid and records the speedup.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_eval`;
//! writes `target/bench/BENCH_eval.json`, then checks Gate 3: the
//! compiled plan must be strictly faster than the LU path on the
//! order-40 × 2001-point sweep. The comparison is algorithmic (O(q·p²)
//! vs O(q³) per point, both single-threaded inner loops), so it holds on
//! any core count.

use mpvl_bench::Gates;
use mpvl_circuit::generators::{interconnect, package, InterconnectParams, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};
use mpvl_sim::FreqGrid;
use mpvl_testkit::bench::Bench;
use sympvl::{sympvl, EvalPlan, ReducedModel, SympvlOptions};

fn s_values(points: usize) -> Vec<Complex64> {
    FreqGrid::log(1e6, 1e10, points)
        .expect("valid grid")
        .as_slice()
        .iter()
        .map(|&f| Complex64::new(0.0, 2.0 * std::f64::consts::PI * f))
        .collect()
}

fn bench_pair(bench: &mut Bench, model: &ReducedModel, order: usize, points: usize) {
    let plan = EvalPlan::compile(model);
    assert!(
        plan.is_compiled(),
        "order {order}: plan fell back ({:?}) — bench would compare LU to LU",
        plan.fallback_reason()
    );
    let sv = s_values(points);
    let p = model.num_ports();

    bench.bench(&format!("eval_lu/{order}x{points}"), || {
        for &s in &sv {
            let z = model.eval(s).expect("LU eval");
            std::hint::black_box(&z);
        }
    });

    let mut ws = plan.workspace();
    let mut outs: Vec<Mat<Complex64>> = (0..points).map(|_| Mat::zeros(p, p)).collect();
    bench.bench(&format!("eval_compiled/{order}x{points}"), || {
        plan.eval_many_into(&mut ws, &sv, &mut outs)
            .expect("compiled eval");
        std::hint::black_box(&outs);
    });

    let lu = bench
        .median_of(&format!("eval_lu/{order}x{points}"))
        .expect("lu median");
    let compiled = bench
        .median_of(&format!("eval_compiled/{order}x{points}"))
        .expect("compiled median");
    bench.push_value(
        &format!("speedup/compiled_vs_lu/{order}x{points}"),
        lu / compiled,
    );
}

fn main() {
    let mut bench = Bench::new("eval");

    // Symmetric path: 8-port coupled RC interconnect, the paper's
    // many-terminal workhorse shape.
    let sys = MnaSystem::assemble(&interconnect(&InterconnectParams {
        wires: 8,
        segments: 40,
        coupling_reach: 2,
        ..InterconnectParams::default()
    }))
    .expect("assemble interconnect");
    for order in [20usize, 40, 80] {
        let model = sympvl(&sys, order, &SympvlOptions::default()).expect("reduce");
        for points in [201usize, 2001] {
            bench_pair(&mut bench, &model, order, points);
        }
    }

    // General (non-identity-J) path coverage: the RLC package model.
    let rlc = MnaSystem::assemble(&package(&PackageParams::default())).expect("assemble package");
    let model = sympvl(&rlc, 24, &SympvlOptions::default()).expect("reduce package");
    bench_pair(&mut bench, &model, 24, 201);

    let mut gates = Gates::new("eval");
    gates.check(
        &bench,
        ["eval_lu/40x2001", "eval_compiled/40x2001"],
        |[lu, compiled]| {
            if compiled >= lu {
                Err(format!(
                    "compiled eval at 40x2001 is not faster than LU: \
                     {compiled:.3e}s vs {lu:.3e}s"
                ))
            } else {
                Ok(format!(
                    "compiled eval {compiled:.3e}s vs LU {lu:.3e}s at 40x2001 \
                     (speedup {:.2}x)",
                    lu / compiled
                ))
            }
        },
    );
    gates.finish(bench);
}
