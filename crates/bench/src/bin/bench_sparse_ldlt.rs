//! Micro-benchmarks of the sparse LDLᵀ substrate: factorization and solve
//! cost vs size, and the effect of the fill-reducing ordering.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_sparse_ldlt`;
//! writes `target/bench/BENCH_sparse_ldlt.json`, then checks Gate 1: the
//! supernodal numeric factor must not be slower than the reference
//! scalar kernel at n = 1360 (a 5 % median tolerance absorbs timer
//! noise).

use mpvl_bench::{rc_grid, Gates};
use mpvl_circuit::generators::{interconnect, InterconnectParams};
use mpvl_circuit::MnaSystem;
use mpvl_sparse::{quotient_min_degree, NumericLdlt, Ordering, SymbolicLdlt};
use mpvl_testkit::bench::Bench;
use std::sync::Arc;

fn systems() -> Vec<(usize, mpvl_sparse::CscMat<f64>)> {
    [4usize, 8, 17]
        .into_iter()
        .map(|wires| {
            let ckt = interconnect(&InterconnectParams {
                wires,
                coupling_reach: 4,
                ..InterconnectParams::default()
            });
            let sys = MnaSystem::assemble(&ckt).expect("valid circuit");
            // Factor G + s0 C: the matrix SyMPVL and the AC sweep factor.
            let k = sys.g.add_scaled(1.0, &sys.c, 1e9);
            (k.nrows(), k)
        })
        .collect()
}

fn main() {
    let mut bench = Bench::new("sparse_ldlt");

    for (n, k) in systems() {
        bench.bench(&format!("ldlt_factor/{n}"), || {
            NumericLdlt::factor(&k, Ordering::MinDegree).expect("factor");
        });
    }

    for (n, k) in systems() {
        let f = NumericLdlt::factor(&k, Ordering::MinDegree).expect("factor");
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        bench.bench(&format!("ldlt_solve/{n}"), || {
            f.solve(&rhs);
        });
    }

    // Numeric-kernel comparison at the largest case: the reference
    // scalar up-looking kernel vs the supernodal kernel (serial, and
    // with the ambient worker count) on a shared symbolic analysis —
    // the repeated-refactor cost every sweep point pays. Gate 1 compares
    // the first two medians, so they are timed interleaved.
    let (n, k) = systems().pop().expect("nonempty");
    let sym = Arc::new(SymbolicLdlt::analyze(&k, Ordering::MinDegree).expect("analyze"));
    let mut num = NumericLdlt::new(Arc::clone(&sym));
    let mut scalar = NumericLdlt::new(Arc::clone(&sym));
    let scalar_name = format!("ldlt_numeric_scalar/{n}");
    let supernodal_name = format!("ldlt_numeric_supernodal/{n}");
    bench.bench_interleaved(&mut [
        (&scalar_name, &mut || {
            scalar.refactor_scalar(&k).expect("refactor");
        }),
        (&supernodal_name, &mut || {
            num.refactor(&k).expect("refactor");
        }),
    ]);
    let threads = mpvl_par::thread_count();
    bench.bench(&format!("ldlt_numeric_supernodal_mt/{n}"), || {
        num.refactor_with_threads(&k, threads).expect("refactor");
    });
    if let (Some(s), Some(sn)) = (
        bench.median_of(&scalar_name),
        bench.median_of(&supernodal_name),
    ) {
        // > 1.0 means the supernodal kernel is faster than scalar.
        bench.push_value(&format!("speedup/supernodal_vs_scalar/{n}"), s / sn);
    }

    let (_, k) = systems().pop().expect("nonempty");
    for (name, o) in [
        ("natural", Ordering::Natural),
        ("rcm", Ordering::Rcm),
        ("mindegree", Ordering::MinDegree),
    ] {
        bench.bench(&format!("ldlt_ordering/{name}"), || {
            NumericLdlt::factor(&k, o).expect("factor");
        });
    }
    bench.bench("ldlt_ordering/quotient_md", || {
        NumericLdlt::factor_with_perm(&k, quotient_min_degree(&k.adjacency())).expect("factor");
    });
    // 40,401 unknowns: `MinDegree` takes the quotient path here.
    let grid = rc_grid(201);
    let grid = grid.g.add_scaled(1.0, &grid.c, 1e9);
    let n = grid.nrows();
    bench.bench(&format!("ldlt_ordering/mindegree_grid/{n}"), || {
        NumericLdlt::factor(&grid, Ordering::MinDegree).expect("factor");
    });

    let mut gates = Gates::new("sparse_ldlt");
    const FACTOR_TOLERANCE: f64 = 1.05;
    gates.check(
        &bench,
        ["ldlt_numeric_scalar/1360", "ldlt_numeric_supernodal/1360"],
        |[scalar, supernodal]| {
            if supernodal > scalar * FACTOR_TOLERANCE {
                Err(format!(
                    "supernodal factor at n=1360 is slower than scalar: \
                     {supernodal:.3e}s vs {scalar:.3e}s (allowed {FACTOR_TOLERANCE}x)"
                ))
            } else {
                Ok(format!(
                    "supernodal factor {supernodal:.3e}s vs scalar {scalar:.3e}s at n=1360 \
                     (ratio {:.3})",
                    supernodal / scalar
                ))
            }
        },
    );
    gates.finish(bench);
}
