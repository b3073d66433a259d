//! Micro-benchmarks of the sparse LDLᵀ substrate: factorization and solve
//! cost vs size, and the effect of the fill-reducing ordering.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_sparse_ldlt`;
//! writes `target/bench/BENCH_sparse_ldlt.json`.

use mpvl_circuit::generators::{interconnect, InterconnectParams};
use mpvl_circuit::{Circuit, MnaSystem, GROUND};
use mpvl_sparse::{NumericLdlt, Ordering, SparseLdlt, SymbolicLdlt};
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

/// `G + s₀C` of a `side × side` RC mesh: 0.05 Ω segments, 10 fF from
/// every node to ground and a port at one corner — the 2-D power-grid
/// shape where the fill-reducing ordering dominates a cold factor.
fn rc_grid(side: usize) -> mpvl_sparse::CscMat<f64> {
    let mut ckt = Circuit::new();
    let nodes: Vec<usize> = (0..side * side).map(|_| ckt.add_node()).collect();
    for r in 0..side {
        for c in 0..side {
            let a = nodes[r * side + c];
            if c + 1 < side {
                ckt.add_resistor(&format!("Rh{r}_{c}"), a, nodes[r * side + c + 1], 0.05);
            }
            if r + 1 < side {
                ckt.add_resistor(&format!("Rv{r}_{c}"), a, nodes[(r + 1) * side + c], 0.05);
            }
            ckt.add_capacitor(&format!("C{r}_{c}"), a, GROUND, 10e-15);
        }
    }
    ckt.add_port("P0", nodes[0], GROUND);
    let sys = MnaSystem::assemble(&ckt).expect("valid circuit");
    sys.g.add_scaled(1.0, &sys.c, 1e9)
}

fn main() {
    let mut bench = Bench::new("sparse_ldlt");

    for (n, k) in systems() {
        bench.bench(&format!("ldlt_factor/{n}"), || {
            SparseLdlt::factor(&k, Ordering::MinDegree).expect("factor");
        });
    }

    for (n, k) in systems() {
        let f = SparseLdlt::factor(&k, Ordering::MinDegree).expect("factor");
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        bench.bench(&format!("ldlt_solve/{n}"), || {
            f.solve(&rhs);
        });
    }

    // Numeric-kernel comparison at the largest case: the reference
    // scalar up-looking kernel vs the supernodal kernel (serial, and
    // with the ambient worker count) on a shared symbolic analysis —
    // the repeated-refactor cost every sweep point pays.
    let (n, k) = systems().pop().expect("nonempty");
    let sym = Arc::new(SymbolicLdlt::analyze(&k, Ordering::MinDegree).expect("analyze"));
    let mut num = NumericLdlt::new(Arc::clone(&sym));
    let scalar_name = format!("ldlt_numeric_scalar/{n}");
    let supernodal_name = format!("ldlt_numeric_supernodal/{n}");
    bench.bench(&scalar_name, || {
        num.refactor_scalar(&k).expect("refactor");
    });
    bench.bench(&supernodal_name, || {
        num.refactor(&k).expect("refactor");
    });
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
        ("quotient_md", Ordering::QuotientMinDegree),
    ] {
        bench.bench(&format!("ldlt_ordering/{name}"), || {
            SparseLdlt::factor(&k, o).expect("factor");
        });
    }
    let grid = rc_grid(201);
    bench.bench(
        &format!("ldlt_ordering/mindegree_grid/{}", grid.nrows()),
        || {
            SparseLdlt::factor(&grid, Ordering::MinDegree).expect("factor");
        },
    );

    bench.finish();
    mpvl_bench::export_obs();
}
