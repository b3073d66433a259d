//! Micro-benchmarks of the SyMPVL reduction itself: cost vs order and vs
//! circuit size, the full-reorthogonalization toggle, the operator
//! apply `M⁻¹CM⁻ᵀ` one column at a time against the blocked path, and a
//! many-port run where block re-orthogonalization dominates.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_lanczos`;
//! writes `target/bench/BENCH_lanczos.json`.

use mpvl_circuit::generators::{interconnect, InterconnectParams};
use mpvl_circuit::MnaSystem;
use mpvl_la::Mat;
use mpvl_testkit::bench::Bench;
use sympvl::{
    block_lanczos, sympvl, GFactor, KrylovOperator, LanczosOptions, LinearOperator, SympvlOptions,
};

fn main() {
    let mut bench = Bench::new("lanczos");

    let ckt = interconnect(&InterconnectParams {
        wires: 8,
        segments: 40,
        coupling_reach: 3,
        ..InterconnectParams::default()
    });
    let sys = MnaSystem::assemble(&ckt).expect("valid circuit");
    for order in [8usize, 16, 32, 64] {
        bench.bench(&format!("sympvl_order/{order}"), || {
            sympvl(&sys, order, &SympvlOptions::default()).expect("reduce");
        });
    }

    for wires in [4usize, 8, 17] {
        let ckt = interconnect(&InterconnectParams {
            wires,
            coupling_reach: 4,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).expect("valid circuit");
        bench.bench(&format!("sympvl_size/{}", sys.dim()), || {
            sympvl(&sys, 24, &SympvlOptions::default()).expect("reduce");
        });
    }

    let ckt = interconnect(&InterconnectParams {
        wires: 8,
        segments: 40,
        coupling_reach: 3,
        ..InterconnectParams::default()
    });
    let sys = MnaSystem::assemble(&ckt).expect("valid circuit");
    bench.bench("sympvl_reorth/full", || {
        sympvl(&sys, 48, &SympvlOptions::default()).expect("reduce");
    });
    let banded = SympvlOptions::new().with_lanczos(LanczosOptions {
        full_reorth: false,
        ..LanczosOptions::default()
    });
    bench.bench("sympvl_reorth/banded", || {
        sympvl(&sys, 48, &banded).expect("reduce");
    });

    // 64 operator applies on the 40,401-unknown RC grid's factor: one
    // column at a time, and as one block (row-interleaved solves in
    // `mpvl_sparse::ROW_SOLVE_WIDTH`-column chunks). The outputs are bit-identical.
    let grid = mpvl_bench::rc_grid(201);
    let k = grid.g.add_scaled(1.0, &grid.c, 1e9);
    let factor = GFactor::factor(&k, k.nrows()).expect("factor");
    let op = KrylovOperator::new(&factor, &grid.c);
    let n = op.dim();
    let x = Mat::from_fn(n, 64, |i, j| ((i * 7 + j * 13) as f64 * 0.37).sin());
    let mut y = Mat::zeros(n, 64);
    bench.bench("krylov_apply/columns64", || {
        for j in 0..64 {
            op.apply_into(x.col(j), y.col_mut(j));
        }
    });
    bench.bench("krylov_apply/block64", || {
        op.apply_block(&x, &mut y);
    });

    // One 64-port, order-128 Lanczos run on the same factor, ports at 64
    // spread unit vectors: the `grid_cold` shape at 0.4× the unknowns,
    // where the block Gram–Schmidt re-orthogonalization dominates.
    let b = Mat::from_fn(n, 64, |i, j| f64::from(u8::from(i == j * n / 64)));
    let start = factor.apply_minv_mat(&b);
    let j_diag = factor.j_diag();
    bench.bench("reorth/grid201_p64", || {
        let out = block_lanczos(&op, &j_diag, &start, 128, &LanczosOptions::default());
        assert_eq!(out.order(), 128);
    });

    bench.finish();
    mpvl_bench::export_obs();
}
