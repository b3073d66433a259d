//! The operator-apply schedule: blocked applies give the bits of scalar
//! applies at every width, and the Lanczos process applies the operator
//! to each accepted vector exactly once, however its run is split.

use mpvl_circuit::{Circuit, MnaSystem, GROUND};
use mpvl_la::Mat;
use mpvl_sparse::{EXPLICIT_MD_MAX, ROW_SOLVE_WIDTH};
use std::cell::Cell;
use sympvl::{BlockLanczos, GFactor, KrylovOperator, LanczosOptions, LinearOperator};

/// A `rows × cols` RC mesh with `ports` ports spread along its first row.
fn rc_grid(rows: usize, cols: usize, ports: usize) -> MnaSystem {
    let mut ckt = Circuit::new();
    let nodes: Vec<usize> = (0..rows * cols).map(|_| ckt.add_node()).collect();
    for r in 0..rows {
        for c in 0..cols {
            let a = nodes[r * cols + c];
            if c + 1 < cols {
                ckt.add_resistor(&format!("Rh{r}_{c}"), a, nodes[r * cols + c + 1], 0.05);
            }
            if r + 1 < rows {
                ckt.add_resistor(&format!("Rv{r}_{c}"), a, nodes[(r + 1) * cols + c], 0.07);
            }
            let cap = 10e-15 * (1.0 + 0.1 * ((r * 7 + c * 3) % 5) as f64);
            ckt.add_capacitor(&format!("C{r}_{c}"), a, GROUND, cap);
        }
    }
    for k in 0..ports {
        ckt.add_port(&format!("P{k}"), nodes[k * cols / ports], GROUND);
    }
    MnaSystem::assemble(&ckt).expect("valid circuit")
}

/// 64 columns mixing dense values, exact zeros, `-0.0` entries, unit
/// vectors, all-zero columns of either sign and columns of zeros of
/// alternating sign (where a `-0.0` meets a `+0.0` pivot in `L`).
fn probe_block(n: usize) -> Mat<f64> {
    Mat::from_fn(n, 64, |i, j| match j % 8 {
        0 => f64::from(u8::from(i == (j * 131) % n)),
        1 => -0.0,
        2 => 0.0,
        3 if i % 3 == 0 => -0.0,
        4 if i % 2 == 1 => 0.0,
        5 if i > n / 2 => -0.0,
        6 if i % 2 == 0 => 0.0,
        6 => -0.0,
        _ => ((i * 7 + j * 13) as f64 * 0.37).sin(),
    })
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}, row {i}: {a} vs {b}");
    }
}

fn check_block_widths(sys: &MnaSystem) {
    let k = sys.g.add_scaled(1.0, &sys.c, 1e9);
    let factor = GFactor::factor(&k, k.nrows()).expect("factor");
    assert!(matches!(factor, GFactor::Sparse { .. }));
    let op = KrylovOperator::new(&factor, &sys.c);
    let n = op.dim();
    let x = probe_block(n);

    // The factor's own blocked appliers see the `-0.0` entries directly
    // (the operator's `C` product never produces one): every kernel
    // width and a split chunk.
    let mut stage = vec![0.0; n * ROW_SOLVE_WIDTH];
    let mut work = vec![0.0; n];
    let mut want = vec![0.0; n];
    for w in 1..=ROW_SOLVE_WIDTH + 1 {
        let xw = Mat::from_fn(n, w, |i, j| x[(i, j)]);
        let mut yw = Mat::zeros(n, w);
        factor.apply_minv_mat_into(&xw, &mut stage, &mut yw);
        for j in 0..w {
            factor.apply_minv_into(xw.col(j), &mut want);
            assert_same_bits(yw.col(j), &want, &format!("M⁻¹, width {w}, column {j}"));
        }
        factor.apply_minv_t_mat_into(&xw, &mut stage, &mut yw);
        for j in 0..w {
            factor.apply_minv_t_into(xw.col(j), &mut work, &mut want);
            assert_same_bits(yw.col(j), &want, &format!("M⁻ᵀ, width {w}, column {j}"));
        }
    }

    // The allocating appliers split the columns across workers, each
    // running the same blocked kernel on its own range.
    for threads in 1..=3 {
        let fwd = mpvl_par::with_threads(threads, || factor.apply_minv_mat(&x));
        let bwd = mpvl_par::with_threads(threads, || factor.apply_minv_t_mat(&x));
        for j in 0..64 {
            factor.apply_minv_into(x.col(j), &mut want);
            assert_same_bits(
                fwd.col(j),
                &want,
                &format!("M⁻¹, {threads} threads, column {j}"),
            );
            factor.apply_minv_t_into(x.col(j), &mut work, &mut want);
            assert_same_bits(
                bwd.col(j),
                &want,
                &format!("M⁻ᵀ, {threads} threads, column {j}"),
            );
        }
    }

    let mut scalar = Mat::zeros(n, 64);
    for j in 0..64 {
        op.apply_into(x.col(j), scalar.col_mut(j));
    }
    for w in 1..=64 {
        let xw = Mat::from_fn(n, w, |i, j| x[(i, j)]);
        let mut yw = Mat::zeros(n, w);
        op.apply_block(&xw, &mut yw);
        for j in 0..w {
            assert_same_bits(
                yw.col(j),
                scalar.col(j),
                &format!("n {n}, width {w}, column {j}"),
            );
        }
    }
}

#[test]
fn block_apply_matches_scalar_apply_at_every_width_below_the_ordering_switch() {
    let sys = rc_grid(30, 30, 4);
    assert!(sys.dim() <= EXPLICIT_MD_MAX);
    check_block_widths(&sys);
}

#[test]
fn block_apply_matches_scalar_apply_at_every_width_above_the_ordering_switch() {
    let sys = rc_grid(4, 2551, 4);
    assert!(sys.dim() > EXPLICIT_MD_MAX);
    check_block_widths(&sys);
}

/// Counts the columns the operator is applied to.
struct Counting<'a> {
    op: KrylovOperator<'a>,
    columns: Cell<usize>,
}

impl LinearOperator for Counting<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.columns.set(self.columns.get() + 1);
        self.op.apply_into(x, y);
    }

    fn apply_block(&self, x: &Mat<f64>, y: &mut Mat<f64>) {
        self.columns.set(self.columns.get() + x.ncols());
        self.op.apply_block(x, y);
    }
}

fn assert_mat_bits(a: &Mat<f64>, b: &Mat<f64>, what: &str) {
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "{what}: shape"
    );
    for j in 0..a.ncols() {
        assert_same_bits(a.col(j), b.col(j), &format!("{what}, column {j}"));
    }
}

#[test]
fn resumed_run_matches_one_run_and_applies_each_vector_once() {
    let sys = rc_grid(24, 24, 8);
    let factor = GFactor::factor(&sys.g.add_scaled(1.0, &sys.c, 1e9), sys.num_node_unknowns)
        .expect("factor");
    assert!(factor.is_identity_j());
    let j_diag = factor.j_diag();
    let start = factor.apply_minv_mat(&sys.b);
    let opts = LanczosOptions::default();
    let counting = || Counting {
        op: KrylovOperator::new(&factor, &sys.c),
        columns: Cell::new(0),
    };

    let one = counting();
    let mut state = BlockLanczos::new(&j_diag, &start, &opts);
    state.run(&one, 80);
    let whole = state.outcome();
    assert_eq!(whole.order(), 80);
    assert_eq!(one.columns.get(), state.accepted());

    let split = counting();
    let mut state = BlockLanczos::new(&j_diag, &start, &opts);
    state.run(&split, 40);
    let after_first_run = split.columns.get();
    assert_eq!(after_first_run, state.accepted());
    let mid = state.outcome();
    assert_eq!(mid.order(), 40);
    assert_eq!(
        split.columns.get(),
        after_first_run,
        "outcome applied the operator"
    );
    state.run(&split, 80);
    let resumed = state.outcome();
    assert_eq!(
        split.columns.get(),
        state.accepted(),
        "a column was applied twice"
    );

    assert_mat_bits(&resumed.t, &whole.t, "T");
    assert_mat_bits(&resumed.delta, &whole.delta, "Delta");
    assert_mat_bits(&resumed.rho, &whole.rho, "rho");
    assert_mat_bits(&resumed.v, &whole.v, "V");
    assert_eq!(resumed.clusters, whole.clusters);
    assert_eq!(resumed.deflation_steps, whole.deflation_steps);
}
