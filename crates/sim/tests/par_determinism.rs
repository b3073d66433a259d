//! The parallel AC sweep must be *bit-identical* to the serial sweep: the
//! per-point work is the same arithmetic regardless of which worker runs
//! it, and results are reassembled in input order. These tests pin that
//! contract on the paper's two sparse-path workloads.

use mpvl_circuit::generators::{package, peec, PackageParams, PeecParams};
use mpvl_circuit::MnaSystem;
use mpvl_par::with_threads;
use mpvl_sim::{ac_sweep, log_space, AcPoint};

fn assert_bit_identical(serial: &[AcPoint], parallel: &[AcPoint], threads: usize) {
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(parallel) {
        assert_eq!(
            a.freq_hz.to_bits(),
            b.freq_hz.to_bits(),
            "threads={threads}"
        );
        assert_eq!((a.z.nrows(), a.z.ncols()), (b.z.nrows(), b.z.ncols()));
        for i in 0..a.z.nrows() {
            for j in 0..a.z.ncols() {
                let (u, v) = (a.z[(i, j)], b.z[(i, j)]);
                assert_eq!(
                    (u.re.to_bits(), u.im.to_bits()),
                    (v.re.to_bits(), v.im.to_bits()),
                    "Z({i},{j}) at {} Hz differs with {threads} threads",
                    a.freq_hz
                );
            }
        }
    }
}

#[test]
fn package_parallel_sweep_is_bit_identical() {
    let ckt = package(&PackageParams {
        pins: 8,
        signal_pins: vec![0, 4],
        sections: 4,
        ..PackageParams::default()
    });
    let sys = MnaSystem::assemble_general(&ckt).unwrap();
    let freqs = log_space(1e7, 2e10, 13);
    let serial = with_threads(1, || ac_sweep(&sys, &freqs)).unwrap();
    for threads in [2, 4, 8] {
        let par = with_threads(threads, || ac_sweep(&sys, &freqs)).unwrap();
        assert_bit_identical(&serial, &par, threads);
    }
}

#[test]
fn peec_parallel_sweep_is_bit_identical() {
    let model = peec(&PeecParams {
        cells: 30,
        output_cell: 15,
        ..PeecParams::default()
    });
    let freqs = log_space(1e8, 5e9, 11);
    let serial = with_threads(1, || ac_sweep(&model.system, &freqs)).unwrap();
    let par = with_threads(4, || ac_sweep(&model.system, &freqs)).unwrap();
    assert_bit_identical(&serial, &par, 4);
}

#[test]
fn odd_point_counts_and_thread_counts_are_bit_identical() {
    // Chunked scheduling must not care about divisibility: point counts
    // that leave ragged last chunks (including counts below the thread
    // count) and prime worker counts all reproduce the serial sweep.
    let model = peec(&PeecParams {
        cells: 24,
        output_cell: 12,
        ..PeecParams::default()
    });
    for points in [1, 2, 3, 7, 17] {
        let freqs = if points == 1 {
            vec![1e9]
        } else {
            log_space(1e8, 5e9, points)
        };
        let serial = with_threads(1, || ac_sweep(&model.system, &freqs)).unwrap();
        for threads in [2, 3, 5] {
            let par = with_threads(threads, || ac_sweep(&model.system, &freqs)).unwrap();
            assert_bit_identical(&serial, &par, threads);
        }
    }
}

#[test]
fn repeated_sweeps_through_one_sweeper_are_bit_identical() {
    // A retained sweeper reuses its symbolic analysis and union-merge
    // plan across sweeps; per-worker workspaces are rebuilt per sweep.
    // Every repetition at every thread count must reproduce sweep one.
    let ckt = package(&PackageParams {
        pins: 8,
        signal_pins: vec![0, 4],
        sections: 4,
        ..PackageParams::default()
    });
    let sys = MnaSystem::assemble_general(&ckt).unwrap();
    let freqs = log_space(1e7, 2e10, 9);
    let sweeper = mpvl_sim::AcSweeper::new(&sys);
    let first = with_threads(1, || sweeper.sweep(&freqs)).unwrap();
    for rep in 0..3 {
        for threads in [1, 2, 4] {
            let again = with_threads(threads, || sweeper.sweep(&freqs)).unwrap();
            assert_bit_identical(&first, &again, threads + 100 * rep);
        }
    }
}

#[test]
fn default_entry_point_matches_explicit_serial() {
    // `ac_sweep` (env-driven thread count) must agree with the explicit
    // serial sweep whatever this machine's core count is.
    let ckt = package(&PackageParams {
        pins: 6,
        signal_pins: vec![0, 3],
        sections: 3,
        ..PackageParams::default()
    });
    let sys = MnaSystem::assemble_general(&ckt).unwrap();
    let freqs = log_space(1e7, 1e10, 7);
    let serial = with_threads(1, || ac_sweep(&sys, &freqs)).unwrap();
    let auto = mpvl_sim::ac_sweep(&sys, &freqs).unwrap();
    assert_bit_identical(&serial, &auto, 0);
}
