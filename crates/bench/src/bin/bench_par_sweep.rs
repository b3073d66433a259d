//! Thread-scaling microbenchmark for the parallel AC sweep.
//!
//! Runs one fixed package-model sweep at 1/2/4/8 workers so the scaling
//! curve (and the serial symbolic-reuse baseline) lands in the bench
//! trajectory as per-thread-count medians.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_par_sweep`;
//! writes `target/bench/BENCH_par_sweep.json`. `MPVL_THREADS` only
//! affects the reported ambient default — the measured cases pin their
//! worker counts with `mpvl_par::with_threads`.

use mpvl_circuit::generators::{interconnect, package, InterconnectParams, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_par::with_threads;
use mpvl_sim::{ac_sweep, log_space, AcSweeper};
use mpvl_testkit::bench::Bench;

fn main() {
    let mut bench = Bench::new("par_sweep");
    eprintln!(
        "# ambient default thread count (MPVL_THREADS aware): {}",
        mpvl_par::thread_count()
    );

    let ckt = package(&PackageParams {
        pins: 16,
        signal_pins: vec![0, 1, 8],
        sections: 6,
        ..PackageParams::default()
    });
    let sys = MnaSystem::assemble_general(&ckt).expect("assemble");
    let freqs = log_space(1e7, 2e10, 32);
    for threads in [1usize, 2, 4, 8] {
        bench.bench(&format!("ac_sweep_32pts/threads={threads}"), || {
            with_threads(threads, || ac_sweep(&sys, &freqs)).expect("sweep");
        });
    }
    if let (Some(t1), Some(t4)) = (
        bench.median_of("ac_sweep_32pts/threads=1"),
        bench.median_of("ac_sweep_32pts/threads=4"),
    ) {
        bench.push_value("speedup/32pts_t4_vs_t1", t1 / t4);
    }

    // The large factor-bound case (the CI-gated one): 17 coupled wires,
    // n = 1360, 8 points — per point the numeric refactorization
    // dominates, so this is where chunked scheduling plus per-worker
    // workspace reuse must show up as real thread scaling. A retained
    // sweeper keeps the symbolic analysis and the union-merge plan out
    // of the timed region (both are frequency-independent setup).
    let ckt = interconnect(&InterconnectParams {
        wires: 17,
        coupling_reach: 4,
        ..InterconnectParams::default()
    });
    let sys = MnaSystem::assemble(&ckt).expect("assemble");
    let sweeper = AcSweeper::new(&sys);
    let freqs = log_space(1e7, 2e10, 8);
    for threads in [1usize, 2, 4] {
        bench.bench(&format!("ac_sweep_large8/threads={threads}"), || {
            with_threads(threads, || sweeper.sweep(&freqs)).expect("sweep");
        });
    }
    if let (Some(t1), Some(t4)) = (
        bench.median_of("ac_sweep_large8/threads=1"),
        bench.median_of("ac_sweep_large8/threads=4"),
    ) {
        // > 1.0 means threads=4 beats threads=1 on the large case.
        bench.push_value("speedup/large8_t4_vs_t1", t1 / t4);
    }

    bench.finish();
    mpvl_bench::export_obs();
}
