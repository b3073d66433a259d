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
//!
//! Then checks Gate 2, thread scaling of the large AC sweep: the
//! threads=4 median of `ac_sweep_large8` must be strictly below the
//! threads=1 median (the thread counts are timed interleaved). On a
//! machine without real parallelism (available_parallelism < 2) that
//! is physically impossible, so the
//! strict check is skipped loudly and replaced by a
//! no-catastrophic-regression bound (threads=4 within 1.25× of
//! threads=1: the chunked scheduler must not melt down when
//! oversubscribed on one core).

use mpvl_bench::Gates;
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
    // Timed interleaved, one sweep per thread count per round, so a burst
    // of machine load hits the gated threads=1/threads=4 medians alike.
    let freqs = log_space(1e7, 2e10, 8);
    let sweep = |threads: usize| {
        with_threads(threads, || sweeper.sweep(&freqs)).expect("sweep");
    };
    bench.bench_interleaved(&mut [
        ("ac_sweep_large8/threads=1", &mut || sweep(1)),
        ("ac_sweep_large8/threads=2", &mut || sweep(2)),
        ("ac_sweep_large8/threads=4", &mut || sweep(4)),
    ]);
    if let (Some(t1), Some(t4)) = (
        bench.median_of("ac_sweep_large8/threads=1"),
        bench.median_of("ac_sweep_large8/threads=4"),
    ) {
        // > 1.0 means threads=4 beats threads=1 on the large case.
        bench.push_value("speedup/large8_t4_vs_t1", t1 / t4);
    }

    let mut gates = Gates::new("par_sweep");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    const OVERSUBSCRIBE_TOLERANCE: f64 = 1.25;
    if cores < 2 {
        gates.skip(&format!(
            "strict threads=4 < threads=1 check needs >= 2 cores, this machine \
             reports {cores}; checking oversubscription bound instead"
        ));
    }
    gates.check(
        &bench,
        ["ac_sweep_large8/threads=1", "ac_sweep_large8/threads=4"],
        |[t1, t4]| {
            if cores >= 2 {
                if t4 >= t1 {
                    Err(format!(
                        "ac_sweep_large8 threads=4 median {t4:.3e}s is not below \
                         threads=1 median {t1:.3e}s on a {cores}-core machine"
                    ))
                } else {
                    Ok(format!(
                        "ac_sweep_large8 threads=4 {t4:.3e}s < threads=1 {t1:.3e}s \
                         (speedup {:.2}x)",
                        t1 / t4
                    ))
                }
            } else if t4 > t1 * OVERSUBSCRIBE_TOLERANCE {
                Err(format!(
                    "ac_sweep_large8 threads=4 median {t4:.3e}s exceeds \
                     {OVERSUBSCRIBE_TOLERANCE}x the threads=1 median {t1:.3e}s on one core \
                     (the chunked scheduler should be near-free when oversubscribed)"
                ))
            } else {
                Ok(format!(
                    "ac_sweep_large8 threads=4 {t4:.3e}s within \
                     {OVERSUBSCRIBE_TOLERANCE}x of threads=1 {t1:.3e}s on one core"
                ))
            }
        },
    );
    gates.finish(bench);
}
