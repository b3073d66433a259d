//! The obs export must be as deterministic as the sweep itself: the
//! sibling `par_determinism` tests pin bit-identical *results* across
//! thread counts; these pin bit-identical *telemetry*. Kept in its own
//! integration-test binary because `mpvl_obs::capture` opens the
//! process-global sink while it runs.

use mpvl_circuit::generators::{package, peec, PackageParams, PeecParams};
use mpvl_circuit::MnaSystem;
use mpvl_par::with_threads;
use mpvl_sim::{ac_sweep, log_space};

fn sweep_lines(sys: &MnaSystem, freqs: &[f64], threads: usize) -> String {
    let (res, cap) = mpvl_obs::capture(|| with_threads(threads, || ac_sweep(sys, freqs)));
    res.expect("sweep");
    cap.to_json_lines()
}

#[test]
fn package_sweep_telemetry_is_identical_across_thread_counts() {
    let ckt = package(&PackageParams {
        pins: 8,
        signal_pins: vec![0, 4],
        sections: 4,
        ..PackageParams::default()
    });
    let sys = MnaSystem::assemble_general(&ckt).unwrap();
    let freqs = log_space(1e7, 2e10, 13);
    let serial = sweep_lines(&sys, &freqs, 1);
    assert!(serial.contains("\"stage\":\"ac\""));
    for threads in [2, 4] {
        assert_eq!(
            serial,
            sweep_lines(&sys, &freqs, threads),
            "threads={threads}"
        );
    }
}

#[test]
fn peec_sweep_telemetry_is_identical_across_thread_counts() {
    let model = peec(&PeecParams {
        cells: 30,
        output_cell: 15,
        ..PeecParams::default()
    });
    let freqs = log_space(1e8, 5e9, 11);
    let serial = sweep_lines(&model.system, &freqs, 1);
    let par = sweep_lines(&model.system, &freqs, 4);
    assert_eq!(serial, par);
    mpvl_obs::validate_json_lines(&serial).expect("valid JSON lines");
}
