//! The four workloads. Each one stresses different layers; see the
//! module docs of each, and `BENCHMARK.md`, for why it was chosen.

mod backends_band;
mod grid_cold;
mod serve_mix;
mod sweep_eval;

pub use backends_band::BackendsBand;
pub use grid_cold::GridCold;
pub use serve_mix::ServeMix;
pub use sweep_eval::SweepEval;

use crate::run::{run_traced, run_untraced, Ctx, Report, Workload};
use mpvl_testkit::SmallRng;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    GridCold::NAME,
    ServeMix::NAME,
    SweepEval::NAME,
    BackendsBand::NAME,
];

/// Runs the named workload, traced or not. `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx, traced: bool) -> Option<Result<Report, String>> {
    fn go<W: Workload>(ctx: &Ctx, traced: bool) -> Result<Report, String> {
        if traced {
            run_traced::<W>(ctx)
        } else {
            run_untraced::<W>(ctx)
        }
    }
    Some(match name {
        GridCold::NAME => go::<GridCold>(ctx, traced),
        ServeMix::NAME => go::<ServeMix>(ctx, traced),
        SweepEval::NAME => go::<SweepEval>(ctx, traced),
        BackendsBand::NAME => go::<BackendsBand>(ctx, traced),
        _ => return None,
    })
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}
