//! The SyMPVL benchmark, as a library so its parts can be tested.
//!
//! See `BENCHMARK.md` beside this crate for the run command, the
//! workloads and the metric definitions.

pub mod bits;
pub mod exact;
pub mod json;
pub mod netlist;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

#[cfg(test)]
pub(crate) mod testing {
    use crate::run::{Ctx, Workload};
    use std::collections::HashSet;
    use sympvl::ReducedModel;

    /// A deliberately wrong copy of `m`: `ρ` scaled by `factor`.
    pub fn perturbed(m: &ReducedModel, factor: f64) -> ReducedModel {
        ReducedModel::from_parts(
            m.t_matrix().clone(),
            m.delta_matrix().clone(),
            m.rho_matrix().scale(factor),
            m.shift(),
            m.s_power(),
            m.output_s_factor(),
            m.guarantees_passivity(),
            m.original_dim(),
        )
    }

    /// A small-instance context with a scratch directory of its own,
    /// inside the package.
    pub fn small_ctx(name: &str) -> Ctx {
        Ctx {
            seed: 3,
            seconds: 0.0,
            small: true,
            scratch: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target/unit-scratch")
                .join(name),
        }
    }

    /// One pass of the real path, digested as the runner does.
    pub fn one_pass<W: Workload>(ctx: &Ctx) -> (W::Input, Vec<W::Out>) {
        let input = W::generate(ctx).expect("inputs");
        let mut real = W::start(ctx, &input).expect("program state");
        let mut seen = HashSet::new();
        let outs = (0..W::pass_len(&input))
            .map(|i| {
                let raw = W::request(ctx, &mut real, &input, i).expect("request");
                let key = W::key(&input, i);
                W::digest(raw, i, key, seen.insert(key))
            })
            .collect();
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        (input, outs)
    }
}
