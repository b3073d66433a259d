//! Bit-exact fingerprints of models and evaluation results, so two runs
//! of one request can be compared without keeping their outputs.

use mpvl_engine::EvalPoint;
use mpvl_la::Mat;
use sympvl::ReducedModel;

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn mat_words(m: &Mat<f64>) -> impl Iterator<Item = u64> + '_ {
    [m.nrows() as u64, m.ncols() as u64]
        .into_iter()
        .chain(m.as_slice().iter().map(|x| x.to_bits()))
}

/// Fingerprint of every field that defines a model's transfer function.
pub fn model_bits(m: &ReducedModel) -> u64 {
    let head = [
        m.order() as u64,
        m.num_ports() as u64,
        m.shift().to_bits(),
        u64::from(m.s_power()),
        u64::from(m.output_s_factor()),
        u64::from(m.guarantees_passivity()),
        m.original_dim() as u64,
    ];
    fnv(head
        .into_iter()
        .chain(mat_words(m.t_matrix()))
        .chain(mat_words(m.delta_matrix()))
        .chain(mat_words(m.rho_matrix())))
}

/// Fingerprint of evaluated points: frequencies and every matrix entry.
pub fn points_bits(points: &[EvalPoint]) -> u64 {
    fnv(points.iter().flat_map(|p| {
        std::iter::once(p.freq_hz.to_bits()).chain(
            p.z.as_slice()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
        )
    }))
}

/// Combines fingerprints in order.
pub fn combine(parts: &[u64]) -> u64 {
    fnv(parts.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::{generators::rc_ladder, MnaSystem};
    use sympvl::{sympvl, SympvlOptions};

    #[test]
    fn fingerprints_see_single_bit_changes() {
        let sys = MnaSystem::assemble(&rc_ladder(20, 100.0, 1e-12)).unwrap();
        let a = sympvl(&sys, 4, &SympvlOptions::default()).unwrap();
        let b = sympvl(&sys, 4, &SympvlOptions::default()).unwrap();
        assert_eq!(model_bits(&a), model_bits(&b));
        let c = sympvl(&sys, 5, &SympvlOptions::default()).unwrap();
        assert_ne!(model_bits(&a), model_bits(&c));
        let mut t = a.t_matrix().clone();
        t[(0, 0)] = f64::from_bits(t[(0, 0)].to_bits() ^ 1);
        let nudged = ReducedModel::from_parts(
            t,
            a.delta_matrix().clone(),
            a.rho_matrix().clone(),
            a.shift(),
            a.s_power(),
            a.output_s_factor(),
            a.guarantees_passivity(),
            a.original_dim(),
        );
        assert_ne!(model_bits(&a), model_bits(&nudged));
    }
}
