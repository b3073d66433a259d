//! FNV-1a fingerprints over exact `f64` bit patterns, shared by the
//! engine's determinism suites (the idiom of `golden_bitident.rs`).

use mpvl_la::{Complex64, Mat};
use sympvl::ReducedModel;

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn eat_f64(&mut self, v: f64) {
        self.eat(&v.to_bits().to_le_bytes());
    }
    pub fn eat_mat(&mut self, m: &Mat<f64>) {
        self.eat(&(m.nrows() as u64).to_le_bytes());
        self.eat(&(m.ncols() as u64).to_le_bytes());
        for &v in m.as_slice() {
            self.eat_f64(v);
        }
    }
    pub fn eat_cmat(&mut self, m: &Mat<Complex64>) {
        self.eat(&(m.nrows() as u64).to_le_bytes());
        self.eat(&(m.ncols() as u64).to_le_bytes());
        for v in m.as_slice() {
            self.eat_f64(v.re);
            self.eat_f64(v.im);
        }
    }
}

pub fn model_fingerprint(m: &ReducedModel) -> u64 {
    let mut h = Fnv::new();
    h.eat_mat(m.t_matrix());
    h.eat_mat(m.delta_matrix());
    h.eat_mat(m.rho_matrix());
    h.eat_f64(m.shift());
    h.0
}
