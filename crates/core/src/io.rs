//! Plain-text persistence for reduced-order models.
//!
//! A reduction of a 2000-unknown package takes seconds; re-using the model
//! across runs (or handing it to another tool) should not repeat that.
//! The format is a deliberately boring line-oriented text file:
//!
//! ```text
//! sympvl-rom v1
//! order 3
//! ports 2
//! shift 0
//! s_power 1
//! output_s_factor 0
//! identity_j 1
//! original_dim 120
//! T <row-major floats, one row per line>
//! DELTA <…>
//! RHO <…>
//! ```
//!
//! Floats are written with `{:e}` round-trip precision.

use crate::{ReducedModel, SympvlError};
use mpvl_la::Mat;

/// Serializes a model to the text format described at the
/// module-level docs.
pub fn write_model(model: &ReducedModel) -> String {
    let n = model.order();
    let p = model.num_ports();
    let mut out = String::new();
    out.push_str("sympvl-rom v1\n");
    out.push_str(&format!("order {n}\n"));
    out.push_str(&format!("ports {p}\n"));
    out.push_str(&format!("shift {:e}\n", model.shift()));
    out.push_str(&format!("s_power {}\n", model.s_power()));
    out.push_str(&format!("output_s_factor {}\n", model.output_s_factor()));
    out.push_str(&format!(
        "identity_j {}\n",
        u8::from(model.guarantees_passivity())
    ));
    out.push_str(&format!("original_dim {}\n", model.original_dim()));
    // Construction metadata (optional on read, for files written before
    // these fields existed): without them a round-tripped model loses
    // its deflation count and exactness flag, which the service-layer
    // model registry must preserve faithfully.
    out.push_str(&format!("deflations {}\n", model.deflation_count()));
    out.push_str(&format!("exhausted {}\n", u8::from(model.is_exact())));
    let dump = |out: &mut String, tag: &str, m: &Mat<f64>| {
        out.push_str(tag);
        out.push('\n');
        for i in 0..m.nrows() {
            let row: Vec<String> = (0..m.ncols()).map(|j| format!("{:e}", m[(i, j)])).collect();
            out.push_str(&row.join(" "));
            out.push('\n');
        }
    };
    dump(&mut out, "T", model.t_matrix());
    dump(&mut out, "DELTA", model.delta_matrix());
    dump(&mut out, "RHO", model.rho_matrix());
    out
}

/// Parses a model previously written by [`write_model`].
///
/// # Errors
///
/// Returns [`SympvlError::Synthesis`] (reused as the generic "bad
/// artifact" error) with a line-localized message on any malformed input.
pub fn read_model(text: &str) -> Result<ReducedModel, SympvlError> {
    let bad = |line: usize, why: &str| SympvlError::Synthesis {
        reason: format!("ROM file line {}: {why}", line + 1),
    };
    let lines: Vec<&str> = text.lines().collect();
    let mut idx = 0usize;
    let mut next = |expect_prefix: Option<&str>| -> Result<(usize, &str), SympvlError> {
        while idx < lines.len() && lines[idx].trim().is_empty() {
            idx += 1;
        }
        if idx >= lines.len() {
            return Err(SympvlError::Synthesis {
                reason: "ROM file truncated".to_string(),
            });
        }
        let this = (idx, lines[idx].trim());
        idx += 1;
        if let Some(prefix) = expect_prefix {
            if !this.1.starts_with(prefix) {
                return Err(SympvlError::Synthesis {
                    reason: format!(
                        "ROM file line {}: expected `{prefix}`, found `{}`",
                        this.0 + 1,
                        this.1
                    ),
                });
            }
        }
        Ok(this)
    };
    let (l, header) = next(None)?;
    if header != "sympvl-rom v1" {
        return Err(bad(l, "unrecognized header"));
    }
    // Counts and flags are unsigned integers: `order 2.5`, `-1` or
    // `1e400` is a malformed file, not a model of order 2, 0 or MAX.
    fn field<T: std::str::FromStr>(line: (usize, &str), name: &str) -> Result<T, SympvlError> {
        let bad = |why: String| SympvlError::Synthesis {
            reason: format!("ROM file line {}: {why}", line.0 + 1),
        };
        let rest = line
            .1
            .strip_prefix(name)
            .ok_or_else(|| bad(format!("expected field `{name}`")))?;
        rest.trim()
            .parse::<T>()
            .map_err(|_| bad(format!("bad value for `{name}`")))
    }
    let order: usize = field(next(Some("order"))?, "order")?;
    let ports: usize = field(next(Some("ports"))?, "ports")?;
    let shift: f64 = field(next(Some("shift"))?, "shift")?;
    let s_power: u32 = field(next(Some("s_power"))?, "s_power")?;
    let osf: u32 = field(next(Some("output_s_factor"))?, "output_s_factor")?;
    let identity_j = field::<u8>(next(Some("identity_j"))?, "identity_j")? != 0;
    let original_dim: usize = field(next(Some("original_dim"))?, "original_dim")?;
    if order == 0 || ports == 0 {
        return Err(SympvlError::Synthesis {
            reason: "ROM file declares a zero-sized model".to_string(),
        });
    }

    // Optional construction metadata (files written before these fields
    // existed go straight to the `T` section).
    let mut deflations = 0usize;
    let mut exhausted = false;
    let mut pending = next(None)?;
    if pending.1.starts_with("deflations") {
        deflations = field(pending, "deflations")?;
        pending = next(None)?;
    }
    if pending.1.starts_with("exhausted") {
        exhausted = field::<u8>(pending, "exhausted")? != 0;
        pending = next(None)?;
    }

    // The body holds order·(2·order + ports) values of at least one
    // byte each. Refuse a header the rest of the file cannot hold before
    // allocating for it: a corrupt `order` must not ask for order² floats.
    let bytes: usize = lines[pending.0..].iter().map(|l| l.len()).sum();
    let fits = order
        .checked_mul(2)
        .and_then(|c| c.checked_add(ports))
        .and_then(|c| c.checked_mul(order))
        .is_some_and(|values| values <= bytes);
    if !fits {
        return Err(SympvlError::Synthesis {
            reason: format!(
                "ROM file declares order {order} with {ports} ports, more values than \
                 its remaining {bytes} bytes can hold"
            ),
        });
    }

    let mut read_mat = |pre: Option<(usize, &str)>,
                        tag: &str,
                        rows: usize,
                        cols: usize|
     -> Result<Mat<f64>, SympvlError> {
        let (l, t) = match pre {
            Some(line) => line,
            None => next(None)?,
        };
        if t != tag {
            return Err(bad(l, &format!("expected `{tag}` section")));
        }
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            let (l, row) = next(None)?;
            let vals: Result<Vec<f64>, _> =
                row.split_whitespace().map(|v| v.parse::<f64>()).collect();
            let vals = vals.map_err(|_| bad(l, "bad float"))?;
            if vals.len() != cols {
                return Err(bad(
                    l,
                    &format!("expected {cols} columns, got {}", vals.len()),
                ));
            }
            for (j, &v) in vals.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        Ok(m)
    };
    let t = read_mat(Some(pending), "T", order, order)?;
    let delta = read_mat(None, "DELTA", order, order)?;
    let rho = read_mat(None, "RHO", order, ports)?;
    let mut model =
        ReducedModel::from_parts(t, delta, rho, shift, s_power, osf, identity_j, original_dim);
    model.deflations = deflations;
    model.exhausted = exhausted;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sympvl, SympvlOptions};
    use mpvl_circuit::generators::{peec, random_rc, PeecParams};
    use mpvl_circuit::MnaSystem;
    use mpvl_la::Complex64;

    #[test]
    fn roundtrip_preserves_transfer_function() {
        let sys = MnaSystem::assemble(&random_rc(55, 25, 2)).unwrap();
        let model = sympvl(&sys, 8, &SympvlOptions::default()).unwrap();
        let text = write_model(&model);
        let back = read_model(&text).unwrap();
        assert_eq!(back.order(), model.order());
        assert_eq!(back.num_ports(), model.num_ports());
        assert_eq!(back.guarantees_passivity(), model.guarantees_passivity());
        assert_eq!(back.original_dim(), model.original_dim());
        for f in [1e7, 1e9, 1e10] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z1 = model.eval(s).unwrap();
            let z2 = back.eval(s).unwrap();
            assert!(
                (&z1 - &z2).max_abs() <= 1e-12 * z1.max_abs(),
                "roundtrip drift at {f}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_sigma_form() {
        let m = peec(&PeecParams {
            cells: 12,
            output_cell: 6,
            ..PeecParams::default()
        });
        let model = sympvl(&m.system, 6, &SympvlOptions::default()).unwrap();
        let back = read_model(&write_model(&model)).unwrap();
        assert_eq!(back.s_power(), 2);
        assert_eq!(back.output_s_factor(), 1);
        assert_eq!(back.shift(), model.shift());
    }

    #[test]
    fn roundtrip_preserves_construction_metadata() {
        let sys = MnaSystem::assemble(&random_rc(40, 18, 2)).unwrap();
        let model = sympvl(&sys, 6, &SympvlOptions::default()).unwrap();
        let back = read_model(&write_model(&model)).unwrap();
        assert_eq!(back.deflation_count(), model.deflation_count());
        assert_eq!(back.is_exact(), model.is_exact());
        // Files from before the optional fields existed still parse,
        // defaulting to zero deflations / not exact.
        let legacy = "sympvl-rom v1\norder 1\nports 1\nshift 0\ns_power 1\noutput_s_factor 0\nidentity_j 1\noriginal_dim 5\nT\n1.0\nDELTA\n1.0\nRHO\n1.0\n";
        let m = read_model(legacy).unwrap();
        assert_eq!(m.deflation_count(), 0);
        assert!(!m.is_exact());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_model("").is_err());
        assert!(read_model("not a rom").is_err());
        assert!(read_model("sympvl-rom v1\norder 2").is_err()); // truncated
        let bad_matrix = "sympvl-rom v1\norder 1\nports 1\nshift 0\ns_power 1\noutput_s_factor 0\nidentity_j 1\noriginal_dim 5\nT\nnot_a_float\n";
        let err = read_model(bad_matrix).unwrap_err();
        assert!(err.to_string().contains("bad float"), "{err}");
    }

    #[test]
    fn rejects_zero_sized_models() {
        let text = "sympvl-rom v1\norder 0\nports 1\nshift 0\ns_power 1\noutput_s_factor 0\nidentity_j 1\noriginal_dim 5\n";
        assert!(read_model(text).is_err());
    }

    #[test]
    fn counts_must_be_unsigned_integers_the_body_can_hold() {
        let model = |order: &str| {
            format!(
                "sympvl-rom v1\norder {order}\nports 1\nshift 0\ns_power 1\n\
                 output_s_factor 0\nidentity_j 1\noriginal_dim 5\n\
                 T\n1.0 0.5\n0.5 1.0\nDELTA\n1.0 0.0\n0.0 1.0\nRHO\n1.0\n0.0\n"
            )
        };
        assert_eq!(read_model(&model("2")).unwrap().order(), 2);
        for bad in ["2.5", "-1", "1e400"] {
            let err = read_model(&model(bad)).unwrap_err();
            assert!(
                err.to_string().contains("bad value for `order`"),
                "{bad}: {err}"
            );
        }
        // A huge declared order is refused before anything is allocated
        // for it, and so is a header too large for its body.
        for big in ["100000000", "10"] {
            let err = read_model(&model(big)).unwrap_err();
            assert!(err.to_string().contains("can hold"), "{big}: {err}");
        }
        // One row short: the body holds the values' bytes, and the read
        // stops at the first section that runs out.
        assert!(read_model(&model("3")).is_err());
        let wide = model("2").replace("ports 1", "ports 100000000");
        assert!(read_model(&wide)
            .unwrap_err()
            .to_string()
            .contains("can hold"));
        let fractional = model("2").replace("s_power 1", "s_power 1.5");
        assert!(read_model(&fractional).is_err());
    }

    #[test]
    fn wrong_column_count_is_localized() {
        let text = "sympvl-rom v1\norder 2\nports 1\nshift 0\ns_power 1\noutput_s_factor 0\nidentity_j 1\noriginal_dim 5\nT\n1.0 2.0\n3.0\n";
        let err = read_model(text).unwrap_err();
        assert!(err.to_string().contains("columns"), "{err}");
    }
}
