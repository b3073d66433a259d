//! The workspace's sanctioned console sink.
//!
//! Library crates must not call `println!`/`eprintln!` directly (a CI
//! grep gate enforces this) so that diagnostics flow through `mpvl-obs`
//! and stay visible to one central policy. Harness-style crates whose
//! *job* is console output — the testkit bench table, figure binaries'
//! progress lines — route it through [`cprintln!`](crate::cprintln)/
//! [`ceprintln!`](crate::ceprintln) or the [`out_line`]/[`err_line`]
//! functions here instead.

use std::fmt;
use std::io::Write as _;

/// Writes one formatted line to stdout (errors ignored: a closed pipe
/// must not panic a bench harness).
pub fn out_line(args: fmt::Arguments<'_>) {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = lock.write_fmt(args);
    let _ = lock.write_all(b"\n");
}

/// Writes one formatted line to stderr (errors ignored).
pub fn err_line(args: fmt::Arguments<'_>) {
    let stderr = std::io::stderr();
    let mut lock = stderr.lock();
    let _ = lock.write_fmt(args);
    let _ = lock.write_all(b"\n");
}

/// `println!` routed through [`console::out_line`](out_line).
#[macro_export]
macro_rules! cprintln {
    ($($t:tt)*) => {
        $crate::console::out_line(::core::format_args!($($t)*))
    };
}

/// `eprintln!` routed through [`console::err_line`](err_line).
#[macro_export]
macro_rules! ceprintln {
    ($($t:tt)*) => {
        $crate::console::err_line(::core::format_args!($($t)*))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_format_and_do_not_panic() {
        crate::cprintln!("console self-test {} {:>6}", 1, "ok");
        crate::ceprintln!("console self-test stderr {}", 2.5);
    }
}
