//! Run-time choice of instruction set for the bit-fixed kernels.
//!
//! The workspace builds for baseline x86-64 (SSE2). [`simd_dispatch!`]
//! compiles a kernel body a second and third time, for AVX-512 and
//! AVX2, and picks the widest build the CPU reports on each call. The
//! builds run the same scalar operations in the same order; only the
//! register tiling may differ between them (the body gets the tier's
//! vector width as a const parameter), so a kernel whose order does not
//! depend on its tiling gives the same bits on every build.
//!
//! [`simd_dispatch!`]: crate::simd_dispatch

/// Defines a function that runs the `#[inline(always)]` generic `$body`
/// compiled for the widest x86-64 vector tier the CPU reports:
/// `#[target_feature(enable = "avx512f")]`, else `"avx2"`, else the
/// baseline build. `$body` takes the function's type parameters, then
/// `const VEC: usize`, the tier's `f64` lanes per register (8, 4, 2),
/// then its arguments.
///
/// A dispatched body must give the same results at every `VEC`: no
/// `mul_add`, and no summation order that depends on the tiles `VEC`
/// picks. The compiler itself never reorders or fuses floating-point
/// operations, so vectorizing keeps each operation's operands. Everything
/// the body calls on its hot path must be `#[inline(always)]`, or it runs
/// as its baseline build.
///
/// ```
/// #[inline(always)]
/// fn scale_body<const VEC: usize>(a: f64, x: &mut [f64]) {
///     for v in x {
///         *v *= a;
///     }
/// }
/// mpvl_la::simd_dispatch! {
///     /// `x ← a·x`.
///     fn scale(a: f64, x: &mut [f64]) => scale_body
/// }
/// let mut x = [1.0, -2.0];
/// scale(0.5, &mut x);
/// assert_eq!(x, [0.5, -1.0]);
/// ```
#[macro_export]
macro_rules! simd_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident$(<$($g:ident: $bound:path),* $(,)?>)?(
            $($arg:ident: $ty:ty),* $(,)?
        ) => $body:ident
    ) => {
        $(#[$attr])*
        $vis fn $name$(<$($g: $bound),*>)?($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f")]
                fn avx512$(<$($g: $bound),*>)?($($arg: $ty),*) {
                    $body::<$($($g,)*)? 8>($($arg),*)
                }
                #[target_feature(enable = "avx2")]
                fn avx2$(<$($g: $bound),*>)?($($arg: $ty),*) {
                    $body::<$($($g,)*)? 4>($($arg),*)
                }
                // SAFETY: each build is called only after the CPU reports
                // the feature it is compiled for, which is all a
                // `#[target_feature]` function asks of its caller.
                unsafe {
                    if ::std::is_x86_feature_detected!("avx512f") {
                        return avx512($($arg),*);
                    }
                    if ::std::is_x86_feature_detected!("avx2") {
                        return avx2($($arg),*);
                    }
                }
            }
            $body::<$($($g,)*)? 2>($($arg),*)
        }
    };
}
