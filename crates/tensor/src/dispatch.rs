//! Runtime dispatch of the forward kernels to an AVX2 build of themselves.
//!
//! [`avx2_dispatch!`](crate::avx2_dispatch) declares a function twice from
//! the same source text: once for the baseline target (SSE2 on x86-64) and
//! once under `#[target_feature(enable = "avx2")]`, and the entry point
//! picks a copy per call from std's cached `is_x86_feature_detected!`. Only
//! `avx2` is enabled, never `fma`: rustc does not contract a multiply and
//! an add into one rounding, so both copies do the same operations in the
//! same order on wider registers, and every output has the baseline's bits
//! (DESIGN §11.5). The copy is the body's text, not a call to a shared
//! helper, so that the closures the body writes (the tile's block loop)
//! are compiled with the copy's features too. This module holds the
//! product's only `unsafe` code: the two calls into the AVX2 copy (the
//! dispatcher's and the tests' checked one), each once the CPU has said
//! it has AVX2.

/// Declares `fn $name` as a dispatcher between two builds of `$body`, and
/// emits both builds as crate-private items of a module `$name` (a
/// function and a module can share a name): `$name::baseline`, always
/// present, and `$name::avx2`, which runs the AVX2 copy and returns
/// `Some` when the CPU has AVX2, `None` otherwise (and on every target
/// but x86-64, which compiles only the baseline copy). Tests call the
/// two directly; nothing else picks a copy.
///
/// Each copy also declares `MR`, a register tile's rows, so that both keep
/// eight accumulator registers in a 16-column tile: 2 × four 4-lane ones at
/// baseline, 4 × two 8-lane ones under AVX2 (DESIGN §19.2).
///
/// Parameters must be plain identifiers (rebind `mut` inside the body).
/// The body resolves names through `use super::*`.
#[macro_export]
#[doc(hidden)]
macro_rules! avx2_dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $crate::avx2_dispatch!($(#[$meta])* $vis fn $name($($arg: $ty),*) -> () $body);
    };
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        #[cfg_attr(
            target_arch = "x86_64",
            expect(unsafe_code, reason = "calls the AVX2 copy once the CPU reports AVX2")
        )]
        $vis fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            if ::std::is_x86_feature_detected!("avx2") {
                // SAFETY: the copy's only precondition is its target
                // feature, and the CPU has just reported AVX2.
                return unsafe { $name::avx2_unchecked($($arg),*) };
            }
            $name::baseline($($arg),*)
        }

        #[allow(dead_code, unused_imports)]
        mod $name {
            use super::*;

            pub(crate) fn baseline($($arg: $ty),*) -> $ret { const MR: usize = 2; $body }

            /// Runs AVX2 instructions: call only where the CPU has AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2_unchecked($($arg: $ty),*) -> $ret { const MR: usize = 4; $body }

            #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
            #[cfg_attr(
                target_arch = "x86_64",
                expect(unsafe_code, reason = "calls the AVX2 copy once the CPU reports AVX2")
            )]
            pub(crate) fn avx2($($arg: $ty),*) -> Option<$ret> {
                #[cfg(target_arch = "x86_64")]
                if ::std::is_x86_feature_detected!("avx2") {
                    // SAFETY: as in the dispatcher above.
                    return Some(unsafe { avx2_unchecked($($arg),*) });
                }
                None
            }
        }
    };
}
