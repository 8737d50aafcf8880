//! Propagation fixture: a pure root whose wall-clock read happens two
//! calls away, in another file.

/// Pure entry point writing into a caller-provided buffer.
// darlint: pure-root
pub fn transform_into(out: &mut [f32]) {
    crate::prop_helpers::mid_helper(out);
}
