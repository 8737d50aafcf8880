//! Helpers reached from the pure fixture root.

/// First hop: shapes the work, no effect of its own.
pub fn mid_helper(out: &mut [f32]) {
    stamp_helper(out);
}

/// Second hop: reads the clock — propagation must flag this.
pub fn stamp_helper(out: &mut [f32]) {
    let stamp = std::time::Instant::now();
    for o in out.iter_mut() {
        *o += stamp.elapsed().as_secs_f32();
    }
}
