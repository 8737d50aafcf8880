//! Fixture: an entirely clean hot-path file — typed errors, scoped
//! threads, injected time. Every fn is a hot root and a pure root, and
//! zero diagnostics are expected.

// darlint: hot
// darlint: pure-root
/// Typed error instead of a panic.
pub fn safe_head(xs: &[f32]) -> Result<f32, String> {
    xs.first().copied().ok_or_else(|| "empty slice".to_owned())
}

// darlint: hot
// darlint: pure-root
/// Deterministic ordering without partial_cmp().expect().
pub fn sort_times(ts: &mut [f64]) {
    ts.sort_by(|a, b| a.total_cmp(b));
}

// darlint: hot
// darlint: pure-root
/// Time injected by the caller, never read from the wall clock.
pub fn stale(now: f64, stamped: f64, horizon: f64) -> bool {
    now - stamped > horizon
}
