//! Fixture: an escape hatch WITHOUT a justification must be rejected —
//! the bare allow is itself a violation, and it does not suppress the
//! clock read it decorates.

pub fn bare() -> std::time::Instant {
    // darlint: allow(time)
    std::time::Instant::now() // line 7
}
