//! Fixture: justified escape hatches suppress the time rule, both as a
//! leading own-line comment and as a trailing comment.

pub fn leading() -> std::time::Instant {
    // darlint: allow(time) — startup banner stamp, never enters a digest
    std::time::Instant::now()
}

pub fn trailing() -> std::time::Instant {
    std::time::Instant::now() // darlint: allow(time) — operator-facing log stamp only
}
