//! Fixture: a file full of effect-shaped text that must NOT fire — every
//! occurrence is in a comment, a doc example, a string literal, or
//! `#[cfg(test)]` code. Each non-test fn is a hot root and a pure root,
//! so a decoy mistaken for code would be a finding.

// darlint: hot
// darlint: pure-root
/// Doc examples idiomatically read the clock; they compile as test code:
///
/// ```
/// let t = std::time::Instant::now();
/// let _ = std::fs::read("x");
/// ```
pub fn documented() -> &'static str {
    // A comment saying Instant::now() or thread::spawn is not a call.
    "this string mentions Instant::now and thread::spawn and std::fs::read"
}

// darlint: hot
// darlint: pure-root
pub fn raw_string() -> &'static str {
    r#"even raw strings with SystemTime::now() and File::open("x")"#
}

// darlint: hot
// darlint: pure-root
pub fn lifetime_not_char<'a>(s: &'a str) -> &'a str {
    // Lifetimes must not confuse the char-literal masker into eating the
    // rest of the file.
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_touch_the_world() {
        let t = std::time::Instant::now();
        let _ = std::fs::read("probe");
        let h = std::thread::spawn(move || t.elapsed());
        let _ = h.join();
    }
}
