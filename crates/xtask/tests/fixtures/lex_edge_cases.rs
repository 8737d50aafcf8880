//! Lexer fixture: constructs that defeat line-oriented scanners. Every
//! pattern-looking token below is inside a comment, string, char
//! literal, or test-gated region — a correct scanner reports nothing.
//! Each non-test fn is a hot root and a pure root, so a decoy mistaken
//! for code would be a finding.

/* outer /* nested block /* deeper */ comment */ hides Instant::now() */

// darlint: hot
// darlint: pure-root
/// Doc text mentioning std::fs::read("not real"), Instant::now(), vec![0; 9].
pub fn decoys() -> usize {
    let raw = r##"raw string: SystemTime::now() and File::open("boom") and "quotes""##;
    let hash_free = r"no hashes, still raw: thread::spawn(|| {})";
    let quote = '"';
    let escaped = "escaped \" quote then .to_vec() text";
    raw.len() + hash_free.len() + escaped.len() + quote.len_utf8()
}

// darlint: hot
// darlint: pure-root
/// A multi-line signature followed by a multi-line call chain: token
/// streams must survive both.
pub fn multi_line(
    first: &[u32],
    second: &[u32],
) -> usize {
    first
        .iter()
        .chain(second.iter())
        .filter(|&&v| v > 0)
        .count()
}

macro_rules! passthrough {
    ($($t:tt)*) => { $($t)* };
}

passthrough! {
    #[cfg(test)]
    mod tests {
        #[test]
        fn gated_by_cfg_test_inside_a_macro() {
            // Test code may read the clock freely.
            let _ = std::time::Instant::now();
        }
    }
}
