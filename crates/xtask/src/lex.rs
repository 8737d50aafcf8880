//! Token-tree lexer underpinning darlint v2.
//!
//! The v1 pass worked on a *masked* copy of the source (comments and
//! literals blanked to spaces) and matched rule tokens by substring
//! search. That forced boundary guards (`panic!` vs `my_panic!`), could
//! not see through formatting (`.unwrap ()`), and gave the rules no
//! structure to hang an item parser or call graph on. v2 lexes the file
//! into a proper token stream: identifiers, lifetimes, numbers, string
//! and char literals (contents dropped so rules can never match into
//! text), and single-character punctuation, each tagged with its 1-based
//! source line. Comments are not tokens; line comments are captured on
//! the side because the function markers (`// darlint: ...`) live in
//! them.
//!
//! The lexer understands the full literal zoo that used to live in the
//! masking scanner — nested block comments, `r#"…"#`/`r##"…"##` raw
//! strings, byte strings and byte chars, escapes, and the char-literal
//! vs. lifetime ambiguity — and it preserves line numbers exactly, so a
//! diagnostic anchored to a token points at the right source line (a
//! property test pins this).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unwrap`, `HashMap`, ...).
    Ident,
    /// A lifetime (`'a`); kept distinct so it can never be confused with
    /// a char literal.
    Lifetime,
    /// A numeric literal (`1`, `0xF1EE7u64`, `2.5e-3`).
    Num,
    /// A string literal of any flavour (plain, raw, byte). The text is
    /// dropped: rules must never match inside literals.
    Str,
    /// A char or byte-char literal; text dropped like [`TokKind::Str`].
    Char,
    /// A single punctuation character (`.`, `:`, `!`, `(`, ...).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokKind,
    /// Identifier/number text, or the punctuation character. Empty for
    /// string and char literals.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// Does this token equal punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Does this token equal identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// A line comment (`// ...`) captured during lexing.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based line on which the comment starts.
    pub line: usize,
    /// Full comment text including the leading `//`.
    pub text: String,
    /// Whether the comment is the only token on its line.
    pub own_line: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens, in file order (comments excluded).
    pub tokens: Vec<Token>,
    /// All `//` comments, in file order.
    pub comments: Vec<LineComment>,
}

/// Lexes `source` into tokens and line comments.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        bytes: source.as_bytes(),
        source,
        i: 0,
        line: 1,
        line_had_code: false,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    source: &'a str,
    i: usize,
    line: usize,
    /// Has any code token been emitted on the current line yet?
    line_had_code: bool,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.line_had_code = false;
                    self.i += 1;
                }
                _ if b.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.starts_raw_string() => self.raw_string(),
                b'b' if self.peek(1) == Some(b'\'') => {
                    // Byte char: skip the `b`, then lex the char literal.
                    self.i += 1;
                    self.char_literal();
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.i += 1;
                    self.plain_string();
                }
                b'r' if self.peek(1) == Some(b'#') && self.peek(2).is_some_and(is_ident_start) => {
                    // Raw identifier `r#type`: token text is the bare name.
                    self.i += 2;
                    self.ident();
                }
                b'"' => self.plain_string(),
                b'\'' => {
                    if self.is_char_literal() {
                        self.char_literal();
                    } else {
                        self.lifetime();
                    }
                }
                _ if is_ident_start(b) => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                _ => {
                    // Single punctuation character (multi-byte UTF-8
                    // punctuation — em-dashes in comments never reach
                    // here, but be safe and consume the whole char).
                    let ch_len = utf8_len(b);
                    let text = self.source[self.i..self.i + ch_len].to_owned();
                    self.push(TokKind::Punct, text);
                    self.i += ch_len;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.line_had_code = true;
        self.out.tokens.push(Token {
            kind,
            text,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        let own_line = !self.line_had_code;
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\n' {
            self.i += 1;
        }
        self.out.comments.push(LineComment {
            line: self.line,
            text: self.source[start..self.i].to_owned(),
            own_line,
        });
    }

    fn block_comment(&mut self) {
        // Nested: `/* a /* b */ c */` closes only at depth 0.
        let mut depth = 1usize;
        self.i += 2;
        while self.i < self.bytes.len() && depth > 0 {
            match self.bytes[self.i] {
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.i += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.line_had_code = false;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Does `bytes[i..]` begin a raw (byte) string literal, e.g. `r"`,
    /// `r#"`, `br##"`?
    fn starts_raw_string(&self) -> bool {
        let mut j = self.i;
        if self.bytes[j] == b'b' {
            j += 1;
            if self.bytes.get(j) != Some(&b'r') {
                return false;
            }
        }
        if self.bytes.get(j) != Some(&b'r') {
            return false;
        }
        j += 1;
        while self.bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        self.bytes.get(j) == Some(&b'"')
    }

    fn raw_string(&mut self) {
        let start_line = self.line;
        // Prefix: optional `b`, `r`, then `#`s.
        let mut hashes = 0usize;
        while self.bytes[self.i] != b'"' {
            if self.bytes[self.i] == b'#' {
                hashes += 1;
            }
            self.i += 1;
        }
        self.i += 1; // opening quote
        while self.i < self.bytes.len() {
            if self.bytes[self.i] == b'"' {
                let closed = (0..hashes).all(|k| self.peek(1 + k) == Some(b'#'));
                if closed {
                    self.i += 1 + hashes;
                    self.out.tokens.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: start_line,
                    });
                    self.line_had_code = true;
                    return;
                }
            }
            if self.bytes[self.i] == b'\n' {
                self.line += 1;
            }
            self.i += 1;
        }
        // Unterminated: still emit the token so downstream stays sane.
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text: String::new(),
            line: start_line,
        });
    }

    fn plain_string(&mut self) {
        let start_line = self.line;
        self.i += 1; // opening quote
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'\\' => {
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.i += 2;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text: String::new(),
            line: start_line,
        });
        self.line_had_code = true;
    }

    /// Is the `'` at the cursor a char literal (vs. a lifetime)?
    fn is_char_literal(&self) -> bool {
        match self.peek(1) {
            None => false,
            Some(b'\\') => true,
            Some(_) => {
                // `'x'` (one char, possibly multi-byte, then a closing
                // quote) is a literal; `'a` with no closing quote is a
                // lifetime.
                for k in 2..=5 {
                    match self.peek(k) {
                        Some(b'\'') => return true,
                        Some(b) if b >= 0x80 || b.is_ascii_alphanumeric() || b == b'_' => {}
                        _ => return false,
                    }
                }
                false
            }
        }
    }

    fn char_literal(&mut self) {
        self.i += 1; // opening quote
        if self.peek(0) == Some(b'\\') {
            self.i += 2; // escape introducer + escaped char
        }
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\'' {
            self.i += 1;
        }
        if self.i < self.bytes.len() {
            self.i += 1; // closing quote
        }
        self.push(TokKind::Char, String::new());
    }

    fn lifetime(&mut self) {
        let start = self.i;
        self.i += 1;
        while self.i < self.bytes.len() && is_ident_continue(self.bytes[self.i]) {
            self.i += 1;
        }
        let text = self.source[start..self.i].to_owned();
        self.push(TokKind::Lifetime, text);
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.bytes.len() && is_ident_continue(self.bytes[self.i]) {
            self.i += 1;
        }
        let text = self.source[start..self.i].to_owned();
        self.push(TokKind::Ident, text);
    }

    fn number(&mut self) {
        let start = self.i;
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            if b.is_ascii_alphanumeric() || b == b'_' {
                // Covers hex digits, type suffixes (`u64`, `f32`), and
                // exponents; `1e-9` needs the sign after `e`.
                if (b == b'e' || b == b'E')
                    && matches!(self.peek(1), Some(b'+') | Some(b'-'))
                    && self.peek(2).is_some_and(|d| d.is_ascii_digit())
                    && !self.source[start..self.i].starts_with("0x")
                {
                    self.i += 2;
                    continue;
                }
                self.i += 1;
            } else if b == b'.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // Fractional part; `1..4` stops before the range dots and
                // `0.5.to_bits()` stops before the method dot.
                self.i += 1;
            } else {
                break;
            }
        }
        let text = self.source[start..self.i].to_owned();
        self.push(TokKind::Num, text);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte length of the UTF-8 char starting with `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        _ if b < 0x80 => 1,
        _ if b >= 0xF0 => 4,
        _ if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        assert_eq!(
            texts("let x = foo(1, 0xF1u8);"),
            vec!["let", "x", "=", "foo", "(", "1", ",", "0xF1u8", ")", ";"]
        );
    }

    #[test]
    fn floats_do_not_eat_method_dots() {
        assert_eq!(
            texts("0.5.to_bits() 1..4 2.5e-3"),
            vec!["0.5", ".", "to_bits", "(", ")", "1", ".", ".", "4", "2.5e-3"]
        );
    }

    #[test]
    fn strings_and_chars_drop_contents() {
        let lexed = lex("let s = \".unwrap()\"; let c = 'x'; let b = b\"panic!\";");
        assert!(lexed
            .tokens
            .iter()
            .all(|t| t.kind != TokKind::Ident || !t.text.contains("unwrap")));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| matches!(t.kind, TokKind::Str | TokKind::Char))
                .count(),
            3
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let lexed = lex("let p = r##\"panic!(\"boom\")\"##;\nlet q = 3;\n");
        assert!(!lexed.tokens.iter().any(|t| t.text == "panic"));
        let q = lexed.tokens.iter().find(|t| t.text == "q").unwrap();
        assert_eq!(q.line, 2);
    }

    #[test]
    fn multiline_raw_string_advances_lines() {
        let lexed = lex("let p = r#\"a\nb\nc\"#;\nfinal_ident\n");
        let f = lexed
            .tokens
            .iter()
            .find(|t| t.text == "final_ident")
            .unwrap();
        assert_eq!(f.line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("before /* a /* panic!() */ b */ after");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            vec!["before", "after"]
        );
    }

    #[test]
    fn line_comments_captured_with_ownership() {
        let lexed = lex("let x = 1; // trailing\n// own line\nlet y = 2;\n");
        assert_eq!(lexed.comments.len(), 2);
        assert!(!lexed.comments[0].own_line);
        assert!(lexed.comments[1].own_line);
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\n'; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(texts("let r#type = 1;"), vec!["let", "type", "=", "1", ";"]);
    }

    #[test]
    fn line_numbers_track_every_construct() {
        let src = "a\n\"s\ntring\"\n/* c\nomment */\nb\n";
        let lexed = lex(src);
        let a = lexed.tokens.iter().find(|t| t.text == "a").unwrap();
        let b = lexed.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 6);
    }
}
