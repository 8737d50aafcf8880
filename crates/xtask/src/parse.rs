//! Item parser: recovers `fn` items (with their impl/trait owners, self
//! receivers, and body token ranges) and `#[cfg(test)]` regions from the
//! token stream produced by [`crate::lex`].
//!
//! This is deliberately *approximate* parsing — a recursive descent over
//! token trees that understands exactly as much Rust structure as the
//! darlint rules need: module/impl/trait nesting (so a function has a
//! resolvable owner for the call graph), function signatures split
//! across any number of lines, `cfg(test)` gating on any item (including
//! items nested inside macro invocations, which are traversed
//! transparently), and item kinds that must be *skipped* so their
//! contents cannot be misread as items (`const FN_TABLE: [fn(); 2]`
//! must not look like a function definition). Anything the parser does
//! not understand is skipped token-by-token; it never panics and never
//! loses line anchoring.

use crate::lex::{Lexed, TokKind, Token};

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block, if any
    /// (`impl Layer for Dense` → `Dense`; `trait Layer` → `Layer`).
    pub owner: Option<String>,
    /// Whether the parameter list begins with a `self` receiver.
    pub has_self: bool,
    /// Whether the item is test-only: under a `#[cfg(test)]` item, or
    /// carrying `#[test]`/`#[cfg(test)]` itself.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line where the item starts (first attribute, else `fn`).
    pub start_line: usize,
    /// 1-based line of the closing brace (or `;` for bodyless items).
    pub end_line: usize,
    /// Token-index range of the body: `(open_brace, close_brace)`,
    /// inclusive of both delimiter tokens. `None` for trait-method
    /// declarations without a default body.
    pub body: Option<(usize, usize)>,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Inclusive `(start_line, end_line)` spans of `#[cfg(test)]`-gated
    /// items (and `#[test]` functions).
    pub test_spans: Vec<(usize, usize)>,
}

/// Parses the items of an already-lexed file.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let mut out = ParsedFile::default();
    let ctx = Ctx {
        owner: None,
        in_test: false,
    };
    items(&lexed.tokens, 0, lexed.tokens.len(), &ctx, &mut out);
    out
}

/// `is_test_line[i]`: is 1-based line `i + 1` inside a test-gated item?
pub fn test_line_flags(parsed: &ParsedFile, line_count: usize) -> Vec<bool> {
    let mut flags = vec![false; line_count];
    for &(lo, hi) in &parsed.test_spans {
        for l in lo..=hi.min(line_count) {
            if l >= 1 {
                flags[l - 1] = true;
            }
        }
    }
    flags
}

#[derive(Clone)]
struct Ctx {
    owner: Option<String>,
    in_test: bool,
}

/// Accumulated attribute state while scanning toward an item keyword.
#[derive(Default)]
struct Attrs {
    test: bool,
    start_line: Option<usize>,
}

impl Attrs {
    fn anchor(&self, fallback: usize) -> usize {
        self.start_line.unwrap_or(fallback)
    }
}

/// Finds the index of the token matching the open delimiter at `start`.
fn matching(tokens: &[Token], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Skips a generics group starting at `<`, tolerant of `->` and `=>`
/// inside bounds (`fn f<F: Fn() -> usize>`): a `>` preceded by `-` or
/// `=` is an arrow, not a closer. Returns the index past the group.
fn skip_angles(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>')
            && !(i > 0 && (tokens[i - 1].is_punct('-') || tokens[i - 1].is_punct('=')))
        {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Does the attribute token group `[lo, hi)` (inside the brackets) gate
/// the item to test builds? True for `#[test]` and for `#[cfg(...)]`
/// predicates mentioning `test` outside a `not(...)`.
fn attr_is_test(tokens: &[Token], lo: usize, hi: usize) -> bool {
    let inner: Vec<&Token> = tokens[lo..hi].iter().collect();
    if inner.len() == 1 && inner[0].is_ident("test") {
        return true;
    }
    if !inner.first().is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    // Scan the predicate; ignore everything inside `not(...)` so
    // `#[cfg(not(test))]` is correctly *non*-test.
    let mut not_depth: Option<usize> = None;
    let mut paren_depth = 0usize;
    let mut k = lo;
    while k < hi {
        let t = &tokens[k];
        if t.is_punct('(') {
            paren_depth += 1;
        } else if t.is_punct(')') {
            paren_depth = paren_depth.saturating_sub(1);
            if let Some(d) = not_depth {
                if paren_depth < d {
                    not_depth = None;
                }
            }
        } else if t.is_ident("not") && tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
            if not_depth.is_none() {
                not_depth = Some(paren_depth + 1);
            }
        } else if t.is_ident("test") && not_depth.is_none() && paren_depth >= 1 {
            return true;
        }
        k += 1;
    }
    false
}

/// Parses the items in token range `[lo, hi)` under `ctx`.
fn items(tokens: &[Token], lo: usize, hi: usize, ctx: &Ctx, out: &mut ParsedFile) {
    let mut i = lo;
    let mut attrs = Attrs::default();
    while i < hi {
        let t = &tokens[i];
        // Attribute groups: `#[...]` and inner `#![...]`.
        if t.is_punct('#') {
            let bracket = if tokens.get(i + 1).is_some_and(|n| n.is_punct('[')) {
                Some(i + 1)
            } else if tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct('['))
            {
                Some(i + 2)
            } else {
                None
            };
            if let Some(open) = bracket {
                let close = match matching(tokens, open, '[', ']') {
                    Some(c) => c,
                    None => break,
                };
                if attr_is_test(tokens, open + 1, close) {
                    attrs.test = true;
                }
                attrs.start_line.get_or_insert(t.line);
                i = close + 1;
                continue;
            }
        }
        if t.kind != TokKind::Ident {
            // Punctuation between attributes and their item (e.g. the
            // `(crate)` of `pub(crate)`) keeps the pending attrs alive;
            // statement/block boundaries clear them.
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                attrs = Attrs::default();
            }
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" if tokens.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident) => {
                i = parse_fn(tokens, i, hi, ctx, std::mem::take(&mut attrs), out);
            }
            "mod" if tokens.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident) => {
                let a = std::mem::take(&mut attrs);
                let anchor = a.anchor(t.line);
                match tokens.get(i + 2) {
                    Some(n) if n.is_punct('{') => {
                        let close = match matching(tokens, i + 2, '{', '}') {
                            Some(c) => c,
                            None => break,
                        };
                        let inner = Ctx {
                            owner: None,
                            in_test: ctx.in_test || a.test,
                        };
                        if a.test {
                            out.test_spans.push((anchor, tokens[close].line));
                        }
                        items(tokens, i + 3, close, &inner, out);
                        i = close + 1;
                    }
                    _ => {
                        // `mod name;` — span covers the declaration only.
                        if a.test {
                            out.test_spans.push((anchor, tokens[i + 1].line));
                        }
                        i += 2;
                    }
                }
            }
            "impl" | "trait" => {
                let a = std::mem::take(&mut attrs);
                let anchor = a.anchor(t.line);
                let (owner, body_open) = block_owner(tokens, i, hi, t.text == "trait");
                match body_open {
                    Some(open) => {
                        let close = match matching(tokens, open, '{', '}') {
                            Some(c) => c,
                            None => break,
                        };
                        let inner = Ctx {
                            owner,
                            in_test: ctx.in_test || a.test,
                        };
                        if a.test {
                            out.test_spans.push((anchor, tokens[close].line));
                        }
                        items(tokens, open + 1, close, &inner, out);
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            "struct" | "enum" | "union" => {
                let a = std::mem::take(&mut attrs);
                let anchor = a.anchor(t.line);
                let mut j = i + 1;
                // Name, generics, where clause; body is `{...}`, `(...)`
                // + `;` (tuple struct), or a bare `;`.
                let mut end = None;
                while j < hi {
                    if tokens[j].is_punct('<') {
                        j = skip_angles(tokens, j);
                        continue;
                    }
                    if tokens[j].is_punct('{') {
                        end = matching(tokens, j, '{', '}');
                        break;
                    }
                    if tokens[j].is_punct(';') {
                        end = Some(j);
                        break;
                    }
                    if tokens[j].is_punct('(') {
                        j = match matching(tokens, j, '(', ')') {
                            Some(c) => c + 1,
                            None => break,
                        };
                        continue;
                    }
                    j += 1;
                }
                let Some(end) = end else { break };
                if a.test {
                    out.test_spans.push((anchor, tokens[end].line));
                }
                i = end + 1;
            }
            "const" | "static" | "type" | "use"
                if !tokens.get(i + 1).is_some_and(|n| n.is_ident("fn")) =>
            {
                // Skip to the terminating `;` at brace depth 0 so `fn`
                // tokens inside types/initializers are never misread as
                // items (`const T: [fn(); 2] = ...;`).
                let a = std::mem::take(&mut attrs);
                let anchor = a.anchor(t.line);
                let mut depth = 0usize;
                let mut j = i + 1;
                while j < hi {
                    if tokens[j].is_punct('{') {
                        depth += 1;
                    } else if tokens[j].is_punct('}') {
                        depth = depth.saturating_sub(1);
                    } else if tokens[j].is_punct(';') && depth == 0 {
                        break;
                    }
                    j += 1;
                }
                if a.test && j < hi {
                    out.test_spans.push((anchor, tokens[j].line));
                }
                i = j + 1;
            }
            "macro_rules" => {
                // `macro_rules! name { ... }` — the body is a token
                // pattern, not code; skip it entirely.
                let mut j = i + 1;
                while j < hi && !tokens[j].is_punct('{') {
                    j += 1;
                }
                i = match matching(tokens, j, '{', '}') {
                    Some(c) => c + 1,
                    None => hi,
                };
            }
            _ => {
                // Macro invocations are traversed transparently so
                // `#[cfg(test)] mod ...` nested inside one still
                // registers (`proptest! { ... }`-style wrappers).
                if tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    if let Some((open_ch, close_ch, open_idx)) = macro_group(tokens, i + 2) {
                        if let Some(close) = matching(tokens, open_idx, open_ch, close_ch) {
                            items(tokens, open_idx + 1, close, ctx, out);
                            i = close + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
        }
    }
}

/// The delimiter group of a macro invocation starting at token `i`
/// (right after `name !`).
fn macro_group(tokens: &[Token], i: usize) -> Option<(char, char, usize)> {
    let t = tokens.get(i)?;
    if t.is_punct('(') {
        Some(('(', ')', i))
    } else if t.is_punct('[') {
        Some(('[', ']', i))
    } else if t.is_punct('{') {
        Some(('{', '}', i))
    } else {
        None
    }
}

/// For an `impl`/`trait` keyword at `i`: the block's owner name and the
/// index of its opening `{`.
fn block_owner(
    tokens: &[Token],
    i: usize,
    hi: usize,
    is_trait: bool,
) -> (Option<String>, Option<usize>) {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j);
    }
    if is_trait {
        let name = tokens
            .get(j)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        while j < hi && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            if tokens[j].is_punct('<') {
                j = skip_angles(tokens, j);
                continue;
            }
            j += 1;
        }
        let open = (j < hi && tokens[j].is_punct('{')).then_some(j);
        return (name, open);
    }
    // impl: the self type is the path after `for` when present, else the
    // path after the impl generics. Owner = the path's *last* plain
    // segment before generics (`impl fmt::Display for CollectError` →
    // `CollectError`; `impl<S> Wal<S>` → `Wal`).
    let mut segments: Vec<String> = Vec::new();
    let mut after_for: Option<Vec<String>> = None;
    while j < hi && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
        let t = &tokens[j];
        if t.is_punct('<') {
            j = skip_angles(tokens, j);
            continue;
        }
        if t.is_ident("for") {
            after_for = Some(Vec::new());
            j += 1;
            continue;
        }
        if t.is_ident("where") {
            break;
        }
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "dyn" | "mut") {
            match &mut after_for {
                Some(v) => v.push(t.text.clone()),
                None => segments.push(t.text.clone()),
            }
        }
        j += 1;
    }
    while j < hi && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
        j += 1;
    }
    let open = (j < hi && tokens[j].is_punct('{')).then_some(j);
    let path = after_for.unwrap_or(segments);
    (path.last().cloned(), open)
}

/// Parses one `fn` item with the `fn` keyword at index `i`; returns the
/// index to continue from.
fn parse_fn(
    tokens: &[Token],
    i: usize,
    hi: usize,
    ctx: &Ctx,
    attrs: Attrs,
    out: &mut ParsedFile,
) -> usize {
    let fn_line = tokens[i].line;
    let name = tokens[i + 1].text.clone();
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j);
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return i + 2; // malformed; skip the keyword and resynchronize
    }
    let params_close = match matching(tokens, j, '(', ')') {
        Some(c) => c,
        None => return hi,
    };
    let has_self = {
        let mut k = j + 1;
        while k < params_close
            && (tokens[k].is_punct('&')
                || tokens[k].kind == TokKind::Lifetime
                || tokens[k].is_ident("mut"))
        {
            k += 1;
        }
        k < params_close && tokens[k].is_ident("self")
    };
    // Return type / where clause, then `{` body or `;` declaration.
    let mut k = params_close + 1;
    let mut body = None;
    let mut end_line = tokens[params_close].line;
    while k < hi {
        if tokens[k].is_punct('<') {
            k = skip_angles(tokens, k);
            continue;
        }
        if tokens[k].is_punct('{') {
            if let Some(close) = matching(tokens, k, '{', '}') {
                body = Some((k, close));
                end_line = tokens[close].line;
            }
            break;
        }
        if tokens[k].is_punct(';') {
            end_line = tokens[k].line;
            break;
        }
        k += 1;
    }
    let is_test = ctx.in_test || attrs.test;
    let start_line = attrs.anchor(fn_line);
    if attrs.test {
        out.test_spans.push((start_line, end_line));
    }
    out.fns.push(FnItem {
        name,
        owner: ctx.owner.clone(),
        has_self,
        is_test,
        line: fn_line,
        start_line,
        end_line,
        body,
    });
    match body {
        Some((open, close)) => {
            // Nested items (fns declared inside the body) are free
            // functions in their own right.
            let inner = Ctx {
                owner: None,
                in_test: is_test,
            };
            items(tokens, open + 1, close, &inner, out);
            close + 1
        }
        None => k + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn finds_free_and_method_fns() {
        let p = parsed(
            "fn free(x: u32) -> u32 { x }\n\
             impl Tensor {\n    pub fn zeros(dims: &[usize]) -> Self { todo() }\n\
             \n    fn len(&self) -> usize { 0 }\n}\n",
        );
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "free");
        assert_eq!(p.fns[0].owner, None);
        assert!(!p.fns[0].has_self);
        assert_eq!(p.fns[1].name, "zeros");
        assert_eq!(p.fns[1].owner.as_deref(), Some("Tensor"));
        assert!(!p.fns[1].has_self);
        assert_eq!(p.fns[2].name, "len");
        assert!(p.fns[2].has_self);
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let p = parsed(
            "impl Layer for Dense {\n    fn forward_into(&mut self, x: &T) -> R { x }\n}\n\
             impl<S: WalStorage> Wal<S> {\n    fn append(&mut self) {}\n}\n\
             impl fmt::Display for CollectError {\n    fn fmt(&self, f: &mut F) -> R { ok }\n}\n",
        );
        assert_eq!(p.fns[0].owner.as_deref(), Some("Dense"));
        assert_eq!(p.fns[1].owner.as_deref(), Some("Wal"));
        assert_eq!(p.fns[2].owner.as_deref(), Some("CollectError"));
    }

    #[test]
    fn trait_default_methods_get_trait_owner() {
        let p = parsed("trait Layer {\n    fn act(&self) -> u32 { 1 }\n    fn sig(&self);\n}\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Layer"));
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[1].body.is_none());
    }

    #[test]
    fn cfg_test_mod_gates_everything_inside() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let p = parsed(src);
        let flags = test_line_flags(&p, 6);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
        let t = p.fns.iter().find(|f| f.name == "t").expect("t parsed");
        assert!(t.is_test);
        assert!(
            !p.fns
                .iter()
                .find(|f| f.name == "after")
                .expect("after")
                .is_test
        );
    }

    #[test]
    fn cfg_not_test_is_not_gated() {
        let p = parsed("#[cfg(not(test))]\nfn live() {}\n");
        assert!(p.test_spans.is_empty());
        assert!(!p.fns[0].is_test);
    }

    #[test]
    fn cfg_all_test_counts_as_test() {
        let p = parsed("#[cfg(all(test, feature = \"x\"))]\nfn helper() {\n}\nfn live() {}\n");
        assert_eq!(test_line_flags(&p, 4), vec![true, true, true, false]);
    }

    #[test]
    fn test_attr_on_fn_gates_it() {
        let p = parsed("#[test]\nfn unit() { x.unwrap(); }\nfn live() {}\n");
        assert_eq!(test_line_flags(&p, 3), vec![true, true, false]);
    }

    #[test]
    fn cfg_test_mod_nested_in_macro_invocation() {
        let src = "wrapper_macro! {\n    #[cfg(test)]\n    mod tests {\n        fn t() {}\n    }\n}\nfn live() {}\n";
        let p = parsed(src);
        let flags = test_line_flags(&p, 7);
        assert_eq!(flags, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p =
            parsed("const TABLE: [fn(); 2] = [a, b];\ntype F = fn(u32) -> u32;\nfn real() {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn multiline_signature_parses() {
        let src = "pub fn long_name(\n    a: usize,\n    b: &mut [f32],\n) -> Result<(), E>\nwhere\n    E: Sized,\n{\n    body()\n}\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "long_name");
        assert_eq!(p.fns[0].line, 1);
        assert_eq!(p.fns[0].end_line, 9);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn generic_bounds_with_arrows_do_not_derail() {
        let p = parsed("fn apply<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }\nfn next() {}\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[1].name, "next");
    }

    #[test]
    fn nested_fns_are_items_without_owner() {
        let p = parsed("impl T {\n    fn outer(&self) {\n        fn inner() {}\n    }\n}\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "outer");
        assert_eq!(p.fns[1].name, "inner");
        assert_eq!(p.fns[1].owner, None);
    }

    #[test]
    fn const_fn_is_still_a_fn() {
        let p = parsed("const fn cfn() -> u32 { 1 }\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "cfn");
    }
}
