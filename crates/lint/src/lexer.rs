//! A small hand-rolled Rust lexer: just enough of the language to walk
//! source files token by token without being fooled by comments, string
//! literals, raw strings, char literals, or lifetimes.
//!
//! The lexer produces three things the rule engine consumes:
//!
//! * a flat [`Token`] stream with line numbers,
//! * the lines carrying a `// lint:hot` marker, and
//! * per-token *test-region* flags: tokens inside `#[cfg(test)]` /
//!   `#[test]`-attributed items are marked so rules that only apply to
//!   production code can skip them.
//!
//! It is deliberately not a parser. Everything the rules need is expressible
//! as token-sequence patterns plus brace-depth bookkeeping, which keeps the
//! linter dependency-free and fast enough to run on every verify.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `pub`, `f64`, …).
    Ident(String),
    /// A numeric literal (`1.0`, `2e-3`, `1f64`, `0x1f`).
    Number,
    /// A punctuation run the rules care about as a unit: `::`, `->`;
    /// everything else is a single character.
    Punct(&'static str),
    /// A single punctuation character not covered by [`TokenKind::Punct`].
    Char(char),
    /// A string/char literal (contents dropped — rules never look inside).
    Literal,
}

/// A token plus where it came from and whether it is test-only code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-indexed source line.
    pub line: usize,
    /// True when the token sits inside a `#[cfg(test)]` or `#[test]` item.
    pub in_test: bool,
}

impl Token {
    /// The identifier text, or `""` for non-identifier tokens.
    pub fn ident(&self) -> &str {
        match &self.kind {
            TokenKind::Ident(name) => name,
            _ => "",
        }
    }

    /// True if the token is the exact punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        match &self.kind {
            TokenKind::Punct(s) => *s == p,
            TokenKind::Char(c) => p.len() == 1 && p.starts_with(*c),
            _ => false,
        }
    }
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    /// Lines carrying a `// lint:hot` marker; the item parser attaches each
    /// to the next `fn` at or below the marker.
    pub hot_markers: Vec<usize>,
}

/// Marker state while scanning for test regions.
#[derive(Debug, Clone, Copy)]
struct TestRegion {
    /// Brace depth at which the region's block opened; the region ends when
    /// depth returns to this value.
    close_at_depth: usize,
}

/// Lexes `source`, producing the token stream and hot markers.
pub fn lex(source: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let len = bytes.len();

    while i < len {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment — harvest lint:hot markers. Doc comments (`///`,
            // `//!`) are prose: a rendered mention of the marker syntax must
            // not mark a function hot.
            '/' if i + 1 < len && bytes[i + 1] == '/' => {
                let start = i;
                let is_doc = i + 2 < len && (bytes[i + 2] == '/' || bytes[i + 2] == '!');
                while i < len && bytes[i] != '\n' {
                    i += 1;
                }
                if !is_doc {
                    let text: String = bytes[start..i].iter().collect();
                    if text.contains("lint:hot") {
                        out.hot_markers.push(line);
                    }
                }
            }
            // Block comment, possibly nested (Rust allows nesting).
            '/' if i + 1 < len && bytes[i + 1] == '*' => {
                let mut depth = 1usize;
                i += 2;
                while i < len && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && i + 1 < len && bytes[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < len && bytes[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            // Raw string literal r"…" / r#"…"# / byte raw br#"…"#.
            'r' | 'b' if starts_raw_string(&bytes, i) => {
                let mut j = i;
                if bytes[j] == 'b' {
                    j += 1;
                }
                j += 1; // past 'r'
                let mut hashes = 0usize;
                while j < len && bytes[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // past the opening quote
                let lit_line = line;
                loop {
                    if j >= len {
                        break;
                    }
                    if bytes[j] == '\n' {
                        line += 1;
                        j += 1;
                        continue;
                    }
                    if bytes[j] == '"' {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while k < len && bytes[k] == '#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                    }
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line: lit_line,
                    in_test: false,
                });
                i = j;
            }
            // Ordinary string literal (or byte string b"…").
            '"' => {
                let lit_line = line;
                i += 1;
                while i < len {
                    match bytes[i] {
                        // An escape may hide a newline (`\<newline>` string
                        // continuation) — keep the line count honest.
                        '\\' => {
                            if i + 1 < len && bytes[i + 1] == '\n' {
                                line += 1;
                            }
                            i += 2;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line: lit_line,
                    in_test: false,
                });
            }
            // Char literal vs. lifetime: 'a' is a literal, 'a is a lifetime.
            '\'' => {
                if is_char_literal(&bytes, i) {
                    i += 1;
                    while i < len {
                        match bytes[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        line,
                        in_test: false,
                    });
                } else {
                    // Lifetime: skip the quote and the label.
                    i += 1;
                    while i < len && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let next = scan_number(&bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    line,
                    in_test: false,
                });
                i = next;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < len && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let name: String = bytes[start..i].iter().collect();
                // `b"…"` / `r"…"` are handled above; a bare ident here is
                // safe to record as-is.
                out.tokens.push(Token {
                    kind: TokenKind::Ident(name),
                    line,
                    in_test: false,
                });
            }
            _ => {
                let two: Option<&'static str> = if i + 1 < len {
                    match (c, bytes[i + 1]) {
                        (':', ':') => Some("::"),
                        ('-', '>') => Some("->"),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some(p) = two {
                    out.tokens.push(Token {
                        kind: TokenKind::Punct(p),
                        line,
                        in_test: false,
                    });
                    i += 2;
                } else {
                    out.tokens.push(Token {
                        kind: TokenKind::Char(c),
                        line,
                        in_test: false,
                    });
                    i += 1;
                }
            }
        }
    }

    mark_test_regions(&mut out.tokens);
    out
}

/// True when position `i` starts a raw (byte) string literal: `r"`, `r#`,
/// `br"`, `br#` — and not an identifier like `raw` or `break`.
fn starts_raw_string(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if j >= bytes.len() || bytes[j] != 'r' {
            // b"…" byte string: handled by the '"' arm after the ident scan
            // would mis-tokenize it; treat b" as a raw-ish literal too.
            return j < bytes.len() && bytes[j] == '"';
        }
    }
    if j >= bytes.len() || bytes[j] != 'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == '#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == '"'
}

/// Distinguishes `'x'` (char literal) from `'a` (lifetime). A char literal
/// closes with a quote one or two (escape) chars later.
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    if i + 1 >= bytes.len() {
        return false;
    }
    if bytes[i + 1] == '\\' {
        return true;
    }
    i + 2 < bytes.len() && bytes[i + 2] == '\''
}

/// Scans a numeric literal starting at `i`; returns the index past it.
fn scan_number(bytes: &[char], i: usize) -> usize {
    let len = bytes.len();
    let mut j = i;
    // Hex/octal/binary literals have no fraction or exponent (`0x1e` is
    // not `1e…`).
    if bytes[j] == '0' && j + 1 < len && matches!(bytes[j + 1], 'x' | 'o' | 'b') {
        j += 2;
        while j < len && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_') {
            j += 1;
        }
        return j;
    }
    while j < len && (bytes[j].is_ascii_digit() || bytes[j] == '_') {
        j += 1;
    }
    // A dot continues the number only when followed by a digit (so `0..10`
    // ranges and `1.max(2)` method calls stay integers).
    if j + 1 < len && bytes[j] == '.' && bytes[j + 1].is_ascii_digit() {
        j += 1;
        while j < len && (bytes[j].is_ascii_digit() || bytes[j] == '_') {
            j += 1;
        }
    }
    // Exponent.
    if j < len && matches!(bytes[j], 'e' | 'E') {
        let mut k = j + 1;
        if k < len && matches!(bytes[k], '+' | '-') {
            k += 1;
        }
        if k < len && bytes[k].is_ascii_digit() {
            j = k;
            while j < len && (bytes[j].is_ascii_digit() || bytes[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix (`1f64`, `2.5f32`, `3u8`).
    while j < len && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_') {
        j += 1;
    }
    j
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items as test code.
///
/// The scan is attribute-driven: after seeing a test attribute, the next
/// brace-balanced block at the same item depth is a test region (covering
/// `mod tests { … }` and `fn case() { … }` alike). An attribute discharged
/// by a `;` before any `{` (e.g. `#[cfg(test)] use …;`) marks nothing.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut depth = 0usize;
    let mut regions: Vec<TestRegion> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let in_test = !regions.is_empty();
        // Detect `#[…]` attribute groups and decide whether they are
        // test-marking: `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` —
        // any attribute whose bracket group contains the bare ident `test`.
        if tokens[i].is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[") {
            let mut j = i + 2;
            let mut bracket_depth = 1usize;
            let mut saw_test = false;
            let mut is_cfg_or_test = false;
            if let TokenKind::Ident(name) = &tokens[i + 2].kind {
                is_cfg_or_test = name == "cfg" || name == "test" || name == "cfg_attr";
            }
            while j < tokens.len() && bracket_depth > 0 {
                if tokens[j].is_punct("[") {
                    bracket_depth += 1;
                } else if tokens[j].is_punct("]") {
                    bracket_depth -= 1;
                } else if tokens[j].ident() == "test" {
                    saw_test = true;
                }
                tokens[j].in_test = in_test;
                j += 1;
            }
            tokens[i].in_test = in_test;
            tokens[i + 1].in_test = in_test;
            if is_cfg_or_test && saw_test {
                pending_attr = true;
            }
            i = j;
            continue;
        }

        tokens[i].in_test = in_test;
        if tokens[i].is_punct("{") {
            if pending_attr {
                regions.push(TestRegion {
                    close_at_depth: depth,
                });
                pending_attr = false;
                // The brace itself belongs to the region.
                tokens[i].in_test = true;
            }
            depth += 1;
        } else if tokens[i].is_punct("}") {
            depth = depth.saturating_sub(1);
            if let Some(region) = regions.last() {
                if depth == region.close_at_depth {
                    regions.pop();
                }
            }
        } else if tokens[i].is_punct(";") && pending_attr {
            // `#[cfg(test)] use …;` — attribute consumed without a block.
            pending_attr = false;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // unwrap in a comment
            /* unwrap in /* a nested */ block */
            let s = "unwrap() inside a string";
            let r = r#"unwrap() inside a raw string"#;
            let c = '"'; // a quote char literal must not open a string
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        // `1.0`, `0`, `.`, `.`, `10`, `2e-3`, `1f64`, `0x1e`, `1`, `.`, `max`.
        let file = lex("1.0 0..10 2e-3 1f64 0x1e 1.max");
        let kinds: Vec<&str> = file
            .tokens
            .iter()
            .map(|t| match &t.kind {
                TokenKind::Number => "n",
                TokenKind::Ident(_) => "i",
                _ => "p",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["n", "n", "p", "p", "n", "n", "n", "n", "n", "p", "i"]
        );
    }

    #[test]
    fn hot_markers_are_harvested() {
        let file = lex("// lint:hot calendar pop\nfn pop() {}\nfn other() {} // lint:hot\n");
        assert_eq!(file.hot_markers, vec![1, 3]);
    }

    #[test]
    fn doc_comments_do_not_carry_markers() {
        let src = "/// A `// lint:hot` mention.\n//! Also `lint:hot` prose.\nfn f() {}\n";
        let file = lex(src);
        assert!(file.hot_markers.is_empty());
    }

    #[test]
    fn test_regions_are_marked() {
        let src = r#"
            fn prod() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { y.unwrap(); }
            }
            fn prod2() { z.unwrap(); }
        "#;
        let file = lex(src);
        let unwraps: Vec<bool> = file
            .tokens
            .iter()
            .filter(|t| t.ident() == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn cfg_test_on_use_marks_nothing() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn f() { a.unwrap(); }";
        let file = lex(src);
        let t = file
            .tokens
            .iter()
            .find(|t| t.ident() == "unwrap")
            .map(|t| t.in_test);
        assert_eq!(t, Some(false));
    }

    #[test]
    fn string_line_continuations_keep_line_numbers_honest() {
        let src = "let s = \"a \\\n   b\";\nmarker();\n";
        let file = lex(src);
        let marker = file
            .tokens
            .iter()
            .find(|t| t.ident() == "marker")
            .map(|t| t.line);
        assert_eq!(marker, Some(3));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { done(x) }";
        let ids = idents(src);
        assert!(ids.contains(&"done".to_string()));
    }
}
