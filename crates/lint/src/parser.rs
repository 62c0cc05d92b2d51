//! A hand-rolled item-level parser on top of the lexer: extracts `fn`
//! signatures (name, visibility, parameters, body token range) and attaches
//! `// lint:hot` markers.
//!
//! This is not a Rust parser — it recognizes exactly the item structure the
//! item-level rules need and skips everything else token by token.
//! Unrecognized constructs degrade safely: a signature the parser cannot
//! follow yields no item (and therefore no findings) rather than a wrong
//! one.

use crate::lexer::{LexedFile, Token};

/// One function parameter, as parsed from the signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name (`energy`, `latency_ms`, …; patterns reduce to the
    /// last identifier before the `:`).
    pub name: String,
    /// 1-indexed line of the parameter name.
    pub line: usize,
    /// True when the declared type is a bare `f64`/`f32` (possibly behind
    /// `&`/`mut`) — the raw floats unit discipline applies to.
    pub is_raw_float: bool,
    /// The head identifier of the type, for messages (`f64`, `Vec`, …).
    pub ty_name: String,
}

/// One parsed `fn` item (free function or method alike).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's simple name.
    pub name: String,
    /// True when the declaration carries `pub` (any visibility qualifier).
    pub is_pub: bool,
    /// True when the `fn` token sits inside a `#[cfg(test)]`/`#[test]`
    /// region.
    pub is_test: bool,
    /// True when a `// lint:hot` marker precedes the function.
    pub is_hot: bool,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Parsed parameters (the `self` receiver is omitted).
    pub params: Vec<Param>,
    /// Token-index range of the body including both braces, when the item
    /// has one (trait declarations and extern items do not).
    pub body: Option<(usize, usize)>,
}

/// Parses every function item in a lexed file, nested ones included, in
/// source order.
pub fn parse_items(lexed: &LexedFile) -> Vec<FnItem> {
    let tokens = &lexed.tokens;
    let mut items: Vec<FnItem> = (0..tokens.len())
        .filter(|&i| tokens[i].ident() == "fn")
        .filter_map(|i| parse_fn(tokens, i, tokens.len()))
        .collect();
    attach_hot_markers(&mut items, &lexed.hot_markers);
    items
}

/// Parses one `fn` item starting at the `fn` keyword. A `fn(…)` pointer
/// type has no name after the keyword and yields `None`.
fn parse_fn(tokens: &[Token], i: usize, end: usize) -> Option<FnItem> {
    let name_tok = tokens.get(i + 1)?;
    let name = name_tok.ident().to_string();
    if name.is_empty() {
        return None;
    }
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(tokens, j, end)?;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let params_close = match_group(tokens, j, end, "(", ")")?;
    let params = parse_params(&tokens[j + 1..params_close]);
    // Skip the return type and any where clause to the body or `;`.
    let mut k = params_close + 1;
    let mut angle = 0usize;
    while k < end {
        let t = &tokens[k];
        if angle == 0 && (t.is_punct("{") || t.is_punct(";")) {
            break;
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = angle.saturating_sub(1);
        }
        k += 1;
    }
    let body = if tokens.get(k).is_some_and(|t| t.is_punct("{")) {
        Some((k, match_brace(tokens, k, end)?))
    } else {
        None
    };
    Some(FnItem {
        name,
        is_pub: leading_pub(tokens, i),
        is_test: tokens[i].in_test,
        is_hot: false,
        line: tokens[i].line,
        params,
        body,
    })
}

/// Splits a parameter-list token slice at top-level commas and extracts
/// (name, type head) per parameter. The `self` receiver is dropped.
fn parse_params(tokens: &[Token]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth_paren = 0i32;
    let mut depth_bracket = 0i32;
    let mut depth_angle = 0i32;
    let mut seg_start = 0usize;
    let mut segments: Vec<&[Token]> = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if t.is_punct("(") {
            depth_paren += 1;
        } else if t.is_punct(")") {
            depth_paren -= 1;
        } else if t.is_punct("[") {
            depth_bracket += 1;
        } else if t.is_punct("]") {
            depth_bracket -= 1;
        } else if t.is_punct("<") {
            depth_angle += 1;
        } else if t.is_punct(">") {
            depth_angle -= 1;
        } else if t.is_punct(",") && depth_paren == 0 && depth_bracket == 0 && depth_angle <= 0 {
            segments.push(&tokens[seg_start..idx]);
            seg_start = idx + 1;
        }
    }
    if seg_start < tokens.len() {
        segments.push(&tokens[seg_start..]);
    }
    for seg in segments {
        if seg.iter().any(|t| t.ident() == "self") {
            continue; // the receiver
        }
        // The binding name is the last ident before the top-level `:`.
        let mut colon = None;
        let mut depth = 0i32;
        for (idx, t) in seg.iter().enumerate() {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(":") && depth == 0 {
                colon = Some(idx);
                break;
            }
        }
        let Some(colon) = colon else { continue };
        let Some(name_tok) = seg[..colon].iter().rev().find(|t| !t.ident().is_empty()) else {
            continue;
        };
        // Strip `&`/`mut` from the type; a raw float is a lone f64/f32.
        let ty: Vec<&Token> = seg[colon + 1..]
            .iter()
            .filter(|t| !(t.is_punct("&") || t.ident() == "mut"))
            .collect();
        let ty_name = ty
            .iter()
            .find(|t| !t.ident().is_empty())
            .map(|t| t.ident().to_string())
            .unwrap_or_default();
        let is_raw_float = ty.len() == 1 && matches!(ty_name.as_str(), "f64" | "f32");
        params.push(Param {
            name: name_tok.ident().to_string(),
            line: name_tok.line,
            is_raw_float,
            ty_name,
        });
    }
    params
}

/// True when the tokens immediately before the `fn` keyword include `pub`
/// (with any qualifier: `pub(crate)`, `pub(in …)`), skipping `const`,
/// `async`, `unsafe`, `extern "C"`, and `default`.
fn leading_pub(tokens: &[Token], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        match t.ident() {
            "const" | "async" | "unsafe" | "extern" | "default" => continue,
            "pub" => return true,
            _ => {}
        }
        if matches!(t.kind, crate::lexer::TokenKind::Literal) {
            continue; // the ABI string of `extern "C"`
        }
        if t.is_punct(")") {
            // `pub(crate)` / `pub(in path)`: walk back to the `(` and keep
            // looking for the `pub`.
            while j > 0 && !tokens[j].is_punct("(") {
                j -= 1;
            }
            continue;
        }
        return false;
    }
    false
}

fn attach_hot_markers(items: &mut [FnItem], markers: &[usize]) {
    for &marker in markers {
        if let Some(item) = items.iter_mut().find(|item| item.line >= marker) {
            item.is_hot = true;
        }
    }
}

/// Matches the `{` at `open` to its closing `}`.
pub fn match_brace(tokens: &[Token], open: usize, end: usize) -> Option<usize> {
    match_group(tokens, open, end, "{", "}")
}

/// Matches the opener `o` at `open` to its closer `c` within `..end`.
fn match_group(tokens: &[Token], open: usize, end: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0usize;
    let offset = tokens.get(open..end)?.iter().position(|t| {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            return depth == 0;
        }
        false
    })?;
    Some(open + offset)
}

/// Skips a matched `<…>` starting at `open`; returns the index after `>`.
fn skip_angles(tokens: &[Token], open: usize, end: usize) -> Option<usize> {
    Some(match_group(tokens, open, end, "<", ">")? + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src))
    }

    #[test]
    fn free_and_method_fns_are_parsed() {
        let src = r#"
            pub fn free(x: u32) -> u32 { x }
            struct Calendar;
            impl Calendar {
                pub fn push(&mut self, t: f64) {}
                fn pop(&mut self) -> Option<f64> { None }
            }
            impl std::fmt::Display for Calendar {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, "") }
            }
        "#;
        let items = parse(src);
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["free", "push", "pop", "fmt"]);
        assert!(items[0].is_pub && items[1].is_pub && !items[2].is_pub);
        assert_eq!(items[1].params[0].name, "t");
    }

    #[test]
    fn generics_where_clauses_and_nested_fns_parse() {
        let src = r#"
            impl<R: Recorder> Run<'_, R> {
                pub(crate) fn execute<T>(&mut self, x: Vec<(usize, f64)>) -> Result<T, E>
                where
                    T: Default,
                {
                    fn inner(y: f64) -> f64 { y }
                    inner(1.0)
                }
            }
        "#;
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "execute");
        assert!(items[0].is_pub);
        assert_eq!(items[0].params.len(), 1);
        assert_eq!(items[0].params[0].name, "x");
        assert!(!items[0].params[0].is_raw_float);
        assert_eq!(items[1].name, "inner");
        assert!(items[1].params[0].is_raw_float);
    }

    #[test]
    fn params_classify_raw_floats() {
        let items = parse("pub fn f(energy: f64, scale: &f64, count: usize, t: Time) {}");
        let raw: Vec<bool> = items[0].params.iter().map(|p| p.is_raw_float).collect();
        assert_eq!(raw, vec![true, true, false, false]);
        assert_eq!(items[0].params[3].ty_name, "Time");
    }

    #[test]
    fn hot_markers_attach_to_the_next_fn() {
        let src = "// lint:hot\nfn a() {}\nfn b() {}\n// lint:hot\nfn c() {}\n";
        let items = parse(src);
        let hot: Vec<bool> = items.iter().map(|i| i.is_hot).collect();
        assert_eq!(hot, vec![true, false, true]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let items = parse("struct S { cb: fn(u32) -> u32 }\ntype F = fn();\nfn real() {}");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "real");
    }

    #[test]
    fn trait_decls_without_bodies_parse() {
        let src = r#"
            pub trait Backend {
                fn evaluate(&self, model: &Model) -> Result<Report, EvalError>;
                fn label(&self) -> String { String::new() }
            }
        "#;
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "evaluate");
        assert!(items[0].body.is_none());
        assert!(items[1].body.is_some());
    }
}
