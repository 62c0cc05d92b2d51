//! The rule families clippy cannot express, implemented as token-sequence
//! scans over one lexed file: unit discipline for public raw floats (fields,
//! returns and parameters) and allocation-free hot loops. Test code is exempt
//! from all of them.

use crate::lexer::{LexedFile, Token};
use crate::parser::{self, FnItem};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// 1-indexed source line.
    pub line: usize,
    /// The rule name.
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// The rewrite that would clear the finding.
    pub hint: String,
}

/// Every rule name the linter knows, with a one-line description — the
/// source of truth for `--rules` output and the README table.
pub const RULES: &[(&str, &str)] = &[
    (
        "unit-suffix",
        "public f64/f32 items naming a physical quantity must carry a canonical unit suffix (_pj, _mj, _s, _ns, _mm2, _ghz, _fps, ...)",
    ),
    (
        "unit-suffix-params",
        "raw f64/f32 parameters of pub fns naming a physical quantity must carry a canonical unit suffix, same discipline as unit-suffix for fields/returns",
    ),
    (
        "no-alloc-in-hot-loop",
        "no Vec::new/vec![]/collect/to_vec/clone/format!/Box::new inside loop bodies of functions marked // lint:hot (hoist buffers out of the loop and reuse them)",
    ),
];

/// Words that name a physical quantity, for both unit rules.
const QUANTITY_WORDS: &[&str] = &[
    "energy",
    "latency",
    "area",
    "duration",
    "interval",
    "delay",
    "capacitance",
    "resistance",
    "voltage",
    "charge",
    "frequency",
];

/// Unit tokens for both unit rules: a name is unit-disciplined when at least
/// one `_`-separated component is one of these (so `energy_mj`,
/// `energy_mj_per_request`, and `energy_millijoules` all pass).
const UNIT_TOKENS: &[&str] = &[
    // Canonical short suffixes.
    "pj",
    "mj",
    "s",
    "ns",
    "mm2",
    "ghz",
    "fps", // —
    "fj",
    "nj",
    "uj",
    "j",
    "ms",
    "us",
    "ps",
    "um2",
    "mhz",
    "hz",
    "rps",
    "w",
    "mw",
    "uw",
    // Spelled-out forms the Energy/Time/Area wrappers already expose.
    "joules",
    "millijoules",
    "microjoules",
    "nanojoules",
    "picojoules",
    "femtojoules",
    "seconds",
    "milliseconds",
    "microseconds",
    "nanoseconds",
    "picoseconds",
    "watt",
    "watts",
    "milliwatts",
    "volts",
    "amps",
    "microamps",
    "ohms",
    "siemens",
    "farads",
    "femtofarads",
    "coulombs",
    "millimeters",
    "microns",
    "lsb",
    "bits",
    "cycles",
    "fraction",
    "ratio",
    "factor",
];

/// Runs every rule over one lexed file and its parsed items. `path` is
/// workspace-relative with forward slashes; files under test directories
/// are exempt wholesale.
pub fn check(path: &str, file: &LexedFile, items: &[FnItem]) -> Vec<Finding> {
    if path_is_test(path) {
        return Vec::new();
    }
    let tokens = &file.tokens;
    let mut findings = Vec::new();

    // unit-suffix: pub fields and pub fns returning a raw float.
    for (i, token) in tokens.iter().enumerate() {
        if token.ident() == "pub" && !token.in_test {
            findings.extend(check_unit_suffix(tokens, i));
        }
    }

    let prod_items = || items.iter().filter(|item| !item.is_test);

    // no-alloc-in-hot-loop
    for item in prod_items().filter(|item| item.is_hot) {
        let Some((open, close)) = item.body else {
            continue;
        };
        for (lo, hi) in loop_bodies(tokens, open + 1, close) {
            findings.extend(check_loop_allocs(tokens, lo, hi, &item.name));
        }
    }

    // unit-suffix-params
    for item in prod_items().filter(|item| item.is_pub) {
        for param in item.params.iter().filter(|p| p.is_raw_float) {
            if names_quantity_without_unit(&param.name).is_some() {
                findings.push(Finding {
                    line: param.line,
                    rule: "unit-suffix-params",
                    message: format!(
                        "parameter `{}` of pub fn `{}` is a raw {} naming a physical quantity but carries no unit",
                        param.name, item.name, param.ty_name
                    ),
                    hint: format!(
                        "rename to `{}_s`/`{}_mj`/... so the call site reads the unit, or take a typed unit newtype",
                        param.name, param.name
                    ),
                });
            }
        }
    }

    findings
}

/// Files under tests/, benches/, examples/, or fixtures/ are test code
/// wholesale.
pub fn path_is_test(path: &str) -> bool {
    path.split('/').any(|part| {
        part == "tests" || part == "benches" || part == "examples" || part == "fixtures"
    })
}

/// The allocation patterns `no-alloc-in-hot-loop` flags.
const HOT_LOOP_ALLOCS: &[&str] = &["collect", "to_vec", "clone"];

/// Finds the outermost loop-body token ranges (exclusive of braces) in
/// `tokens[start..end)`: `for … { }`, `while … { }`, `loop { }`. Inner
/// loops sit inside the returned ranges, so scanning each range once
/// covers every nesting level exactly once.
fn loop_bodies(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = start;
    while i < end {
        let is_loop_kw = match tokens[i].ident() {
            "while" | "loop" => true,
            // `for<'a>` higher-ranked bounds are not loops.
            "for" => !next_is(tokens, i, "<"),
            _ => false,
        };
        if is_loop_kw {
            if let Some(open) = (i + 1..end).find(|&k| tokens[k].is_punct("{")) {
                if let Some(close) = parser::match_brace(tokens, open, end) {
                    ranges.push((open + 1, close));
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

/// Flags allocation patterns in one loop-body range.
fn check_loop_allocs(tokens: &[Token], start: usize, end: usize, fn_name: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |line: usize, what: &str| {
        findings.push(Finding {
            line,
            rule: "no-alloc-in-hot-loop",
            message: format!("`{what}` inside a loop body of `// lint:hot` fn `{fn_name}`"),
            hint: "hoist the allocation out of the loop (reusable scratch buffer) or drop the `lint:hot` marker if this path is genuinely cold".to_string(),
        });
    };
    for i in start..end {
        let t = &tokens[i];
        if t.in_test {
            continue;
        }
        let name = t.ident();
        match name {
            "Vec" | "Box"
                if next_is(tokens, i, "::")
                    && tokens.get(i + 2).map(|t| t.ident()) == Some("new") =>
            {
                push(t.line, &format!("{name}::new"));
            }
            "vec" | "format" if next_is(tokens, i, "!") => {
                push(t.line, &format!("{name}!"));
            }
            _ if HOT_LOOP_ALLOCS.contains(&name) && prev_is(tokens, i, ".") => {
                // `.collect(` / `.collect::<T>(` / `.to_vec(` / `.clone(`.
                let calls = next_is(tokens, i, "(") || next_is(tokens, i, "::");
                if calls {
                    push(t.line, &format!(".{name}()"));
                }
            }
            _ => {}
        }
    }
    findings
}

fn prev_is(tokens: &[Token], i: usize, p: &str) -> bool {
    i > 0 && tokens[i - 1].is_punct(p)
}

fn next_is(tokens: &[Token], i: usize, p: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(p))
}

/// `unit-suffix`: at a `pub` token, recognize
///
/// * `pub <name>: f64` / `pub <name>: f32` struct fields, and
/// * `pub fn <name>(…) -> f64` functions,
///
/// and require that a name containing a quantity word also contains a unit
/// token (as an `_`-separated component). Typed wrappers (`Energy`, `Time`,
/// `Area`) are exempt by construction — the rule only fires on raw floats,
/// which is exactly where a pJ-vs-mJ slip is invisible to the compiler.
fn check_unit_suffix(tokens: &[Token], i: usize) -> Option<Finding> {
    let mut j = i + 1;
    // Skip a visibility qualifier: `pub(crate)`, `pub(in …)`.
    if tokens.get(j).is_some_and(|t| t.is_punct("(")) {
        while j < tokens.len() && !tokens[j].is_punct(")") {
            j += 1;
        }
        j += 1;
    }

    match tokens.get(j).map(|t| t.ident()) {
        // pub fn name(…) -> f64
        Some("fn") => {
            let name_tok = tokens.get(j + 1)?;
            let name = name_tok.ident();
            // Scan past the parameter list to the return type.
            let mut k = j + 2;
            // Optional generics before the paren.
            let mut angle = 0i32;
            while k < tokens.len() && !(angle == 0 && tokens[k].is_punct("(")) {
                if tokens[k].is_punct("<") {
                    angle += 1;
                } else if tokens[k].is_punct(">") {
                    angle -= 1;
                }
                k += 1;
            }
            let mut paren = 0i32;
            while k < tokens.len() {
                if tokens[k].is_punct("(") {
                    paren += 1;
                } else if tokens[k].is_punct(")") {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                k += 1;
            }
            let returns_float = tokens.get(k + 1).is_some_and(|t| t.is_punct("->"))
                && matches!(tokens.get(k + 2).map(|t| t.ident()), Some("f64" | "f32"));
            if returns_float {
                return unit_finding(name, name_tok.line, "fn");
            }
            None
        }
        // pub name: f64
        Some(name) if !name.is_empty() => {
            let is_float_field = tokens.get(j + 1).is_some_and(|t| t.is_punct(":"))
                && matches!(tokens.get(j + 2).map(|t| t.ident()), Some("f64" | "f32"));
            if is_float_field {
                return unit_finding(name, tokens[j].line, "field");
            }
            None
        }
        _ => None,
    }
}

/// The first quantity word among `name`'s `_`-separated components, when no
/// component is a unit token.
fn names_quantity_without_unit(name: &str) -> Option<&str> {
    let mut components = name.split('_').filter(|c| !c.is_empty());
    if components.clone().any(|c| UNIT_TOKENS.contains(&c)) {
        return None;
    }
    components.find(|c| QUANTITY_WORDS.contains(c))
}

fn unit_finding(name: &str, line: usize, what: &str) -> Option<Finding> {
    let quantity = names_quantity_without_unit(name)?;
    let suffix = match quantity {
        "energy" => "_mj",
        "latency" | "duration" | "interval" | "delay" => "_s",
        "area" => "_mm2",
        "frequency" => "_ghz",
        "capacitance" => "_femtofarads",
        "resistance" => "_ohms",
        "voltage" => "_volts",
        "charge" => "_pj",
        _ => "_<unit>",
    };
    Some(Finding {
        line,
        rule: "unit-suffix",
        message: format!(
            "pub {what} `{name}` is a raw float naming a physical quantity but carries no unit"
        ),
        hint: format!(
            "rename to `{name}{suffix}` — or wrap it in the typed unit newtypes from timely-analog"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_at(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let items = parser::parse_items(&lexed);
        check(path, &lexed, &items)
    }

    fn run(src: &str) -> Vec<Finding> {
        run_at("crates/x/src/lib.rs", src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unit_suffix_accepts_disciplined_names() {
        let src = r#"
            pub struct Report {
                pub energy_mj: f64,
                pub energy_mj_per_request: f64,
                pub latency_ms: f64,
                pub area_mm2: f64,
                pub utilization: f64,
            }
            impl Report {
                pub fn energy_millijoules(&self) -> f64 { self.energy_mj }
                pub fn tops(&self) -> f64 { 1.5 }
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn unit_suffix_rejects_bare_quantities() {
        let src = r#"
            pub struct Report {
                pub energy: f64,
                pub total_latency: f64,
            }
            impl Report {
                pub fn area(&self) -> f64 { 0.5 }
            }
        "#;
        let findings = run(src);
        assert_eq!(rules_of(&findings), vec!["unit-suffix"; 3]);
        assert!(findings[0].message.contains("energy"));
        assert!(findings[0].hint.contains("_mj"));
    }

    #[test]
    fn unit_suffix_ignores_typed_wrappers_and_private_fields() {
        let src = r#"
            pub struct Report {
                pub energy: Energy,
                latency: f64,
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn files_under_tests_dirs_are_exempt_from_prod_rules() {
        let src = "pub struct R { pub energy: f64 }\npub fn f(latency: f64) {}";
        assert_eq!(run(src).len(), 2);
        assert!(run_at("crates/x/tests/it.rs", src).is_empty());
    }

    #[test]
    fn hot_loop_allocs_fire_only_in_hot_fn_loops() {
        let src = r#"
            // lint:hot
            fn hot(xs: &[u32]) {
                let outside = Vec::new();
                for x in xs {
                    let v: Vec<u32> = xs.iter().copied().collect();
                    let w = x.clone();
                }
            }
            fn cold(xs: &[u32]) {
                for x in xs {
                    let v = vec![*x];
                }
            }
        "#;
        let findings = run(src);
        assert_eq!(rules_of(&findings), vec!["no-alloc-in-hot-loop"; 2]);
        assert!(findings[0].message.contains("`hot`"));
    }

    #[test]
    fn unit_suffix_params_fires_on_bare_pub_float_params() {
        let src = r#"
            pub fn f(energy: f64, latency_ms: f64, count: usize, interval: Time) {}
            fn private(energy: f64) {}
        "#;
        let findings = run(src);
        assert_eq!(rules_of(&findings), vec!["unit-suffix-params"]);
        assert!(findings[0].message.contains("`energy`"));
    }
}
