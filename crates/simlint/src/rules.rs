//! The rule engine: repo-specific invariants checked over token streams.
//!
//! Every rule reports `file:line` findings; a finding is suppressed when a
//! well-formed `simlint: allow(<rule>)` comment with a justification covers
//! its line (trailing comments cover their own line, standalone comment
//! lines cover the next code line). Test code — `#[cfg(test)]` / `#[test]`
//! items and files under `tests/` (which are never walked) — is exempt from
//! every rule except allow-hygiene.

use crate::lexer::{lex, LexedFile, Token, TokenKind};

/// Crates whose protocol logic feeds message emission order and timing:
/// nondeterminism here changes simulated wire traffic, breaking the paper's
/// seed-reproducible `O(√N log N)` / `O(N)` measurements.
pub const PROTOCOL_CRATES: &[&str] = &["baselines", "core", "netsim", "query", "workload"];

/// One diagnostic: a rule fired at a location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Result of checking one file: unsuppressed violations plus the findings an
/// allow directive covered (reported separately so CI can show both).
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings not covered by any allow directive — these fail the build.
    pub violations: Vec<Finding>,
    /// Findings covered by a justified allow directive.
    pub allowed: Vec<Finding>,
}

/// A lexed source file plus the derived context rules need.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Crate name (`core`, `netsim`, …; `elink` for the root facade crate).
    pub krate: String,
    /// Token stream and allow directives.
    pub lex: LexedFile,
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `src` and computes test-code extents.
    pub fn new(path: &str, src: &str) -> SourceFile {
        let lex = lex(src);
        let test_ranges = test_ranges(&lex.tokens);
        SourceFile {
            path: path.to_string(),
            krate: crate_of(path).to_string(),
            lex,
            test_ranges,
        }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` / `#[test]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.clone(),
            line,
            message,
        }
    }
}

/// Crate a workspace-relative path belongs to.
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("src") => "elink",
        _ => "",
    }
}

/// One lint rule: a name, a one-line summary, and a checker.
pub struct Rule {
    /// Stable rule name, as used inside `allow(...)`.
    pub name: &'static str,
    /// One-line description for `list-rules` and reports.
    pub summary: &'static str,
    /// Emits raw findings (before allow-directive filtering).
    pub check: fn(&SourceFile, &mut Vec<Finding>),
}

/// All active rules.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-unordered-iteration",
        summary: "HashMap/HashSet are banned in protocol crates: iteration order is nondeterministic",
        check: no_unordered_iteration,
    },
    Rule {
        name: "no-wall-clock-or-ambient-rng",
        summary: "Instant/SystemTime/thread_rng/std::thread are banned in simulation crates: all time and randomness must flow through the seeded netsim engine",
        check: no_wall_clock_or_ambient_rng,
    },
    Rule {
        name: "no-panic-in-protocol",
        summary: "unwrap/expect/panic!/unimplemented!/todo! are banned in core and netsim: injected faults must surface as values, not sim aborts",
        check: no_panic_in_protocol,
    },
    Rule {
        name: "no-stats-bypass",
        summary: "direct MessageStats/KindStats construction and raw counter mutation outside netsim/src/stats.rs bypass the CostBook accounting path",
        check: no_stats_bypass,
    },
    Rule {
        name: "no-hot-path-alloc",
        summary: "Box::new/Vec::new/.clone()/format!/.to_string()/.to_vec()/collect::<Vec<_>>() are banned inside `// simlint: hot` functions in protocol crates: per-message allocations dominate large-fleet runs",
        check: no_hot_path_alloc,
    },
    Rule {
        name: "exhaustive-message-match",
        summary: "`_ =>` wildcard arms are banned in matches over message enums in protocol crates: a new variant must fail to compile, not be silently swallowed",
        check: exhaustive_message_match,
    },
    Rule {
        name: "pub-doc-coverage",
        summary: "every pub fn/struct/enum/trait/type/mod/const/static in library code needs a doc comment",
        check: pub_doc_coverage,
    },
    Rule {
        name: "allow-hygiene",
        summary: "every simlint allow directive must parse, name a known rule, and carry a justification",
        check: allow_hygiene,
    },
];

/// Checks one file: runs every rule, then applies allow-directive
/// suppression.
pub fn check_file(path: &str, src: &str) -> FileReport {
    let file = SourceFile::new(path, src);
    let mut raw = Vec::new();
    for rule in RULES {
        (rule.check)(&file, &mut raw);
    }

    // An allow directive covers (rule, line): its own line when trailing,
    // else the next line bearing a token.
    let mut coverage: Vec<(&str, u32)> = Vec::new();
    for d in &file.lex.allows {
        if d.rules.is_empty() || d.justification.is_empty() {
            continue; // malformed: reported by allow-hygiene, suppresses nothing
        }
        let line = if d.trailing {
            Some(d.line)
        } else {
            file.lex.tokens.iter().map(|t| t.line).find(|&l| l > d.line)
        };
        if let Some(line) = line {
            for r in &d.rules {
                if let Some(rule) = RULES.iter().find(|k| k.name == r.as_str()) {
                    coverage.push((rule.name, line));
                }
            }
        }
    }

    let mut report = FileReport::default();
    for f in raw {
        if coverage.iter().any(|&(r, l)| r == f.rule && l == f.line) {
            report.allowed.push(f);
        } else {
            report.violations.push(f);
        }
    }
    report
}

// ---------------------------------------------------------------------------
// test-code extents

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items (a whole-file
/// `#![cfg(test)]` yields one unbounded range).
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = tokens.get(j).map(|t| t.text == "!").unwrap_or(false);
        if inner {
            j += 1;
        }
        if !tokens.get(j).map(|t| t.text == "[").unwrap_or(false) {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, j, "[", "]") else {
            break;
        };
        if attr_is_test(&tokens[j + 1..close]) {
            if inner {
                return vec![(1, u32::MAX)];
            }
            if let Some(end_line) = item_end_line(tokens, close + 1) {
                ranges.push((tokens[i].line, end_line));
            }
        }
        i = close + 1;
    }
    ranges
}

/// Whether the tokens inside an attribute's brackets denote test code:
/// `test`, `cfg(test)`, or `cfg(all(test, …))`.
fn attr_is_test(attr: &[Token]) -> bool {
    let mut idents = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str());
    match idents.next() {
        Some("test") => true,
        Some("cfg") => idents.any(|t| t == "test"),
        _ => false,
    }
}

/// Index of the token matching `open` at index `at` (which must hold an
/// `open` token).
fn matching(tokens: &[Token], at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(at) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Last line of the item starting at token `start` (past its attributes):
/// the line of the matching `}` of its body, or of the terminating `;` for
/// bodiless items.
fn item_end_line(tokens: &[Token], start: usize) -> Option<u32> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut k = start;
    while k < tokens.len() {
        match tokens[k].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => {
                let close = matching(tokens, k, "{", "}")?;
                return Some(tokens[close].line);
            }
            ";" if paren == 0 && bracket == 0 => return Some(tokens[k].line),
            _ => {}
        }
        k += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// rules

fn no_unordered_iteration(f: &SourceFile, out: &mut Vec<Finding>) {
    if !PROTOCOL_CRATES.contains(&f.krate.as_str()) {
        return;
    }
    for t in &f.lex.tokens {
        if t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !f.is_test_line(t.line)
        {
            out.push(f.finding(
                "no-unordered-iteration",
                t.line,
                format!(
                    "`{}` iterates in nondeterministic order; use BTreeMap/BTreeSet or a sorted Vec so message order cannot depend on hashing",
                    t.text
                ),
            ));
        }
    }
}

fn no_wall_clock_or_ambient_rng(f: &SourceFile, out: &mut Vec<Finding>) {
    if !PROTOCOL_CRATES.contains(&f.krate.as_str()) {
        return;
    }
    let toks = &f.lex.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || f.is_test_line(t.line) {
            continue;
        }
        let offence = match t.text.as_str() {
            "Instant" | "SystemTime" => Some("wall-clock time"),
            "thread_rng" => Some("ambient (unseeded) randomness"),
            "thread" if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std" => {
                Some("OS threading")
            }
            _ => None,
        };
        if let Some(what) = offence {
            out.push(f.finding(
                "no-wall-clock-or-ambient-rng",
                t.line,
                format!(
                    "`{}` injects {} into the simulation; all time and randomness must flow through the netsim engine and seeded RNGs",
                    t.text, what
                ),
            ));
        }
    }
}

fn no_panic_in_protocol(f: &SourceFile, out: &mut Vec<Finding>) {
    if !(f.path.starts_with("crates/core/src") || f.path.starts_with("crates/netsim/src")) {
        return;
    }
    let toks = &f.lex.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || f.is_test_line(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let message = match t.text.as_str() {
            "unwrap" | "expect" if prev == Some(".") && next == Some("(") => format!(
                "`.{}()` aborts the simulation on an injected fault; propagate a value/Result or justify the invariant with an allow comment",
                t.text
            ),
            "panic" | "unimplemented" | "todo" if next == Some("!") => format!(
                "`{}!` aborts the simulation; protocol code must degrade gracefully under injected faults",
                t.text
            ),
            _ => continue,
        };
        out.push(f.finding("no-panic-in-protocol", t.line, message));
    }
}

fn no_stats_bypass(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.path == "crates/netsim/src/stats.rs" {
        return;
    }
    const STATS_TYPES: &[&str] = &["MessageStats", "KindStats"];
    const COUNTERS: &[&str] = &["packets", "cost", "tx_packets", "rx_packets", "tx_cost"];
    // Tokens a struct literal can legally follow; filters out `-> &Type {`
    // function signatures.
    const LITERAL_POSITIONS: &[&str] = &["=", "(", ",", "[", "return", "=>"];
    let toks = &f.lex.tokens;
    for (i, t) in toks.iter().enumerate() {
        if f.is_test_line(t.line) {
            continue;
        }
        if t.kind == TokenKind::Ident && STATS_TYPES.contains(&t.text.as_str()) {
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let constructs = next == Some("::")
                || (next == Some("{")
                    && prev
                        .map(|p| LITERAL_POSITIONS.contains(&p))
                        .unwrap_or(false));
            if constructs {
                out.push(f.finding(
                    "no-stats-bypass",
                    t.line,
                    format!(
                        "direct `{}` construction bypasses CostBook — record through the engine's Ctx or a CostBook so every cost lands in the unified ledger",
                        t.text
                    ),
                ));
            }
        }
        if t.text == "."
            && toks
                .get(i + 1)
                .map(|n| n.kind == TokenKind::Ident && COUNTERS.contains(&n.text.as_str()))
                .unwrap_or(false)
            && toks
                .get(i + 2)
                .map(|a| matches!(a.text.as_str(), "=" | "+=" | "-="))
                .unwrap_or(false)
        {
            out.push(f.finding(
                "no-stats-bypass",
                toks[i + 1].line,
                format!(
                    "raw mutation of counter `{}` bypasses CostBook's recording API",
                    toks[i + 1].text
                ),
            ));
        }
    }
}

fn no_hot_path_alloc(f: &SourceFile, out: &mut Vec<Finding>) {
    if !PROTOCOL_CRATES.contains(&f.krate.as_str()) {
        return;
    }
    let toks = &f.lex.tokens;
    for &hot_line in &f.lex.hots {
        // The marker tags the next `fn` item (same line for a trailing
        // marker on the signature, next lines for a standalone one).
        let Some(fn_idx) = toks
            .iter()
            .position(|t| t.kind == TokenKind::Ident && t.text == "fn" && t.line >= hot_line)
        else {
            continue;
        };
        let Some((open, close)) = body_extent(toks, fn_idx + 1) else {
            continue;
        };
        for i in open..close {
            let t = &toks[i];
            if t.kind != TokenKind::Ident && t.text != "." {
                continue;
            }
            if f.is_test_line(t.line) {
                continue;
            }
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let then = toks.get(i + 2).map(|n| n.text.as_str());
            let (offence, line) = match t.text.as_str() {
                "Box" | "Vec" if next == Some("::") && then == Some("new") => {
                    (format!("`{}::new`", t.text), t.line)
                }
                "format" if next == Some("!") => ("`format!`".to_string(), t.line),
                "." if next == Some("clone") && then == Some("(") => {
                    ("`.clone()`".to_string(), toks[i + 1].line)
                }
                "." if matches!(next, Some("to_string") | Some("to_vec")) && then == Some("(") => {
                    (format!("`.{}()`", toks[i + 1].text), toks[i + 1].line)
                }
                // `.collect::<Vec<_>>()`: only the Vec turbofish is flagged
                // (collecting into a preallocated/arena-backed type is the
                // sanctioned alternative).
                "." if next == Some("collect")
                    && then == Some("::")
                    && toks.get(i + 3).map(|n| n.text == "<").unwrap_or(false)
                    && toks.get(i + 4).map(|n| n.text == "Vec").unwrap_or(false) =>
                {
                    ("`.collect::<Vec<_>>()`".to_string(), toks[i + 1].line)
                }
                _ => continue,
            };
            out.push(f.finding(
                "no-hot-path-alloc",
                line,
                format!(
                    "{offence} inside a `// simlint: hot` function allocates per message; hoist the allocation, use inline/SoA storage, or justify with an allow comment"
                ),
            ));
        }
    }
}

fn exhaustive_message_match(f: &SourceFile, out: &mut Vec<Finding>) {
    if !PROTOCOL_CRATES.contains(&f.krate.as_str()) {
        return;
    }
    let toks = &f.lex.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokenKind::Ident && t.text == "match") || f.is_test_line(t.line) {
            continue;
        }
        // Body of the match: the first top-level `{` after the scrutinee.
        let Some((open, close)) = body_extent(toks, i + 1) else {
            continue;
        };
        // A *message* match: the scrutinee or some arm *pattern* names a
        // message enum — by repo convention every protocol message enum is
        // `*Msg` (`ElinkMsg`, `ServeMsg`, `MaintMsg`, …). Arm bodies are
        // excluded so a match that merely *constructs* messages does not
        // count; pattern position is tracked lexically (true after the
        // opening brace and each top-level `,`, false after each top-level
        // `=>`).
        let mut enum_name: Option<&str> = toks[i + 1..open]
            .iter()
            .find(|t| t.kind == TokenKind::Ident && t.text.ends_with("Msg"))
            .map(|t| t.text.as_str());
        let mut wildcards: Vec<u32> = Vec::new();
        let mut brace = 0i64;
        let mut paren = 0i64;
        let mut bracket = 0i64;
        let mut in_pattern = true;
        for k in open..close {
            let top = brace == 1 && paren == 0 && bracket == 0;
            match toks[k].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    // A block-bodied arm (`=> { … }`) needs no trailing
                    // comma; its closing brace re-enters pattern position.
                    if brace == 1 && paren == 0 && bracket == 0 && !in_pattern {
                        in_pattern = true;
                    }
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "=>" if top => in_pattern = false,
                "," if top => in_pattern = true,
                "_" if top
                    && in_pattern
                    && toks.get(k + 1).map(|n| n.text == "=>").unwrap_or(false) =>
                {
                    wildcards.push(toks[k].line);
                }
                text => {
                    if in_pattern
                        && enum_name.is_none()
                        && toks[k].kind == TokenKind::Ident
                        && text.ends_with("Msg")
                    {
                        enum_name = Some(text);
                    }
                }
            }
        }
        if let Some(enum_name) = enum_name {
            for line in wildcards {
                out.push(f.finding(
                    "exhaustive-message-match",
                    line,
                    format!(
                        "`_ =>` wildcard in a match over message enum `{enum_name}` silently swallows future variants; list every variant (adding a variant must fail to compile here) or justify with an allow comment"
                    ),
                ));
            }
        }
    }
}

/// Token extent `(open_brace, close_brace)` of the body of the item whose
/// signature starts at `start`; `None` for bodiless items (trait methods).
fn body_extent(toks: &[Token], start: usize) -> Option<(usize, usize)> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut k = start;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => {
                let close = matching(toks, k, "{", "}")?;
                return Some((k, close));
            }
            ";" if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        k += 1;
    }
    None
}

fn pub_doc_coverage(f: &SourceFile, out: &mut Vec<Finding>) {
    // Binaries are not part of the documented API surface.
    if f.path.ends_with("/main.rs") || f.path.contains("/bin/") {
        return;
    }
    let toks = &f.lex.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokenKind::Ident && t.text == "pub") || f.is_test_line(t.line) {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).map(|n| n.text == "(").unwrap_or(false) {
            continue; // pub(crate)/pub(super): not public API
        }
        // `pub const NAME: T` and `pub static [mut] NAME: T` are items in
        // their own right; `pub const fn` (and `pub const unsafe fn` etc.)
        // uses `const` as a function qualifier and falls through below.
        let (kind, name_j) = match toks.get(j).map(|n| n.text.as_str()) {
            Some("const")
                if !toks
                    .get(j + 1)
                    .map(|n| matches!(n.text.as_str(), "fn" | "async" | "unsafe" | "extern"))
                    .unwrap_or(true) =>
            {
                ("const", j + 1)
            }
            Some("static") => {
                let name_j = if toks.get(j + 1).map(|n| n.text == "mut").unwrap_or(false) {
                    j + 2
                } else {
                    j + 1
                };
                ("static", name_j)
            }
            _ => {
                while toks
                    .get(j)
                    .map(|n| {
                        matches!(n.text.as_str(), "async" | "unsafe" | "const" | "extern")
                            || n.kind == TokenKind::Literal
                    })
                    .unwrap_or(false)
                {
                    j += 1;
                }
                let Some(item) = toks.get(j) else { continue };
                if !matches!(
                    item.text.as_str(),
                    "fn" | "struct" | "enum" | "trait" | "type" | "mod"
                ) {
                    continue;
                }
                (item.text.as_str(), j + 1)
            }
        };
        if !has_doc(toks, i) {
            let name = toks.get(name_j).map(|n| n.text.clone()).unwrap_or_default();
            out.push(f.finding(
                "pub-doc-coverage",
                t.line,
                format!("public {kind} `{name}` has no doc comment"),
            ));
        }
    }
}

/// Whether the item whose `pub` sits at token index `i` has a doc comment,
/// scanning backward over any attributes.
fn has_doc(toks: &[Token], mut i: usize) -> bool {
    loop {
        if i == 0 {
            return false;
        }
        i -= 1;
        match toks[i].kind {
            TokenKind::DocComment => return true,
            TokenKind::Punct if toks[i].text == "]" => {
                let mut depth = 1i64;
                while depth > 0 {
                    if i == 0 {
                        return false;
                    }
                    i -= 1;
                    match toks[i].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                if i == 0 {
                    return false;
                }
                i -= 1;
                if toks[i].text == "!" {
                    if i == 0 {
                        return false;
                    }
                    i -= 1;
                }
                if toks[i].text != "#" {
                    return false;
                }
                // An attribute precedes the item: keep scanning backward.
            }
            _ => return false,
        }
    }
}

fn allow_hygiene(f: &SourceFile, out: &mut Vec<Finding>) {
    for d in &f.lex.allows {
        if d.rules.is_empty() {
            out.push(f.finding(
                "allow-hygiene",
                d.line,
                "unparseable simlint directive; expected `simlint: allow(<rule>): <justification>`"
                    .to_string(),
            ));
            continue;
        }
        for r in &d.rules {
            if !RULES.iter().any(|k| k.name == r.as_str()) {
                out.push(f.finding(
                    "allow-hygiene",
                    d.line,
                    format!("allow names unknown rule `{r}`"),
                ));
            }
        }
        if d.justification.is_empty() {
            out.push(f.finding(
                "allow-hygiene",
                d.line,
                format!(
                    "allow({}) has no justification; explain why the invariant holds here",
                    d.rules.join(", ")
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(path: &str, src: &str) -> Vec<(String, u32)> {
        check_file(path, src)
            .violations
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    // -- rule 1: no-unordered-iteration ------------------------------------

    #[test]
    fn unordered_iteration_hits_in_protocol_crate() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n";
        let v = violations("crates/core/src/x.rs", src);
        assert_eq!(
            v,
            vec![
                ("no-unordered-iteration".to_string(), 1),
                ("no-unordered-iteration".to_string(), 2)
            ]
        );
    }

    #[test]
    fn unordered_iteration_ignores_non_protocol_crates_and_tests() {
        let src = "use std::collections::HashMap;\n";
        assert!(violations("crates/linalg/src/x.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(violations("crates/core/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn unordered_iteration_allow_comment_suppresses() {
        let src = "use std::collections::HashMap; // simlint: allow(no-unordered-iteration): lookup-only memo, order never observed\n";
        let report = check_file("crates/baselines/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let src = "// simlint: allow(no-unordered-iteration): lookup-only\nuse std::collections::HashMap;\n";
        let report = check_file("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    // -- rule 2: no-wall-clock-or-ambient-rng ------------------------------

    #[test]
    fn wall_clock_and_ambient_rng_hit() {
        let src = "use std::time::Instant;\nfn f() { let _ = rand::thread_rng(); }\nfn g() { std::thread::sleep(d); }\n";
        let v = violations("crates/netsim/src/x.rs", src);
        let rules: Vec<&str> = v.iter().map(|(r, _)| r.as_str()).collect();
        assert_eq!(
            rules,
            vec![
                "no-wall-clock-or-ambient-rng",
                "no-wall-clock-or-ambient-rng",
                "no-wall-clock-or-ambient-rng"
            ]
        );
    }

    #[test]
    fn wall_clock_allow_comment_suppresses() {
        let src =
            "use std::time::Instant; // simlint: allow(no-wall-clock-or-ambient-rng): host-side profiling only, never in protocol logic\n";
        let report = check_file("crates/netsim/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    #[test]
    fn seeded_rng_is_fine() {
        let src = "use rand::SeedableRng;\nlet rng = StdRng::seed_from_u64(seed);\n";
        assert!(violations("crates/netsim/src/x.rs", src).is_empty());
    }

    // -- rule 3: no-panic-in-protocol --------------------------------------

    #[test]
    fn panics_hit_in_core_and_netsim_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { panic!(\"boom\"); }\nfn h(x: Option<u32>) { x.expect(\"inv\"); }\n";
        let v = violations("crates/core/src/x.rs", src);
        let rules: Vec<u32> = v
            .iter()
            .filter(|(r, _)| r == "no-panic-in-protocol")
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(rules, vec![1, 2, 3]);
        // Same source in a baselines file: rule does not apply.
        assert!(violations("crates/baselines/src/x.rs", src)
            .iter()
            .all(|(r, _)| r != "no-panic-in-protocol"));
    }

    #[test]
    fn unwrap_inside_string_or_test_does_not_hit() {
        let src = "fn f() { let s = \"unwrap()\"; use_it(s); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(violations("crates/core/src/x.rs", src)
            .iter()
            .all(|(r, _)| r != "no-panic-in-protocol"));
    }

    #[test]
    fn unwrap_or_and_unwrap_or_default_do_not_hit() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }\n";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_allow_comment_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"inv\") // simlint: allow(no-panic-in-protocol): checked Some two lines up\n}\n";
        let report = check_file("crates/netsim/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    // -- rule 4: no-stats-bypass -------------------------------------------

    #[test]
    fn stats_construction_and_counter_mutation_hit() {
        let src = "fn f() { let mut s = MessageStats::new(); s.packets += 1; }\nfn g() -> KindStats { KindStats::default() }\n";
        let v = violations("crates/experiments/src/x.rs", src);
        let hits: Vec<u32> = v
            .iter()
            .filter(|(r, _)| r == "no-stats-bypass")
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(hits, vec![1, 1, 2]);
    }

    #[test]
    fn stats_type_in_signature_position_does_not_hit() {
        let src = "fn stats(&self) -> &MessageStats {\n    &self.kinds\n}\nfn take(s: &MessageStats) {}\n";
        assert!(violations("crates/netsim/src/engine2.rs", src).is_empty());
    }

    #[test]
    fn stats_rs_itself_is_exempt() {
        let src = "fn f() { let s = MessageStats::new(); }\n";
        assert!(violations("crates/netsim/src/stats.rs", src).is_empty());
    }

    #[test]
    fn stats_bypass_allow_comment_suppresses() {
        let src = "let s = MessageStats::new(); // simlint: allow(no-stats-bypass): compat shim for the legacy analytic path\n";
        let report = check_file("crates/query/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    // -- rule 5: no-hot-path-alloc -----------------------------------------

    #[test]
    fn hot_function_allocations_hit() {
        let src = "// simlint: hot\nfn f(&mut self) {\n    let b = Box::new(1);\n    let v: Vec<u32> = Vec::new();\n    let c = self.feature.clone();\n}\n";
        let v = violations("crates/core/src/x.rs", src);
        let hits: Vec<u32> = v
            .iter()
            .filter(|(r, _)| r == "no-hot-path-alloc")
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(hits, vec![3, 4, 5]);
    }

    #[test]
    fn unmarked_functions_and_non_protocol_crates_are_exempt() {
        let alloc_fn = "fn f() { let v: Vec<u32> = Vec::new(); let c = x.clone(); }\n";
        assert!(violations("crates/core/src/x.rs", alloc_fn).is_empty());
        let marked = "// simlint: hot\nfn f() { let v: Vec<u32> = Vec::new(); }\n";
        assert!(violations("crates/experiments/src/x.rs", marked).is_empty());
    }

    #[test]
    fn hot_marker_scope_ends_at_function_close() {
        // Allocations in the *next* function are not the marked one's.
        let src =
            "// simlint: hot\nfn fast() { step(); }\nfn slow() { let v: Vec<u32> = Vec::new(); }\n";
        assert!(violations("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn trailing_hot_marker_tags_its_own_signature_line() {
        let src = "fn f() { // simlint: hot\n    x.clone();\n}\n";
        let v = violations("crates/workload/src/x.rs", src);
        assert_eq!(v, vec![("no-hot-path-alloc".to_string(), 2)]);
    }

    #[test]
    fn hot_path_alloc_allow_comment_suppresses() {
        let src = "// simlint: hot\nfn f(&self) {\n    let c = self.feature.clone(); // simlint: allow(no-hot-path-alloc): Feature clone never allocates\n}\n";
        let report = check_file("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    #[test]
    fn hot_function_string_and_collect_allocations_hit() {
        let src = "// simlint: hot\nfn f(&self) {\n    let s = format!(\"{}\", self.id);\n    let t = name.to_string();\n    let w = bytes.to_vec();\n    let v = iter.collect::<Vec<_>>();\n}\n";
        let v = violations("crates/core/src/x.rs", src);
        let hits: Vec<u32> = v
            .iter()
            .filter(|(r, _)| r == "no-hot-path-alloc")
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(hits, vec![3, 4, 5, 6]);
    }

    #[test]
    fn hot_function_non_vec_collect_does_not_hit() {
        // Collecting into a caller-provided/bounded structure is the
        // sanctioned pattern; only the Vec turbofish allocates unboundedly.
        let src = "// simlint: hot\nfn f(&self) {\n    let s = iter.collect::<BTreeSet<u64>>();\n    out.extend(iter);\n}\n";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hot_path_string_alloc_allow_comment_suppresses() {
        let src = "// simlint: hot\nfn f(&self) {\n    let s = format!(\"n{}\", self.id); // simlint: allow(no-hot-path-alloc): error path only, executes at most once per run\n}\n";
        let report = check_file("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    // -- rule 6: exhaustive-message-match ----------------------------------

    #[test]
    fn wildcard_arm_in_message_match_hits() {
        let src = "fn f(&mut self, msg: ElinkMsg) {\n    match msg {\n        ElinkMsg::Grow { root } => self.grow(root),\n        _ => {}\n    }\n}\n";
        let v = violations("crates/core/src/x.rs", src);
        assert_eq!(v, vec![("exhaustive-message-match".to_string(), 4)]);
    }

    #[test]
    fn exhaustive_message_match_does_not_hit() {
        let src = "fn f(&mut self, msg: ServeMsg) {\n    match msg {\n        ServeMsg::Submit { qid } => self.submit(qid),\n        ServeMsg::Down(p) => self.down(p),\n    }\n}\n";
        assert!(violations("crates/workload/src/x.rs", src).is_empty());
    }

    #[test]
    fn wildcard_over_non_message_enum_does_not_hit() {
        // Constructing messages in arm *bodies* does not make it a message
        // match; only the scrutinee/pattern position counts.
        let src = "fn f(&mut self, d: Dir) {\n    match d {\n        Dir::Up => ctx.send(peer, ElinkMsg::Grow { root: 0 }, \"k\", 1),\n        _ => {}\n    }\n}\n";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_wildcards_inside_message_patterns_do_not_hit() {
        let src = "fn f(&mut self, msg: ElinkMsg) {\n    match msg {\n        ElinkMsg::Grow { root: _ } => self.grow(),\n        ElinkMsg::Ack(_) => self.ack(),\n    }\n}\n";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn wildcard_after_block_bodied_arm_hits() {
        // rustfmt drops the comma after `=> { … }` arms; pattern position
        // must resume at the closing brace.
        let src = "fn f(&mut self, msg: ElinkMsg) {\n    match msg {\n        ElinkMsg::Grow { root } => {\n            self.grow(root);\n        }\n        _ => {}\n    }\n}\n";
        let v = violations("crates/core/src/x.rs", src);
        assert_eq!(v, vec![("exhaustive-message-match".to_string(), 6)]);
    }

    #[test]
    fn message_match_wildcard_allow_comment_suppresses() {
        let src = "fn f(&mut self, msg: ElinkMsg) {\n    match msg {\n        ElinkMsg::Grow { root } => self.grow(root),\n        // simlint: allow(exhaustive-message-match): relay node forwards all other variants verbatim\n        _ => self.forward(msg),\n    }\n}\n";
        let report = check_file("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    #[test]
    fn message_match_outside_protocol_crates_is_exempt() {
        let src = "fn f(msg: ElinkMsg) {\n    match msg {\n        ElinkMsg::Grow { .. } => 1,\n        _ => 0,\n    };\n}\n";
        assert!(violations("crates/experiments/src/x.rs", src).is_empty());
    }

    // -- rule 7: pub-doc-coverage ------------------------------------------

    #[test]
    fn undocumented_pub_items_hit() {
        let src = "pub fn f() {}\npub struct S;\npub enum E { A }\n";
        let v = violations("crates/metric/src/x.rs", src);
        let hits: Vec<u32> = v
            .iter()
            .filter(|(r, _)| r == "pub-doc-coverage")
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn documented_and_attributed_pub_items_do_not_hit() {
        let src = "/// Docs.\npub fn f() {}\n/// Docs.\n#[derive(Debug, Clone)]\npub struct S;\n/// Docs.\n#[repr(u8)]\n#[derive(Debug)]\npub enum E { A }\n";
        assert!(violations("crates/metric/src/x.rs", src).is_empty());
    }

    #[test]
    fn private_and_crate_visible_items_do_not_hit() {
        let src = "fn f() {}\npub(crate) fn g() {}\npub(super) struct H;\n";
        assert!(violations("crates/metric/src/x.rs", src).is_empty());
    }

    #[test]
    fn undocumented_pub_type_const_static_hit() {
        let src = "pub type Alias = u64;\npub const LIMIT: u64 = 8;\npub static mut COUNT: u64 = 0;\npub static NAME: &str = \"x\";\n";
        let v = violations("crates/metric/src/x.rs", src);
        let hits: Vec<(u32, String)> = v
            .iter()
            .filter(|(r, _)| r == "pub-doc-coverage")
            .map(|&(_, l)| l)
            .zip(["Alias", "LIMIT", "COUNT", "NAME"].map(String::from))
            .collect();
        assert_eq!(
            hits,
            vec![
                (1, "Alias".into()),
                (2, "LIMIT".into()),
                (3, "COUNT".into()),
                (4, "NAME".into())
            ]
        );
    }

    #[test]
    fn documented_type_const_static_do_not_hit() {
        let src = "/// Docs.\npub type Alias = u64;\n/// Docs.\npub const LIMIT: u64 = 8;\n/// Docs.\npub static NAME: &str = \"x\";\n";
        assert!(violations("crates/metric/src/x.rs", src).is_empty());
    }

    #[test]
    fn const_fn_is_a_function_not_a_const_item() {
        // `const` as a function qualifier must report kind "fn", and a
        // documented `pub const fn` must not hit at all.
        let src = "pub const fn f() -> u64 { 0 }\n/// Docs.\npub const unsafe fn g() {}\n";
        let report = check_file("crates/metric/src/x.rs", src);
        let msgs: Vec<&str> = report
            .violations
            .iter()
            .filter(|f| f.rule == "pub-doc-coverage")
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(msgs, vec!["public fn `f` has no doc comment"]);
    }

    #[test]
    fn undocumented_pub_mod_hits_and_documented_does_not() {
        let src =
            "pub mod flow;\n/// Docs.\npub mod link;\nmod private;\npub(crate) mod internal;\n";
        let report = check_file("crates/metric/src/x.rs", src);
        let msgs: Vec<&str> = report
            .violations
            .iter()
            .filter(|f| f.rule == "pub-doc-coverage")
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(msgs, vec!["public mod `flow` has no doc comment"]);
    }

    #[test]
    fn binaries_are_exempt_from_doc_coverage() {
        let src = "pub fn undocumented() {}\n";
        assert!(violations("crates/experiments/src/bin/fig09.rs", src).is_empty());
        assert!(violations("crates/simlint/src/main.rs", src).is_empty());
    }

    #[test]
    fn doc_coverage_allow_comment_suppresses() {
        let src = "// simlint: allow(pub-doc-coverage): generated trampoline, documented at the call site\npub fn f() {}\n";
        let report = check_file("crates/metric/src/x.rs", src);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
    }

    // -- rule 8: allow-hygiene ---------------------------------------------

    #[test]
    fn allow_without_justification_is_flagged_and_suppresses_nothing() {
        let src = "use std::collections::HashMap; // simlint: allow(no-unordered-iteration)\n";
        let report = check_file("crates/core/src/x.rs", src);
        let rules: Vec<&str> = report.violations.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"allow-hygiene"));
        assert!(rules.contains(&"no-unordered-iteration"));
    }

    #[test]
    fn allow_naming_unknown_rule_is_flagged() {
        let src = "fn f() {} // simlint: allow(no-such-rule): because\n";
        let report = check_file("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "allow-hygiene");
    }

    // -- infrastructure ----------------------------------------------------

    #[test]
    fn crate_of_resolves_paths() {
        assert_eq!(crate_of("crates/core/src/protocol.rs"), "core");
        assert_eq!(crate_of("crates/netsim/src/stats.rs"), "netsim");
        assert_eq!(crate_of("src/lib.rs"), "elink");
    }

    #[test]
    fn whole_file_cfg_test_is_exempt() {
        let src = "#![cfg(test)]\nuse std::collections::HashMap;\nfn f() { Some(1).unwrap(); }\n";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_fn_attribute_without_cfg_mod_is_exempt() {
        let src = "#[test]\nfn t() { Some(1).unwrap(); }\nfn live() { Some(1).unwrap(); }\n";
        let v = violations("crates/core/src/x.rs", src);
        assert_eq!(v, vec![("no-panic-in-protocol".to_string(), 3)]);
    }
}
