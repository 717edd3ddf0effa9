//! The per-file rule engine: determinism, panic-freedom, channel
//! discipline, crate hygiene, and suppression-annotation parsing.
//!
//! Rules are matched on the lexed token stream ([`crate::lexer`]), so text
//! inside strings and comments can never trigger them, and anything inside
//! a `#[test]` / `#[cfg(test)]` item is exempt by construction (from every
//! rule but `unsafe`, which has no reason to spare a test).
//!
//! # Suppressions
//!
//! A finding can be silenced with a line comment of the form (spelled in
//! pieces here so the analyzer's own sources stay clean): the `rcc-lint`
//! marker, a colon, the word `allow` holding the rule id in parentheses, a
//! separator, and a non-empty reason — see `docs/LINTS.md` for the literal
//! syntax. The annotation suppresses that rule on its own line and on the
//! next line that carries code — stacked comment lines extending the
//! reason are skipped. A marker whose annotation is malformed, names an
//! unknown rule, or omits the reason is itself a finding
//! ([`Rule::AllowSyntax`]): the escape hatch must stay auditable.

use crate::lexer::{LexedFile, Token, TokenKind};
use crate::{Diagnostic, Rule};
use std::collections::BTreeSet;
use std::path::Path;

/// Which rule families apply to one source file. Scope assignment is the
/// workspace layer's job ([`crate::workspace`]); the engine just enforces.
#[derive(Clone, Copy, Default, Debug)]
pub struct FileScope {
    /// The file is part of a replicated, bit-identical layer: hash
    /// collections and wall-clock reads are banned.
    pub deterministic: bool,
    /// The file is on the deployment path: panicking calls are banned.
    pub panic_free: bool,
    /// Unbounded `mpsc::channel()` is banned (everywhere but vendored
    /// third-party code).
    pub channel_discipline: bool,
    /// The file is a crate root and must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// The file is the workspace's one sanctioned `unsafe` site: one
    /// annotated `unsafe` is allowed in it, and as a crate root it carries
    /// `#![deny(unsafe_code)]` where every other root carries `forbid`.
    pub unsafe_seam: bool,
}

/// `.method()` names that panic on the error/none case.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macro names that panic unconditionally when reached. `debug_assert*` is
/// deliberately absent: it vanishes from release replicas.
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Runs every applicable rule over one lexed file.
pub fn check_file(path: &Path, file: &LexedFile, scope: &FileScope) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    let mut suppressed: BTreeSet<(Rule, usize)> = BTreeSet::new();

    for comment in &file.comments {
        match parse_allow(&comment.text) {
            AllowParse::NotAnAnnotation => {}
            AllowParse::Valid(rule) => {
                suppressed.insert((rule, comment.line));
                if let Some(next) = next_code_line(&file.tokens, comment.line) {
                    suppressed.insert((rule, next));
                }
            }
            AllowParse::Malformed(why) => {
                findings.push(diag(path, file, comment.line, Rule::AllowSyntax, why))
            }
        }
    }

    scan_tokens(path, file, scope, &mut findings);

    if scope.crate_root
        && !has_unsafe_code_lint(&file.tokens, "forbid")
        && !(scope.unsafe_seam && has_unsafe_code_lint(&file.tokens, "deny"))
    {
        let message = if scope.unsafe_seam {
            "the unsafe seam's crate root is missing `#![deny(unsafe_code)]`"
        } else {
            "crate root is missing `#![forbid(unsafe_code)]` (`deny` will not do: \
             an inner `allow` overrides it)"
        };
        findings.push(diag(path, file, 1, Rule::ForbidUnsafe, message.to_owned()));
    }

    findings.sort();
    // An annotation silences `unsafe` once, and only in the seam file: the
    // seam is one block, so the first annotated site in source order is it
    // and every other `unsafe` stands, annotated or not.
    let mut seam_open = scope.unsafe_seam;
    findings.retain(|d| {
        if !suppressed.contains(&(d.rule, d.line)) {
            return true;
        }
        d.rule == Rule::Unsafe && !std::mem::replace(&mut seam_open, false)
    });
    findings
}

fn scan_tokens(path: &Path, file: &LexedFile, scope: &FileScope, findings: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        // Checked before the test mask: `forbid(unsafe_code)` does not spare
        // a crate's tests either.
        if token.text == "unsafe" {
            findings.push(diag(
                path,
                file,
                token.line,
                Rule::Unsafe,
                "`unsafe` outside the workspace's one audited block (the SHA-NI call in \
                 `third_party/sha2`); an annotation allows it only there, and only once"
                    .to_owned(),
            ));
        }
        if file.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        let next = tokens.get(i + 1);

        if scope.deterministic {
            if token.text == "HashMap" || token.text == "HashSet" {
                findings.push(diag(
                    path,
                    file,
                    token.line,
                    Rule::HashCollection,
                    format!(
                        "`{}` iterates in arbitrary order inside a deterministic layer; \
                         use `BTree{}`",
                        token.text,
                        &token.text[4..]
                    ),
                ));
            }
            if token.text == "Instant" || token.text == "SystemTime" {
                findings.push(diag(
                    path,
                    file,
                    token.line,
                    Rule::WallClock,
                    format!(
                        "`{}` reads the wall clock inside a deterministic layer; \
                         thread time through the simulated-clock seam",
                        token.text
                    ),
                ));
            }
            if token.text == "sleep" && path_prefix_is(tokens, i, "thread") {
                findings.push(diag(
                    path,
                    file,
                    token.line,
                    Rule::WallClock,
                    "`thread::sleep` stalls a deterministic layer on real time".to_owned(),
                ));
            }
        }

        if scope.panic_free {
            let is_method_call = PANIC_METHODS.contains(&token.text.as_str())
                && matches!(prev, Some(p) if p.is_punct('.'))
                && matches!(next, Some(n) if n.is_punct('('));
            if is_method_call {
                findings.push(diag(
                    path,
                    file,
                    token.line,
                    Rule::Panic,
                    format!(
                        "`.{}()` can panic on the deployment path; propagate a typed error \
                         or add a reasoned suppression",
                        token.text
                    ),
                ));
            }
            let is_macro = PANIC_MACROS.contains(&token.text.as_str())
                && matches!(next, Some(n) if n.is_punct('!'));
            if is_macro {
                findings.push(diag(
                    path,
                    file,
                    token.line,
                    Rule::Panic,
                    format!(
                        "`{}!` panics at runtime on the deployment path; return a typed \
                         error or add a reasoned suppression",
                        token.text
                    ),
                ));
            }
        }

        if scope.channel_discipline && token.text == "channel" {
            // `channel(...)` or `channel::<T>(...)` — but not `.channel()`
            // method calls, `fn channel` definitions, or `channel:` struct
            // fields / named arguments.
            let called = matches!(next, Some(n) if n.is_punct('('))
                || (matches!(next, Some(n) if n.is_punct(':'))
                    && matches!(tokens.get(i + 2), Some(n) if n.is_punct(':')));
            let excluded = matches!(prev, Some(p) if p.is_punct('.') || p.is_ident("fn"));
            if called && !excluded {
                findings.push(diag(
                    path,
                    file,
                    token.line,
                    Rule::UnboundedChannel,
                    "`mpsc::channel()` is unbounded; use `sync_channel` with an explicit \
                     capacity so back-pressure is a design decision"
                        .to_owned(),
                ));
            }
        }
    }
}

/// True when the identifier at `i` is reached through `<prefix>::`, e.g.
/// `thread::sleep` or `std::thread::sleep`.
fn path_prefix_is(tokens: &[Token], i: usize, prefix: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident(prefix)
}

/// Looks for the inner attribute `#![<level>(unsafe_code)]` token sequence.
fn has_unsafe_code_lint(tokens: &[Token], level: &str) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(level)
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// The first line after `after` that carries any token (comment-only lines
/// carry none, so a multi-line annotation reason still lands on the code
/// line it precedes).
fn next_code_line(tokens: &[Token], after: usize) -> Option<usize> {
    tokens.iter().map(|t| t.line).find(|&line| line > after)
}

fn diag(path: &Path, file: &LexedFile, line: usize, rule: Rule, message: String) -> Diagnostic {
    Diagnostic {
        file: path.to_path_buf(),
        line,
        rule,
        message,
        snippet: file.snippet(line).to_owned(),
    }
}

enum AllowParse {
    NotAnAnnotation,
    Valid(Rule),
    Malformed(String),
}

const MARKER: &str = "rcc-lint";

/// Parses one comment's text as a suppression annotation.
fn parse_allow(text: &str) -> AllowParse {
    let Some(pos) = text.find(MARKER) else {
        return AllowParse::NotAnAnnotation;
    };
    let rest = &text[pos + MARKER.len()..];
    // Prose that merely mentions the tool by name is not an annotation; a
    // marker followed by a colon (or attempting `allow(`) is.
    if !rest.trim_start().starts_with(':') && !text.contains("allow(") {
        return AllowParse::NotAnAnnotation;
    }
    let Some(rest) = rest.trim_start().strip_prefix(':') else {
        return AllowParse::Malformed(format!("expected `:` after `{MARKER}` in annotation"));
    };
    let Some(rest) = rest.trim_start().strip_prefix("allow(") else {
        return AllowParse::Malformed(format!(
            "expected `allow(<rule>)` after `{MARKER}:` in annotation"
        ));
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Malformed("unclosed `allow(` in annotation".to_owned());
    };
    let rule_name = rest[..close].trim();
    let Some(rule) = Rule::from_name(rule_name) else {
        return AllowParse::Malformed(format!(
            "annotation names unknown rule `{rule_name}` (known: {})",
            Rule::ALL.map(Rule::name).join(", ")
        ));
    };
    if !rule.suppressible() {
        return AllowParse::Malformed(format!(
            "rule `{rule_name}` is structural and cannot be suppressed inline"
        ));
    }
    let reason = rest[close + 1..].trim_start();
    let reason = reason
        .strip_prefix('—')
        .or_else(|| reason.strip_prefix('–'))
        .or_else(|| reason.strip_prefix('-'))
        .or_else(|| reason.strip_prefix(':'));
    match reason {
        Some(r) if !r.trim().is_empty() => AllowParse::Valid(rule),
        _ => AllowParse::Malformed(format!(
            "suppression of `{rule_name}` needs a reason: `allow({rule_name}) — <why>`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(source: &str, scope: FileScope) -> Vec<Diagnostic> {
        check_file(Path::new("fixture.rs"), &lex(source), &scope)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    const ALL_SCOPES: FileScope = FileScope {
        deterministic: true,
        panic_free: true,
        channel_discipline: true,
        crate_root: false,
        unsafe_seam: false,
    };

    #[test]
    fn deterministic_scope_flags_hash_collections_and_clocks() {
        let source = "
            use std::collections::HashMap;
            fn f() {
                let t = std::time::Instant::now();
                std::thread::sleep(d);
            }
        ";
        let diags = check(
            source,
            FileScope {
                deterministic: true,
                ..FileScope::default()
            },
        );
        assert_eq!(
            rules_of(&diags),
            vec![Rule::HashCollection, Rule::WallClock, Rule::WallClock]
        );
    }

    #[test]
    fn panic_scope_flags_methods_and_macros_but_not_lookalikes() {
        let source = "
            fn f(x: Option<u8>) -> u8 {
                let a = x.unwrap();
                let b = x.expect(\"msg\");
                assert!(a == b);
                panic!(\"boom\");
            }
            fn fine(x: Option<u8>) -> u8 {
                debug_assert!(true);
                x.unwrap_or_else(|| 0)
            }
        ";
        let diags = check(
            source,
            FileScope {
                panic_free: true,
                ..FileScope::default()
            },
        );
        assert_eq!(
            rules_of(&diags),
            vec![Rule::Panic, Rule::Panic, Rule::Panic, Rule::Panic]
        );
    }

    #[test]
    fn channel_rule_distinguishes_calls_from_fields() {
        let source = "
            fn bad() {
                let (tx, rx) = std::sync::mpsc::channel();
                let (a, b) = channel::<u32>();
            }
            fn fine(channel: impl Fn(), c: Channel) {
                let (tx, rx) = std::sync::mpsc::sync_channel(4);
                c.channel();
            }
            struct S { channel: u8 }
        ";
        let diags = check(
            source,
            FileScope {
                channel_discipline: true,
                ..FileScope::default()
            },
        );
        assert_eq!(
            rules_of(&diags),
            vec![Rule::UnboundedChannel, Rule::UnboundedChannel]
        );
    }

    #[test]
    fn test_code_is_exempt_from_every_rule() {
        let source = "
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() {
                    let (tx, rx) = std::sync::mpsc::channel();
                    tx.send(std::time::Instant::now()).unwrap();
                }
            }
        ";
        assert!(check(source, ALL_SCOPES).is_empty());
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let source = "
            // HashMap, Instant, unwrap(), mpsc::channel() — prose only
            fn f() -> &'static str { \"HashMap.unwrap() channel()\" }
        ";
        assert!(check(source, ALL_SCOPES).is_empty());
    }

    #[test]
    fn a_reasoned_allow_suppresses_the_next_code_line() {
        let source = "
            fn f(x: Option<u8>) -> u8 {
                // rcc-lint: allow(panic) — the caller guarantees Some, and
                // this fixture needs a multi-line reason.
                x.unwrap()
            }
        ";
        assert!(check(
            source,
            FileScope {
                panic_free: true,
                ..FileScope::default()
            }
        )
        .is_empty());
    }

    #[test]
    fn an_allow_only_covers_one_code_line() {
        let source = "
            fn f(x: Option<u8>) -> u8 {
                // rcc-lint: allow(panic) — only the first line.
                let a = x.unwrap();
                a + x.unwrap()
            }
        ";
        let diags = check(
            source,
            FileScope {
                panic_free: true,
                ..FileScope::default()
            },
        );
        assert_eq!(rules_of(&diags), vec![Rule::Panic]);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn malformed_allows_are_findings() {
        for (source, expect_msg) in [
            ("// rcc-lint: allow(panic)\nfn f() {}", "needs a reason"),
            (
                "// rcc-lint: allow(panic) —   \nfn f() {}",
                "needs a reason",
            ),
            (
                "// rcc-lint: allow(no-such-rule) — x\nfn f() {}",
                "unknown rule",
            ),
            (
                "// rcc-lint: allow(wire-symmetry) — x\nfn f() {}",
                "structural",
            ),
            (
                "// rcc-lint: allow panic — x\nfn f() {}",
                "expected `allow(<rule>)`",
            ),
            ("// rcc-lint allow(panic) — x\nfn f() {}", "expected `:`"),
        ] {
            let diags = check(source, FileScope::default());
            assert_eq!(rules_of(&diags), vec![Rule::AllowSyntax], "{source}");
            assert!(
                diags[0].message.contains(expect_msg),
                "{}",
                diags[0].message
            );
        }
    }

    #[test]
    fn prose_mentions_of_the_tool_are_not_annotations() {
        let source = "// run the rcc-lint binary before pushing\nfn f() {}";
        assert!(check(source, ALL_SCOPES).is_empty());
    }

    #[test]
    fn crate_roots_must_forbid_unsafe() {
        let missing = check(
            "pub fn f() {}",
            FileScope {
                crate_root: true,
                ..FileScope::default()
            },
        );
        assert_eq!(rules_of(&missing), vec![Rule::ForbidUnsafe]);
        let present = check(
            "#![forbid(unsafe_code)]\npub fn f() {}",
            FileScope {
                crate_root: true,
                ..FileScope::default()
            },
        );
        assert!(present.is_empty());
    }

    const SEAM: FileScope = FileScope {
        deterministic: false,
        panic_free: false,
        channel_discipline: false,
        crate_root: true,
        unsafe_seam: true,
    };

    #[test]
    fn unsafe_is_found_in_test_code_and_never_in_prose() {
        let bare = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(
            rules_of(&check(bare, FileScope::default())),
            vec![Rule::Unsafe]
        );
        let in_test = "
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { unsafe { core::hint::unreachable_unchecked() } }
            }
        ";
        assert_eq!(rules_of(&check(in_test, ALL_SCOPES)), vec![Rule::Unsafe]);
        // The lint name, prose and strings are not the keyword.
        let lookalikes = "
            #![forbid(unsafe_code)]
            // unsafe in a comment
            fn f() -> &'static str { \"unsafe\" }
        ";
        assert!(check(lookalikes, ALL_SCOPES).is_empty());
    }

    #[test]
    fn an_annotation_lifts_the_first_unsafe_of_the_seam_file_only() {
        let annotated = "
            #![deny(unsafe_code)]
            fn f() {
                // rcc-lint: allow(unsafe) — the feature-checked kernel call.
                unsafe { kernel() };
            }
            fn g() {
                // rcc-lint: allow(unsafe) — just as well reasoned.
                unsafe { other() };
            }
        ";
        let diags = check(annotated, SEAM);
        assert_eq!(rules_of(&diags), vec![Rule::Unsafe]);
        assert_eq!(diags[0].line, 9);
        // Outside the seam file the annotation lifts nothing.
        assert_eq!(
            rules_of(&check(annotated, ALL_SCOPES)),
            vec![Rule::Unsafe, Rule::Unsafe]
        );
        // It covers one keyword, not one line.
        let nested = "
            #![deny(unsafe_code)]
            // rcc-lint: allow(unsafe) — the outer block only.
            fn f() { unsafe { unsafe { kernel() } } }
        ";
        assert_eq!(rules_of(&check(nested, SEAM)), vec![Rule::Unsafe]);
    }
}
