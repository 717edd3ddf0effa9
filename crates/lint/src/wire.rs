//! Wire-format grammar extraction and conformance checks.
//!
//! The canonical codec (`rcc_common::codec` and the `Encode`/`Decode`
//! impls spread across the workspace) assigns one tag byte per enum
//! variant. Those tags are the deployed protocol: renumbering one is a
//! silent compatibility break that no unit test of a single build can
//! catch. This module recovers the tag grammar from the token stream and
//! enforces three properties:
//!
//! * **symmetry** — for every tagged type, the encode side and the decode
//!   side assign the same tags to the same variants;
//! * **uniqueness** — no tag is assigned to two variants of one type (and
//!   no variant to two tags) on either side;
//! * **documentation** — `docs/WIRE_FORMAT.md` matches the extracted
//!   grammar byte for byte, so a tag change shows up as a reviewable doc
//!   diff in CI.
//!
//! Extraction is deliberately narrow, keyed to the codec's three concrete
//! idioms (anything else is invisible rather than misread):
//!
//! * encode impl bodies (`impl … Encode for T`) and `fn encode_frame`:
//!   a literal `out.push(N)` records tag `N` for the nearest preceding
//!   `Type::Variant` match-arm path;
//! * `fn kind_tag`: a `Type::Variant { .. } => N` arm records tag `N`;
//! * decode bodies: inside a `match input.u8()? { … }` region, an arm
//!   `N => Type::Variant …` records tag `N` — the path must follow the
//!   arrow immediately, so error arms (`tag => Err(…)`) and primitive arms
//!   (`0 => false`) never contribute.
//!
//! In the last two idioms `N` is an integer literal or the name of a
//! `const NAME: u8 = N;` declared in the same file — a tag that a second
//! module has to recognise is named once, next to the codec that owns it.

use crate::lexer::{matching_bracket, LexedFile, Token, TokenKind};
use crate::{Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Which half of the codec a tag assignment was seen in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Side {
    /// Seen on the encode side (`out.push(N)` / `kind_tag`).
    Encode,
    /// Seen on the decode side (`match input.u8()?` arm).
    Decode,
}

impl Side {
    fn label(self) -> &'static str {
        match self {
            Side::Encode => "encode",
            Side::Decode => "decode",
        }
    }
}

/// The extracted tag grammar of one tagged type.
#[derive(Clone, Debug, Default)]
pub struct TypeGrammar {
    /// `(variant, tag)` pairs seen on the encode side.
    pub encode: BTreeSet<(String, u64)>,
    /// `(variant, tag)` pairs seen on the decode side.
    pub decode: BTreeSet<(String, u64)>,
    /// Workspace-relative files the assignments were extracted from.
    pub files: BTreeSet<String>,
    /// First extraction site, used to anchor diagnostics.
    anchor: Option<(PathBuf, usize, String)>,
}

impl TypeGrammar {
    /// The canonical `(variant, tag)` table: the encode side, falling back
    /// to the decode side for types only seen one way.
    pub fn table(&self) -> &BTreeSet<(String, u64)> {
        if self.encode.is_empty() {
            &self.decode
        } else {
            &self.encode
        }
    }
}

/// The whole workspace's extracted wire grammar.
#[derive(Clone, Debug, Default)]
pub struct WireGrammar {
    /// Tagged types by name.
    pub types: BTreeMap<String, TypeGrammar>,
    /// Frame-header constants (`FRAME_MAGIC`, `WIRE_VERSION`,
    /// `MAX_FRAME_BYTES`) as `name → verbatim initializer tokens`.
    pub constants: BTreeMap<String, String>,
}

/// The frame-header constants the doc surfaces.
const HEADER_CONSTANTS: [&str; 3] = ["FRAME_MAGIC", "WIRE_VERSION", "MAX_FRAME_BYTES"];

/// Extracts the wire grammar from a set of lexed files (workspace-relative
/// path + lexed source).
pub fn extract<'a>(files: impl IntoIterator<Item = (&'a Path, &'a LexedFile)>) -> WireGrammar {
    let mut grammar = WireGrammar::default();
    for (path, file) in files {
        extract_file(&mut grammar, path, file);
    }
    grammar
}

fn extract_file(grammar: &mut WireGrammar, path: &Path, file: &LexedFile) {
    let tokens = &file.tokens;
    let named = named_tags(tokens);
    for i in 0..tokens.len() {
        if file.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &tokens[i];
        // impl … Encode for T { … }
        if t.is_ident("Encode") && matches!(tokens.get(i + 1), Some(n) if n.is_ident("for")) {
            if let Some((start, end)) = body_after(tokens, i) {
                scan_pushes(grammar, path, file, start, end);
            }
        }
        // fn encode_frame(…) -> … { … }
        if t.is_ident("encode_frame")
            && matches!(i.checked_sub(1).and_then(|p| tokens.get(p)), Some(p) if p.is_ident("fn"))
        {
            if let Some((start, end)) = body_after(tokens, i) {
                scan_pushes(grammar, path, file, start, end);
            }
        }
        // fn kind_tag(…) -> u8 { … }
        if t.is_ident("kind_tag")
            && matches!(i.checked_sub(1).and_then(|p| tokens.get(p)), Some(p) if p.is_ident("fn"))
        {
            if let Some((start, end)) = body_after(tokens, i) {
                scan_arrow_tags(grammar, path, file, &named, start, end);
            }
        }
        // match input.u8()? { … }
        if t.is_ident("match") && is_u8_match(tokens, i) {
            if let Some(end) = matching_bracket(tokens, i + 7) {
                scan_decode_arms(grammar, path, file, &named, i + 8, end);
            }
        }
        // const FRAME_MAGIC: … = …;
        if t.is_ident("const") {
            if let Some(name) = tokens.get(i + 1) {
                if HEADER_CONSTANTS.contains(&name.text.as_str()) {
                    if let Some(value) = initializer_text(tokens, i + 2) {
                        grammar.constants.entry(name.text.clone()).or_insert(value);
                    }
                }
            }
        }
    }
}

/// Every `const NAME: u8 = N;` of the file, as `NAME → N`.
fn named_tags(tokens: &[Token]) -> BTreeMap<String, u64> {
    let mut named = BTreeMap::new();
    for window in tokens.windows(7) {
        let shape = window[0].is_ident("const")
            && window[1].kind == TokenKind::Ident
            && window[2].is_punct(':')
            && window[3].is_ident("u8")
            && window[4].is_punct('=')
            && window[6].is_punct(';');
        if let (true, Some(value)) = (shape, window[5].int_value()) {
            named.insert(window[1].text.clone(), value);
        }
    }
    named
}

/// The tag `token` denotes: a literal, or a name out of [`named_tags`].
fn tag_value(token: &Token, named: &BTreeMap<String, u64>) -> Option<u64> {
    token
        .int_value()
        .or_else(|| named.get(&token.text).copied())
}

/// `match` at `i` followed by exactly `input . u8 ( ) ? {`.
fn is_u8_match(tokens: &[Token], i: usize) -> bool {
    let want: [&dyn Fn(&Token) -> bool; 7] = [
        &|t| t.is_ident("input"),
        &|t| t.is_punct('.'),
        &|t| t.is_ident("u8"),
        &|t| t.is_punct('('),
        &|t| t.is_punct(')'),
        &|t| t.is_punct('?'),
        &|t| t.is_punct('{'),
    ];
    want.iter()
        .enumerate()
        .all(|(k, check)| matches!(tokens.get(i + 1 + k), Some(t) if check(t)))
}

/// The `{ … }` body starting at the first `{` after `i`: `(start, end)`
/// token indices just inside the braces.
fn body_after(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let open = (i..tokens.len()).find(|&k| tokens[k].is_punct('{'))?;
    let close = matching_bracket(tokens, open)?;
    Some((open + 1, close))
}

/// An uppercase-initial identifier — the shape of a type or variant name.
fn is_type_ident(token: &Token) -> bool {
    token.kind == TokenKind::Ident && token.text.chars().next().is_some_and(|c| c.is_uppercase())
}

/// The `Type::Variant` path ending its match at index `k` (both segments
/// uppercase-initial, so `Digest::decode` and `Vec::new` never qualify).
fn path_at(tokens: &[Token], k: usize) -> Option<(String, String)> {
    let first = tokens.get(k)?;
    if !is_type_ident(first)
        || !matches!(tokens.get(k + 1), Some(t) if t.is_punct(':'))
        || !matches!(tokens.get(k + 2), Some(t) if t.is_punct(':'))
    {
        return None;
    }
    let second = tokens.get(k + 3)?;
    if !is_type_ident(second) {
        return None;
    }
    Some((first.text.clone(), second.text.clone()))
}

/// Encode idiom: `Type::Variant … => { out.push(N); … }` — a literal push
/// records the tag for the nearest preceding variant path.
fn scan_pushes(grammar: &mut WireGrammar, path: &Path, file: &LexedFile, start: usize, end: usize) {
    let tokens = &file.tokens;
    let mut last_path: Option<(String, String)> = None;
    let mut k = start;
    while k < end {
        if let Some(found) = path_at(tokens, k) {
            last_path = Some(found);
            k += 4;
            continue;
        }
        let is_literal_push = tokens[k].is_ident("push")
            && k >= 2
            && tokens[k - 1].is_punct('.')
            && tokens[k - 2].is_ident("out")
            && matches!(tokens.get(k + 1), Some(t) if t.is_punct('('));
        if is_literal_push {
            if let Some(tag) = tokens.get(k + 2).and_then(Token::int_value) {
                if let Some((type_name, variant)) = &last_path {
                    record(
                        grammar,
                        path,
                        file,
                        Side::Encode,
                        type_name.clone(),
                        variant.clone(),
                        tag,
                        tokens[k].line,
                    );
                }
            }
        }
        k += 1;
    }
}

/// `kind_tag` idiom: `Type::Variant { .. } => N`.
fn scan_arrow_tags(
    grammar: &mut WireGrammar,
    path: &Path,
    file: &LexedFile,
    named: &BTreeMap<String, u64>,
    start: usize,
    end: usize,
) {
    let tokens = &file.tokens;
    let mut last_path: Option<(String, String)> = None;
    let mut k = start;
    while k < end {
        if let Some(found) = path_at(tokens, k) {
            last_path = Some(found);
            k += 4;
            continue;
        }
        let is_arrow_to_literal =
            tokens[k].is_punct('=') && matches!(tokens.get(k + 1), Some(t) if t.is_punct('>'));
        if is_arrow_to_literal {
            if let Some(tag) = tokens.get(k + 2).and_then(|t| tag_value(t, named)) {
                if let Some((type_name, variant)) = last_path.take() {
                    record(
                        grammar,
                        path,
                        file,
                        Side::Encode,
                        type_name,
                        variant,
                        tag,
                        tokens[k + 2].line,
                    );
                }
            }
        }
        k += 1;
    }
}

/// Decode idiom: `N => Type::Variant …` — the path must follow the arrow
/// immediately, so `tag => Err(…)` and `0 => false` arms are invisible.
fn scan_decode_arms(
    grammar: &mut WireGrammar,
    path: &Path,
    file: &LexedFile,
    named: &BTreeMap<String, u64>,
    start: usize,
    end: usize,
) {
    let tokens = &file.tokens;
    for k in start..end {
        let Some(tag) = tag_value(&tokens[k], named) else {
            continue;
        };
        let is_arm = matches!(tokens.get(k + 1), Some(t) if t.is_punct('='))
            && matches!(tokens.get(k + 2), Some(t) if t.is_punct('>'));
        if !is_arm {
            continue;
        }
        if let Some((type_name, variant)) = path_at(tokens, k + 3) {
            record(
                grammar,
                path,
                file,
                Side::Decode,
                type_name,
                variant,
                tag,
                tokens[k].line,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    grammar: &mut WireGrammar,
    path: &Path,
    file: &LexedFile,
    side: Side,
    type_name: String,
    variant: String,
    tag: u64,
    line: usize,
) {
    let entry = grammar.types.entry(type_name).or_default();
    entry.files.insert(path.display().to_string());
    if entry.anchor.is_none() {
        entry.anchor = Some((path.to_path_buf(), line, file.snippet(line).to_owned()));
    }
    let table = match side {
        Side::Encode => &mut entry.encode,
        Side::Decode => &mut entry.decode,
    };
    table.insert((variant, tag));
}

/// The verbatim initializer tokens of a `const`, from its `=` to its `;`.
fn initializer_text(tokens: &[Token], from: usize) -> Option<String> {
    let eq = (from..tokens.len()).find(|&k| tokens[k].is_punct('='))?;
    let semi = (eq + 1..tokens.len()).find(|&k| tokens[k].is_punct(';'))?;
    let texts: Vec<&str> = tokens[eq + 1..semi]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    Some(texts.join(" "))
}

impl WireGrammar {
    /// Runs the symmetry and uniqueness checks over the extracted grammar.
    pub fn check(&self) -> Vec<Diagnostic> {
        let mut findings = Vec::new();
        for (type_name, grammar) in &self.types {
            let anchor = grammar.anchor.clone().unwrap_or_default();
            let mut push = |rule: Rule, message: String| {
                findings.push(Diagnostic {
                    file: anchor.0.clone(),
                    line: anchor.1,
                    rule,
                    message,
                    snippet: anchor.2.clone(),
                });
            };

            for (side, table) in [
                (Side::Encode, &grammar.encode),
                (Side::Decode, &grammar.decode),
            ] {
                let mut by_tag: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
                let mut by_variant: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
                for (variant, tag) in table {
                    by_tag.entry(*tag).or_default().push(variant);
                    by_variant.entry(variant).or_default().push(*tag);
                }
                for (tag, variants) in by_tag {
                    if variants.len() > 1 {
                        push(
                            Rule::WireUniqueTags,
                            format!(
                                "`{type_name}` assigns tag {tag} to {} on the {} side",
                                variants.join(" and "),
                                side.label()
                            ),
                        );
                    }
                }
                for (variant, tags) in by_variant {
                    if tags.len() > 1 {
                        let tags: Vec<String> = tags.iter().map(u64::to_string).collect();
                        push(
                            Rule::WireUniqueTags,
                            format!(
                                "`{type_name}::{variant}` carries tags {} on the {} side",
                                tags.join(" and "),
                                side.label()
                            ),
                        );
                    }
                }
            }

            if grammar.encode.is_empty() || grammar.decode.is_empty() {
                let (present, missing) = if grammar.encode.is_empty() {
                    (Side::Decode, Side::Encode)
                } else {
                    (Side::Encode, Side::Decode)
                };
                push(
                    Rule::WireSymmetry,
                    format!(
                        "`{type_name}` has a {} tag map but no recognizable {} side",
                        present.label(),
                        missing.label()
                    ),
                );
                continue;
            }
            for (variant, tag) in grammar.encode.difference(&grammar.decode) {
                push(
                    Rule::WireSymmetry,
                    format!(
                        "`{type_name}::{variant}` encodes as tag {tag}, but no decode arm \
                         maps tag {tag} back to it"
                    ),
                );
            }
            for (variant, tag) in grammar.decode.difference(&grammar.encode) {
                push(
                    Rule::WireSymmetry,
                    format!(
                        "`{type_name}::{variant}` decodes from tag {tag}, but the encode \
                         side never writes that tag for it"
                    ),
                );
            }
        }
        findings.sort();
        findings
    }

    /// Renders `docs/WIRE_FORMAT.md`. Output is deterministic (everything
    /// is sorted), so the doc can be diffed byte for byte in CI.
    pub fn render_doc(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "<!-- @generated by rcc-lint from the workspace's Encode/Decode impls. -->\n\
             <!-- Do not edit by hand; regenerate with: -->\n\
             <!--   cargo run -p rcc-lint -- --workspace --write-wire-doc -->\n\
             \n\
             # RCC wire format\n\
             \n\
             The tag grammar below is extracted from the code by `rcc-lint`; the\n\
             `--check-wire-doc` CI gate fails when this file and the code disagree,\n\
             so a renumbered tag always surfaces as a reviewable diff here.\n\
             \n\
             ## Frame header\n\
             \n\
             Every deployment frame is `magic (2 B) | version (1 B) | kind (1 B) |\n\
             body`; on a TCP stream each frame is additionally length-prefixed with\n\
             a big-endian `u32` capped at `MAX_FRAME_BYTES`.\n\
             \n\
             | constant | value |\n\
             |---|---|\n",
        );
        for name in HEADER_CONSTANTS {
            let value = self
                .constants
                .get(name)
                .map(String::as_str)
                .unwrap_or("(not found)");
            out.push_str(&format!("| `{name}` | `{value}` |\n"));
        }
        out.push_str(
            "\n\
             ## Primitives\n\
             \n\
             * Fixed-width integers (`u16`, `u32`, `u64`, `i64`) are big-endian.\n\
             * Byte strings and sequences carry a big-endian `u32` length prefix.\n\
             * `bool` is one byte, `0` or `1`.\n\
             * `Option<T>` is a tag byte (`0` = `None`, `1` = `Some`) followed by\n\
               the payload for `Some`.\n\
             \n\
             ## Tagged types\n\
             \n\
             One tag byte selects the variant; the variant's fields follow in\n\
             declaration order, each in its own canonical encoding.\n",
        );
        for (type_name, grammar) in &self.types {
            let files: Vec<&str> = grammar.files.iter().map(String::as_str).collect();
            out.push_str(&format!(
                "\n### `{type_name}`\n\nDefined in: `{}`\n\n| tag | variant |\n|---|---|\n",
                files.join("`, `")
            ));
            let mut rows: Vec<(u64, &str)> = grammar
                .table()
                .iter()
                .map(|(variant, tag)| (*tag, variant.as_str()))
                .collect();
            rows.sort();
            for (tag, variant) in rows {
                out.push_str(&format!("| {tag} | `{variant}` |\n"));
            }
        }
        out
    }

    /// Compares the rendered doc against the checked-in copy.
    pub fn check_doc(&self, doc_path: &Path, existing: Option<&str>) -> Vec<Diagnostic> {
        let rendered = self.render_doc();
        let Some(existing) = existing else {
            return vec![Diagnostic {
                file: doc_path.to_path_buf(),
                line: 1,
                rule: Rule::WireDocDrift,
                message: "docs/WIRE_FORMAT.md is missing; generate it with \
                          `cargo run -p rcc-lint -- --workspace --write-wire-doc`"
                    .to_owned(),
                snippet: String::new(),
            }];
        };
        if existing == rendered {
            return Vec::new();
        }
        let line = rendered
            .lines()
            .zip(existing.lines())
            .position(|(want, got)| want != got)
            .map(|i| i + 1)
            .unwrap_or_else(|| rendered.lines().count().min(existing.lines().count()) + 1);
        vec![Diagnostic {
            file: doc_path.to_path_buf(),
            line,
            rule: Rule::WireDocDrift,
            message: format!(
                "docs/WIRE_FORMAT.md no longer matches the code (first divergence at \
                 line {line}); regenerate with `cargo run -p rcc-lint -- --workspace \
                 --write-wire-doc` and review the diff"
            ),
            snippet: rendered.lines().nth(line - 1).unwrap_or("").to_owned(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn grammar_of(source: &str) -> WireGrammar {
        let file = lex(source);
        extract([(Path::new("fixture.rs"), &file)])
    }

    const SYMMETRIC: &str = r#"
        impl Encode for Verdict {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    Verdict::Accept => out.push(0),
                    Verdict::Reject { code } => {
                        out.push(1);
                        code.encode(out);
                    }
                }
            }
        }
        impl Decode for Verdict {
            fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match input.u8()? {
                    0 => Verdict::Accept,
                    1 => Verdict::Reject { code: u8::decode(input)? },
                    tag => return Err(WireError::InvalidTag { context: "Verdict", tag }),
                })
            }
        }
    "#;

    #[test]
    fn symmetric_codecs_extract_cleanly() {
        let grammar = grammar_of(SYMMETRIC);
        let verdict = &grammar.types["Verdict"];
        let expected: BTreeSet<(String, u64)> =
            [("Accept".to_owned(), 0), ("Reject".to_owned(), 1)]
                .into_iter()
                .collect();
        assert_eq!(verdict.encode, expected);
        assert_eq!(verdict.decode, expected);
        assert!(grammar.check().is_empty());
        // Error arms never register as variants.
        assert!(!grammar.types.contains_key("WireError"));
    }

    #[test]
    fn renumbering_a_decode_tag_breaks_symmetry() {
        let skewed = SYMMETRIC.replace("1 => Verdict::Reject", "2 => Verdict::Reject");
        let findings = grammar_of(&skewed).check();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == Rule::WireSymmetry));
    }

    #[test]
    fn duplicate_tags_are_flagged() {
        let clashing = SYMMETRIC.replace("out.push(1);", "out.push(0);");
        let findings = grammar_of(&clashing).check();
        assert!(
            findings.iter().any(|f| f.rule == Rule::WireUniqueTags),
            "{findings:?}"
        );
    }

    #[test]
    fn kind_tag_arms_count_as_the_encode_side() {
        let source = r#"
            impl Frame {
                fn kind_tag(&self) -> u8 {
                    match self {
                        Frame::Hello { .. } => 0,
                        Frame::Data { .. } => 1,
                    }
                }
                fn decode_frame(input: &mut Reader<'_>) -> Result<Frame, WireError> {
                    Ok(match input.u8()? {
                        0 => Frame::Hello { peer: PeerKind::decode(input)? },
                        1 => Frame::Data { bytes: read_bytes(input)? },
                        tag => return Err(WireError::InvalidTag { context: "Frame", tag }),
                    })
                }
            }
        "#;
        let grammar = grammar_of(source);
        assert!(grammar.check().is_empty(), "{:?}", grammar.check());
        assert_eq!(grammar.types["Frame"].encode.len(), 2);
    }

    #[test]
    fn named_tags_resolve_to_their_same_file_constant() {
        let source = r#"
            pub(crate) const KIND_DATA: u8 = 1;
            impl Frame {
                fn kind_tag(&self) -> u8 {
                    match self {
                        Frame::Hello { .. } => 0,
                        Frame::Data { .. } => KIND_DATA,
                    }
                }
                fn decode_frame(input: &mut Reader<'_>) -> Result<Frame, WireError> {
                    Ok(match input.u8()? {
                        0 => Frame::Hello { peer: PeerKind::decode(input)? },
                        KIND_DATA => Frame::Data { bytes: read_bytes(input)? },
                        tag => return Err(WireError::InvalidTag { context: "Frame", tag }),
                    })
                }
            }
        "#;
        let grammar = grammar_of(source);
        assert!(grammar.check().is_empty(), "{:?}", grammar.check());
        let data = ("Data".to_string(), 1);
        assert!(grammar.types["Frame"].encode.contains(&data));
        assert!(grammar.types["Frame"].decode.contains(&data));
        // Renumbering the constant moves both sides together; an arm that
        // names a constant the file does not declare stays invisible.
        let orphan = grammar_of(&source.replace("pub(crate) const KIND_DATA: u8 = 1;", ""));
        assert_eq!(orphan.types["Frame"].encode.len(), 1);
    }

    #[test]
    fn primitive_decode_arms_are_invisible() {
        let source = r#"
            impl Decode for bool {
                fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
                    match input.u8()? {
                        0 => Ok(false),
                        1 => Ok(true),
                        tag => Err(WireError::InvalidTag { context: "bool", tag }),
                    }
                }
            }
        "#;
        assert!(grammar_of(source).types.is_empty());
    }

    #[test]
    fn header_constants_are_captured_verbatim() {
        let source =
            "pub const WIRE_VERSION: u8 = 1;\npub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;";
        let grammar = grammar_of(source);
        assert_eq!(grammar.constants["WIRE_VERSION"], "1");
        assert_eq!(grammar.constants["MAX_FRAME_BYTES"], "16 * 1024 * 1024");
    }

    #[test]
    fn the_rendered_doc_is_deterministic_and_checks_itself() {
        let grammar = grammar_of(SYMMETRIC);
        let doc = grammar.render_doc();
        assert_eq!(doc, grammar.render_doc());
        assert!(doc.contains("| 1 | `Reject` |"));
        assert!(grammar
            .check_doc(Path::new("docs/WIRE_FORMAT.md"), Some(&doc))
            .is_empty());
        let stale = doc.replace("| 1 | `Reject` |", "| 9 | `Reject` |");
        let findings = grammar.check_doc(Path::new("docs/WIRE_FORMAT.md"), Some(&stale));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::WireDocDrift);
        let missing = grammar.check_doc(Path::new("docs/WIRE_FORMAT.md"), None);
        assert_eq!(missing.len(), 1);
    }
}
