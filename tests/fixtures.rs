//! The workspace invariants of `docs/LINTS.md` are enforced by
//! `cargo clippy --all-targets -- -D warnings`, but only as long as the
//! configuration that scopes each lint stays in place. Deleting a `deny`
//! from a crate root, or a `[lints] workspace = true` from a manifest, makes
//! clippy *quieter*, never louder, so no clippy run can notice it. These
//! tests pin that configuration: for every rule, the scopes that must flag a
//! violation (positive) and the scopes that must not (negative).

use std::fs;
use std::path::{Path, PathBuf};

/// The lints that make up the panic-freedom rule.
const PANIC_LINTS: [&str; 7] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "disallowed_macros",
];

/// Every file whose inner attributes put it (and, for a crate root, its
/// modules) in the panic-free scope.
const PANIC_FREE: [&str; 7] = [
    "crates/network/src/lib.rs",
    "crates/network/src/bin/rcc-node.rs",
    "crates/telemetry/src/lib.rs",
    "crates/common/src/codec.rs",
    "crates/common/src/pool.rs",
    "crates/crypto/src/pipeline.rs",
    "crates/workload/src/session.rs",
];

/// The crate roots of the replicated layers, which deny `disallowed_types`.
const DETERMINISTIC: [&str; 6] = [
    "crates/rcc-core/src/lib.rs",
    "crates/execution/src/lib.rs",
    "crates/storage/src/lib.rs",
    "crates/sim/src/lib.rs",
    "crates/protocols/src/lib.rs",
    "crates/telemetry/src/lib.rs",
];

/// The one file of a deterministic crate that holds a hash collection: the
/// record table, whose map order reaches no result.
const HASH_MAP_FILE: &str = "crates/storage/src/table.rs";

/// The one crate allowed its own `[lints]` table: the SHA-NI seam.
const SEAM_MANIFEST: &str = "third_party/sha2/Cargo.toml";
const SEAM_FILE: &str = "third_party/sha2/src/lib.rs";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Workspace-relative paths of every member manifest, the root package's
/// included.
fn manifests() -> Vec<String> {
    let mut out = vec!["Cargo.toml".to_string()];
    for dir in ["crates", "third_party"] {
        for entry in fs::read_dir(root().join(dir)).expect("member directory") {
            let name = entry.expect("directory entry").file_name();
            let rel = format!("{dir}/{}/Cargo.toml", name.to_string_lossy());
            if root().join(&rel).is_file() {
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

/// Workspace-relative paths and contents of every Rust source the lints
/// govern.
fn rust_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut paths = Vec::new();
    for dir in ["crates", "third_party", "src", "examples"] {
        walk(&root().join(dir), &mut paths);
    }
    paths.sort();
    let sources: Vec<_> = paths
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(root()).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let text = fs::read_to_string(&p).expect("readable source");
            (rel, text)
        })
        .collect();
    assert!(sources.len() > 50, "{} files", sources.len());
    sources
}

/// The key/value rows of one `[section]` of a TOML file, comments dropped.
fn toml_section(text: &str, header: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// The `path`s listed under `key` in `clippy.toml`.
fn clippy_list(key: &str) -> Vec<String> {
    let text = read("clippy.toml");
    let start = text
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no {key}"));
    let body = &text[start..start + text[start..].find("\n]").expect("closed list")];
    body.lines()
        .filter_map(|line| line.split("path = \"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

/// The lints a file denies outside `cfg(test)`, from its
/// `#![cfg_attr(not(test), deny(…))]` lines.
fn denied_outside_tests(source: &str) -> Vec<String> {
    source
        .lines()
        .filter_map(|line| line.trim().strip_prefix("#![cfg_attr(not(test), deny("))
        .flat_map(|list| list.trim_end_matches(")]").trim_end_matches(')').split(','))
        .map(|lint| lint.trim().trim_start_matches("clippy::").to_string())
        .collect()
}

/// A line with its comment and the contents of its string literals removed.
fn code_of(line: &str) -> String {
    let mut code = String::new();
    let mut in_string = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_string => {
                chars.next();
            }
            '"' => {
                in_string = !in_string;
                code.push(c);
            }
            '/' if !in_string && chars.peek() == Some(&'/') => break,
            _ if !in_string => code.push(c),
            _ => {}
        }
    }
    code
}

/// How often `word` occurs as a whole identifier in the code of `source`.
fn code_word_count(source: &str, word: &str) -> usize {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source
        .lines()
        .map(code_of)
        .map(|code| {
            code.match_indices(word)
                .filter(|(at, _)| {
                    let before = code[..*at].chars().next_back();
                    let after = code[at + word.len()..].chars().next();
                    !before.is_some_and(ident) && !after.is_some_and(ident)
                })
                .count()
        })
        .sum()
}

/// The body of every lint attribute (`#[expect(…)]`, `#![allow(…)]`, …) in
/// `source`, each joined onto one line.
fn lint_attributes(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut open: Option<String> = None;
    for line in source.lines().map(str::trim) {
        if let Some(body) = open.as_mut() {
            body.push(' ');
            body.push_str(line);
        } else if ["#[expect(", "#![expect(", "#[allow(", "#![allow("]
            .iter()
            .any(|p| line.starts_with(p))
        {
            open = Some(line.to_string());
        }
        if open.as_ref().is_some_and(|body| body.ends_with(")]")) {
            out.extend(open.take());
        }
    }
    out
}

/// Every lint attribute that lifts `disallowed_types`, with its file.
fn disallowed_types_lifts() -> Vec<(String, String)> {
    let mut lifts = Vec::new();
    for (rel, source) in rust_sources() {
        for attr in lint_attributes(&source) {
            if attr.contains("clippy::disallowed_types") {
                lifts.push((rel.clone(), attr));
            }
        }
    }
    lifts
}

#[test]
fn forbid_unsafe_is_required_on_crate_roots_only() {
    // One `forbid` for the whole workspace, in the manifest rather than in
    // each crate root, and every member (the seam aside) inherits it.
    let workspace = read("Cargo.toml");
    assert_eq!(
        toml_section(&workspace, "[workspace.lints.rust]"),
        ["unsafe_code = \"forbid\""]
    );
    for manifest in manifests() {
        if manifest == SEAM_MANIFEST {
            continue;
        }
        assert_eq!(
            toml_section(&read(&manifest), "[lints]"),
            ["workspace = true"],
            "{manifest} must inherit [workspace.lints]"
        );
    }
    for (rel, source) in rust_sources() {
        assert!(
            !source.contains("#![forbid(unsafe_code)]"),
            "{rel} repeats what [workspace.lints.rust] already forbids"
        );
    }
}

#[test]
fn only_the_seam_root_may_deny_where_the_rest_forbid() {
    let seam = read(SEAM_MANIFEST);
    assert_eq!(toml_section(&seam, "[lints]"), Vec::<String>::new());
    assert_eq!(
        toml_section(&seam, "[lints.rust]"),
        ["unsafe_code = \"deny\""]
    );
    // Apart from `unsafe_code`, the seam's table is the workspace's.
    assert_eq!(
        toml_section(&seam, "[lints.clippy]"),
        toml_section(&read("Cargo.toml"), "[workspace.lints.clippy]")
    );
    for manifest in manifests() {
        let text = read(&manifest);
        let own_table = text.lines().any(|l| l.starts_with("[lints."));
        assert_eq!(own_table, manifest == SEAM_MANIFEST, "{manifest}");
    }
}

#[test]
fn the_hash_kernel_seam_is_one_annotated_unsafe_in_one_file() {
    let mut blocks = Vec::new();
    let mut expectations = Vec::new();
    for (rel, source) in rust_sources() {
        for _ in 0..code_word_count(&source, "unsafe") {
            blocks.push(rel.clone());
        }
        for attr in lint_attributes(&source) {
            if attr.contains("unsafe_code") {
                expectations.push((rel.clone(), attr));
            }
        }
    }
    assert_eq!(blocks, [SEAM_FILE]);
    assert_eq!(expectations.len(), 1, "{expectations:?}");
    let (rel, attr) = &expectations[0];
    assert_eq!(rel, SEAM_FILE);
    assert!(attr.starts_with("#[expect("), "statement-level: {attr}");
}

#[test]
fn panic_positive_and_negative() {
    for rel in PANIC_FREE {
        let denied = denied_outside_tests(&read(rel));
        for lint in PANIC_LINTS {
            assert!(denied.iter().any(|d| d == lint), "{rel} must deny {lint}");
        }
    }
    assert_eq!(
        clippy_list("disallowed-macros"),
        ["core::assert", "std::assert_eq", "std::assert_ne"]
    );
    // The deterministic layers are not the panic scope: state machines
    // there assert internal invariants freely.
    for rel in DETERMINISTIC.iter().filter(|r| !PANIC_FREE.contains(r)) {
        assert!(denied_outside_tests(&read(rel)).is_empty(), "{rel}");
    }
}

#[test]
fn the_client_edge_modules_are_on_the_panic_free_path() {
    // The readiness event loop, the fleet driver, and the sans-io driver
    // session all run in deployed processes serving thousands of
    // connections — a panic there takes the whole edge down, so they are
    // governed by the panic rule like the rest of the deployment path.
    for (module, governed_by) in [
        (
            "crates/network/src/event_loop.rs",
            "crates/network/src/lib.rs",
        ),
        ("crates/network/src/fleet.rs", "crates/network/src/lib.rs"),
        (
            "crates/workload/src/session.rs",
            "crates/workload/src/session.rs",
        ),
    ] {
        assert!(PANIC_FREE.contains(&governed_by), "{module}");
        let (dir, file) = module.rsplit_once('/').expect("a path");
        let name = file.trim_end_matches(".rs");
        assert!(
            read(&format!("{dir}/lib.rs")).contains(&format!("mod {name};")),
            "{module} is not a module of its crate root"
        );
        // Nor may the module lift the rule for all of itself.
        for attr in lint_attributes(&read(module)) {
            assert!(
                !attr.starts_with("#![") || !PANIC_LINTS.iter().any(|l| attr.contains(l)),
                "{module}: {attr}"
            );
        }
    }
}

#[test]
fn test_modules_are_exempt_everywhere() {
    // Every panic-freedom denial is gated on `not(test)`, so `#[cfg(test)]`
    // code may unwrap and assert wherever it lives.
    for (rel, source) in rust_sources() {
        for line in source.lines().map(str::trim) {
            let denies_panics = line.starts_with("#![")
                && line.contains("deny(")
                && PANIC_LINTS
                    .iter()
                    .any(|l| line.contains(&format!("clippy::{l}")));
            if denies_panics {
                assert!(
                    line.starts_with("#![cfg_attr(not(test), deny("),
                    "{rel}: {line}"
                );
            }
        }
    }
}

#[test]
fn hash_collection_positive_and_negative() {
    let banned = clippy_list("disallowed-types");
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(banned.iter().any(|b| b == ty), "{ty}");
    }
    for rel in DETERMINISTIC {
        assert!(
            read(rel).contains("\n#![deny(clippy::disallowed_types)]\n"),
            "{rel} must deny disallowed_types"
        );
    }
    // Outside the replicated layers the same code is fine.
    let clippy = toml_section(&read("Cargo.toml"), "[workspace.lints.clippy]");
    assert!(clippy.contains(&"disallowed_types = \"allow\"".to_string()));
    for rel in [
        "crates/network/src/lib.rs",
        "crates/workload/src/lib.rs",
        "crates/common/src/lib.rs",
    ] {
        assert!(!read(rel).contains("disallowed_types"), "{rel}");
    }
    // The record table's map is the one hash collection of the replicated
    // layers, let in by one expectation on one item whose reason says why
    // its order is harmless.
    let table_lifts: Vec<_> = disallowed_types_lifts()
        .into_iter()
        .filter(|(rel, _)| rel == HASH_MAP_FILE)
        .map(|(_, attr)| attr)
        .collect();
    let [attr] = &table_lifts[..] else {
        panic!("{table_lifts:?}")
    };
    assert!(
        attr.starts_with("#[expect(") && attr.contains("iteration order"),
        "{attr}"
    );
    let deterministic_crates: Vec<&str> = DETERMINISTIC
        .iter()
        .map(|root| root.trim_end_matches("lib.rs").trim_end_matches("src/"))
        .collect();
    let mut maps = Vec::new();
    for (rel, source) in rust_sources() {
        if deterministic_crates.iter().any(|dir| rel.starts_with(dir)) {
            for _ in 0..code_word_count(&source, "HashMap") {
                maps.push(rel.clone());
            }
            assert_eq!(code_word_count(&source, "HashSet"), 0, "{rel}");
        }
    }
    assert_eq!(maps, [HASH_MAP_FILE]);
}

#[test]
fn wall_clock_positive_and_negative() {
    let banned = clippy_list("disallowed-types");
    for ty in ["std::time::Instant", "std::time::SystemTime"] {
        assert!(banned.iter().any(|b| b == ty), "{ty}");
    }
    // Duration is pure arithmetic, and sleeping reads no clock.
    assert!(!banned.iter().any(|b| b.contains("Duration")));
    assert!(!clippy_list("disallowed-methods")
        .iter()
        .any(|m| m.contains("sleep")));
    // Apart from the record table's map, the clock seam is the one file of
    // a deterministic crate that lifts it.
    let lifted: Vec<_> = disallowed_types_lifts()
        .into_iter()
        .map(|(rel, _)| rel)
        .filter(|rel| rel != HASH_MAP_FILE)
        .collect();
    assert_eq!(lifted, ["crates/telemetry/src/clock.rs"]);
}

#[test]
fn unbounded_channel_positive_and_negative() {
    let banned = clippy_list("disallowed-methods");
    assert!(banned.iter().any(|m| m == "std::sync::mpsc::channel"));
    assert!(!banned.iter().any(|m| m.contains("sync_channel")));
    // Its level is clippy's default, warn, which `-D warnings` makes an
    // error; nothing lowers it and nothing is excepted from it.
    assert!(!read("Cargo.toml").contains("disallowed_methods"));
    for (rel, source) in rust_sources() {
        for attr in lint_attributes(&source) {
            assert!(!attr.contains("disallowed_methods"), "{rel}: {attr}");
        }
    }
}

#[test]
fn suppressions_need_reasons_and_cover_one_line() {
    for manifest in ["Cargo.toml", SEAM_MANIFEST] {
        assert!(
            read(manifest).contains("\nallow_attributes_without_reason = \"deny\"\n"),
            "{manifest}"
        );
    }
    // Every suppression gives its reason and covers one item or statement;
    // the clock seam is the one file-wide suppression.
    let mut suppressions = 0;
    let mut file_wide = Vec::new();
    for (rel, source) in rust_sources() {
        for attr in lint_attributes(&source) {
            assert!(attr.contains("reason = \""), "{rel}: {attr}");
            suppressions += 1;
            if attr.starts_with("#![") {
                file_wide.push(rel.clone());
            }
        }
    }
    assert!(suppressions > 0);
    assert_eq!(file_wide, ["crates/telemetry/src/clock.rs"]);
}
