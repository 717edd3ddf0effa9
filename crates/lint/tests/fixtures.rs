//! Fixture matrix for every rule family (positive: the violation is
//! found; negative: compliant or exempt code is not flagged) plus the
//! self-application gate: the real workspace must lint clean, and the
//! checked-in `docs/WIRE_FORMAT.md` must match the code.

use rcc_lint::lexer::lex;
use rcc_lint::wire;
use rcc_lint::{analyze_workspace, check_file, find_workspace_root, FileScope, Rule};
use std::path::Path;

fn rules_found(source: &str, scope: FileScope) -> Vec<Rule> {
    check_file(Path::new("fixture.rs"), &lex(source), &scope)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

const DETERMINISTIC: FileScope = FileScope {
    deterministic: true,
    panic_free: false,
    channel_discipline: true,
    crate_root: false,
    unsafe_seam: false,
};

const DEPLOYMENT: FileScope = FileScope {
    deterministic: false,
    panic_free: true,
    channel_discipline: true,
    crate_root: false,
    unsafe_seam: false,
};

#[test]
fn hash_collection_positive_and_negative() {
    let bad = "use std::collections::{HashMap, HashSet};\nfn f() {}";
    assert_eq!(
        rules_found(bad, DETERMINISTIC),
        vec![Rule::HashCollection, Rule::HashCollection]
    );
    let good = "use std::collections::{BTreeMap, BTreeSet};\nfn f() {}";
    assert!(rules_found(good, DETERMINISTIC).is_empty());
    // Outside the deterministic scope the same code is fine.
    assert!(rules_found(bad, DEPLOYMENT).is_empty());
}

#[test]
fn wall_clock_positive_and_negative() {
    for bad in [
        "fn f() { let t = std::time::Instant::now(); }",
        "fn f() { let t = std::time::SystemTime::now(); }",
        "fn f(d: std::time::Duration) { std::thread::sleep(d); }",
    ] {
        assert_eq!(
            rules_found(bad, DETERMINISTIC),
            vec![Rule::WallClock],
            "{bad}"
        );
    }
    // Duration is pure arithmetic, and a local `sleep` fn is not
    // `thread::sleep`.
    let good = "fn sleep() {}\nfn f(d: std::time::Duration) { sleep(); let _ = d; }";
    assert!(rules_found(good, DETERMINISTIC).is_empty());
}

#[test]
fn panic_positive_and_negative() {
    let bad = r#"
        fn f(x: Result<u8, u8>) -> u8 {
            if x.is_err() { unreachable!(); }
            x.unwrap()
        }
    "#;
    assert_eq!(rules_found(bad, DEPLOYMENT), vec![Rule::Panic, Rule::Panic]);
    let good = r#"
        fn f(x: Result<u8, u8>) -> Result<u8, u8> {
            let v = x?;
            Ok(v.checked_add(1).unwrap_or(v))
        }
    "#;
    assert!(rules_found(good, DEPLOYMENT).is_empty());
    // The deterministic layers are not the panic scope: state machines
    // there assert internal invariants freely.
    assert!(rules_found(bad, DETERMINISTIC).is_empty());
}

#[test]
fn unbounded_channel_positive_and_negative() {
    let bad = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }";
    assert_eq!(rules_found(bad, DEPLOYMENT), vec![Rule::UnboundedChannel]);
    let good = "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel::<u8>(16); }";
    assert!(rules_found(good, DEPLOYMENT).is_empty());
}

#[test]
fn test_modules_are_exempt_everywhere() {
    let source = r#"
        #[cfg(test)]
        mod tests {
            use std::collections::HashMap;
            #[test]
            fn t() {
                let (tx, rx) = std::sync::mpsc::channel::<u8>();
                let started = std::time::Instant::now();
                tx.send(1).unwrap();
                assert_eq!(rx.recv().unwrap(), 1);
            }
        }
    "#;
    let everything = FileScope {
        deterministic: true,
        panic_free: true,
        channel_discipline: true,
        crate_root: false,
        unsafe_seam: false,
    };
    assert!(rules_found(source, everything).is_empty());
}

#[test]
fn suppressions_need_reasons_and_cover_one_line() {
    let suppressed = r#"
        fn f(x: Option<u8>) -> u8 {
            // rcc-lint: allow(panic) — fixture: the caller checked.
            x.unwrap()
        }
    "#;
    assert!(rules_found(suppressed, DEPLOYMENT).is_empty());

    let unreasoned = r#"
        fn f(x: Option<u8>) -> u8 {
            // rcc-lint: allow(panic)
            x.unwrap()
        }
    "#;
    assert_eq!(
        rules_found(unreasoned, DEPLOYMENT),
        vec![Rule::AllowSyntax, Rule::Panic]
    );

    let too_greedy = r#"
        fn f(x: Option<u8>, y: Option<u8>) -> u8 {
            // rcc-lint: allow(panic) — fixture: covers only the next line.
            x.unwrap();
            y.unwrap()
        }
    "#;
    assert_eq!(rules_found(too_greedy, DEPLOYMENT), vec![Rule::Panic]);
}

#[test]
fn the_client_edge_modules_are_on_the_panic_free_path() {
    // The readiness event loop, the fleet driver, and the sans-io driver
    // session all run in deployed processes serving thousands of
    // connections — a panic there takes the whole edge down, so they are
    // governed by the panic rule like the rest of the deployment path.
    for path in [
        "crates/network/src/event_loop.rs",
        "crates/network/src/fleet.rs",
        "crates/workload/src/session.rs",
    ] {
        assert!(
            rcc_lint::workspace::scope_for(Path::new(path)).panic_free,
            "{path} must be in panic-freedom scope"
        );
    }
}

#[test]
fn event_loop_style_sweeps_cannot_hide_panics() {
    // The shape of edge event-loop code: a nonblocking read sweep whose
    // error arm is *handled*, but with a panicking shortcut buried in the
    // happy path. The panic rule must see through it.
    let bad = r#"
        fn sweep(conn: &mut Conn) {
            loop {
                match conn.stream.read(&mut conn.scratch) {
                    Ok(0) => { conn.dead = true; return; }
                    Ok(n) => conn.rbuf.extend_from_slice(conn.scratch.get(..n).unwrap()),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => { conn.dead = true; return; }
                }
            }
        }
    "#;
    assert_eq!(rules_found(bad, DEPLOYMENT), vec![Rule::Panic]);
    let good = r#"
        fn sweep(conn: &mut Conn) {
            loop {
                match conn.stream.read(&mut conn.scratch) {
                    Ok(0) => { conn.dead = true; return; }
                    Ok(n) => match conn.scratch.get(..n) {
                        Some(read) => conn.rbuf.extend_from_slice(read),
                        None => break,
                    },
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => { conn.dead = true; return; }
                }
            }
        }
    "#;
    assert!(rules_found(good, DEPLOYMENT).is_empty());
}

#[test]
fn forbid_unsafe_is_required_on_crate_roots_only() {
    let scope = FileScope {
        crate_root: true,
        ..FileScope::default()
    };
    assert_eq!(rules_found("pub mod a;", scope), vec![Rule::ForbidUnsafe]);
    assert!(rules_found("#![forbid(unsafe_code)]\npub mod a;", scope).is_empty());
    assert!(rules_found("pub mod a;", FileScope::default()).is_empty());
}

/// Findings for `source` as if it were the file at workspace path `rel`,
/// under the scope the workspace policy gives that path.
fn rules_found_at(rel: &str, source: &str) -> Vec<Rule> {
    let path = Path::new(rel);
    check_file(path, &lex(source), &rcc_lint::workspace::scope_for(path))
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

const SHA2_ROOT: &str = "third_party/sha2/src/lib.rs";

#[test]
fn the_hash_kernel_seam_is_one_annotated_unsafe_in_one_file() {
    let seam = r#"
        #![deny(unsafe_code)]
        fn try_compress() {
            // rcc-lint: allow(unsafe) — fixture: the feature-checked call.
            unsafe { compress() };
        }
    "#;
    assert!(rules_found_at(SHA2_ROOT, seam).is_empty());

    // A second `unsafe` in the seam file is a finding, annotated or not.
    let second = r#"
        fn elsewhere() {
            // rcc-lint: allow(unsafe) — fixture: one too many.
            unsafe { load() };
        }
    "#;
    assert_eq!(
        rules_found_at(SHA2_ROOT, &format!("{seam}{second}")),
        vec![Rule::Unsafe]
    );
    let bare = "fn elsewhere() { unsafe { load() }; }";
    assert_eq!(
        rules_found_at(SHA2_ROOT, &format!("{seam}{bare}")),
        vec![Rule::Unsafe]
    );

    // The same annotated block anywhere else is a finding: another crate,
    // another vendored crate, another file of the seam's own crate, a test.
    let annotated = r#"
        fn f() {
            // rcc-lint: allow(unsafe) — fixture: reasoned, but not the seam.
            unsafe { compress() };
        }
    "#;
    for rel in [
        "crates/crypto/src/hash.rs",
        "crates/network/src/tcp.rs",
        "third_party/hmac/src/lib.rs",
        "third_party/sha2/src/x86.rs",
        "src/lib.rs",
    ] {
        let source = format!("#![forbid(unsafe_code)]\n{annotated}");
        assert_eq!(rules_found_at(rel, &source), vec![Rule::Unsafe], "{rel}");
    }
    let in_a_test = format!("#[cfg(test)]\nmod tests {{ {annotated} }}");
    assert_eq!(
        rules_found_at("crates/crypto/src/hash.rs", &in_a_test),
        vec![Rule::Unsafe]
    );
}

#[test]
fn only_the_seam_root_may_deny_where_the_rest_forbid() {
    let deny = "#![deny(unsafe_code)]\npub mod a;";
    assert!(rules_found_at(SHA2_ROOT, deny).is_empty());
    assert!(rules_found_at(SHA2_ROOT, "#![forbid(unsafe_code)]\npub mod a;").is_empty());
    // `deny` on any other root is a finding …
    for rel in [
        "crates/crypto/src/lib.rs",
        "third_party/hmac/src/lib.rs",
        "src/lib.rs",
    ] {
        assert_eq!(rules_found_at(rel, deny), vec![Rule::ForbidUnsafe], "{rel}");
    }
    // … and the seam's root with neither attribute is one too.
    assert_eq!(
        rules_found_at(SHA2_ROOT, "pub mod a;"),
        vec![Rule::ForbidUnsafe]
    );
}

#[test]
fn wire_fixture_catches_an_encode_decode_skew() {
    let source = r#"
        impl Encode for Vote {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    Vote::Yes => out.push(0),
                    Vote::No => out.push(1),
                }
            }
        }
        impl Decode for Vote {
            fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match input.u8()? {
                    0 => Vote::Yes,
                    2 => Vote::No,
                    tag => return Err(WireError::InvalidTag { context: "Vote", tag }),
                })
            }
        }
    "#;
    let lexed = lex(source);
    let grammar = wire::extract([(Path::new("fixture.rs"), &lexed)]);
    let findings = grammar.check();
    assert!(
        findings.iter().all(|f| f.rule == Rule::WireSymmetry),
        "{findings:?}"
    );
    assert_eq!(findings.len(), 2, "{findings:?}");
}

// ---------------------------------------------------------------------
// Self-application: the analyzer's reason to exist is that the real tree
// stays clean and the real doc stays current.
// ---------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives in the workspace")
}

#[test]
fn the_workspace_lints_clean() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        analysis.diagnostics.is_empty(),
        "workspace findings:\n{}",
        analysis
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The invariant gate is only meaningful if it actually sees the tree.
    assert!(
        analysis.files_scanned > 50,
        "{} files",
        analysis.files_scanned
    );
}

#[test]
fn the_extracted_grammar_covers_the_deployed_protocol() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace readable");
    for expected in [
        "AuthTag",
        "Frame",
        "PbftMessage",
        "PeerKind",
        "RccMessage",
        "TransactionKind",
    ] {
        assert!(
            analysis.grammar.types.contains_key(expected),
            "missing wire type {expected}; extracted: {:?}",
            analysis.grammar.types.keys().collect::<Vec<_>>()
        );
    }
    assert_eq!(analysis.grammar.constants["WIRE_VERSION"], "2");
}

#[test]
fn the_checked_in_wire_doc_is_current() {
    let root = workspace_root();
    let analysis = analyze_workspace(&root).expect("workspace readable");
    let doc_path = root.join("docs").join("WIRE_FORMAT.md");
    let existing = std::fs::read_to_string(&doc_path).ok();
    let findings = analysis
        .grammar
        .check_doc(Path::new("docs/WIRE_FORMAT.md"), existing.as_deref());
    assert!(
        findings.is_empty(),
        "stale docs/WIRE_FORMAT.md — regenerate with `cargo run -p rcc-lint -- --workspace --write-wire-doc`:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
