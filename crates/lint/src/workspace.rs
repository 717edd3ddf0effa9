//! Workspace discovery: which files exist, which rule scopes apply to
//! each, and the one-call [`analyze_workspace`] entry point the binary and
//! the integration tests share.
//!
//! Scope policy (the project invariants, spelled as paths):
//!
//! * **Deterministic layers** — `crates/{rcc-core, execution, storage,
//!   sim, protocols}`: these run identically on every replica, so hash
//!   collections and wall-clock reads are banned there.
//! * **Panic-free deployment path** — all of `crates/network/src` (the
//!   node runner, transports, the client-edge event loop and fleet
//!   driver, and the binary) plus the codec
//!   (`crates/common/src/codec.rs`), the worker pool
//!   (`crates/common/src/pool.rs`), the crypto pipeline
//!   (`crates/crypto/src/pipeline.rs`), and the client driver session
//!   (`crates/workload/src/session.rs`).
//! * **Channel discipline and annotation syntax** — every first-party
//!   source file.
//! * **`#![forbid(unsafe_code)]`** — every crate root, including the
//!   vendored `third_party/` stand-ins and the root facade crate, except
//!   the hash-kernel seam (`third_party/sha2/src/lib.rs`), which carries
//!   `deny` and the one annotated `unsafe`.
//! * **No `unsafe` keyword** — every scanned file, test code included.
//!
//! Only `src/` trees are scanned: integration tests and benches are
//! harness code, exempt for the same reason `#[cfg(test)]` modules are.

use crate::lexer::{lex, LexedFile};
use crate::rules::{check_file, FileScope};
use crate::wire::{self, WireGrammar};
use crate::Diagnostic;
use std::io;
use std::path::{Path, PathBuf};

/// Crate directories under `crates/` whose code must be deterministic.
const DETERMINISTIC_CRATES: [&str; 5] = ["execution", "protocols", "rcc-core", "sim", "storage"];

/// Individual files on the panic-free deployment path (beyond the network
/// crate, which is covered wholesale — including its client-edge event
/// loop and fan-out fleet driver).
const PANIC_FREE_FILES: [&str; 4] = [
    "crates/common/src/codec.rs",
    "crates/common/src/pool.rs",
    "crates/crypto/src/pipeline.rs",
    // The §III-E driver session is sans-io workload code, but every
    // deployed client embedding (thread-per-client and fleet) runs it.
    "crates/workload/src/session.rs",
];

/// The telemetry crate's clock seam — the one file in `crates/telemetry`
/// allowed to touch `std::time`. Everything else in that crate is
/// instrumentation shared with the deterministic layers, so it carries the
/// deterministic scope; the whole crate rides the deployment path (metrics
/// are recorded inside the node pipeline and the client edge), so it is
/// panic-free throughout.
const TELEMETRY_CLOCK_SEAM: &str = "crates/telemetry/src/clock.rs";

/// The hash-kernel seam — the one file in the workspace allowed an `unsafe`
/// block (the CPU-feature-checked call into the SHA-NI compression kernel,
/// which safe code cannot make). Its crate root carries
/// `#![deny(unsafe_code)]` instead of `forbid`, and one reason-annotated
/// `unsafe` in it passes; anywhere else the keyword is a finding that no
/// annotation lifts.
const UNSAFE_SEAM: &str = "third_party/sha2/src/lib.rs";

/// The result of one whole-workspace analysis pass.
pub struct Analysis {
    /// Every finding, sorted by file and line. Includes the wire symmetry
    /// and uniqueness checks, but not the doc-drift check (that one needs
    /// the caller's decision about reading vs. writing the doc).
    pub diagnostics: Vec<Diagnostic>,
    /// The extracted wire grammar, for doc generation and drift checks.
    pub grammar: WireGrammar,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

/// Walks upward from `start` to the directory that holds both a
/// `Cargo.toml` and a `crates/` tree — the workspace root.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(current) = dir {
        if current.join("Cargo.toml").is_file() && current.join("crates").is_dir() {
            return Some(current.to_path_buf());
        }
        dir = current.parent();
    }
    None
}

/// Lints every in-scope file under `root` and extracts the wire grammar.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut diagnostics = Vec::new();
    let mut wire_files: Vec<(PathBuf, LexedFile)> = Vec::new();
    let mut files_scanned = 0usize;

    for rel in collect_sources(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let lexed = lex(&source);
        let scope = scope_for(&rel);
        diagnostics.extend(check_file(&rel, &lexed, &scope));
        files_scanned += 1;
        if in_wire_scope(&rel) {
            wire_files.push((rel, lexed));
        }
    }

    let grammar = wire::extract(
        wire_files
            .iter()
            .map(|(path, lexed)| (path.as_path(), lexed)),
    );
    diagnostics.extend(grammar.check());
    diagnostics.sort();
    Ok(Analysis {
        diagnostics,
        grammar,
        files_scanned,
    })
}

/// Every in-scope source file, as sorted workspace-relative paths.
fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for crate_dir in sorted_dirs(&root.join("crates"))? {
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut files)?;
    }
    for vendored in sorted_dirs(&root.join("third_party"))? {
        let src = vendored.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|path| path.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    Ok(rel)
}

fn sorted_dirs(parent: &Path) -> io::Result<Vec<PathBuf>> {
    if !parent.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(parent)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The crate directory name of a `crates/<dir>/…` path.
fn crate_dir(rel: &Path) -> Option<&str> {
    let mut components = rel.components();
    match components.next()?.as_os_str().to_str()? {
        "crates" => components.next()?.as_os_str().to_str(),
        _ => None,
    }
}

/// Maps a workspace-relative path to the rule scopes that govern it.
pub fn scope_for(rel: &Path) -> FileScope {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    if rel_str.starts_with("third_party/") {
        return FileScope {
            crate_root: rel_str.ends_with("/src/lib.rs"),
            unsafe_seam: rel_str == UNSAFE_SEAM,
            ..FileScope::default()
        };
    }
    let dir = crate_dir(rel);
    FileScope {
        deterministic: dir.is_some_and(|d| DETERMINISTIC_CRATES.contains(&d))
            || (dir == Some("telemetry") && rel_str != TELEMETRY_CLOCK_SEAM),
        panic_free: dir == Some("network")
            || dir == Some("telemetry")
            || PANIC_FREE_FILES.contains(&rel_str.as_str()),
        channel_discipline: true,
        crate_root: rel_str == "src/lib.rs"
            || dir.is_some_and(|d| rel_str == format!("crates/{d}/src/lib.rs")),
        unsafe_seam: false,
    }
}

/// Wire extraction covers every first-party source file; the vendored
/// third-party crates speak serde, not the canonical codec.
fn in_wire_scope(rel: &Path) -> bool {
    !rel.starts_with("third_party")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_map_paths_to_the_project_policy() {
        let core = scope_for(Path::new("crates/rcc-core/src/replica.rs"));
        assert!(core.deterministic && !core.panic_free && core.channel_discipline);

        let node = scope_for(Path::new("crates/network/src/node.rs"));
        assert!(node.panic_free && !node.deterministic);
        let node_bin = scope_for(Path::new("crates/network/src/bin/rcc-node.rs"));
        assert!(node_bin.panic_free);
        // The client-edge event loop and fleet driver ride the network
        // crate's wholesale coverage; the driver session is listed
        // individually.
        let edge = scope_for(Path::new("crates/network/src/event_loop.rs"));
        assert!(edge.panic_free);
        let fleet = scope_for(Path::new("crates/network/src/fleet.rs"));
        assert!(fleet.panic_free);
        let session = scope_for(Path::new("crates/workload/src/session.rs"));
        assert!(session.panic_free && !session.deterministic);
        let client = scope_for(Path::new("crates/workload/src/client.rs"));
        assert!(!client.panic_free);

        let codec = scope_for(Path::new("crates/common/src/codec.rs"));
        assert!(codec.panic_free && !codec.deterministic);
        let other_common = scope_for(Path::new("crates/common/src/config.rs"));
        assert!(!other_common.panic_free);

        let bench = scope_for(Path::new("crates/bench/src/lib.rs"));
        assert!(!bench.deterministic && !bench.panic_free && bench.crate_root);

        let vendored = scope_for(Path::new("third_party/serde/src/lib.rs"));
        assert!(vendored.crate_root && !vendored.channel_discipline);

        let facade = scope_for(Path::new("src/lib.rs"));
        assert!(facade.crate_root && facade.channel_discipline);

        // The telemetry crate: panic-free throughout, deterministic
        // everywhere except the clock seam (the one sanctioned
        // `std::time` site).
        let telemetry = scope_for(Path::new("crates/telemetry/src/lib.rs"));
        assert!(telemetry.deterministic && telemetry.panic_free && telemetry.crate_root);
        let flight = scope_for(Path::new("crates/telemetry/src/flight.rs"));
        assert!(flight.deterministic && flight.panic_free);
        let seam = scope_for(Path::new("crates/telemetry/src/clock.rs"));
        assert!(!seam.deterministic && seam.panic_free);
    }

    /// Fixture: a panic-family call in telemetry scope is a finding —
    /// recording a metric must never be able to crash the layer being
    /// measured.
    #[test]
    fn telemetry_scope_flags_panics() {
        let rel = Path::new("crates/telemetry/src/flight.rs");
        let lexed =
            crate::lexer::lex("fn f(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }");
        let diagnostics = check_file(rel, &lexed, &scope_for(rel));
        assert!(
            diagnostics.iter().any(|d| d.rule == crate::Rule::Panic),
            "unwrap in telemetry scope must be flagged: {diagnostics:?}"
        );
    }

    /// Fixture: a wall-clock read outside the clock seam is a finding; the
    /// identical source *inside* `clock.rs` is clean. This is the gate that
    /// keeps sim-side instrumentation bit-deterministic.
    #[test]
    fn telemetry_wall_clock_gate_exempts_only_the_clock_seam() {
        let source = "fn now() -> std::time::Instant { Instant::now() }";
        let lexed = crate::lexer::lex(source);

        let outside = Path::new("crates/telemetry/src/lib.rs");
        let diagnostics = check_file(outside, &lexed, &scope_for(outside));
        assert!(
            diagnostics.iter().any(|d| d.rule == crate::Rule::WallClock),
            "Instant outside the clock seam must be flagged: {diagnostics:?}"
        );

        let seam = Path::new("crates/telemetry/src/clock.rs");
        let diagnostics = check_file(seam, &lexed, &scope_for(seam));
        assert!(
            !diagnostics.iter().any(|d| d.rule == crate::Rule::WallClock),
            "the clock seam is the sanctioned std::time site: {diagnostics:?}"
        );
    }

    #[test]
    fn the_lint_crate_finds_its_own_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("inside the workspace");
        assert!(root.join("crates").join("lint").is_dir());
    }
}
