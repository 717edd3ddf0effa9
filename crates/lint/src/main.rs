//! The `rcc-lint` binary: run the workspace invariant analyzer from the
//! command line (and from CI).
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O failure.

#![forbid(unsafe_code)]

use rcc_lint::{analyze_workspace, find_workspace_root};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
rcc-lint — workspace invariant analyzer for the RCC reproduction

USAGE:
    cargo run -p rcc-lint -- [OPTIONS]

OPTIONS:
    --workspace        Lint every in-scope workspace file (the default)
    --check-wire-doc   Also fail when docs/WIRE_FORMAT.md is stale
    --write-wire-doc   Regenerate docs/WIRE_FORMAT.md from the code
    --root <PATH>      Workspace root (default: walk up from the cwd)
    -h, --help         Show this help

RULES:
    hash-collection, wall-clock    determinism of the replicated layers
    panic                          panic-freedom of the deployment path
    unbounded-channel              bounded channels outside tests
    forbid-unsafe, unsafe, allow-syntax
                                   hygiene
    wire-symmetry, wire-unique-tags, wire-doc-drift
                                   wire-format conformance

See docs/LINTS.md for the rule catalog and the suppression syntax.
";

struct Options {
    root: Option<PathBuf>,
    check_wire_doc: bool,
    write_wire_doc: bool,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut options = Options {
        root: None,
        check_wire_doc: false,
        write_wire_doc: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--check-wire-doc" => options.check_wire_doc = true,
            "--write-wire-doc" => options.write_wire_doc = true,
            "--root" => match args.next() {
                Some(path) => options.root = Some(PathBuf::from(path)),
                None => return Err("--root needs a path".to_owned()),
            },
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Some(options))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(Some(options)) => options,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("rcc-lint: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = match options.root {
        Some(root) => root,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(e) => {
                    eprintln!("rcc-lint: cannot read the current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!(
                        "rcc-lint: no workspace root (Cargo.toml + crates/) above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut analysis = match analyze_workspace(&root) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("rcc-lint: failed to read the workspace: {e}");
            return ExitCode::from(2);
        }
    };

    let doc_rel = PathBuf::from("docs/WIRE_FORMAT.md");
    let doc_path = root.join(&doc_rel);
    if options.write_wire_doc {
        if let Err(e) = std::fs::write(&doc_path, analysis.grammar.render_doc()) {
            eprintln!("rcc-lint: cannot write {}: {e}", doc_path.display());
            return ExitCode::from(2);
        }
        println!("rcc-lint: wrote {}", doc_rel.display());
    } else if options.check_wire_doc {
        let existing = std::fs::read_to_string(&doc_path).ok();
        analysis
            .diagnostics
            .extend(analysis.grammar.check_doc(&doc_rel, existing.as_deref()));
        analysis.diagnostics.sort();
    }

    for diagnostic in &analysis.diagnostics {
        println!("{diagnostic}");
    }
    if analysis.diagnostics.is_empty() {
        println!(
            "rcc-lint: workspace clean — {} files, {} wire types",
            analysis.files_scanned,
            analysis.grammar.types.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "rcc-lint: {} finding(s) across {} files",
            analysis.diagnostics.len(),
            analysis.files_scanned
        );
        ExitCode::FAILURE
    }
}
