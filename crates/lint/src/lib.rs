//! `rcc-lint` — the workspace invariant analyzer.
//!
//! The RCC reproduction rests on a handful of invariants that `rustc` and
//! clippy cannot see because they are *project* properties, not language
//! properties:
//!
//! * **Determinism** — the replicated layers (`rcc-core`, `execution`,
//!   `storage`, `sim`, `protocols`) must be bit-identical across replicas,
//!   so nondeterministic iteration (`HashMap`/`HashSet`) and wall-clock
//!   reads (`Instant`, `SystemTime`, `thread::sleep`) are banned there.
//! * **Panic-freedom** — the deployment path (the `network` crate, the
//!   canonical codec, the crypto pipeline, the worker pool) must turn bad
//!   input into typed errors, never into a crashed replica.
//! * **Wire-format conformance** — every tagged type's encode and decode
//!   sides must agree, tags must be unique, and the human-readable
//!   `docs/WIRE_FORMAT.md` must match what the code actually does.
//! * **Hygiene** — every crate forbids `unsafe` except the one audited
//!   seam (the SHA-NI call in `third_party/sha2`), and channels outside
//!   tests are bounded (`sync_channel`) so back-pressure is explicit.
//!
//! The analyzer is dependency-free by design: the build environment has no
//! registry access, so it ships its own comment- and string-aware Rust
//! lexer ([`lexer`]) and matches invariants on the token stream. That makes
//! it a *lint*, not a verifier — it errs toward simple, reviewable rules
//! with an explicit, reasoned escape hatch (see [`rules`]) rather than
//! whole-program analysis.
//!
//! See `docs/LINTS.md` for the rule catalog and the suppression syntax.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod wire;
pub mod workspace;

use std::fmt;
use std::path::PathBuf;

/// The rule families the analyzer enforces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a deterministic layer: iteration order is
    /// arbitrary, and anything that iterates such a map can diverge across
    /// replicas.
    HashCollection,
    /// `Instant`, `SystemTime`, or `thread::sleep` in a deterministic
    /// layer: replicas reading their own clocks diverge.
    WallClock,
    /// `unwrap`/`expect`/`panic!`-family calls on the deployment path: bad
    /// input must become a typed error, not a crashed replica.
    Panic,
    /// `mpsc::channel()` outside tests: unbounded queues hide back-pressure
    /// until a replica dies of memory exhaustion.
    UnboundedChannel,
    /// A crate root missing `#![forbid(unsafe_code)]` (`deny` on the one
    /// seam crate's root).
    ForbidUnsafe,
    /// An `unsafe` keyword anywhere but the one annotated seam.
    Unsafe,
    /// A malformed or unreasoned suppression annotation.
    AllowSyntax,
    /// A wire-format type whose encode and decode tag maps disagree.
    WireSymmetry,
    /// A wire-format type assigning one tag to two variants (or two tags to
    /// one variant) on the same side.
    WireUniqueTags,
    /// `docs/WIRE_FORMAT.md` does not match the grammar extracted from the
    /// code.
    WireDocDrift,
}

impl Rule {
    /// Every rule, in severity-agnostic catalog order.
    pub const ALL: [Rule; 10] = [
        Rule::HashCollection,
        Rule::WallClock,
        Rule::Panic,
        Rule::UnboundedChannel,
        Rule::ForbidUnsafe,
        Rule::Unsafe,
        Rule::AllowSyntax,
        Rule::WireSymmetry,
        Rule::WireUniqueTags,
        Rule::WireDocDrift,
    ];

    /// The kebab-case rule id used in diagnostics and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashCollection => "hash-collection",
            Rule::WallClock => "wall-clock",
            Rule::Panic => "panic",
            Rule::UnboundedChannel => "unbounded-channel",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::Unsafe => "unsafe",
            Rule::AllowSyntax => "allow-syntax",
            Rule::WireSymmetry => "wire-symmetry",
            Rule::WireUniqueTags => "wire-unique-tags",
            Rule::WireDocDrift => "wire-doc-drift",
        }
    }

    /// Looks a rule up by its kebab-case id.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|rule| rule.name() == name)
    }

    /// Whether a line annotation may suppress this rule. Only the per-line
    /// source rules are suppressible; structural rules (missing forbid,
    /// wire drift) have no meaningful single-line escape hatch. `unsafe`
    /// is suppressible once, in the seam file only ([`rules`]).
    pub fn suppressible(self) -> bool {
        matches!(
            self,
            Rule::HashCollection
                | Rule::WallClock
                | Rule::Panic
                | Rule::UnboundedChannel
                | Rule::Unsafe
        )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a rule violated at a source location.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line of the finding.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The trimmed source line, for context.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )?;
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        Ok(())
    }
}

pub use rules::{check_file, FileScope};
pub use workspace::{analyze_workspace, find_workspace_root, Analysis};
