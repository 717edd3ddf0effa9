//! A minimal TOML-ish deployment-file parser for `rcc-node`.
//!
//! The build environment vendors no real TOML crate, so `rcc-node` reads a
//! deliberately tiny subset — flat `key = value` lines, `#` comments,
//! quoted strings, integers, and single-line string arrays:
//!
//! ```toml
//! # deployment
//! n = 4
//! instances = 2
//! batch_size = 100
//! crypto = "mac"          # none | mac | pk
//! seed = 42
//!
//! # this node
//! replica = 0
//! listen = "127.0.0.1:7100"
//! peers = ["127.0.0.1:7100", "127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
//! io_threads = 2          # client-edge sweep threads (readiness pool)
//! max_clients = 4096      # client-edge admission cap
//! ```
//!
//! Unknown keys are rejected (a typo silently ignored is a
//! misconfiguration shipped), as is anything the subset does not cover.

use rcc_common::{CryptoMode, ReplicaId, SystemConfig};

/// A parsed deployment file.
#[derive(Clone, Debug, PartialEq)]
pub struct DeploymentFile {
    /// The deployment configuration (n, m, batching, crypto, seed applied
    /// over [`SystemConfig::new`] defaults).
    pub system: SystemConfig,
    /// Which replica this node is (`replica = N`).
    pub replica: Option<ReplicaId>,
    /// The address this node listens on (`listen = "host:port"`).
    pub listen: Option<String>,
    /// Every replica's address, indexed by replica id (`peers = [...]`).
    pub peers: Vec<String>,
    /// Width of the client-edge I/O thread pool (`io_threads = N`;
    /// defaults to [`crate::event_loop::DEFAULT_IO_THREADS`]).
    pub io_threads: usize,
    /// Client-edge admission cap (`max_clients = N`; connections past it
    /// are rejected so clients fail over — defaults to
    /// [`crate::event_loop::DEFAULT_MAX_CLIENTS`]).
    pub max_clients: usize,
}

/// Parses the TOML-ish subset. Returns a human-readable error naming the
/// offending line.
pub fn parse_deployment(text: &str) -> Result<DeploymentFile, String> {
    let mut n: usize = 4;
    let mut instances: Option<usize> = None;
    let mut batch_size: Option<usize> = None;
    let mut crypto: Option<CryptoMode> = None;
    let mut seed: Option<u64> = None;
    let mut replica = None;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut io_threads = crate::event_loop::DEFAULT_IO_THREADS;
    let mut max_clients = crate::event_loop::DEFAULT_MAX_CLIENTS;

    for (number, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", number + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let context = |what: &str| format!("line {}: {what}", number + 1);
        match key {
            "n" => n = parse_int(value).ok_or_else(|| context("n must be an integer"))? as usize,
            "instances" => {
                instances = Some(
                    parse_int(value).ok_or_else(|| context("instances must be an integer"))?
                        as usize,
                )
            }
            "batch_size" => {
                batch_size = Some(
                    parse_int(value).ok_or_else(|| context("batch_size must be an integer"))?
                        as usize,
                )
            }
            "seed" => {
                seed = Some(parse_int(value).ok_or_else(|| context("seed must be an integer"))?)
            }
            "crypto" => {
                crypto = Some(match parse_string(value) {
                    Some("none") => CryptoMode::None,
                    Some("mac") => CryptoMode::Mac,
                    Some("pk") => CryptoMode::PublicKey,
                    _ => return Err(context("crypto must be \"none\", \"mac\", or \"pk\"")),
                })
            }
            "replica" => {
                replica = Some(ReplicaId(
                    parse_int(value).ok_or_else(|| context("replica must be an integer"))? as u32,
                ))
            }
            "listen" => {
                listen = Some(
                    parse_string(value)
                        .ok_or_else(|| context("listen must be a quoted string"))?
                        .to_string(),
                )
            }
            "peers" => {
                peers = parse_string_array(value)
                    .ok_or_else(|| context("peers must be a single-line array of strings"))?
            }
            "io_threads" => {
                io_threads = parse_int(value)
                    .filter(|&v| v >= 1)
                    .ok_or_else(|| context("io_threads must be a positive integer"))?
                    as usize
            }
            "max_clients" => {
                max_clients = parse_int(value)
                    .filter(|&v| v >= 1)
                    .ok_or_else(|| context("max_clients must be a positive integer"))?
                    as usize
            }
            other => return Err(context(&format!("unknown key `{other}`"))),
        }
    }

    let mut system = SystemConfig::new(n);
    if let Some(m) = instances {
        system.instances = m;
    }
    if let Some(batch) = batch_size {
        system.batch_size = batch;
    }
    if let Some(mode) = crypto {
        system.crypto = mode;
    }
    if let Some(seed) = seed {
        system.seed = seed;
    }
    system.validate().map_err(|e| e.to_string())?;
    Ok(DeploymentFile {
        system,
        replica,
        listen,
        peers,
        io_threads,
        max_clients,
    })
}

fn parse_int(value: &str) -> Option<u64> {
    value.parse().ok()
}

fn parse_string(value: &str) -> Option<&str> {
    value.strip_prefix('"')?.strip_suffix('"')
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_string(item.trim()).map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_deployment_file_parses() {
        let file = parse_deployment(
            r#"
            # deployment
            n = 4
            instances = 2
            batch_size = 50
            crypto = "pk"
            seed = 9

            replica = 1            # this node
            listen = "127.0.0.1:7101"
            peers = ["127.0.0.1:7100", "127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
            "#,
        )
        .expect("parses");
        assert_eq!(file.system.n, 4);
        assert_eq!(file.system.instances, 2);
        assert_eq!(file.system.batch_size, 50);
        assert_eq!(file.system.crypto, CryptoMode::PublicKey);
        assert_eq!(file.system.seed, 9);
        assert_eq!(file.replica, Some(ReplicaId(1)));
        assert_eq!(file.listen.as_deref(), Some("127.0.0.1:7101"));
        assert_eq!(file.peers.len(), 4);
    }

    #[test]
    fn the_removed_execution_workers_key_is_unknown() {
        // The pool it sized serves `pk` verification alone, at the width
        // every launcher passes; a file that still sets it is refused.
        assert!(parse_deployment("execution_workers = 4")
            .unwrap_err()
            .contains("unknown key `execution_workers`"));
    }

    #[test]
    fn edge_knobs_default_and_reject_zero() {
        let file = parse_deployment("n = 4").expect("parses");
        assert_eq!(file.io_threads, crate::event_loop::DEFAULT_IO_THREADS);
        assert_eq!(file.max_clients, crate::event_loop::DEFAULT_MAX_CLIENTS);
        let file = parse_deployment("io_threads = 3\nmax_clients = 128").expect("parses");
        assert_eq!(file.io_threads, 3);
        assert_eq!(file.max_clients, 128);
        assert!(parse_deployment("io_threads = 0")
            .unwrap_err()
            .contains("positive"));
        assert!(parse_deployment("max_clients = 0")
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn typos_and_malformed_values_are_rejected_with_line_numbers() {
        assert!(parse_deployment("replicas = 4")
            .unwrap_err()
            .contains("unknown key"));
        assert!(parse_deployment("n four").unwrap_err().contains("line 1"));
        assert!(parse_deployment("crypto = \"rsa\"")
            .unwrap_err()
            .contains("crypto"));
        // An invalid deployment (m > n) fails SystemConfig validation.
        assert!(parse_deployment("n = 4\ninstances = 9").is_err());
    }
}
