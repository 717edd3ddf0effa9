//! `rcc-node` — run RCC replicas, clients, and whole localhost clusters.
//!
//! ```text
//! rcc-node cluster [--replicas N] [--instances M] [--clients C]
//!                  [--batch-size B] [--crypto none|mac|pk] [--seed S]
//!                  [--duration-ms D] [--window W] [--in-process]
//!                  [--io-threads T] [--max-clients L]
//!                  [--min-completed Q] [--stats-out FILE]
//!                  [--telemetry-interval MS] [--telemetry-out FILE]
//!                  [--dump-events]
//!                  [--kill R --kill-after-ms K --down-for-ms T]
//!                  [--mangle-ppm P]
//!     Launch an N-replica localhost cluster (TCP by default) with C
//!     closed-loop client sessions, optionally kill-and-restart replica R
//!     mid-run, verify identical release orders and executed ledgers, and
//!     exit non-zero on any violation. This is the CI smoke scenario.
//!     `--mangle-ppm P` with P > 0 routes every replica's outbound
//!     consensus frames through a seeded `ByteMangler` (corruption,
//!     truncation, splices, duplicates, replays, reorders at P per
//!     million); 0, the default, leaves the wire alone. Safety (identical
//!     orders) is asserted under it as under `--kill`.
//!
//!     The client edge: every node multiplexes its client connections onto
//!     T readiness-sweep I/O threads (default 2) and admits at most L
//!     clients (default 4096; the excess is rejected so clients fail
//!     over). The C client sessions (each holding one connection per
//!     replica) are multiplexed through the fleet driver — `--clients 256`
//!     against 4 replicas is the ≥ 1,000-concurrent-connection edge smoke.
//!     `--min-completed Q`
//!     fails the run when fewer than Q batches completed their reply
//!     quorum (the CI throughput floor); `--stats-out FILE` writes the
//!     per-replica transport counters and per-session completion/latency
//!     statistics as CSV for artifact archiving (schema in
//!     `docs/EVALUATION.md`).
//!
//!     Telemetry: `--telemetry-interval MS` prints each node's live metric
//!     table to stderr every MS milliseconds and the final per-replica
//!     tables at run end; `--telemetry-out FILE` writes every replica's
//!     (and the fleet's) final snapshot plus flight trace as JSONL;
//!     `--dump-events` dumps the flight traces (σ-lag suspicions, view
//!     changes, admission rejections, reconnects) to stderr. A divergence
//!     or a missed `--min-completed` floor dumps the traces even without
//!     `--dump-events` — that is what the flight recorder is for.
//!
//! rcc-node replica --config FILE [--duration-ms D]
//!                  [--telemetry-interval MS] [--dump-events]
//!     Run one replica of a multi-process deployment described by a
//!     TOML-ish file (see `rcc_network::config`). Runs until the duration
//!     elapses, or forever when none is given.
//!
//! rcc-node client --config FILE --stream S [--window W] --duration-ms D
//!     Drive one closed-loop client session (workload stream S, homed on
//!     instance S mod m) against the deployment in FILE.
//! ```
//!
//! Every subcommand rejects a `--flag` it does not define (exit status 2,
//! usage on stderr) instead of running without it.

// Deployment path: bytes from a peer must not be able to panic it (docs/LINTS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_macros))]

use rcc_common::{CryptoMode, ReplicaId};
use rcc_network::cluster::{ClusterPlan, RestartPlan};
use rcc_network::{
    parse_deployment, queue_capacity, run_fleet, run_local_cluster, spawn_node,
    verify_identical_ledgers, verify_identical_orders, EdgeConfig, Endpoints, FleetPlan,
    MangleConfig, NodeConfig, TcpTransport, TransportKind,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

type Command = fn(&Flags) -> Result<(), String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (defined, command): (&[&str], Command) = match args.first().map(String::as_str) {
        Some("cluster") => (&CLUSTER_FLAGS, cmd_cluster),
        Some("replica") => (&REPLICA_FLAGS, cmd_replica),
        Some("client") => (&CLIENT_FLAGS, cmd_client),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{}", USAGE);
            return;
        }
        Some(other) => {
            eprintln!("rcc-node: unknown subcommand `{other}`\n{USAGE}");
            std::process::exit(1);
        }
    };
    let flags = match Flags::parse(&args[1..], defined) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("rcc-node: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(message) = command(&flags) {
        eprintln!("rcc-node: {message}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage:\n  rcc-node cluster [--replicas N] [--instances M] [--clients C] \
[--batch-size B] [--crypto none|mac|pk] [--seed S] [--duration-ms D] [--window W] \
[--in-process] [--io-threads T] [--max-clients L] \
[--min-completed Q] [--stats-out FILE] \
[--telemetry-interval MS] [--telemetry-out FILE] [--dump-events] \
[--kill R --kill-after-ms K --down-for-ms T] \
[--mangle-ppm P]\n  rcc-node replica --config FILE \
[--duration-ms D] [--telemetry-interval MS] [--dump-events]\n  rcc-node client --config FILE \
--stream S [--window W] --duration-ms D\n";

/// The flags each subcommand defines.
const CLUSTER_FLAGS: [&str; 20] = [
    "--replicas",
    "--instances",
    "--clients",
    "--batch-size",
    "--crypto",
    "--seed",
    "--duration-ms",
    "--window",
    "--in-process",
    "--io-threads",
    "--max-clients",
    "--min-completed",
    "--stats-out",
    "--telemetry-interval",
    "--telemetry-out",
    "--dump-events",
    "--kill",
    "--kill-after-ms",
    "--down-for-ms",
    "--mangle-ppm",
];
const REPLICA_FLAGS: [&str; 4] = [
    "--config",
    "--duration-ms",
    "--telemetry-interval",
    "--dump-events",
];
const CLIENT_FLAGS: [&str; 4] = ["--config", "--stream", "--window", "--duration-ms"];
/// The flags that take no value; every other flag takes exactly one.
const SWITCHES: [&str; 2] = ["--in-process", "--dump-events"];

/// A trivial `--flag value` scanner over the flags one subcommand defines.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    /// Checks `args` against the subcommand's `defined` flags. A flag the
    /// subcommand does not know — misspelt, or removed in a later version —
    /// is an error: the lookups below only ever search for the names they
    /// are asked for, so it would otherwise be dropped without a word and
    /// the run would quietly test something else.
    fn parse(args: &'a [String], defined: &[&str]) -> Result<Flags<'a>, String> {
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !defined.contains(&arg.as_str()) {
                return Err(format!("unknown flag `{arg}`"));
            }
            if !SWITCHES.contains(&arg.as_str()) && rest.next().is_none() {
                return Err(format!("{arg} expects a value"));
            }
        }
        Ok(Flags { args })
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn int(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(value) => value
                .parse()
                .map_err(|_| format!("{flag} expects an integer, got `{value}`")),
        }
    }
}

fn crypto_mode(name: &str) -> Result<CryptoMode, String> {
    match name {
        "none" => Ok(CryptoMode::None),
        "mac" => Ok(CryptoMode::Mac),
        "pk" => Ok(CryptoMode::PublicKey),
        other => Err(format!("--crypto expects none|mac|pk, got `{other}`")),
    }
}

fn cmd_cluster(flags: &Flags) -> Result<(), String> {
    let n = flags.int("--replicas", 4)? as usize;
    let mut system = rcc_common::SystemConfig::new(n)
        .with_instances(flags.int("--instances", 2)? as usize)
        .with_batch_size(flags.int("--batch-size", 100)? as usize)
        .with_seed(flags.int("--seed", rcc_common::config::DEFAULT_SEED)?);
    if let Some(mode) = flags.get("--crypto") {
        system.crypto = crypto_mode(mode)?;
    }
    let restart = match flags.get("--kill") {
        None => None,
        Some(replica) => {
            let index: u32 = replica
                .parse()
                .map_err(|_| format!("--kill expects a replica index, got `{replica}`"))?;
            if index as usize >= n {
                return Err(format!("--kill {index} is out of range for --replicas {n}"));
            }
            Some(RestartPlan {
                replica: ReplicaId(index),
                kill_after: Duration::from_millis(flags.int("--kill-after-ms", 800)?),
                down_for: Duration::from_millis(flags.int("--down-for-ms", 400)?),
            })
        }
    };
    let run_for = Duration::from_millis(flags.int("--duration-ms", 2_000)?);
    let rate_ppm = flags.int("--mangle-ppm", 0)? as u32;
    let mangle = (rate_ppm > 0).then(|| MangleConfig::new(system.seed, rate_ppm));
    let plan = ClusterPlan {
        system,
        transport: if flags.has("--in-process") {
            TransportKind::InProcess
        } else {
            TransportKind::Tcp
        },
        clients: flags.int("--clients", 2)? as usize,
        client_window: flags.int("--window", 4)? as usize,
        io_threads: {
            let threads =
                flags.int("--io-threads", rcc_network::DEFAULT_IO_THREADS as u64)? as usize;
            if threads == 0 {
                return Err("--io-threads must be at least 1".into());
            }
            threads
        },
        max_clients: {
            let cap = flags.int("--max-clients", rcc_network::DEFAULT_MAX_CLIENTS as u64)? as usize;
            if cap == 0 {
                return Err("--max-clients must be at least 1".into());
            }
            cap
        },
        run_for,
        restart,
        mangle,
        telemetry_interval: {
            let ms = flags.int("--telemetry-interval", 0)?;
            (ms > 0).then(|| Duration::from_millis(ms))
        },
    };
    plan.system.validate().map_err(|e| e.to_string())?;
    let min_completed = flags.int("--min-completed", 0)?;
    let stats_out = flags.get("--stats-out").map(str::to_string);
    let telemetry_out = flags.get("--telemetry-out").map(str::to_string);
    let dump_events = flags.has("--dump-events");

    eprintln!(
        "rcc-node cluster: n = {}, m = {}, {} clients, {:?}, {} ms{}",
        plan.system.n,
        plan.system.instances,
        plan.clients,
        plan.transport,
        plan.run_for.as_millis(),
        match plan.restart {
            Some(r) => format!(
                ", kill {} at {} ms for {} ms",
                r.replica,
                r.kill_after.as_millis(),
                r.down_for.as_millis()
            ),
            None => String::new(),
        }
    );
    if let Some(mangle) = plan.mangle {
        eprintln!(
            "rcc-node cluster: wire mangling at {} ppm (seed {})",
            mangle.rate_ppm, mangle.seed
        );
    }
    if plan.transport == TransportKind::Tcp {
        eprintln!(
            "rcc-node cluster: {} client sessions × {} replicas = {} edge connections, \
             {} edge I/O threads per node, admission cap {}",
            plan.clients,
            plan.system.n,
            plan.clients * plan.system.n,
            plan.io_threads,
            plan.max_clients,
        );
    }
    let outcome = run_local_cluster(&plan);
    for report in &outcome.reports {
        // How many frames each mailbox burst drained, and how many shared
        // each socket write to a peer (TCP only: in process nothing is
        // written).
        let mut coalescing = String::new();
        let telemetry = &report.telemetry;
        let bursts = telemetry.histogram("node.pipeline.burst_frames");
        if let Some(bursts) = bursts.filter(|bursts| bursts.count > 0) {
            coalescing += &format!(", {:.2} frames per burst", bursts.mean());
        }
        let writes = telemetry.counter("transport.peer_writes");
        if let Some(writes) = writes.filter(|&writes| writes > 0) {
            let frames = telemetry.counter("transport.peer_frames").unwrap_or(0);
            coalescing += &format!(
                ", {:.2} frames per peer write",
                frames as f64 / writes as f64
            );
        }
        println!(
            "{}: executed {} batches (window from round {}), {} replies, \
             {} suspicions, {} view changes, {} auth failures, {} decode failures, \
             {} dropped frames, {} rejected connections, peak {} clients{coalescing}",
            report.replica,
            report.executed_batches,
            report.execution_window_start,
            report.replies_sent,
            report.suspicions,
            report.view_changes,
            report.auth_failures,
            report.decode_failures,
            report.transport.dropped_frames,
            report.transport.rejected_connections,
            report.transport.peak_clients,
        );
    }
    // Wall-clock figures depend on it, so every log says which SHA-256
    // kernel its numbers were taken on.
    println!("hash backend: {}", rcc_crypto::hash_backend());
    // Per-client lines drown the summary past a handful of sessions; a
    // larger fleet is reported in aggregate instead.
    if outcome.clients.len() <= 8 {
        for client in &outcome.clients {
            println!(
                "client {}: {} submitted, {} completed, {} abandoned",
                client.stream, client.submitted, client.completed, client.abandoned
            );
        }
    } else {
        let submitted: u64 = outcome.clients.iter().map(|c| c.submitted).sum();
        let abandoned: u64 = outcome.clients.iter().map(|c| c.abandoned).sum();
        let served = outcome.clients.iter().filter(|c| c.completed > 0).count();
        println!(
            "clients: {} sessions ({} with ≥ 1 completed batch), {} submitted, \
             {} completed, {} abandoned",
            outcome.clients.len(),
            served,
            submitted,
            outcome.completed_batches(),
            abandoned
        );
    }
    if let Some(path) = stats_out {
        // Schema documented in docs/EVALUATION.md: replica rows carry the
        // transport counters, session rows the per-session completion and
        // latency statistics; fields foreign to a row kind stay empty.
        let mut csv = String::from(
            "kind,id,executed_batches,replies_sent,dropped_frames,\
             rejected_connections,peak_clients,submitted,completed,abandoned,\
             p50_latency_ms,p99_latency_ms\n",
        );
        for report in &outcome.reports {
            csv.push_str(&format!(
                "replica,{},{},{},{},{},{},,,,,\n",
                report.replica.0,
                report.executed_batches,
                report.replies_sent,
                report.transport.dropped_frames,
                report.transport.rejected_connections,
                report.transport.peak_clients,
            ));
        }
        for client in &outcome.clients {
            csv.push_str(&format!(
                "session,{},,,,,,{},{},{},{},{}\n",
                client.stream,
                client.submitted,
                client.completed,
                client.abandoned,
                client.p50_latency_ms,
                client.p99_latency_ms,
            ));
        }
        std::fs::write(&path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("rcc-node cluster: transport + session statistics written to {path}");
    }
    if plan.telemetry_interval.is_some() || telemetry_out.is_some() {
        for report in &outcome.reports {
            println!(
                "telemetry — {} (final):\n{}",
                report.replica,
                report.telemetry.to_table()
            );
        }
        println!(
            "telemetry — fleet (final):\n{}",
            outcome.fleet_telemetry.to_table()
        );
    }
    if let Some(path) = &telemetry_out {
        let mut body = String::new();
        for report in &outcome.reports {
            let label = format!("replica{}", report.replica.0);
            body.push_str(&report.telemetry.to_jsonl(&label));
            body.push_str(&rcc_telemetry::dump_jsonl(&report.flight, &label));
        }
        body.push_str(&outcome.fleet_telemetry.to_jsonl("fleet"));
        body.push_str(&rcc_telemetry::dump_jsonl(&outcome.fleet_flight, "fleet"));
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("rcc-node cluster: telemetry snapshots + flight traces written to {path}");
    }
    let dump_flight = |reason: &str| {
        eprintln!("--- flight dump ({reason}) ---");
        for report in &outcome.reports {
            let text = rcc_telemetry::dump_text(&report.flight);
            if !text.is_empty() {
                eprintln!("{} flight:\n{text}", report.replica);
            }
        }
        if !outcome.fleet_flight.is_empty() {
            eprintln!(
                "fleet flight:\n{}",
                rcc_telemetry::dump_text(&outcome.fleet_flight)
            );
        }
    };
    // A failed gate stamps a synthetic flight event describing the violation
    // (timestamped at the end of the recorded traces), so the dump shows what
    // tripped alongside the sequence that led there.
    let gate_stamp = outcome
        .reports
        .iter()
        .filter_map(|report| report.flight.last())
        .map(|event| event.at_nanos)
        .max()
        .unwrap_or(0);
    let dump_gate = |kind: rcc_telemetry::FlightEventKind| {
        eprint!(
            "gate:\n{}",
            rcc_telemetry::dump_text(&[rcc_telemetry::FlightEvent {
                at_nanos: gate_stamp,
                source: 0,
                kind,
            }])
        );
    };
    if dump_events {
        dump_flight("--dump-events");
    }
    if let Err(e) = verify_identical_orders(&outcome.reports)
        .and_then(|_| verify_identical_ledgers(&outcome.reports))
    {
        if !dump_events {
            dump_flight("divergence");
        }
        // Pin the diverging replica structurally (the first whose pairwise
        // check against replica 0 fails) rather than parsing the message.
        let suspect = outcome
            .reports
            .iter()
            .skip(1)
            .find(|report| {
                let pair = vec![outcome.reports[0].clone(), (*report).clone()];
                verify_identical_orders(&pair)
                    .and_then(|_| verify_identical_ledgers(&pair))
                    .is_err()
            })
            .map_or(0, |report| report.replica.0);
        dump_gate(rcc_telemetry::FlightEventKind::Divergence { replica: suspect });
        return Err(e);
    }
    if outcome.completed_batches() == 0 {
        if !dump_events {
            dump_flight("no completed batches");
        }
        dump_gate(rcc_telemetry::FlightEventKind::FloorViolation {
            observed: 0,
            floor: min_completed.max(1),
        });
        return Err("no client batch completed its reply quorum".into());
    }
    if outcome.completed_batches() < min_completed {
        if !dump_events {
            dump_flight("throughput floor missed");
        }
        dump_gate(rcc_telemetry::FlightEventKind::FloorViolation {
            observed: outcome.completed_batches(),
            floor: min_completed,
        });
        return Err(format!(
            "throughput floor missed: {} batches completed < --min-completed {}",
            outcome.completed_batches(),
            min_completed
        ));
    }
    for report in &outcome.reports {
        if report.executed_batches == 0 {
            return Err(format!("{} released nothing", report.replica));
        }
    }
    println!(
        "OK: identical release orders and executed ledgers on all {} replicas, \
         {} client batches completed",
        outcome.reports.len(),
        outcome.completed_batches()
    );
    Ok(())
}

fn read_deployment(flags: &Flags) -> Result<rcc_network::DeploymentFile, String> {
    let path = flags
        .get("--config")
        .ok_or_else(|| "--config FILE is required".to_string())?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read config {path}: {e}"))?;
    parse_deployment(&text)
}

fn parse_addrs(peers: &[String]) -> Result<Vec<SocketAddr>, String> {
    peers
        .iter()
        .map(|p| p.parse().map_err(|_| format!("invalid peer address `{p}`")))
        .collect()
}

fn cmd_replica(flags: &Flags) -> Result<(), String> {
    let file = read_deployment(flags)?;
    let replica = file
        .replica
        .ok_or_else(|| "config must set `replica = N`".to_string())?;
    let listen: SocketAddr = file
        .listen
        .as_deref()
        .ok_or_else(|| "config must set `listen = \"host:port\"`".to_string())?
        .parse()
        .map_err(|_| "invalid `listen` address".to_string())?;
    if file.peers.len() != file.system.n {
        return Err(format!(
            "config lists {} peers for n = {}",
            file.peers.len(),
            file.system.n
        ));
    }
    let peers = parse_addrs(&file.peers)?;
    let capacity = queue_capacity(&file.system);
    let edge = EdgeConfig {
        io_threads: file.io_threads,
        max_clients: file.max_clients,
    };
    let transport = TcpTransport::bind_with_edge(replica, listen, peers, capacity, edge)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    eprintln!(
        "rcc-node replica {replica}: listening on {listen} \
         ({} edge I/O threads, admission cap {})",
        file.io_threads, file.max_clients
    );
    let handle = spawn_node(
        NodeConfig {
            system: file.system,
            replica,
            execution_workers: rcc_network::DEFAULT_EXECUTION_WORKERS,
        },
        transport,
    )
    .map_err(|e| e.to_string())?;
    let deadline = match flags.get("--duration-ms") {
        Some(_) => Some(Instant::now() + Duration::from_millis(flags.int("--duration-ms", 0)?)),
        None => None, // run until killed
    };
    let interval = {
        let ms = flags.int("--telemetry-interval", 0)?;
        (ms > 0).then(|| Duration::from_millis(ms))
    };
    loop {
        let now = Instant::now();
        if let Some(deadline) = deadline {
            if now >= deadline {
                break;
            }
        }
        let mut chunk = interval.unwrap_or(Duration::from_secs(3600));
        if let Some(deadline) = deadline {
            chunk = chunk.min(deadline - now);
        }
        std::thread::sleep(chunk);
        if interval.is_some() {
            eprintln!(
                "telemetry — replica {replica}:\n{}",
                handle.telemetry().snapshot().to_table()
            );
        }
    }
    let report = handle.shutdown().map_err(|e| e.to_string())?;
    println!(
        "{}: executed {} batches, ledger head {}, {} dropped frames, \
         {} rejected connections, peak {} clients",
        report.replica,
        report.executed_batches,
        report.ledger_head.short_hex(),
        report.transport.dropped_frames,
        report.transport.rejected_connections,
        report.transport.peak_clients,
    );
    if flags.has("--dump-events") {
        let text = rcc_telemetry::dump_text(&report.flight);
        if !text.is_empty() {
            eprintln!("{} flight:\n{text}", report.replica);
        }
    }
    Ok(())
}

fn cmd_client(flags: &Flags) -> Result<(), String> {
    let file = read_deployment(flags)?;
    let window = flags.int("--window", 4)? as usize;
    let duration = Duration::from_millis(
        flags
            .get("--duration-ms")
            .ok_or_else(|| "--duration-ms is required".to_string())?
            .parse::<u64>()
            .map_err(|_| "--duration-ms expects an integer".to_string())?,
    );
    // A one-session fleet: the session dials every replica itself and
    // re-dials with capped backoff, so replicas that are still starting
    // (or restart mid-run) cost it time, not the run.
    let mut plan = FleetPlan::new(
        file.system,
        Endpoints::Tcp(parse_addrs(&file.peers)?),
        1,
        window,
        duration,
    );
    plan.first_stream = flags.int("--stream", 0)?;
    for client in run_fleet(&plan) {
        println!(
            "client {}: {} submitted, {} completed, {} abandoned",
            client.stream, client.submitted, client.completed, client.abandoned
        );
    }
    Ok(())
}
