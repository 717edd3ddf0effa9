//! Cryptographic substrate for the RCC reproduction.
//!
//! ResilientDB authenticates all communication: client transactions carry
//! digital signatures, replica-to-replica messages carry either CMAC-AES
//! message authentication codes or ED25519 signatures (Fig. 7 right). This
//! crate provides functional equivalents of each primitive:
//!
//! * [`hash`] — SHA-256 digests over requests, batches, messages, and ledger
//!   blocks.
//! * [`mac`] — HMAC-SHA256 message authentication codes with pairwise shared
//!   keys (stand-in for ResilientDB's CMAC-AES; same abstraction and
//!   comparable cost).
//! * [`signature`] — ED25519 digital signatures (via `ed25519-dalek`).
//! * [`authenticator`] — a unified per-replica authenticator that applies the
//!   configured [`rcc_common::CryptoMode`].
//! * [`keys`] — deterministic key-material generation for whole deployments.
//! * [`pipeline`] — the batch-verification stage: bursts of authentication
//!   checks fanned out to a worker pool, verdicts delivered in arrival order.
//! * [`cost`] — a calibrated CPU-cost model of every primitive, used by the
//!   discrete-event simulator instead of executing real cryptography for
//!   millions of simulated messages.

#![warn(missing_docs)]

pub mod authenticator;
pub mod cost;
pub mod hash;
pub mod keys;
pub mod mac;
pub mod pipeline;
pub mod signature;

pub use authenticator::{AuthTag, Authenticator};
pub use cost::{CryptoCostModel, CryptoOp};
pub use hash::{digest_batch, digest_bytes, digest_chain};
pub use keys::{ClientKeys, DeploymentKeys, ReplicaKeys};
pub use mac::{MacKey, MacTag};
pub use pipeline::{VerifyJob, VerifyPool, VerifySource};
pub use signature::{KeyPair, PublicKey, Signature};

/// Which SHA-256 compression kernel runs under every digest and MAC on this
/// host: `"x86-sha"` or `"portable"`, chosen by CPU capability alone.
pub use sha2::backend as hash_backend;
