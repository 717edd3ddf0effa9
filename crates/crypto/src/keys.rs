//! Deterministic key-material generation for a whole deployment.
//!
//! A trusted dealer derives, from the deployment seed: one signing key pair
//! per replica and per client, and one pairwise MAC key per unordered pair
//! of parties. This is the standard setup assumption of PBFT-style systems
//! ("keys are distributed out of band").

use crate::mac::MacKey;
use crate::signature::{KeyPair, PublicKey};
use rcc_common::{ClientId, ReplicaId, SystemConfig};
use sha2::{Digest as _, Sha256};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a party in the key hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Party {
    /// A consensus replica.
    Replica(ReplicaId),
    /// A client.
    Client(ClientId),
}

fn derive(seed: u64, label: &str, a: u64, b: u64) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(seed.to_be_bytes());
    hasher.update(label.as_bytes());
    hasher.update(a.to_be_bytes());
    hasher.update(b.to_be_bytes());
    hasher.finalize().into()
}

/// The pairwise MAC key of `a` and `b` (symmetric in its arguments). Each
/// party enters the hash as a kind byte plus its full 64-bit id, ordered by
/// (kind, id), so two distinct pairs never hash the same input, whatever
/// id a client claims.
fn pairwise_key(seed: u64, a: Party, b: Party) -> MacKey {
    let tagged = |party: Party| match party {
        Party::Replica(r) => (0u8, u64::from(r.0)),
        Party::Client(c) => (1u8, c.0),
    };
    let mut pair = [tagged(a), tagged(b)];
    pair.sort_unstable();
    let mut hasher = Sha256::new();
    hasher.update(seed.to_be_bytes());
    hasher.update(b"pairwise-mac");
    for (kind, id) in pair {
        hasher.update([kind]);
        hasher.update(id.to_be_bytes());
    }
    MacKey::from_bytes(hasher.finalize().into())
}

/// The dealer's view of all key material of a deployment.
#[derive(Clone)]
pub struct DeploymentKeys {
    seed: u64,
    n: usize,
    replica_signing: Vec<Arc<KeyPair>>,
    replica_public: Vec<PublicKey>,
    client_public: HashMap<ClientId, PublicKey>,
}

impl DeploymentKeys {
    /// Generates all key material for `config`.
    pub fn generate(config: &SystemConfig) -> Self {
        let seed = config.seed;
        let replica_signing: Vec<Arc<KeyPair>> = (0..config.n)
            .map(|i| {
                Arc::new(KeyPair::from_seed(derive(
                    seed,
                    "replica-sign",
                    i as u64,
                    0,
                )))
            })
            .collect();
        let replica_public = replica_signing.iter().map(|kp| kp.public_key()).collect();
        DeploymentKeys {
            seed,
            n: config.n,
            replica_signing,
            replica_public,
            client_public: HashMap::new(),
        }
    }

    /// Number of replicas covered by this key material.
    pub fn replica_count(&self) -> usize {
        self.n
    }

    /// The pairwise MAC key shared by `a` and `b` (symmetric in its
    /// arguments).
    pub fn pairwise_mac(&self, a: Party, b: Party) -> MacKey {
        pairwise_key(self.seed, a, b)
    }

    /// The signing key pair of a client, derived on demand.
    pub fn client_keypair(&self, client: ClientId) -> KeyPair {
        KeyPair::from_seed(derive(self.seed, "client-sign", client.0, 0))
    }

    /// Registers (and returns) the public key of a client.
    pub fn client_public(&mut self, client: ClientId) -> PublicKey {
        if let Some(pk) = self.client_public.get(&client) {
            return *pk;
        }
        let pk = self.client_keypair(client).public_key();
        self.client_public.insert(client, pk);
        pk
    }

    /// Produces the key bundle handed to one replica.
    pub fn replica_keys(&self, replica: ReplicaId) -> ReplicaKeys {
        let mut mac_with_replicas = Vec::with_capacity(self.n);
        for other in ReplicaId::all(self.n) {
            mac_with_replicas
                .push(self.pairwise_mac(Party::Replica(replica), Party::Replica(other)));
        }
        ReplicaKeys {
            replica,
            seed: self.seed,
            signing: Arc::clone(&self.replica_signing[replica.index()]),
            replica_public: self.replica_public.clone(),
            mac_with_replicas,
        }
    }

    /// Produces the key bundle handed to one client.
    pub fn client_keys(&self, client: ClientId) -> ClientKeys {
        let mac_with_replicas = ReplicaId::all(self.n)
            .map(|r| self.pairwise_mac(Party::Client(client), Party::Replica(r)))
            .collect();
        ClientKeys {
            client,
            signing: Arc::new(self.client_keypair(client)),
            replica_public: self.replica_public.clone(),
            mac_with_replicas,
        }
    }
}

/// Key material held by a single replica.
#[derive(Clone)]
pub struct ReplicaKeys {
    /// The replica owning this bundle.
    pub replica: ReplicaId,
    seed: u64,
    /// This replica's signing key.
    pub signing: Arc<KeyPair>,
    /// Public keys of all replicas, indexed by replica index.
    pub replica_public: Vec<PublicKey>,
    /// Pairwise MAC keys with every replica, indexed by replica index.
    pub mac_with_replicas: Vec<MacKey>,
}

impl ReplicaKeys {
    /// The pairwise MAC key shared with `other`; `None` when `other` is not
    /// a replica of this deployment.
    pub fn mac_with(&self, other: ReplicaId) -> Option<&MacKey> {
        self.mac_with_replicas.get(other.index())
    }

    /// The pairwise MAC key shared with a client (derived on demand).
    pub fn mac_with_client(&self, client: ClientId) -> MacKey {
        pairwise_key(
            self.seed,
            Party::Replica(self.replica),
            Party::Client(client),
        )
    }

    /// The public key of another replica.
    pub fn public_of(&self, other: ReplicaId) -> Option<&PublicKey> {
        self.replica_public.get(other.index())
    }
}

/// Key material held by a single client.
#[derive(Clone)]
pub struct ClientKeys {
    /// The client owning this bundle.
    pub client: ClientId,
    /// The client's signing key.
    pub signing: Arc<KeyPair>,
    /// Public keys of all replicas.
    pub replica_public: Vec<PublicKey>,
    /// Pairwise MAC keys with every replica, indexed by replica index.
    pub mac_with_replicas: Vec<MacKey>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> DeploymentKeys {
        DeploymentKeys::generate(&SystemConfig::new(4).with_seed(123))
    }

    #[test]
    fn pairwise_keys_are_symmetric_and_distinct() {
        let d = keys();
        let a = Party::Replica(ReplicaId(0));
        let b = Party::Replica(ReplicaId(1));
        let c = Party::Replica(ReplicaId(2));
        assert_eq!(d.pairwise_mac(a, b), d.pairwise_mac(b, a));
        assert_ne!(d.pairwise_mac(a, b), d.pairwise_mac(a, c));
    }

    #[test]
    fn replica_bundles_share_pairwise_keys() {
        let d = keys();
        let r0 = d.replica_keys(ReplicaId(0));
        let r1 = d.replica_keys(ReplicaId(1));
        let tag = r0.mac_with(ReplicaId(1)).unwrap().tag(b"hello");
        assert!(r1.mac_with(ReplicaId(0)).unwrap().verify(b"hello", &tag));
        assert!(r1.mac_with(ReplicaId(4)).is_none());
    }

    #[test]
    fn client_and_replica_share_a_mac_key() {
        let d = keys();
        let c = d.client_keys(ClientId(9));
        let r = d.replica_keys(ReplicaId(2));
        let tag = c.mac_with_replicas[2].tag(b"request");
        assert!(r.mac_with_client(ClientId(9)).verify(b"request", &tag));
    }

    #[test]
    fn wire_supplied_client_ids_never_overflow_into_replica_keys() {
        // `ClientId` comes straight off the socket: no id, however large,
        // may panic or derive a key that two replicas share.
        let d = keys();
        let replica_pairs: Vec<MacKey> = ReplicaId::all(4)
            .flat_map(|a| ReplicaId::all(4).map(move |b| (a, b)))
            .map(|(a, b)| d.pairwise_mac(Party::Replica(a), Party::Replica(b)))
            .collect();
        for client in [ClientId(u64::MAX - 999_999_997), ClientId(u64::MAX)] {
            let bundle = d.client_keys(client);
            for r in ReplicaId::all(4) {
                let key = d.replica_keys(r).mac_with_client(client);
                assert_eq!(key, bundle.mac_with_replicas[r.index()], "{client:?}, {r}");
                assert!(
                    !replica_pairs.contains(&key),
                    "{client:?} shares a replica-pair key with {r}"
                );
            }
        }
    }

    #[test]
    fn replica_signatures_verify_against_registry() {
        let d = keys();
        let r3 = d.replica_keys(ReplicaId(3));
        let sig = r3.signing.sign(b"vote");
        let r0 = d.replica_keys(ReplicaId(0));
        assert!(r0.public_of(ReplicaId(3)).unwrap().verify(b"vote", &sig));
        assert!(!r0.public_of(ReplicaId(2)).unwrap().verify(b"vote", &sig));
    }

    #[test]
    fn different_seeds_produce_different_keys() {
        let a = DeploymentKeys::generate(&SystemConfig::new(4).with_seed(1));
        let b = DeploymentKeys::generate(&SystemConfig::new(4).with_seed(2));
        let ka = a.replica_keys(ReplicaId(0));
        let kb = b.replica_keys(ReplicaId(0));
        assert_ne!(ka.signing.public_key(), kb.signing.public_key());
    }

    #[test]
    fn client_public_keys_are_cached_and_stable() {
        let mut d = keys();
        let p1 = d.client_public(ClientId(5));
        let p2 = d.client_public(ClientId(5));
        assert_eq!(p1, p2);
        let kp = d.client_keypair(ClientId(5));
        assert_eq!(kp.public_key(), p1);
    }
}
