//! A unified per-replica message authenticator.
//!
//! Protocol state machines never manipulate keys directly: they hand the
//! bytes of an outgoing message to their [`Authenticator`], which applies the
//! configured [`CryptoMode`] (nothing, pairwise MACs, or signatures) and
//! verifies the corresponding tag on incoming messages. This mirrors the
//! authentication layer of ResilientDB and keeps Fig. 7's None/MAC/PK
//! comparison a pure configuration change.

use crate::keys::ReplicaKeys;
use crate::mac::MacTag;
use crate::signature::Signature;
use rcc_common::{ClientId, CryptoMode, Error, ReplicaId, Result};
use serde::{Deserialize, Serialize};

/// The authentication tag attached to a replica-to-replica message.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AuthTag {
    /// No authentication ([`CryptoMode::None`]).
    None,
    /// A pairwise MAC ([`CryptoMode::Mac`]).
    Mac(MacTag),
    /// A digital signature ([`CryptoMode::PublicKey`]).
    Signature(Signature),
}

impl AuthTag {
    /// How many bytes [`rcc_common::Encode::encode`] writes for this tag:
    /// the kind byte and the MAC or signature behind it.
    pub fn encoded_len(&self) -> usize {
        match self {
            AuthTag::None => 1,
            AuthTag::Mac(_) => 1 + 32,
            AuthTag::Signature(_) => 1 + 64,
        }
    }
}

impl rcc_common::Encode for AuthTag {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AuthTag::None => out.push(0),
            AuthTag::Mac(mac) => {
                out.push(1);
                mac.encode(out);
            }
            AuthTag::Signature(sig) => {
                out.push(2);
                sig.encode(out);
            }
        }
    }
}

impl rcc_common::Decode for AuthTag {
    fn decode(
        input: &mut rcc_common::Reader<'_>,
    ) -> std::result::Result<Self, rcc_common::WireError> {
        Ok(match input.u8()? {
            0 => AuthTag::None,
            1 => AuthTag::Mac(MacTag::decode(input)?),
            2 => AuthTag::Signature(Signature::decode(input)?),
            tag => {
                return Err(rcc_common::WireError::InvalidTag {
                    context: "AuthTag",
                    tag,
                })
            }
        })
    }
}

/// Authenticates outgoing messages and verifies incoming ones for a single
/// replica.
#[derive(Clone)]
pub struct Authenticator {
    mode: CryptoMode,
    keys: ReplicaKeys,
}

impl Authenticator {
    /// Creates the authenticator for one replica.
    pub fn new(mode: CryptoMode, keys: ReplicaKeys) -> Self {
        Authenticator { mode, keys }
    }

    /// The configured authentication mode.
    pub fn mode(&self) -> CryptoMode {
        self.mode
    }

    /// The replica this authenticator belongs to.
    pub fn replica(&self) -> ReplicaId {
        self.keys.replica
    }

    /// Authenticates `message` for transmission to `recipient`.
    pub fn tag_for_replica(&self, recipient: ReplicaId, message: &[u8]) -> AuthTag {
        match self.mode {
            CryptoMode::None => AuthTag::None,
            // The recipient is chosen by this replica, never by a peer.
            CryptoMode::Mac => AuthTag::Mac(
                self.keys
                    .mac_with(recipient)
                    .expect("recipient is a replica of this deployment")
                    .tag(message),
            ),
            CryptoMode::PublicKey => AuthTag::Signature(self.keys.signing.sign(message)),
        }
    }

    /// Authenticates `message` for transmission to a client.
    pub fn tag_for_client(&self, client: ClientId, message: &[u8]) -> AuthTag {
        match self.mode {
            CryptoMode::None => AuthTag::None,
            CryptoMode::Mac => AuthTag::Mac(self.keys.mac_with_client(client).tag(message)),
            CryptoMode::PublicKey => AuthTag::Signature(self.keys.signing.sign(message)),
        }
    }

    /// Verifies a message received from another replica.
    pub fn verify_from_replica(
        &self,
        sender: ReplicaId,
        message: &[u8],
        tag: &AuthTag,
    ) -> Result<()> {
        match (self.mode, tag) {
            (CryptoMode::None, _) => Ok(()),
            (CryptoMode::Mac, AuthTag::Mac(mac)) => {
                let key = self
                    .keys
                    .mac_with(sender)
                    .ok_or_else(|| Error::Authentication(format!("unknown replica {sender}")))?;
                if key.verify(message, mac) {
                    Ok(())
                } else {
                    Err(Error::Authentication(format!("bad MAC from {sender}")))
                }
            }
            (CryptoMode::PublicKey, AuthTag::Signature(sig)) => {
                let key = self
                    .keys
                    .public_of(sender)
                    .ok_or_else(|| Error::Authentication(format!("unknown replica {sender}")))?;
                if key.verify(message, sig) {
                    Ok(())
                } else {
                    Err(Error::Authentication(format!(
                        "bad signature from {sender}"
                    )))
                }
            }
            (mode, tag) => Err(Error::Authentication(format!(
                "tag {tag:?} does not match authentication mode {mode:?}"
            ))),
        }
    }

    /// Verifies a message received from a client.
    pub fn verify_from_client(
        &self,
        client: ClientId,
        message: &[u8],
        tag: &AuthTag,
    ) -> Result<()> {
        match (self.mode, tag) {
            (CryptoMode::None, _) => Ok(()),
            (CryptoMode::Mac, AuthTag::Mac(mac)) | (CryptoMode::PublicKey, AuthTag::Mac(mac)) => {
                // Clients always MAC their requests towards each replica in
                // the MAC configuration; in the PK configuration ResilientDB
                // still signs client transactions, which we accept below.
                if self.keys.mac_with_client(client).verify(message, mac) {
                    Ok(())
                } else {
                    Err(Error::Authentication(format!(
                        "bad client MAC from {client}"
                    )))
                }
            }
            (_, AuthTag::Signature(_)) => {
                // Client signature verification requires the client public
                // key registry, which replicas query from the deployment
                // keys; the runtime wires this check at admission time. At
                // the authenticator level we accept the envelope and leave
                // signature validation to the admission layer.
                Ok(())
            }
            (mode, tag) => Err(Error::Authentication(format!(
                "client tag {tag:?} does not match authentication mode {mode:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::DeploymentKeys;
    use rcc_common::SystemConfig;

    fn authenticators(mode: CryptoMode) -> (Authenticator, Authenticator) {
        let deployment = DeploymentKeys::generate(&SystemConfig::new(4).with_seed(7));
        (
            Authenticator::new(mode, deployment.replica_keys(ReplicaId(0))),
            Authenticator::new(mode, deployment.replica_keys(ReplicaId(1))),
        )
    }

    #[test]
    fn mac_mode_round_trips_and_rejects_tampering() {
        let (a, b) = authenticators(CryptoMode::Mac);
        let tag = a.tag_for_replica(ReplicaId(1), b"prepare");
        assert!(b
            .verify_from_replica(ReplicaId(0), b"prepare", &tag)
            .is_ok());
        assert!(b
            .verify_from_replica(ReplicaId(0), b"commit", &tag)
            .is_err());
    }

    #[test]
    fn signature_mode_round_trips_and_rejects_wrong_sender() {
        let (a, b) = authenticators(CryptoMode::PublicKey);
        let tag = a.tag_for_replica(ReplicaId(1), b"prepare");
        assert!(b
            .verify_from_replica(ReplicaId(0), b"prepare", &tag)
            .is_ok());
        // Claiming the message came from replica 2 must fail.
        assert!(b
            .verify_from_replica(ReplicaId(2), b"prepare", &tag)
            .is_err());
    }

    #[test]
    fn a_sender_outside_the_deployment_fails_authentication() {
        // The sender id is whatever a frame claims: a mangled one must be
        // an authentication failure, not an out-of-bounds key lookup.
        let (a, b) = authenticators(CryptoMode::Mac);
        let tag = a.tag_for_replica(ReplicaId(1), b"prepare");
        assert!(matches!(
            b.verify_from_replica(ReplicaId(59138), b"prepare", &tag),
            Err(Error::Authentication(_))
        ));
    }

    #[test]
    fn none_mode_accepts_everything() {
        let (a, b) = authenticators(CryptoMode::None);
        let tag = a.tag_for_replica(ReplicaId(1), b"prepare");
        assert_eq!(tag, AuthTag::None);
        assert!(b
            .verify_from_replica(ReplicaId(0), b"anything", &tag)
            .is_ok());
    }

    #[test]
    fn mismatched_tag_kind_is_rejected() {
        let (a, _) = authenticators(CryptoMode::Mac);
        let (_, b_pk) = authenticators(CryptoMode::PublicKey);
        let tag = a.tag_for_replica(ReplicaId(1), b"prepare");
        assert!(b_pk
            .verify_from_replica(ReplicaId(0), b"prepare", &tag)
            .is_err());
    }

    #[test]
    fn client_macs_verify_at_the_replica() {
        let deployment = DeploymentKeys::generate(&SystemConfig::new(4).with_seed(7));
        let client_keys = deployment.client_keys(ClientId(3));
        let replica = Authenticator::new(CryptoMode::Mac, deployment.replica_keys(ReplicaId(2)));
        let tag = AuthTag::Mac(client_keys.mac_with_replicas[2].tag(b"request"));
        assert!(replica
            .verify_from_client(ClientId(3), b"request", &tag)
            .is_ok());
        assert!(replica
            .verify_from_client(ClientId(4), b"request", &tag)
            .is_err());
    }
}
