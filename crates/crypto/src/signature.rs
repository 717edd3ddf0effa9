//! ED25519 digital signatures.
//!
//! Client transactions are always signed; in the `PublicKey` authentication
//! mode every replica message is signed as well (the expensive configuration
//! of Fig. 7 right).

use ed25519_dalek::{Signer, Verifier};
use serde::{Deserialize, Serialize};

/// An ED25519 signing key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    signing: ed25519_dalek::SigningKey,
}

/// An ED25519 public (verifying) key.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PublicKey {
    bytes: [u8; 32],
}

/// An ED25519 signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Signature {
    #[serde(with = "serde_sig_bytes")]
    bytes: [u8; 64],
}

/// Serde helper for 64-byte arrays (serde only derives up to 32 elements).
#[expect(
    dead_code,
    reason = "the offline no-op `serde` stand-in never references `with`-helpers; the real \
              derive does, and then this expectation fails (see `third_party/README.md`)"
)]
mod serde_sig_bytes {
    use serde::{Deserialize, Deserializer, Serializer};

    // unused-pub: allow — only `#[serde(with)]` above names it; goes with the facade
    pub fn serialize<S: Serializer>(bytes: &[u8; 64], serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(bytes)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<[u8; 64], D::Error> {
        let v = Vec::<u8>::deserialize(deserializer)?;
        v.try_into()
            .map_err(|_| serde::de::Error::custom("expected 64 bytes"))
    }
}

impl KeyPair {
    /// Deterministically derives a key pair from a 32-byte seed. The trusted
    /// dealer in [`crate::keys`] derives per-party seeds from the deployment
    /// seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        KeyPair {
            signing: ed25519_dalek::SigningKey::from_bytes(&seed),
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            bytes: self.signing.verifying_key().to_bytes(),
        }
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            bytes: self.signing.sign(message).to_bytes(),
        }
    }
}

impl PublicKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let Ok(key) = ed25519_dalek::VerifyingKey::from_bytes(&self.bytes) else {
            return false;
        };
        let sig = ed25519_dalek::Signature::from_bytes(&signature.bytes);
        key.verify(message, &sig).is_ok()
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

impl Signature {
    /// Builds a signature from raw bytes (the wire decoder's constructor;
    /// validity is established by verification, not by construction).
    pub fn from_bytes(bytes: [u8; 64]) -> Self {
        Signature { bytes }
    }

    /// Raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.bytes
    }
}

impl rcc_common::Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bytes);
    }
}

impl rcc_common::Decode for Signature {
    fn decode(input: &mut rcc_common::Reader<'_>) -> Result<Self, rcc_common::WireError> {
        Ok(Signature {
            bytes: input.array()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed([3u8; 32]);
        let sig = kp.sign(b"transaction");
        assert!(kp.public_key().verify(b"transaction", &sig));
    }

    #[test]
    fn verification_rejects_tampering() {
        let kp = KeyPair::from_seed([3u8; 32]);
        let sig = kp.sign(b"transaction");
        assert!(!kp.public_key().verify(b"transactioN", &sig));
    }

    #[test]
    fn verification_rejects_wrong_signer() {
        let a = KeyPair::from_seed([1u8; 32]);
        let b = KeyPair::from_seed([2u8; 32]);
        let sig = a.sign(b"m");
        assert!(!b.public_key().verify(b"m", &sig));
    }

    #[test]
    fn key_derivation_is_deterministic() {
        let a = KeyPair::from_seed([9u8; 32]);
        let b = KeyPair::from_seed([9u8; 32]);
        assert_eq!(a.public_key(), b.public_key());
    }
}
