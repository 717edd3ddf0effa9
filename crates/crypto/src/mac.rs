//! Message authentication codes with pairwise shared keys.
//!
//! ResilientDB's fast configuration authenticates replica-to-replica traffic
//! with CMAC-AES. We use HMAC-SHA256, which offers the same shared-key MAC
//! abstraction at comparable cost (see DESIGN.md substitution #2). Every
//! ordered pair of replicas (and every client/replica pair) shares a secret
//! key derived from the deployment seed by a trusted dealer, mirroring the
//! standard PBFT setup assumption.

use hmac::{Hmac, Mac as _};
use serde::{Deserialize, Serialize};
use sha2::Sha256;

type HmacSha256 = Hmac<Sha256>;

/// A shared MAC key between two parties.
///
/// Holds, beside the key bytes, the HMAC state already keyed with them:
/// keying compresses two pad blocks, which a vote-sized message would
/// otherwise pay again on every tag. `tag` and `verify` clone that state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MacKey {
    key: [u8; 32],
    keyed: HmacSha256,
}

impl PartialEq for MacKey {
    fn eq(&self, other: &Self) -> bool {
        // `keyed` is a function of `key`.
        self.key == other.key
    }
}

impl Eq for MacKey {}

/// A message authentication tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MacTag(pub [u8; 32]);

impl MacKey {
    /// Creates a key from raw bytes.
    pub fn from_bytes(key: [u8; 32]) -> Self {
        MacKey {
            key,
            keyed: HmacSha256::new_from_slice(&key).expect("HMAC accepts 32-byte keys"),
        }
    }

    /// Computes the MAC tag over `message`.
    pub fn tag(&self, message: &[u8]) -> MacTag {
        let mut mac = self.keyed.clone();
        mac.update(message);
        MacTag(mac.finalize().into_bytes().into())
    }

    /// Verifies a MAC tag over `message`.
    pub fn verify(&self, message: &[u8], tag: &MacTag) -> bool {
        // Constant-time comparison via the hmac crate's verify.
        let mut mac = self.keyed.clone();
        mac.update(message);
        mac.verify_slice(&tag.0).is_ok()
    }
}

impl rcc_common::Encode for MacTag {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl rcc_common::Decode for MacTag {
    fn decode(input: &mut rcc_common::Reader<'_>) -> Result<Self, rcc_common::WireError> {
        Ok(MacTag(input.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        let key = MacKey::from_bytes([7u8; 32]);
        let tag = key.tag(b"message");
        assert!(key.verify(b"message", &tag));
    }

    #[test]
    fn tampered_message_is_rejected() {
        let key = MacKey::from_bytes([7u8; 32]);
        let tag = key.tag(b"message");
        assert!(!key.verify(b"massage", &tag));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let key = MacKey::from_bytes([7u8; 32]);
        let other = MacKey::from_bytes([8u8; 32]);
        let tag = key.tag(b"message");
        assert!(!other.verify(b"message", &tag));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn a_tag_equals_the_one_captured_before_the_keyed_state_was_cached() {
        let key = MacKey::from_bytes([7u8; 32]);
        assert_eq!(
            hex(&key.tag(b"rcc known-answer message").0),
            "a40429263e1e84d3f9f035df805b517bdc12f287ec5976efe594435790d74825"
        );
    }

    /// RFC 4231 keys zero-padded to `MacKey`'s 32 bytes are the same HMAC
    /// key (RFC 2104 pads short keys with zeros), so cases 1 and 2 run
    /// through the cached state as they stand. Case 6 has a 131-byte key,
    /// which HMAC replaces by its SHA-256: that digest is the `MacKey`.
    #[test]
    fn rfc4231_vectors_through_the_cached_state() {
        fn padded(key: &[u8]) -> [u8; 32] {
            let mut out = [0u8; 32];
            out[..key.len()].copy_from_slice(key);
            out
        }
        let long_key = crate::hash::digest_bytes(&[0xaa; 131]);
        for (key, message, want) in [
            (
                padded(&[0x0b; 20]),
                &b"Hi There"[..],
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                padded(b"Jefe"),
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                *long_key.as_bytes(),
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ] {
            let key = MacKey::from_bytes(key);
            // Twice: the cached state must survive a use.
            for _ in 0..2 {
                let tag = key.tag(message);
                assert_eq!(hex(&tag.0), want);
                assert!(key.verify(message, &tag));
            }
        }
    }

    #[test]
    fn cached_and_fresh_keying_agree_over_seeded_messages() {
        let mut rng = rcc_common::SplitMix64::new(0x4d41);
        for _ in 0..1_000 {
            let mut key = [0u8; 32];
            key.fill_with(|| rng.next_u64() as u8);
            let message: Vec<u8> = (0..rng.next_below(6_001))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let mut fresh = HmacSha256::new_from_slice(&key).expect("any key length");
            fresh.update(&message);
            let fresh: [u8; 32] = fresh.finalize().into_bytes().into();
            let cached = MacKey::from_bytes(key);
            assert_eq!(cached.tag(&message).0, fresh, "{} bytes", message.len());
            assert!(cached.verify(&message, &MacTag(fresh)));
        }
    }

    #[test]
    fn keys_compare_by_their_bytes() {
        assert_eq!(MacKey::from_bytes([1; 32]), MacKey::from_bytes([1; 32]));
        assert_ne!(MacKey::from_bytes([1; 32]), MacKey::from_bytes([2; 32]));
    }

    #[test]
    fn tags_differ_across_keys_and_messages() {
        let k1 = MacKey::from_bytes([1u8; 32]);
        let k2 = MacKey::from_bytes([2u8; 32]);
        assert_ne!(k1.tag(b"m"), k2.tag(b"m"));
        assert_ne!(k1.tag(b"m"), k1.tag(b"n"));
    }
}
