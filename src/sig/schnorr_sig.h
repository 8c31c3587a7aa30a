// schnorr_sig.h — plain Schnorr signatures over the shared group.
//
// These are the "ordinary" signatures of the paper: Sig_B on witness-range
// assignments, Sig_{M_C} on witness commitments and payment transcripts.
// (The *coins* use the partially blind Abe–Okamoto signature in blindsig/.)
//
// Scheme (Schnorr, EdDSA-shaped): sk = x in Z_q, pk = y = g^x.
//   Sign(m):  k <- Z_q*, R = g^k, e = H(R || y || m), s = k + e*x mod q.
//   Verify:   R' = g^s * y^{-e}; accept iff e == H(R' || y || m).
// Signature = (e, s): 2 scalars, compact and malleability-free.
//
// Table-1 accounting: sign() counts 1 Sig, verify() counts 1 Ver; their
// internal exponentiations/hashes are suppressed (the paper counts plain
// signatures as whole units).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bn/bigint.h"
#include "bn/rng.h"
#include "group/schnorr_group.h"

namespace p2pcash::sig {

/// A Schnorr signature: challenge e and response s, both in Z_q.
struct Signature {
  bn::BigInt e;
  bn::BigInt s;

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Public verification key.
struct PublicKey {
  bn::BigInt y;

  /// Stable identifier: hex SHA-256 fingerprint of the key bytes.
  std::string fingerprint() const;

  friend bool operator==(const PublicKey&, const PublicKey&) = default;
};

/// Signing key pair.
class KeyPair {
 public:
  /// Generates a fresh key: x uniform in [1, q), y = g^x.
  static KeyPair generate(const group::SchnorrGroup& grp, bn::Rng& rng);
  /// Reconstructs from a known secret (tests / deterministic setups).
  static KeyPair from_secret(const group::SchnorrGroup& grp,
                             const bn::BigInt& x);

  /// Wipes the signing key x.
  ~KeyPair() { x_.wipe(); }
  KeyPair(const KeyPair&) = default;
  KeyPair& operator=(const KeyPair&) = default;
  KeyPair(KeyPair&&) noexcept = default;
  KeyPair& operator=(KeyPair&&) noexcept = default;

  const PublicKey& public_key() const { return pub_; }
  const bn::BigInt& secret() const { return x_; }

  /// Signs an arbitrary byte string.
  Signature sign(const std::vector<std::uint8_t>& message,
                 bn::Rng& rng) const;

 private:
  KeyPair(group::SchnorrGroup grp, bn::BigInt x, PublicKey pub)
      : grp_(std::move(grp)), x_(std::move(x)), pub_(std::move(pub)) {}

  group::SchnorrGroup grp_;
  bn::BigInt x_;  // ct-secret: x_
  PublicKey pub_;
};

/// Verifies `sig` on `message` under `pk`. Counts one Ver.
bool verify(const group::SchnorrGroup& grp, const PublicKey& pk,
            const std::vector<std::uint8_t>& message, const Signature& sig);

}  // namespace p2pcash::sig
