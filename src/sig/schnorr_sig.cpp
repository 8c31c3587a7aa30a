#include "sig/schnorr_sig.h"

#include "crypto/sha256.h"
#include "metrics/counters.h"

namespace p2pcash::sig {

using bn::BigInt;

namespace {

/// e = H(R || y || m), shared by signing and verify().
BigInt challenge_hash(const group::SchnorrGroup& grp, const BigInt& r_point,
                      const BigInt& y,
                      const std::vector<std::uint8_t>& message) {
  crypto::Sha256 h;
  h.update(std::string_view("p2pcash/schnorr-sig/v1"));
  auto put = [&h](const std::vector<std::uint8_t>& bytes) {
    std::uint8_t len_be[4] = {static_cast<std::uint8_t>(bytes.size() >> 24),
                              static_cast<std::uint8_t>(bytes.size() >> 16),
                              static_cast<std::uint8_t>(bytes.size() >> 8),
                              static_cast<std::uint8_t>(bytes.size())};
    h.update(std::span<const std::uint8_t>(len_be, 4));
    h.update(bytes);
  };
  put(r_point.to_bytes_be());
  put(y.to_bytes_be());
  put(message);
  auto digest = h.finalize();
  return bn::mod(BigInt::from_bytes_be(digest), grp.q());
}

}  // namespace

std::string PublicKey::fingerprint() const {
  auto digest = crypto::Sha256::hash(y.to_bytes_be());
  return crypto::digest_to_hex(digest).substr(0, 16);
}

KeyPair KeyPair::generate(const group::SchnorrGroup& grp, bn::Rng& rng) {
  BigInt x = grp.random_scalar(rng);
  return from_secret(grp, x);
}

KeyPair KeyPair::from_secret(const group::SchnorrGroup& grp,
                             const bn::BigInt& x) {
  metrics::ScopedSuspendOpCounting suspend;
  PublicKey pub{grp.exp_g(x)};
  return KeyPair(grp, x, std::move(pub));
}

Signature KeyPair::sign(const std::vector<std::uint8_t>& message,
                        bn::Rng& rng) const {
  metrics::count_sig();
  metrics::ScopedSuspendOpCounting suspend;
  BigInt k = grp_.random_scalar(rng);
  BigInt r_point = grp_.exp_g(k);
  BigInt e = challenge_hash(grp_, r_point, pub_.y, message);
  BigInt s = bn::mod(k + e * x_, grp_.q());
  k.wipe();  // a leaked nonce recovers x from s = k + e*x
  return Signature{std::move(e), std::move(s)};
}

bool verify(const group::SchnorrGroup& grp, const PublicKey& pk,
            const std::vector<std::uint8_t>& message, const Signature& sig) {
  metrics::count_ver();
  metrics::ScopedSuspendOpCounting suspend;
  if (sig.e.is_negative() || sig.e >= grp.q()) return false;
  if (sig.s.is_negative() || sig.s >= grp.q()) return false;
  if (!grp.is_element(pk.y)) return false;
  // R' = g^s * y^{-e} = g^s * y^{q-e}
  BigInt r_point = grp.exp2(grp.g(), sig.s, pk.y,
                            bn::mod_sub(BigInt{0}, sig.e, grp.q()));
  return challenge_hash(grp, r_point, pk.y, message) == sig.e;
}

}  // namespace p2pcash::sig
