// Plain Schnorr signatures.

#include "sig/schnorr_sig.h"

#include <gtest/gtest.h>

#include "crypto/chacha.h"
#include "metrics/counters.h"

namespace p2pcash::sig {
namespace {

using bn::BigInt;

const group::SchnorrGroup& grp() { return group::SchnorrGroup::test_256(); }

std::vector<std::uint8_t> msg(std::string_view s) { return {s.begin(), s.end()}; }

TEST(SchnorrSig, SignVerifyRoundTrip) {
  crypto::ChaChaRng rng("sig-rt");
  auto key = KeyPair::generate(grp(), rng);
  auto m = msg("pay to the bearer");
  auto signature = key.sign(m, rng);
  EXPECT_TRUE(verify(grp(), key.public_key(), m, signature));
}

TEST(SchnorrSig, WrongMessageFails) {
  crypto::ChaChaRng rng("sig-msg");
  auto key = KeyPair::generate(grp(), rng);
  auto signature = key.sign(msg("original"), rng);
  EXPECT_FALSE(verify(grp(), key.public_key(), msg("tampered"), signature));
  EXPECT_FALSE(verify(grp(), key.public_key(), msg(""), signature));
}

TEST(SchnorrSig, WrongKeyFails) {
  crypto::ChaChaRng rng("sig-key");
  auto key1 = KeyPair::generate(grp(), rng);
  auto key2 = KeyPair::generate(grp(), rng);
  auto m = msg("message");
  auto signature = key1.sign(m, rng);
  EXPECT_FALSE(verify(grp(), key2.public_key(), m, signature));
}

TEST(SchnorrSig, TamperedComponentsFail) {
  crypto::ChaChaRng rng("sig-tamper");
  auto key = KeyPair::generate(grp(), rng);
  auto m = msg("message");
  auto signature = key.sign(m, rng);
  auto bad_e = signature;
  bad_e.e = bn::mod(bad_e.e + BigInt{1}, grp().q());
  EXPECT_FALSE(verify(grp(), key.public_key(), m, bad_e));
  auto bad_s = signature;
  bad_s.s = bn::mod(bad_s.s + BigInt{1}, grp().q());
  EXPECT_FALSE(verify(grp(), key.public_key(), m, bad_s));
}

TEST(SchnorrSig, OutOfRangeScalarsRejected) {
  crypto::ChaChaRng rng("sig-range");
  auto key = KeyPair::generate(grp(), rng);
  auto m = msg("message");
  auto signature = key.sign(m, rng);
  auto oversized = signature;
  oversized.e = oversized.e + grp().q();  // same residue, non-canonical
  EXPECT_FALSE(verify(grp(), key.public_key(), m, oversized));
  auto negative = signature;
  negative.s = negative.s - grp().q();
  EXPECT_FALSE(verify(grp(), key.public_key(), m, negative));
}

TEST(SchnorrSig, BadPublicKeyRejected) {
  crypto::ChaChaRng rng("sig-pk");
  auto key = KeyPair::generate(grp(), rng);
  auto m = msg("message");
  auto signature = key.sign(m, rng);
  PublicKey outside{grp().p() - BigInt{1}};  // order-2 element, not in <g>
  EXPECT_FALSE(verify(grp(), outside, m, signature));
}

TEST(SchnorrSig, FromSecretReproducesKey) {
  crypto::ChaChaRng rng("sig-secret");
  auto key = KeyPair::generate(grp(), rng);
  auto again = KeyPair::from_secret(grp(), key.secret());
  EXPECT_EQ(key.public_key(), again.public_key());
}

TEST(SchnorrSig, SignaturesAreRandomized) {
  crypto::ChaChaRng rng("sig-rand");
  auto key = KeyPair::generate(grp(), rng);
  auto m = msg("same message");
  auto s1 = key.sign(m, rng);
  auto s2 = key.sign(m, rng);
  EXPECT_NE(s1, s2);  // fresh nonce per signature
  EXPECT_TRUE(verify(grp(), key.public_key(), m, s1));
  EXPECT_TRUE(verify(grp(), key.public_key(), m, s2));
}

TEST(SchnorrSig, Fingerprint) {
  crypto::ChaChaRng rng("sig-fp");
  auto k1 = KeyPair::generate(grp(), rng);
  auto k2 = KeyPair::generate(grp(), rng);
  EXPECT_EQ(k1.public_key().fingerprint().size(), 16u);
  EXPECT_NE(k1.public_key().fingerprint(), k2.public_key().fingerprint());
}

TEST(SchnorrSig, MetricsCountSigVerUnits) {
  crypto::ChaChaRng rng("sig-metrics");
  auto key = KeyPair::generate(grp(), rng);
  auto m = msg("count me");
  metrics::OpCounters ops;
  {
    metrics::ScopedOpCounting guard(ops);
    auto signature = key.sign(m, rng);
    (void)verify(grp(), key.public_key(), m, signature);
  }
  // One Sig + one Ver; the internal exponentiations must NOT leak into the
  // Exp column (the paper counts plain signatures as opaque units).
  EXPECT_EQ(ops.sig, 1u);
  EXPECT_EQ(ops.ver, 1u);
  EXPECT_EQ(ops.exp, 0u);
  EXPECT_EQ(ops.hash, 0u);
}

class SigGroupSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(SigGroupSizeTest, WorksInAllGroups) {
  const auto& g = GetParam() == 0 ? group::SchnorrGroup::test_256()
                                  : group::SchnorrGroup::test_512();
  crypto::ChaChaRng rng("sig-size");
  auto key = KeyPair::generate(g, rng);
  auto m = msg("any group");
  auto signature = key.sign(m, rng);
  EXPECT_TRUE(verify(g, key.public_key(), m, signature));
}

INSTANTIATE_TEST_SUITE_P(Groups, SigGroupSizeTest, ::testing::Values(0, 1));

}  // namespace
}  // namespace p2pcash::sig
