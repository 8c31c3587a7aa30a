#include "ecash/witness.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace p2pcash::ecash {

namespace {
// Sub-delta tags inside one journaled record (see witness.h: one record
// per state transition, applied atomically on replay).
constexpr std::uint8_t kDeltaCommitment = 1;
constexpr std::uint8_t kDeltaSpent = 2;
constexpr std::uint8_t kDeltaDoubleSpent = 3;
constexpr std::uint8_t kDeltaChain = 4;
constexpr std::uint8_t kDeltaSpentErase = 5;
constexpr std::uint8_t kDeltaCounters = 6;
}  // namespace

// One encoder and one decoder per persisted record.  The checkpoint
// (snapshot_state/restore_state) and the delta journal (Codec::delta/
// apply_delta) both go through these, so the two cannot drift apart.
// Braced initializers evaluate left to right, so each decoder reads its
// fields in the encoder's order.
struct WitnessService::Codec {
  static void put(wire::Writer& w, const Hash256& hash) { w.put_bytes(hash); }

  static void put(wire::Writer& w, const Hash256& hash,
                  const CommitmentRecord& record) {
    put(w, hash);
    record.commitment.encode(w);
    record.value.encode(w);
    w.put_u8(record.consumed ? 1 : 0);
  }
  static std::pair<Hash256, CommitmentRecord> commitment(wire::Reader& r) {
    return {read_hash(r),
            CommitmentRecord{WitnessCommitment::decode(r),
                             CommittedValue::decode(r), r.get_u8() != 0}};
  }

  static void put(wire::Writer& w, const Hash256& hash,
                  const SpentRecord& record) {
    put(w, hash);
    record.transcript.encode(w);
    record.endorsement.encode(w);
  }
  static std::pair<Hash256, SpentRecord> spent(wire::Reader& r) {
    return {read_hash(r), SpentRecord{PaymentTranscript::decode(r),
                                      WitnessEndorsement::decode(r)}};
  }

  static void put(wire::Writer& w, const Hash256& hash,
                  const DoubleSpentRecord& record) {
    put(w, hash);
    record.proof.encode(w);
  }
  static std::pair<Hash256, DoubleSpentRecord> double_spent(wire::Reader& r) {
    return {read_hash(r), DoubleSpentRecord{DoubleSpendProof::decode(r)}};
  }

  static void put(wire::Writer& w, const Hash256& hash,
                  const std::vector<TransferLink>& chain) {
    put(w, hash);
    w.put_u32(static_cast<std::uint32_t>(chain.size()));
    for (const auto& link : chain) link.encode(w);
  }
  static std::pair<Hash256, std::vector<TransferLink>> chain(wire::Reader& r) {
    std::pair<Hash256, std::vector<TransferLink>> out{read_hash(r), {}};
    for (std::uint32_t j = 0, m = r.get_u32(); j < m; ++j)
      out.second.push_back(TransferLink::decode(r));
    return out;
  }

  /// One tagged sub-delta: the tag, then the record's encoding.
  template <typename... Record>
  static void delta(wire::Writer& w, std::uint8_t tag, const Record&... rec) {
    w.put_u8(tag);
    put(w, rec...);
  }
};

WitnessService::WitnessService(group::SchnorrGroup grp,
                               sig::PublicKey broker_key, MerchantId id,
                               sig::KeyPair key, bn::Rng& rng)
    : grp_(std::move(grp)),
      broker_key_(std::move(broker_key)),
      id_(std::move(id)),
      key_(std::move(key)),
      rng_(rng) {}

Outcome<WitnessCommitment> WitnessService::request_commitment(
    const Hash256& coin_hash, const Hash256& nonce, Timestamp now) {
  store::StoreCommit store_commit(store_);
  Timestamp ttl;
  {
    sync::MutexLock lock(mu_);
    ttl = commitment_ttl_;
  }
  Stripe& s = stripe_for(coin_hash);
  sync::MutexLock lock(s.mu);
  auto it = s.commitments.find(coin_hash);
  if (it != s.commitments.end() && now < it->second.commitment.expires &&
      !it->second.consumed && it->second.commitment.nonce != nonce &&
      !s.spent.contains(coin_hash) && !s.double_spent.contains(coin_hash)) {
    // A different, still-pending transaction holds a live promise-to-sign
    // on this fresh coin ("must not issue new commitments ... until this
    // commitment expires").  Once the coin has a spend record the promise
    // is no longer dangerous — any further transcript can only yield a
    // double-spend proof — so new commitments are allowed.
    return Refusal{RefusalReason::kCommitmentOutstanding,
                   "live commitment exists until t_e"};
  }
  // Commit to what we currently know about the coin.
  CommittedValue value;
  if (auto ds = s.double_spent.find(coin_hash); ds != s.double_spent.end()) {
    value = CommittedValue::extracted(ds->second.proof.secrets);
  } else if (auto sp = s.spent.find(coin_hash); sp != s.spent.end()) {
    sync::MutexLock rng_lock(rng_mu_);
    value = CommittedValue::prior_transcript(sp->second.transcript, rng_);
  } else {
    sync::MutexLock rng_lock(rng_mu_);
    value = CommittedValue::fresh(rng_);
  }
  WitnessCommitment commitment;
  commitment.coin_hash = coin_hash;
  commitment.nonce = nonce;
  commitment.value_hash = value.hash();
  commitment.expires = now + ttl;
  commitment.witness = id_;
  {
    sync::MutexLock rng_lock(rng_mu_);
    commitment.witness_sig = key_.sign(commitment.signed_payload(), rng_);
  }
  s.commitments[coin_hash] =
      CommitmentRecord{commitment, std::move(value), /*consumed=*/false};
  wire::Writer w;
  Codec::delta(w, kDeltaCommitment, coin_hash, s.commitments[coin_hash]);
  journal(w);
  return commitment;
}

std::optional<std::size_t> WitnessService::own_entry_index(
    const Coin& coin, const Hash256& coin_hash) const {
  if (!check_witness_probe_sequence(coin, coin_hash)) return std::nullopt;
  for (std::size_t i = 0; i < coin.witnesses.size(); ++i) {
    if (coin.witnesses[i].merchant == id_) return i;
  }
  return std::nullopt;
}

std::optional<Outcome<SignResult>> WitnessService::sign_fast_path(
    const Hash256& coin_hash, const PaymentTranscript& transcript,
    bool faulty) const {
  const Stripe& s = stripe_for(coin_hash);
  sync::MutexLock lock(s.mu);
  // Coin already known double-spent — return the stored proof ("the
  // witness will either be spared all significant crypto operations").
  if (auto ds = s.double_spent.find(coin_hash); ds != s.double_spent.end()) {
    if (!faulty) return Outcome<SignResult>{SignResult{ds->second.proof}};
  }
  // Idempotent retry of the very same transcript: re-issue the endorsement
  // rather than treating the retransmission as a second spend.
  if (auto sp = s.spent.find(coin_hash);
      sp != s.spent.end() && sp->second.transcript == transcript) {
    return Outcome<SignResult>{SignResult{sp->second.endorsement}};
  }
  return std::nullopt;
}

Outcome<SignResult> WitnessService::sign_transcript(
    const PaymentTranscript& transcript, Timestamp now) {
  store::StoreCommit store_commit(store_);
  const Coin& coin = transcript.coin;
  const Hash256 coin_hash = coin.bare.coin_hash();
  const bool faulty = is_faulty();

  if (auto fast = sign_fast_path(coin_hash, transcript, faulty)) return *fast;

  // Full verification of the presented coin (ours? valid? unexpired?) and
  // its payment NIZK (1 Hash for d + 3 Exp).  Both run on immutable inputs
  // with no lock held; the spend state is re-checked in finish_sign.
  auto index = check_presented_coin(coin, coin_hash, now);
  if (!index) return index.refusal();
  if (!verify_transcript_proof(grp_, transcript))
    return Refusal{RefusalReason::kBadProof, "NIZK response invalid"};

  return finish_sign(transcript, coin_hash, now, faulty);
}

Outcome<SignResult> WitnessService::finish_sign(
    const PaymentTranscript& transcript, const Hash256& coin_hash,
    Timestamp now, bool faulty) {
  (void)now;  // binding freshness is judged against the stored expiry
  std::optional<DoubleSpendProof> stale_evidence;
  bool signed_new = false;
  // The state machine runs under the coin's stripe; the two mu_-guarded
  // side effects (stale-owner evidence, the signing counter) are deferred
  // until the stripe is released — mu_ sits above kShard and must never be
  // acquired while a stripe is held.
  Outcome<SignResult> result = [&]() -> Outcome<SignResult> {
    const Coin& coin = transcript.coin;
    Stripe& s = stripe_for(coin_hash);
    sync::MutexLock lock(s.mu);

    // Re-check the fast-path states: another payment of this coin may have
    // raced us between the unlocked verification and this lock.
    if (auto ds = s.double_spent.find(coin_hash);
        ds != s.double_spent.end()) {
      if (!faulty) return SignResult{ds->second.proof};
    }
    if (auto sp = s.spent.find(coin_hash);
        sp != s.spent.end() && sp->second.transcript == transcript) {
      return SignResult{sp->second.endorsement};
    }

    // Transfer-chain consistency: the coin must answer to the commitments
    // we currently hold it to.  A previous owner spending a stale copy
    // after transferring the coin away incriminates itself: its payment
    // response and the recorded transfer-link response open the same
    // commitments under different challenges.
    static const std::vector<TransferLink> kEmptyChain;
    auto chain_it = s.chains.find(coin_hash);
    const auto& recorded =
        chain_it == s.chains.end() ? kEmptyChain : chain_it->second;
    if (coin.transfers != recorded) {
      const bool is_prefix =
          coin.transfers.size() < recorded.size() &&
          std::equal(coin.transfers.begin(), coin.transfers.end(),
                     recorded.begin());
      if (is_prefix && !faulty) {
        const TransferLink& next = recorded[coin.transfers.size()];
        nizk::ChallengeResponse from_transfer{
            transfer_challenge(grp_, coin, next.new_a, next.new_b,
                               next.datetime),
            nizk::Response{next.r1, next.r2}};
        nizk::ChallengeResponse from_payment{
            payment_challenge(grp_, coin, transcript.merchant,
                              transcript.datetime),
            transcript.resp};
        if (auto extracted =
                nizk::extract(grp_, from_transfer, from_payment)) {
          // The proof opens the *stale* commitments: it incriminates the
          // previous owner but must not invalidate the coin for its
          // current holder — so it is kept as evidence, not as a
          // double-spend record.
          auto commitments = current_commitments(coin);
          DoubleSpendProof proof;
          proof.coin_hash = coin_hash;
          proof.a = commitments.a;
          proof.b = commitments.b;
          proof.secrets = *extracted;
          stale_evidence = proof;
          // The stale owner's commitment (if it obtained one) is
          // discharged by this refusal — it must not block the rightful
          // current owner.
          if (auto commit_it = s.commitments.find(coin_hash);
              commit_it != s.commitments.end() &&
              payment_nonce(transcript.salt, transcript.merchant) ==
                  commit_it->second.commitment.nonce) {
            commit_it->second.consumed = true;
            wire::Writer w;
            Codec::delta(w, kDeltaCommitment, coin_hash, commit_it->second);
            journal(w);
          }
          return SignResult{std::move(proof)};
        }
      }
      return Refusal{RefusalReason::kDoubleSpent,
                     "stale or divergent transfer chain"};
    }

    // Enforce the commitment binding: nonce must equal h(salt || I_M)
    // ("refusing transaction if this check fails").
    auto commit_it = s.commitments.find(coin_hash);
    if (commit_it == s.commitments.end())
      return Refusal{RefusalReason::kStaleRequest,
                     "no commitment requested for this coin"};
    const WitnessCommitment& commitment = commit_it->second.commitment;
    if (now >= commitment.expires)
      return Refusal{RefusalReason::kStaleRequest, "commitment expired"};
    if (payment_nonce(transcript.salt, transcript.merchant) !=
        commitment.nonce)
      return Refusal{RefusalReason::kBadNonce,
                     "nonce does not bind this merchant"};

    // Double-spend check: a prior transcript with a different challenge
    // lets us extract the representations (paper §6 footnote 4).
    if (auto sp = s.spent.find(coin_hash); sp != s.spent.end() && !faulty) {
      const PaymentTranscript& prior = sp->second.transcript;
      nizk::ChallengeResponse first{
          payment_challenge(grp_, prior.coin, prior.merchant,
                            prior.datetime),
          prior.resp};
      nizk::ChallengeResponse second{
          payment_challenge(grp_, coin, transcript.merchant,
                            transcript.datetime),
          transcript.resp};
      auto extracted = nizk::extract(grp_, first, second);
      if (!extracted) {
        // Identical challenge but different transcript bytes: a malformed
        // replay; refuse without proof.
        return Refusal{RefusalReason::kDoubleSpent,
                       "coin already spent (identical challenge)"};
      }
      auto commitments = current_commitments(coin);
      DoubleSpendProof proof;
      proof.coin_hash = coin_hash;
      proof.a = commitments.a;
      proof.b = commitments.b;
      proof.secrets = *extracted;
      // Keep only the proof; drop the transcripts (privacy: do not reveal
      // where the coin was first spent).
      s.double_spent[coin_hash] = DoubleSpentRecord{proof};
      s.spent.erase(coin_hash);
      commit_it->second.consumed = true;  // promise discharged by the proof
      wire::Writer w;
      Codec::delta(w, kDeltaDoubleSpent, coin_hash, s.double_spent[coin_hash]);
      Codec::delta(w, kDeltaSpentErase, coin_hash);
      Codec::delta(w, kDeltaCommitment, coin_hash, commit_it->second);
      journal(w);
      return SignResult{std::move(proof)};
    }

    // First (or faulty-witness) spend: countersign the transcript.
    WitnessEndorsement endorsement;
    endorsement.witness = id_;
    {
      sync::MutexLock rng_lock(rng_mu_);
      endorsement.signature = key_.sign(transcript.signed_payload(), rng_);
    }
    s.spent[coin_hash] = SpentRecord{transcript, endorsement};
    // The commitment is fulfilled; keep the record (the arbiter may ask us
    // to reveal v during conflict resolution) but allow fresh commitments.
    commit_it->second.consumed = true;
    signed_new = true;
    wire::Writer w;
    Codec::delta(w, kDeltaSpent, coin_hash, s.spent[coin_hash]);
    Codec::delta(w, kDeltaCommitment, coin_hash, commit_it->second);
    journal(w);
    return SignResult{std::move(endorsement)};
  }();
  if (stale_evidence || signed_new) {
    sync::MutexLock lock(mu_);
    if (stale_evidence)
      stale_owner_evidence_.push_back(std::move(*stale_evidence));
    if (signed_new) {
      ++coins_signed_;
      // Journaled as its own record: the counter lives under mu_, above the
      // stripe, so it cannot ride the spend record.  A torn tail between
      // the two costs one counter tick of an unacknowledged operation —
      // a performance statistic, never a safety invariant.
      wire::Writer w;
      w.put_u8(kDeltaCounters);
      w.put_u64(coins_signed_);
      journal(w);
    }
  }
  return result;
}

Outcome<std::size_t> WitnessService::check_presented_coin(
    const Coin& coin, const Hash256& coin_hash, Timestamp now) const {
  auto index = own_entry_index(coin, coin_hash);
  if (!index)
    return Refusal{RefusalReason::kWrongWitness,
                   "coin is not assigned to this witness"};
  // Verify our broker-signed range entry (1 Ver) and the bare coin's blind
  // signature (4 Exp + 2 Hash); an invalid coin is never countersigned.
  const SignedWitnessEntry& entry = coin.witnesses[*index];
  if (entry.version != coin.bare.info.list_version)
    return Refusal{RefusalReason::kInvalidCoin, "entry/info version mismatch"};
  if (!sig::verify(grp_, broker_key_, entry.signed_payload(),
                   entry.broker_sig))
    return Refusal{RefusalReason::kBadSignature, "bad broker range signature"};
  if (now >= coin.bare.info.soft_expiry)
    return Refusal{RefusalReason::kExpired, "coin past soft expiry"};
  if (!blindsig::verify(grp_, broker_key_.y, coin.bare.info.bytes(),
                        coin.bare.blind_message(), coin.bare.sig))
    return Refusal{RefusalReason::kInvalidCoin, "bad broker blind signature"};
  if (auto chain = verify_transfer_chain(grp_, coin); !chain)
    return chain.refusal();
  return *index;
}

Outcome<std::variant<TransferLink, DoubleSpendProof>>
WitnessService::sign_transfer(const Coin& coin, const bn::BigInt& new_a,
                              const bn::BigInt& new_b,
                              const nizk::Response& response,
                              Timestamp datetime, Timestamp now) {
  using TransferResult = std::variant<TransferLink, DoubleSpendProof>;
  store::StoreCommit store_commit(store_);
  const Hash256 coin_hash = coin.bare.coin_hash();
  const bool faulty = is_faulty();

  // Fast path without crypto: the coin is already known double-spent.
  {
    const Stripe& s = stripe_for(coin_hash);
    sync::MutexLock lock(s.mu);
    if (auto ds = s.double_spent.find(coin_hash);
        ds != s.double_spent.end() && !faulty) {
      return TransferResult{ds->second.proof};
    }
  }

  // Unlocked crypto on immutable inputs: the presented coin and the
  // ownership proof.  The proof verdict is only consulted on the
  // first-transfer branch, matching the original check order.
  auto index = check_presented_coin(coin, coin_hash, now);
  if (!index) return index.refusal();
  if (index.value() != 0)
    return Refusal{RefusalReason::kWrongWitness,
                   "transfers are endorsed by witness slot 0 only"};
  const bn::BigInt d = transfer_challenge(grp_, coin, new_a, new_b, datetime);
  const auto commitments = current_commitments(coin);
  const bool ownership_ok = nizk::verify_response(
      grp_, {commitments.a, commitments.b}, d, response);

  Stripe& s = stripe_for(coin_hash);
  sync::MutexLock lock(s.mu);

  // Re-check under the stripe: a racing payment/transfer may have landed.
  if (auto ds = s.double_spent.find(coin_hash);
      ds != s.double_spent.end() && !faulty) {
    return TransferResult{ds->second.proof};
  }

  // Chain consistency with our records.
  static const std::vector<TransferLink> kEmptyChain;
  auto chain_it = s.chains.find(coin_hash);
  const auto& recorded =
      chain_it == s.chains.end() ? kEmptyChain : chain_it->second;
  if (coin.transfers != recorded) {
    const bool is_prefix =
        coin.transfers.size() < recorded.size() &&
        std::equal(coin.transfers.begin(), coin.transfers.end(),
                   recorded.begin());
    if (!is_prefix)
      return Refusal{RefusalReason::kDoubleSpent,
                     "stale or divergent transfer chain"};
    const TransferLink& next = recorded[coin.transfers.size()];
    // Identical re-request (network retry): re-issue the recorded link.
    if (next.new_a == new_a && next.new_b == new_b &&
        next.datetime == datetime &&
        nizk::Response{next.r1, next.r2} == response) {
      return TransferResult{next};
    }
    if (faulty) return Refusal{RefusalReason::kInternal, "faulty witness"};
    // Double transfer: the recorded link and this request answer the same
    // commitments under different challenges — extract.
    nizk::ChallengeResponse first{
        transfer_challenge(grp_, coin, next.new_a, next.new_b, next.datetime),
        nizk::Response{next.r1, next.r2}};
    nizk::ChallengeResponse second{d, response};
    if (auto extracted = nizk::extract(grp_, first, second)) {
      DoubleSpendProof proof;
      proof.coin_hash = coin_hash;
      proof.a = commitments.a;
      proof.b = commitments.b;
      proof.secrets = *extracted;
      s.double_spent[coin_hash] = DoubleSpentRecord{proof};
      wire::Writer w;
      Codec::delta(w, kDeltaDoubleSpent, coin_hash, s.double_spent[coin_hash]);
      journal(w);
      return TransferResult{std::move(proof)};
    }
    return Refusal{RefusalReason::kDoubleSpent,
                   "coin already transferred onward"};
  }

  // A spent coin cannot be transferred; the attempt incriminates the owner.
  if (auto sp = s.spent.find(coin_hash); sp != s.spent.end() && !faulty) {
    const PaymentTranscript& prior = sp->second.transcript;
    nizk::ChallengeResponse from_payment{
        payment_challenge(grp_, prior.coin, prior.merchant, prior.datetime),
        prior.resp};
    nizk::ChallengeResponse from_transfer{d, response};
    if (auto extracted = nizk::extract(grp_, from_payment, from_transfer)) {
      DoubleSpendProof proof;
      proof.coin_hash = coin_hash;
      proof.a = commitments.a;
      proof.b = commitments.b;
      proof.secrets = *extracted;
      s.double_spent[coin_hash] = DoubleSpentRecord{proof};
      s.spent.erase(coin_hash);
      wire::Writer w;
      Codec::delta(w, kDeltaDoubleSpent, coin_hash, s.double_spent[coin_hash]);
      Codec::delta(w, kDeltaSpentErase, coin_hash);
      journal(w);
      return TransferResult{std::move(proof)};
    }
    return Refusal{RefusalReason::kDoubleSpent, "coin already spent"};
  }

  // Ownership proof for the hand-off (verified above, outside the lock).
  if (!ownership_ok)
    return Refusal{RefusalReason::kBadProof,
                   "transfer ownership proof invalid"};

  TransferLink link;
  link.new_a = new_a;
  link.new_b = new_b;
  link.r1 = response.r1;
  link.r2 = response.r2;
  link.datetime = datetime;
  link.witness = id_;
  auto position = static_cast<std::uint32_t>(coin.transfers.size());
  {
    sync::MutexLock rng_lock(rng_mu_);
    auto signature = key_.sign(link.signed_payload(coin_hash, position), rng_);
    link.sig_e = signature.e;
    link.sig_s = signature.s;
  }
  auto& chain = s.chains[coin_hash];
  chain = coin.transfers;
  chain.push_back(link);
  wire::Writer w;
  Codec::delta(w, kDeltaChain, coin_hash, chain);
  journal(w);
  return TransferResult{std::move(link)};
}

Outcome<CommittedValue> WitnessService::reveal_committed_value(
    const Hash256& coin_hash) {
  Stripe& s = stripe_for(coin_hash);
  sync::MutexLock lock(s.mu);
  auto it = s.commitments.find(coin_hash);
  if (it == s.commitments.end())
    return Refusal{RefusalReason::kStaleRequest,
                   "no commitment stored for this coin"};
  return it->second.value;
}

bool WitnessService::has_double_spend_record(const Hash256& coin_hash) const {
  const Stripe& s = stripe_for(coin_hash);
  sync::MutexLock lock(s.mu);
  return s.double_spent.contains(coin_hash);
}

std::vector<std::uint8_t> WitnessService::snapshot_state() const {
  // Stripes are keyed by the hash's most-significant prefix, so merging
  // them in stripe order reproduces the global Hash256 order — and thus
  // the exact bytes — of the pre-sharding single-map snapshot.  Stripes
  // are locked one at a time (holding two is a lock-order violation); a
  // concurrent writer can interleave, so snapshots of a live service are
  // per-stripe consistent, same as any point-in-time read would be.
  std::uint64_t coins_signed;
  {
    sync::MutexLock lock(mu_);
    coins_signed = coins_signed_;
  }
  std::map<Hash256, CommitmentRecord> commitments;
  std::map<Hash256, SpentRecord> spent;
  std::map<Hash256, DoubleSpentRecord> double_spent;
  std::map<Hash256, std::vector<TransferLink>> chains;
  for (const Stripe& s : stripes_) {
    sync::MutexLock lock(s.mu);
    commitments.insert(s.commitments.begin(), s.commitments.end());
    spent.insert(s.spent.begin(), s.spent.end());
    double_spent.insert(s.double_spent.begin(), s.double_spent.end());
    chains.insert(s.chains.begin(), s.chains.end());
  }
  wire::Writer w;
  w.put_string("p2pcash/witness-snapshot/v1");
  w.put_u64(coins_signed);
  w.put_u32(static_cast<std::uint32_t>(commitments.size()));
  for (const auto& [hash, record] : commitments) Codec::put(w, hash, record);
  w.put_u32(static_cast<std::uint32_t>(spent.size()));
  for (const auto& [hash, record] : spent) Codec::put(w, hash, record);
  w.put_u32(static_cast<std::uint32_t>(double_spent.size()));
  for (const auto& [hash, record] : double_spent) Codec::put(w, hash, record);
  w.put_u32(static_cast<std::uint32_t>(chains.size()));
  for (const auto& [hash, chain] : chains) Codec::put(w, hash, chain);
  return w.take();
}

void WitnessService::restore_state(std::span<const std::uint8_t> snapshot) {
  wire::Reader r(snapshot);
  if (r.get_string() != "p2pcash/witness-snapshot/v1")
    throw wire::DecodeError("witness snapshot: bad magic");
  // Parse the whole snapshot into per-stripe staging first (basic exception
  // safety: nothing is installed unless everything decoded), then install
  // stripe by stripe.
  struct Staging {
    std::map<Hash256, CommitmentRecord> commitments;
    std::map<Hash256, SpentRecord> spent;
    std::map<Hash256, DoubleSpentRecord> double_spent;
    std::map<Hash256, std::vector<TransferLink>> chains;
  };
  std::array<Staging, kStripeCount> staging;
  // Reads one section: a count, then that many records of one type.
  auto stage = [&](auto decode, auto Staging::*map) {
    for (std::uint32_t i = 0, n = r.get_u32(); i < n; ++i) {
      auto entry = decode(r);
      (staging[stripe_index(entry.first)].*map).insert(std::move(entry));
    }
  };
  const std::uint64_t coins_signed = r.get_u64();
  stage(Codec::commitment, &Staging::commitments);
  stage(Codec::spent, &Staging::spent);
  stage(Codec::double_spent, &Staging::double_spent);
  stage(Codec::chain, &Staging::chains);
  r.expect_end();
  for (std::size_t i = 0; i < kStripeCount; ++i) {
    Stripe& s = stripes_[i];
    sync::MutexLock lock(s.mu);
    s.commitments = std::move(staging[i].commitments);
    s.spent = std::move(staging[i].spent);
    s.double_spent = std::move(staging[i].double_spent);
    s.chains = std::move(staging[i].chains);
  }
  {
    sync::MutexLock lock(mu_);
    coins_signed_ = coins_signed;
  }
  // An externally supplied snapshot supersedes the journal: compact so the
  // store and the in-memory state agree again.
  if (store_ != nullptr) store_->checkpoint(snapshot_state());
}

// ---- store journaling ------------------------------------------------------

void WitnessService::journal(const wire::Writer& w) {
  if (store_ != nullptr && w.size() > 0) store_->append(w.bytes());
}

void WitnessService::apply_delta(std::span<const std::uint8_t> delta) {
  // Last-wins install of one decoded (coin hash, record) under its stripe.
  auto install = [this](auto entry, auto Stripe::*map) {
    Stripe& s = stripe_for(entry.first);
    sync::MutexLock lock(s.mu);
    (s.*map)[entry.first] = std::move(entry.second);
  };
  wire::Reader r(delta);
  while (!r.at_end()) {
    switch (r.get_u8()) {
      case kDeltaCommitment:
        install(Codec::commitment(r), &Stripe::commitments);
        break;
      case kDeltaSpent:
        install(Codec::spent(r), &Stripe::spent);
        break;
      case kDeltaDoubleSpent:
        install(Codec::double_spent(r), &Stripe::double_spent);
        break;
      case kDeltaChain:
        install(Codec::chain(r), &Stripe::chains);
        break;
      case kDeltaSpentErase: {
        Hash256 hash = read_hash(r);
        Stripe& s = stripe_for(hash);
        sync::MutexLock lock(s.mu);
        s.spent.erase(hash);
        break;
      }
      case kDeltaCounters: {
        std::uint64_t coins_signed = r.get_u64();
        sync::MutexLock lock(mu_);
        coins_signed_ = coins_signed;
        break;
      }
      default:
        throw wire::DecodeError("witness delta: unknown tag");
    }
  }
}

void WitnessService::attach_store(store::LogStore& store) {
  // Re-attach after a crash/restart: the previous store may already be
  // destroyed, so drop the pointer before restore_state can checkpoint
  // through it.
  store_ = nullptr;
  if (store.empty()) {
    // Fresh store: a genesis checkpoint makes the (empty but versioned)
    // snapshot durable before the first operation is acknowledged.
    store_ = &store;
    store.checkpoint(snapshot_state());
    return;
  }
  store::Recovered rec = store.recover();
  restore_state(rec.snapshot);  // store_ still unset: no re-checkpoint
  for (const auto& delta : rec.deltas) apply_delta(delta);
  store_ = &store;
}

void WitnessService::checkpoint_store() {
  if (store_ != nullptr) store_->checkpoint(snapshot_state());
}

}  // namespace p2pcash::ecash
