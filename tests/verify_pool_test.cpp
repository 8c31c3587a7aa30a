// Verification worker pool + striped witness hot path.  Run under
// -DP2PCASH_SANITIZE=thread this is the TSan proof that the witness's
// coin-hash-striped locking keeps check-then-sign atomic per coin while
// payments of different coins proceed in parallel.

#include "verify/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "ecash_fixture.h"

namespace p2pcash::ecash {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool semantics
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskAndDrainIsABarrier) {
  verify::WorkerPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.drain();
  EXPECT_EQ(done.load(), 100);
  // A drained pool accepts new waves.
  pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.drain();
  EXPECT_EQ(done.load(), 101);
}

TEST(WorkerPool, DrainWaitsForInFlightTasks) {
  verify::WorkerPool pool(2);
  std::atomic<bool> finished{false};
  pool.submit([&finished] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.store(true, std::memory_order_release);
  });
  pool.drain();
  EXPECT_TRUE(finished.load(std::memory_order_acquire));
}

TEST(WorkerPool, DestructorRunsPendingTasks) {
  std::atomic<int> done{0};
  {
    verify::WorkerPool pool(1);
    for (int i = 0; i < 16; ++i)
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(WorkerPool, ZeroThreadsClampedToOne) {
  verify::WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.drain();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// Striped witness: sequential and concurrent hot path
// ---------------------------------------------------------------------------

class VerifyPoolTest : public ecash::testing::EcashTest {
 protected:
  struct Prepared {
    Wallet::PaymentIntent intent;
    WitnessCommitment commitment;
    PaymentTranscript transcript;
  };

  /// Steps 1-3 of a payment at the coin's slot-0 witness, unsubmitted.
  Prepared prepare(const WalletCoin& coin, const MerchantId& merchant,
                   Timestamp now) {
    Prepared p;
    p.intent = wallet_->prepare_payment(coin, merchant);
    auto commitment = witness_for(coin).request_commitment(p.intent.coin_hash,
                                                           p.intent.nonce, now);
    EXPECT_TRUE(commitment.ok());
    p.commitment = commitment.value();
    auto transcript =
        wallet_->build_transcript(coin, p.intent, {p.commitment}, now + 50);
    EXPECT_TRUE(transcript.ok());
    p.transcript = transcript.value();
    return p;
  }

  WitnessService& witness_for(const WalletCoin& coin) {
    return *dep_.node(coin.coin.witnesses[0].merchant).witness;
  }

  MerchantId witness_id(const WalletCoin& coin) {
    return coin.coin.witnesses[0].merchant;
  }
};

TEST_F(VerifyPoolTest, ForgedProofRefusedWithoutPunishingOthers) {
  // Three coins assigned to the same witness, the middle payment NIZK
  // forged, signed one after another: exactly the forgery is refused with
  // kBadProof and its neighbours are endorsed.  The refusal records no
  // spend, so the forged coin's honest transcript is still endorsed.
  std::map<MerchantId, std::vector<WalletCoin>> by_witness;
  MerchantId target;
  for (int i = 0; i < 60 && target.empty(); ++i) {
    auto coin = withdraw(100, 1000);
    auto& bucket = by_witness[witness_id(coin)];
    bucket.push_back(coin);
    if (bucket.size() == 3) target = witness_id(coin);
  }
  ASSERT_FALSE(target.empty()) << "no witness accumulated 3 coins";
  std::vector<PaymentTranscript> transcripts;
  for (const auto& coin : by_witness[target]) {
    auto p = prepare(coin, non_witness_merchant(coin), 2000);
    transcripts.push_back(p.transcript);
  }
  const PaymentTranscript honest = transcripts[1];
  transcripts[1].resp.r1 =
      bn::mod(transcripts[1].resp.r1 + bn::BigInt{1}, dep_.grp().q());
  auto& witness = *dep_.node(target).witness;
  for (std::size_t i = 0; i < transcripts.size(); ++i) {
    auto result = witness.sign_transcript(transcripts[i], 2100);
    if (i == 1) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.refusal().reason, RefusalReason::kBadProof);
    } else {
      ASSERT_TRUE(result.ok()) << result.refusal().detail;
      EXPECT_TRUE(std::holds_alternative<WitnessEndorsement>(result.value()));
    }
  }
  auto retry = witness.sign_transcript(honest, 2100);
  ASSERT_TRUE(retry.ok()) << retry.refusal().detail;
  EXPECT_TRUE(std::holds_alternative<WitnessEndorsement>(retry.value()));
  EXPECT_EQ(witness.coins_signed(), 3u);
}

TEST_F(VerifyPoolTest, PooledSigningOfDisjointCoinsAllEndorse) {
  // The PR's hot path end to end: independent payments pipelined through
  // the worker pool against striped witnesses.  Different coins land on
  // different stripes, so the tasks genuinely interleave inside each
  // WitnessService; every payment must still endorse exactly once.
  constexpr int kPayments = 24;
  std::map<MerchantId, std::vector<PaymentTranscript>> waves;
  for (int i = 0; i < kPayments; ++i) {
    auto coin = withdraw(100, 1000);
    auto p = prepare(coin, non_witness_merchant(coin), 2000);
    waves[witness_id(coin)].push_back(p.transcript);
  }
  std::uint64_t signed_before = 0;
  for (const auto& [id, _] : waves)
    signed_before += dep_.node(id).witness->coins_signed();
  EXPECT_EQ(signed_before, 0u);

  verify::WorkerPool pool(8);
  std::atomic<int> endorsed{0};
  std::atomic<int> failures{0};
  for (auto& [id, transcripts] : waves) {
    WitnessService* witness = dep_.node(id).witness.get();
    for (const auto& transcript : transcripts) {
      pool.submit([witness, &transcript, &endorsed, &failures] {
        auto result = witness->sign_transcript(transcript, 2100);
        if (result.ok() &&
            std::holds_alternative<WitnessEndorsement>(result.value()))
          endorsed.fetch_add(1, std::memory_order_relaxed);
        else
          failures.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  pool.drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(endorsed.load(), kPayments);
  std::uint64_t signed_after = 0;
  for (const auto& [id, _] : waves)
    signed_after += dep_.node(id).witness->coins_signed();
  EXPECT_EQ(signed_after, static_cast<std::uint64_t>(kPayments));
}

TEST_F(VerifyPoolTest, RacingSpendsOfOneCoinYieldOneEndorsementOneProof) {
  // Two transcripts of the same coin raced through the pool: whatever the
  // interleaving, the stripe's check-then-sign must admit exactly one
  // endorsement, and the loser must receive a publicly verifiable proof.
  auto coin = withdraw(100, 1000);
  auto p = prepare(coin, non_witness_merchant(coin), 2000);
  auto second =
      wallet_->build_transcript(coin, p.intent, {p.commitment}, 2075);
  ASSERT_TRUE(second.ok());
  std::vector<PaymentTranscript> racers{p.transcript, second.value()};
  auto& witness = witness_for(coin);

  verify::WorkerPool pool(2);
  std::atomic<int> endorsements{0};
  std::atomic<int> proofs{0};
  std::atomic<int> errors{0};
  for (const auto& transcript : racers) {
    pool.submit([&witness, &transcript, &endorsements, &proofs, &errors] {
      auto result = witness.sign_transcript(transcript, 2100);
      if (!result.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      } else if (std::holds_alternative<WitnessEndorsement>(result.value())) {
        endorsements.fetch_add(1, std::memory_order_relaxed);
      } else {
        proofs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool.drain();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(endorsements.load(), 1);
  EXPECT_EQ(proofs.load(), 1);
  EXPECT_TRUE(witness.has_double_spend_record(coin.coin.bare.coin_hash()));
}

TEST_F(VerifyPoolTest, SnapshotWhileSigningStaysConsistent) {
  // Snapshots merge the stripes one lock at a time; taking them while the
  // pool is signing must neither race (TSan) nor corrupt state — a final
  // quiescent snapshot must restore onto a fresh service byte-for-byte.
  constexpr int kPayments = 12;
  std::map<MerchantId, std::vector<PaymentTranscript>> waves;
  MerchantId any_witness;
  for (int i = 0; i < kPayments; ++i) {
    auto coin = withdraw(100, 1000);
    auto p = prepare(coin, non_witness_merchant(coin), 2000);
    waves[witness_id(coin)].push_back(p.transcript);
    any_witness = witness_id(coin);
  }
  verify::WorkerPool pool(4);
  for (auto& [id, transcripts] : waves) {
    WitnessService* witness = dep_.node(id).witness.get();
    for (const auto& transcript : transcripts)
      pool.submit([witness, &transcript] {
        (void)witness->sign_transcript(transcript, 2100);
      });
  }
  WitnessService& observed = *dep_.node(any_witness).witness;
  for (int i = 0; i < 20; ++i) {
    (void)observed.snapshot_state();  // concurrent with the signing wave
    std::this_thread::yield();
  }
  pool.drain();
  auto quiescent = observed.snapshot_state();
  observed.restore_state(quiescent);
  EXPECT_EQ(observed.snapshot_state(), quiescent);
}

}  // namespace
}  // namespace p2pcash::ecash
