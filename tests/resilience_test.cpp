// The resilient RPC layer: retry policy, circuit breaker, idempotent
// re-requests at every role (witness transfer links, broker withdrawals and
// deposits, merchant crash recovery) and the deposit retry loop over the
// network.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "actors/retry.h"
#include "actors/world.h"
#include "obs/trace.h"
#include "transport/transport.h"
#include "ecash_fixture.h"

namespace p2pcash {
namespace {

using actors::ClientActor;
using actors::PeerHealth;
using actors::RetryPolicy;
using actors::SimWorld;

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, FirstBackoffIsExactlyTheBase) {
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff");
  // prev=0 collapses uniform(base, max(base, 0)) to the base itself.
  EXPECT_DOUBLE_EQ(policy.next_backoff(0, rng), policy.backoff_base_ms);
}

TEST(RetryPolicy, DecorrelatedJitterStaysInBounds) {
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff2");
  for (int i = 0; i < 200; ++i) {
    const auto b = policy.next_backoff(1'000, rng);
    EXPECT_GE(b, policy.backoff_base_ms);
    EXPECT_LE(b, 3'000.0);
  }
}

TEST(RetryPolicy, BackoffIsCapped) {
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff3");
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(policy.next_backoff(1'000'000, rng), policy.backoff_cap_ms);
  }
}

TEST(RetryPolicy, BackoffStaysFiniteForPathologicalPrev) {
  // Regression: prev_ms must be clamped to the cap BEFORE the 3x multiply.
  // SimTime is a double, so 3 * DBL_MAX (or 3 * inf from a caller feeding
  // accumulated sim time) is non-finite; the sampled backoff must still be
  // a finite value in [base, cap].
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff4");
  for (const double prev : {std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity(),
                            policy.backoff_cap_ms * 1e12}) {
    for (int i = 0; i < 20; ++i) {
      const auto b = policy.next_backoff(prev, rng);
      ASSERT_TRUE(std::isfinite(b)) << "prev=" << prev;
      ASSERT_GE(b, policy.backoff_base_ms);
      ASSERT_LE(b, policy.backoff_cap_ms);
    }
  }
}

// ---------------------------------------------------------------------------
// PeerHealth (circuit breaker)
// ---------------------------------------------------------------------------

TEST(PeerHealth, StaysClosedUnderThresholdAndSuccessResets) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 3,
                                       .open_ms = 1'000});
  EXPECT_FALSE(health.record_failure(7, 0));
  EXPECT_FALSE(health.record_failure(7, 10));
  EXPECT_TRUE(health.allow(7, 20));
  health.record_success(7);
  // Counter reset: two more failures still do not trip.
  EXPECT_FALSE(health.record_failure(7, 30));
  EXPECT_FALSE(health.record_failure(7, 40));
  EXPECT_TRUE(health.allow(7, 50));
  EXPECT_EQ(health.trips(), 0u);
}

TEST(PeerHealth, TripsAtConsecutiveFailuresAndBlocks) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 3,
                                       .open_ms = 1'000});
  health.record_failure(7, 0);
  health.record_failure(7, 10);
  EXPECT_TRUE(health.record_failure(7, 20));  // the tripping transition
  EXPECT_TRUE(health.is_open(7, 100));
  EXPECT_FALSE(health.allow(7, 100));   // open window
  EXPECT_TRUE(health.allow(8, 100));    // per-peer: others unaffected
  EXPECT_EQ(health.trips(), 1u);
}

TEST(PeerHealth, HalfOpenAdmitsOneProbeThenClosesOnSuccess) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 1,
                                       .open_ms = 1'000});
  EXPECT_TRUE(health.record_failure(7, 0));
  EXPECT_FALSE(health.allow(7, 500));
  EXPECT_TRUE(health.allow(7, 1'500));   // the single half-open probe
  EXPECT_FALSE(health.allow(7, 1'600));  // no second concurrent probe
  health.record_success(7);
  EXPECT_TRUE(health.allow(7, 1'700));
  EXPECT_FALSE(health.is_open(7, 1'700));
}

TEST(PeerHealth, FailedProbeReopensAndCountsASecondTrip) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 1,
                                       .open_ms = 1'000});
  EXPECT_TRUE(health.record_failure(7, 0));
  EXPECT_TRUE(health.allow(7, 1'200));          // probe admitted
  EXPECT_TRUE(health.record_failure(7, 1'250)); // probe failed: re-trip
  EXPECT_FALSE(health.allow(7, 2'000));         // new open window from 1250
  EXPECT_TRUE(health.allow(7, 2'300));          // 1250 + 1000 elapsed
  EXPECT_EQ(health.trips(), 2u);
}

// ---------------------------------------------------------------------------
// Rpc (the one retried-call primitive)
// ---------------------------------------------------------------------------

/// A transport double for driving one Rpc by hand: sends are recorded (the
/// peer is silent), timers run on a Simulator, and every RNG draw is
/// stamped with the time it was taken.
class RpcHarness : public transport::Transport {
 public:
  RpcHarness() : tracer_([this] { return sim.now(); }, &sink) {}

  simnet::NodeId attach(simnet::Node&) override { return 0; }
  void send(simnet::Message msg) override {
    sends.push_back(sim.now());
    last = std::move(msg);
  }
  simnet::SimTime now() const override { return sim.now(); }
  void schedule_on(simnet::NodeId, simnet::SimTime delay_ms,
                   std::function<void()> fn) override {
    sim.schedule(delay_ms, std::move(fn));
  }
  void post(simnet::NodeId, std::function<void()> fn) override {
    sim.schedule(0, std::move(fn));
  }
  bn::Rng& rng(simnet::NodeId) override { return rng_; }
  obs::Tracer* tracer() const override {
    return const_cast<obs::Tracer*>(&tracer_);
  }
  void set_down(simnet::NodeId, bool) override {}

  /// Occurrences of `name` among the recorded trace events.
  std::size_t notes(const std::string& name) const {
    const std::string json = sink.to_jsonl();
    const std::string needle = "\"name\":\"" + name + "\"";
    std::size_t n = 0;
    for (auto at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1))
      ++n;
    return n;
  }

  /// A call from node 1 to silent node 2 with `site`, traced.
  actors::Rpc call(actors::Rpc::Site site) {
    return actors::Rpc(
        *this, policy, counters,
        simnet::Message{1, 2, "test.req", {7}, tracer_.start_root("call", 1)},
        std::move(site));
  }

  simnet::Simulator sim;
  obs::TraceSink sink;
  RetryPolicy policy;
  metrics::ResilienceCounters counters;
  std::vector<simnet::SimTime> sends;
  std::vector<simnet::SimTime> draws;
  simnet::Message last;

 private:
  struct StampedRng : bn::Rng {
    explicit StampedRng(RpcHarness& harness) : h(harness) {}
    void fill(std::span<std::uint8_t> out) override {
      h.draws.push_back(h.sim.now());
      inner.fill(out);
    }
    RpcHarness& h;
    crypto::ChaChaRng inner{"rpc-harness"};
  };
  StampedRng rng_{*this};
  obs::Tracer tracer_;
};

TEST(Rpc, SpendsExactlyTheAttemptBudgetThenReportsExhaustion) {
  RpcHarness h;
  int exhausted = 0;
  actors::Rpc::Site site;
  site.retry_note = "again";
  site.on_exhausted = [&](simnet::Message& request) {
    ++exhausted;
    EXPECT_EQ(request.type, "test.req");
  };
  auto rpc = h.call(std::move(site));
  rpc.start();
  EXPECT_TRUE(rpc.running());
  h.sim.run();
  EXPECT_EQ(h.sends.size(), h.policy.max_attempts);
  EXPECT_EQ(rpc.attempts(), h.policy.max_attempts);
  EXPECT_EQ(h.counters.retries, h.policy.max_attempts - 1);
  EXPECT_EQ(h.notes("rpc.retry"), h.policy.max_attempts - 1);
  EXPECT_EQ(exhausted, 1);
  EXPECT_FALSE(rpc.running());
  // Every resend carries the original bytes.
  EXPECT_EQ(h.last.to, 2u);
  EXPECT_EQ(h.last.payload, std::vector<std::uint8_t>{7});
}

TEST(Rpc, DrawsOneBackoffPerSilenceAtSilenceTime) {
  RpcHarness h;
  auto rpc = h.call({});
  rpc.start();
  h.sim.run();
  // Silences follow each send by attempt_timeout_ms.  All but the last
  // (which exhausts the budget) back off once; the first backoff is
  // exactly the base and needs no draw, every later one draws once, at
  // the silence itself.
  ASSERT_EQ(h.sends.size(), h.policy.max_attempts);
  EXPECT_DOUBLE_EQ(h.sends[1] - h.sends[0],
                   h.policy.attempt_timeout_ms + h.policy.backoff_base_ms);
  ASSERT_EQ(h.draws.size(), h.policy.max_attempts - 2);
  for (std::size_t i = 0; i < h.draws.size(); ++i) {
    const simnet::SimTime silence =
        h.sends[i + 1] + h.policy.attempt_timeout_ms;
    EXPECT_DOUBLE_EQ(h.draws[i], silence);
    EXPECT_GE(h.sends[i + 2] - silence, h.policy.backoff_base_ms);
  }
}

TEST(Rpc, TimersOutlivingTheCallDoNothing) {
  RpcHarness h;
  int exhausted = 0;
  actors::Rpc::Site site;
  site.silence_note = "quiet";
  site.on_exhausted = [&](simnet::Message&) { ++exhausted; };
  auto cancelled = h.call(site);
  cancelled.start();
  cancelled.cancel();  // the reply arrived
  {
    auto destroyed = h.call(site);
    destroyed.start();
  }  // the owner went away
  h.sim.run();
  EXPECT_EQ(h.sends.size(), 2u);  // the two first sends, nothing more
  EXPECT_TRUE(h.draws.empty());
  EXPECT_EQ(h.notes("rpc.silence"), 0u);
  EXPECT_EQ(h.counters.retries, 0u);
  EXPECT_EQ(exhausted, 0);
  EXPECT_FALSE(cancelled.running());

  // Re-driving a cancelled call starts a fresh budget.
  cancelled.start();
  h.sim.run();
  EXPECT_EQ(h.sends.size(), 2u + h.policy.max_attempts);
  EXPECT_EQ(exhausted, 1);
}

TEST(Rpc, OpenBreakerReArmsWithoutSpendingAnAttempt) {
  RpcHarness h;
  PeerHealth health(PeerHealth::Config{.failure_threshold = 1,
                                       .open_ms = 10'000});
  std::size_t silences = 0;
  actors::Rpc::Site site;
  site.health = &health;
  site.wait_out_open_breaker = true;
  site.silence_note = "quiet";
  site.trip_note = "tripped";
  site.on_silence = [&] { ++silences; };
  auto rpc = h.call(std::move(site));
  rpc.start();
  h.sim.run();
  // The first silence opens the breaker; resends wait behind it, so more
  // silences than attempts happen, yet the budget is spent exactly.
  EXPECT_EQ(h.sends.size(), h.policy.max_attempts);
  EXPECT_EQ(h.counters.retries, h.policy.max_attempts - 1);
  EXPECT_GT(silences, h.policy.max_attempts);
  EXPECT_EQ(h.notes("rpc.silence"), silences);
  EXPECT_GE(h.counters.breaker_trips, 1u);
  EXPECT_EQ(h.notes("breaker.trip"), h.counters.breaker_trips);
  // The first silence opened the breaker; the resend waited it out.
  EXPECT_GE(h.sends[1], h.policy.attempt_timeout_ms + 10'000);
}

TEST(Rpc, SiteWithoutBreakerNeverRecordsAFailure) {
  RpcHarness h;
  auto rpc = h.call({});  // no PeerHealth, no silence note (the deposit)
  rpc.start();
  h.sim.run();
  EXPECT_EQ(h.sends.size(), h.policy.max_attempts);
  EXPECT_EQ(h.counters.breaker_trips, 0u);
  EXPECT_EQ(h.notes("rpc.silence"), 0u);
  EXPECT_EQ(h.notes("breaker.trip"), 0u);
}

// ---------------------------------------------------------------------------
// Idempotent re-requests at the protocol layer
// ---------------------------------------------------------------------------

class ResilienceEcashTest : public ecash::testing::EcashTest {};

TEST_F(ResilienceEcashTest, MerchantDropPendingAllowsCleanClientRetry) {
  using namespace ecash;
  auto coin = withdraw();
  auto merchant_id = non_witness_merchant(coin);
  Merchant& merchant = *dep_.node(merchant_id).merchant;

  auto intent = wallet_->prepare_payment(coin, merchant_id);
  std::vector<WitnessCommitment> commitments;
  for (const auto& entry : coin.coin.witnesses) {
    auto c = dep_.node(entry.merchant)
                 .witness->request_commitment(intent.coin_hash, intent.nonce,
                                              2'000);
    ASSERT_TRUE(c.ok()) << c.refusal().detail;
    commitments.push_back(std::move(c).value());
  }
  auto transcript = wallet_->build_transcript(coin, intent, commitments, 2'000);
  ASSERT_TRUE(transcript.ok());

  ASSERT_TRUE(
      merchant.receive_payment(transcript.value(), commitments, 2'000).ok());
  EXPECT_NE(merchant.pending(intent.coin_hash), nullptr);

  // Crash recovery drops the half-done payment but keeps everything else.
  EXPECT_EQ(merchant.drop_pending(), 1u);
  EXPECT_EQ(merchant.pending(intent.coin_hash), nullptr);
  EXPECT_EQ(merchant.drop_pending(), 0u);
  EXPECT_EQ(merchant.deposit_queue_size(), 0u);
  EXPECT_EQ(merchant.services_delivered(), 0u);
  EXPECT_FALSE(merchant.already_serviced(intent.coin_hash));

  // The client retries the identical transcript from scratch and the
  // payment completes: the witness re-validates and endorses.
  ASSERT_TRUE(
      merchant.receive_payment(transcript.value(), commitments, 2'100).ok());
  for (const auto& entry : coin.coin.witnesses) {
    auto signed_result = dep_.node(entry.merchant)
                             .witness->sign_transcript(transcript.value(),
                                                       2'100);
    ASSERT_TRUE(signed_result.ok()) << signed_result.refusal().detail;
    auto* endorsement =
        std::get_if<WitnessEndorsement>(&signed_result.value());
    ASSERT_NE(endorsement, nullptr);
    auto done = merchant.add_endorsement(intent.coin_hash, *endorsement);
    ASSERT_TRUE(done.ok()) << done.refusal().detail;
  }
  EXPECT_EQ(merchant.services_delivered(), 1u);
  EXPECT_TRUE(merchant.already_serviced(intent.coin_hash));
}

TEST_F(ResilienceEcashTest, WitnessReissuesTransferLinkUnderRetryStorm) {
  using namespace ecash;
  auto coin = withdraw();
  WitnessService& witness =
      *dep_.node(coin.coin.witnesses[0].merchant).witness;
  auto bob = dep_.make_wallet();

  auto intent = bob->prepare_receive();
  auto response =
      wallet_->respond_transfer(coin, intent.comm.a, intent.comm.b, 2'000);
  auto first = witness.sign_transfer(coin.coin, intent.comm.a, intent.comm.b,
                                     response, 2'000, 2'000);
  ASSERT_TRUE(first.ok()) << first.refusal().detail;
  auto* link = std::get_if<TransferLink>(&first.value());
  ASSERT_NE(link, nullptr);

  // A retry storm replays the identical request: every reply must be the
  // recorded link, byte for byte, and none may be misread as a double
  // transfer (the witness.cpp identical-re-request path).
  for (int i = 0; i < 10; ++i) {
    auto again = witness.sign_transfer(coin.coin, intent.comm.a,
                                       intent.comm.b, response, 2'000,
                                       2'000 + i);
    ASSERT_TRUE(again.ok()) << again.refusal().detail;
    auto* relink = std::get_if<TransferLink>(&again.value());
    ASSERT_NE(relink, nullptr);
    EXPECT_EQ(*relink, *link);
  }
  EXPECT_FALSE(witness.has_double_spend_record(coin.coin.bare.coin_hash()));
  EXPECT_TRUE(witness.stale_owner_evidence().empty());

  // The re-issued link is still spendable by the recipient.
  auto received = bob->accept_transfer(coin.coin, *link, intent);
  ASSERT_TRUE(received.ok()) << received.refusal().detail;
}

// ---------------------------------------------------------------------------
// Resilient RPC over the simulated network
// ---------------------------------------------------------------------------

SimWorld::Options net_options() {
  SimWorld::Options opt;
  opt.merchants = 6;
  opt.seed = 99;
  opt.cost = simnet::free_cost();
  return opt;
}

TEST(Resilience, WithdrawRetriesThroughLossyBrokerLink) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, net_options());
  auto& client = world.add_client();
  // Everything the broker says is lost for the first 3 seconds; the client
  // must re-drive the withdrawal with the same request bytes.
  world.faults().schedule_link_fault(world.directory().broker, client.id(),
                                     simnet::LinkFault{.drop = 1.0},
                                     /*at=*/0, /*clear_at=*/3'000);
  int callbacks = 0;
  std::optional<ecash::WalletCoin> coin;
  client.withdraw(100,
                  [&](ecash::Outcome<ecash::WalletCoin> c) {
                    ++callbacks;
                    ASSERT_TRUE(c.ok()) << c.refusal().detail;
                    coin = std::move(c).value();
                  },
                  /*deadline_ms=*/30'000);
  world.sim().run();
  EXPECT_EQ(callbacks, 1);
  ASSERT_TRUE(coin.has_value());
  EXPECT_EQ(coin->coin.bare.info.denomination, 100u);
  EXPECT_GE(client.resilience().retries, 1u);
  EXPECT_EQ(world.broker().coins_issued(), 1u);
}

TEST(Resilience, DuplicatedBrokerRepliesAreSuppressed) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, net_options());
  auto& client = world.add_client();
  world.net().set_link_fault(world.directory().broker, client.id(),
                             simnet::LinkFault{.duplicate = 1.0});
  int callbacks = 0;
  std::optional<ecash::WalletCoin> coin;
  client.withdraw(100, [&](ecash::Outcome<ecash::WalletCoin> c) {
    ++callbacks;
    ASSERT_TRUE(c.ok()) << c.refusal().detail;
    coin = std::move(c).value();
  });
  world.sim().run();
  EXPECT_EQ(callbacks, 1);
  ASSERT_TRUE(coin.has_value());
  // Both the duplicated offer and the duplicated response were ignored.
  EXPECT_EQ(client.resilience().late_replies_ignored, 2u);
  EXPECT_EQ(world.broker().coins_issued(), 1u);
}

class DepositRetryTest : public ::testing::Test {
 protected:
  DepositRetryTest()
      : world_(group::SchnorrGroup::test_256(), net_options()),
        client_(world_.add_client()) {}

  /// Withdraws and completes one payment at a non-witness merchant so its
  /// deposit queue holds exactly one endorsed transcript.
  ecash::MerchantId complete_one_payment() {
    std::optional<ecash::WalletCoin> coin;
    client_.withdraw(100, [&](ecash::Outcome<ecash::WalletCoin> c) {
      EXPECT_TRUE(c.ok());
      coin = std::move(c).value();
    });
    world_.sim().run();
    EXPECT_TRUE(coin.has_value());
    auto witness_id = coin->coin.witnesses[0].merchant;
    ecash::MerchantId target;
    for (const auto& id : world_.merchant_ids()) {
      if (id != witness_id) {
        target = id;
        break;
      }
    }
    std::optional<ClientActor::PayResult> result;
    client_.pay(*coin, target,
                [&](ClientActor::PayResult r) { result = std::move(r); });
    world_.sim().run();
    EXPECT_TRUE(result && result->accepted);
    EXPECT_EQ(world_.merchant(target).deposit_queue_size(), 1u);
    return target;
  }

  SimWorld world_;
  ClientActor& client_;
};

TEST_F(DepositRetryTest, LostReceiptsRetryUntilAlreadyDepositedAck) {
  auto target = complete_one_payment();
  auto& actor = world_.merchant_actor(target);
  // Every broker -> merchant receipt is lost for 5 s after the flush: the
  // first submit lands (the broker credits it) but the merchant cannot know
  // and must retry; the broker's kAlreadyDeposited then acts as the ack.
  world_.net().set_link_fault(world_.directory().broker,
                              world_.merchant_node(target),
                              simnet::LinkFault{.drop = 1.0});
  world_.sim().schedule(5'000, [&] {
    world_.net().clear_link_fault(world_.directory().broker,
                                  world_.merchant_node(target));
  });
  actor.flush_deposits();
  EXPECT_EQ(actor.deposits_outstanding(), 1u);
  world_.sim().run();
  EXPECT_EQ(actor.deposits_outstanding(), 0u);
  EXPECT_EQ(world_.broker().coins_deposited(), 1u);  // credited exactly once
  EXPECT_GE(actor.resilience().retries, 2u);
  EXPECT_GE(actor.resilience().duplicates_suppressed, 1u);
}

TEST_F(DepositRetryTest, BrokerOutageExhaustsThenLaterFlushSucceeds) {
  auto target = complete_one_payment();
  auto& actor = world_.merchant_actor(target);
  world_.net().set_down(world_.directory().broker, true);
  actor.flush_deposits();
  world_.sim().run();
  // Retries exhausted, the transcript is retained for a later flush.
  EXPECT_EQ(actor.deposits_outstanding(), 1u);
  EXPECT_GE(actor.resilience().timeouts, 1u);
  EXPECT_EQ(world_.broker().coins_deposited(), 0u);

  world_.net().set_down(world_.directory().broker, false);
  actor.flush_deposits();
  world_.sim().run();
  EXPECT_EQ(actor.deposits_outstanding(), 0u);
  EXPECT_EQ(world_.broker().coins_deposited(), 1u);
}

}  // namespace
}  // namespace p2pcash
