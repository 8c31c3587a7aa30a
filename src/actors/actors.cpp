#include "actors/actors.h"

#include <algorithm>

#include "overlay/chord.h"
#include "wire/codec.h"

namespace p2pcash::actors {

using bn::BigInt;
using ecash::Hash256;
using ecash::Outcome;
using ecash::Refusal;
using ecash::RefusalReason;
using metrics::OpCounters;
using metrics::ScopedOpCounting;
using wire::Reader;
using wire::Writer;

// ---------------------------------------------------------------------------
// ProtocolActor
// ---------------------------------------------------------------------------

void ProtocolActor::send_after_cost(const OpCounters& ops, Message msg) {
  send_after_cost(ops, std::move(msg), obs::TraceContext{});
}

void ProtocolActor::send_after_cost(const OpCounters& ops, Message msg,
                                    obs::TraceContext span) {
  const SimTime cost = cost_.sample_cost_ms(ops, rng());
  if (cost <= 0) {
    if (auto* tr = tracer()) tr->end_span(span);
    tx_.send(std::move(msg));
    return;
  }
  schedule(cost,
                      [this, span, msg = std::move(msg)]() mutable {
                        if (auto* tr = tracer()) tr->end_span(span);
                        tx_.send(std::move(msg));
                      });
}

template <typename Body>
void ProtocolActor::reply_after_cost(const Message& msg,
                                    std::string_view span_name, Body&& body) {
  const auto span = start_span(msg.trace, span_name);
  OpCounters ops;
  Message reply{id(), msg.from, "", {}, msg.trace};
  {
    ScopedOpCounting guard(ops);
    Writer w;
    reply.type = body(w);
    reply.payload = w.take();
  }
  send_after_cost(ops, std::move(reply), span);
}

void ProtocolActor::send_now(Message msg) { tx_.send(std::move(msg)); }

obs::TraceContext ProtocolActor::start_span(const obs::TraceContext& parent,
                                            std::string_view name) {
  auto* tr = tracer();
  return tr ? tr->start_child(parent, name, id()) : obs::TraceContext{};
}

void ProtocolActor::trace_note(const obs::TraceContext& ctx,
                               std::string_view name,
                               std::string_view detail) {
  if (auto* tr = tracer()) tr->event(ctx, name, detail);
}

void ProtocolActor::end_span(obs::TraceContext& ctx, std::string_view status) {
  if (auto* tr = tracer()) tr->end_span(ctx, status);
  ctx = obs::TraceContext{};
}

void ProtocolActor::ignore_late_reply(const obs::TraceContext& ctx,
                                      std::string_view detail) {
  ++resilience_.late_replies_ignored;
  trace_note(ctx, "late_reply.ignored", detail);
}

void ProtocolActor::suppress_duplicate(const obs::TraceContext& ctx,
                                       std::string_view detail) {
  ++resilience_.duplicates_suppressed;
  trace_note(ctx, "dup.suppressed", detail);
}

Rpc ProtocolActor::rpc(NodeId to, std::string type,
                       std::vector<std::uint8_t> payload,
                       obs::TraceContext trace, Rpc::Site site) {
  return Rpc(tx_, retry_, resilience_,
             Message{id(), to, std::move(type), std::move(payload), trace},
             std::move(site));
}

// ---------------------------------------------------------------------------
// BrokerActor
// ---------------------------------------------------------------------------

void BrokerActor::on_message(const Message& msg) {
  Reader r(msg.payload);
  if (msg.type == "withdraw.start") {
    const std::uint64_t req_id = r.get_u64();
    const Cents denomination = r.get_u32();
    reply_after_cost(msg, "broker_withdraw_offer", [&](Writer& w) {
      auto offer = broker_.start_withdrawal(denomination, now());
      w.put_u64(req_id);
      if (!offer) {
        w.put_string(offer.refusal().detail);
        return "withdraw.refused";
      }
      w.put_u64(offer.value().session);
      offer.value().info.encode(w);
      w.put_bigint(offer.value().first.a);
      w.put_bigint(offer.value().first.b);
      return "withdraw.offer";
    });
  } else if (msg.type == "withdraw.challenge") {
    const std::uint64_t session = r.get_u64();
    const BigInt e = r.get_bigint();
    reply_after_cost(msg, "broker_withdraw_finish", [&](Writer& w) {
      // finish_withdrawal is idempotent for a retransmitted identical
      // challenge, so client retries after a lost response are safe.
      auto response = broker_.finish_withdrawal(session, e);
      w.put_u64(session);
      if (!response) {
        w.put_string(response.refusal().detail);
        return "withdraw.refused";
      }
      w.put_bigint(response.value().r);
      w.put_bigint(response.value().c);
      w.put_bigint(response.value().s);
      return "withdraw.response";
    });
  } else if (msg.type == "deposit.submit") {
    auto st = ecash::SignedTranscript::decode(r);
    // The paper's final phase: the broker reconciles the deposit against
    // its spent-coin ledger and credits the merchant.
    reply_after_cost(msg, "reconcile", [&](Writer& w) {
      // The depositor is authenticated by its network endpoint here; a real
      // deployment would use a transport-level credential.
      auto receipt = broker_.deposit(st.transcript.merchant, st, now());
      w.put_bytes(st.transcript.coin.bare.coin_hash());
      if (!receipt) {
        // Machine-readable reason first: kAlreadyDeposited tells a retrying
        // depositor that an earlier copy landed and only the receipt was
        // lost, which is an ack rather than an error.
        w.put_u8(static_cast<std::uint8_t>(receipt.refusal().reason));
        w.put_string(receipt.refusal().detail);
        return "deposit.refused";
      }
      w.put_u32(receipt.value().credited);
      w.put_u8(receipt.value().paid_from_witness_deposit ? 1 : 0);
      return "deposit.receipt";
    });
  }
}

// ---------------------------------------------------------------------------
// MerchantActor
// ---------------------------------------------------------------------------

void MerchantActor::on_message(const Message& msg) {
  if (msg.type == "pay.commit_req") {
    handle_commit_request(msg);
  } else if (msg.type == "pay.transcript") {
    handle_transcript(msg);
  } else if (msg.type == "pay.sign_req") {
    handle_sign_request(msg);
  } else if (msg.type == "pay.endorse" || msg.type == "pay.double_spend" ||
             msg.type == "pay.sign_refused") {
    handle_sign_reply(msg);
  } else if (msg.type == "deposit.receipt" || msg.type == "deposit.refused") {
    handle_deposit_receipt(msg);
  }
}

void MerchantActor::handle_commit_request(const Message& msg) {
  Reader r(msg.payload);
  const Hash256 coin_hash = ecash::read_hash(r);
  const Hash256 nonce = ecash::read_hash(r);
  reply_after_cost(msg, "witness_commit", [&](Writer& w) {
    auto commitment = witness_.request_commitment(coin_hash, nonce, now());
    if (!commitment) {
      w.put_bytes(coin_hash);
      w.put_string(commitment.refusal().detail);
      return "pay.commit_refused";
    }
    commitment.value().encode(w);
    return "pay.commit";
  });
}

void MerchantActor::handle_transcript(const Message& msg) {
  Reader r(msg.payload);
  auto transcript = ecash::PaymentTranscript::decode(r);
  const std::uint8_t n = r.get_u8();
  std::vector<ecash::WitnessCommitment> commitments;
  commitments.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i)
    commitments.push_back(ecash::WitnessCommitment::decode(r));

  const Hash256 coin_hash = transcript.coin.bare.coin_hash();

  // Idempotent retransmission handling: the client resends the same bytes
  // until it hears back, so a duplicate must converge on the same outcome
  // instead of a "coin already presented" refusal.
  if (merchant_.already_serviced(coin_hash)) {
    // Service was already delivered and the pay.service ack was lost in
    // transit; re-acknowledge.  The transcript only completes once — the
    // deposit queue and service counters are untouched.
    suppress_duplicate(msg.trace, "transcript for serviced coin");
    Writer w;
    w.put_bytes(coin_hash);
    send_now(Message{id(), msg.from, "pay.service", w.take(), msg.trace});
    return;
  }
  if (auto it = in_flight_.find(coin_hash); it != in_flight_.end()) {
    if (it->second.client == msg.from) {
      // Same client retransmitted while witnesses are still being gathered:
      // re-drive the sign requests.  Witnesses re-issue endorsements for an
      // identical transcript idempotently, and duplicate endorsements are
      // suppressed in handle_sign_reply.
      suppress_duplicate(msg.trace, "transcript re-drive");
      it->second.trace = msg.trace;  // latest retransmission owns the phase
      Writer w;
      transcript.encode(w);
      auto payload = w.take();
      for (const auto& witness : it->second.witnesses) {
        auto node = directory_.merchants.find(witness);
        if (node == directory_.merchants.end()) continue;
        send_now(
            Message{id(), node->second, "pay.sign_req", payload, msg.trace});
      }
      return;
    }
    // A different client presenting the same coin is a concurrent spend
    // attempt; fall through and let receive_payment refuse it.
  }

  const auto span = start_span(msg.trace, "merchant_validate");
  OpCounters ops;
  std::optional<Refusal> refusal;
  {
    ScopedOpCounting guard(ops);
    auto accepted = merchant_.receive_payment(transcript, commitments, now());
    if (!accepted) refusal = accepted.refusal();
  }
  if (refusal) {
    Writer w;
    w.put_bytes(coin_hash);
    w.put_string(refusal->detail);
    send_after_cost(
        ops, Message{id(), msg.from, "pay.refused", w.take(), msg.trace},
        span);
    return;
  }
  InFlight record;
  record.client = msg.from;
  record.trace = msg.trace;
  record.witnesses.reserve(commitments.size());
  for (const auto& commitment : commitments)
    record.witnesses.push_back(commitment.witness);
  in_flight_[coin_hash] = std::move(record);
  // Forward the transcript to every committing witness for countersigning.
  Writer w;
  transcript.encode(w);
  auto payload = w.take();
  bool first = true;
  for (const auto& commitment : commitments) {
    auto node = directory_.merchants.find(commitment.witness);
    if (node == directory_.merchants.end()) continue;
    Message sign_req{id(), node->second, "pay.sign_req", payload, msg.trace};
    if (first)
      send_after_cost(ops, std::move(sign_req), span);
    else
      send_after_cost(ops, std::move(sign_req));
    first = false;
    ops = OpCounters{};  // charge validation cost only once
  }
  // No reachable witness at all: the span would otherwise never close.
  if (first && tracer()) tracer()->end_span(span, "no reachable witness");
}

void MerchantActor::handle_sign_request(const Message& msg) {
  Reader r(msg.payload);
  auto transcript = ecash::PaymentTranscript::decode(r);
  const Hash256 coin_hash = transcript.coin.bare.coin_hash();
  reply_after_cost(msg, "witness_countersign", [&](Writer& w) {
    auto result = witness_.sign_transcript(transcript, now());
    if (!result) {
      w.put_bytes(coin_hash);
      w.put_string(result.refusal().detail);
      return "pay.sign_refused";
    }
    if (auto* endorsement =
            std::get_if<ecash::WitnessEndorsement>(&result.value())) {
      w.put_bytes(coin_hash);
      endorsement->encode(w);
      return "pay.endorse";
    }
    std::get<ecash::DoubleSpendProof>(result.value()).encode(w);
    return "pay.double_spend";
  });
}

void MerchantActor::handle_sign_reply(const Message& msg) {
  Reader r(msg.payload);
  if (msg.type == "pay.double_spend") {
    auto proof = ecash::DoubleSpendProof::decode(r);
    auto client = in_flight_.find(proof.coin_hash);
    if (client == in_flight_.end()) {
      ignore_late_reply(msg.trace, "double-spend proof");
      return;
    }
    OpCounters ops;
    Message reply{id(), client->second.client, "", {},
                  client->second.trace};
    {
      ScopedOpCounting guard(ops);
      auto verified = merchant_.handle_double_spend(proof.coin_hash, proof);
      Writer w;
      if (verified) {
        reply.type = "pay.refused_double_spend";
        verified.value().encode(w);
      } else {
        // Witness answered with a bogus proof: from the client's view the
        // payment failed; the merchant can escalate to the arbiter.
        reply.type = "pay.refused";
        w.put_bytes(proof.coin_hash);
        w.put_string(verified.refusal().detail);
      }
      reply.payload = w.take();
    }
    in_flight_.erase(client);
    send_after_cost(ops, std::move(reply));
    return;
  }

  const Hash256 coin_hash = ecash::read_hash(r);
  auto client = in_flight_.find(coin_hash);
  if (client == in_flight_.end()) {
    ignore_late_reply(msg.trace, msg.type);
    return;
  }

  if (msg.type == "pay.sign_refused") {
    const std::string detail = r.get_string();
    merchant_.abandon(coin_hash);
    Writer w;
    w.put_bytes(coin_hash);
    w.put_string("witness refused: " + detail);
    send_now(Message{id(), client->second.client, "pay.refused", w.take(),
                     client->second.trace});
    in_flight_.erase(client);
    return;
  }

  // pay.endorse
  auto endorsement = ecash::WitnessEndorsement::decode(r);
  const obs::TraceContext payment_trace = client->second.trace;
  OpCounters ops;
  std::optional<Message> reply;
  bool serviced = false;
  {
    ScopedOpCounting guard(ops);
    auto done = merchant_.add_endorsement(coin_hash, endorsement);
    Writer w;
    if (!done) {
      if (done.refusal().reason == RefusalReason::kDuplicate) {
        // A re-driven sign request produced a second identical endorsement;
        // not a protocol failure, just a duplicate delivery.
        suppress_duplicate(payment_trace, "duplicate endorsement");
        return;
      }
      w.put_bytes(coin_hash);
      w.put_string(done.refusal().detail);
      reply = Message{id(), client->second.client, "pay.refused", w.take(),
                      payment_trace};
    } else if (done.value()) {
      w.put_bytes(coin_hash);
      reply = Message{id(), client->second.client, "pay.service", w.take(),
                      payment_trace};
      serviced = true;
    }
    // else: keep waiting for more endorsements (k-of-n).
  }
  if (reply) {
    if (serviced) {
      // Remember the payment's trace so the eventual deposit of this coin
      // (driven by flush_deposits, possibly much later) joins the same trace.
      deposit_trace_[coin_hash] = payment_trace;
    }
    in_flight_.erase(client);
    send_after_cost(ops, std::move(*reply));
  }
}

void MerchantActor::flush_deposits() {
  for (auto& st : merchant_.drain_deposit_queue()) {
    Writer w;
    st.encode(w);
    const Hash256 coin_hash = st.transcript.coin.bare.coin_hash();
    PendingDeposit pd;
    if (auto it = deposit_trace_.find(coin_hash);
        it != deposit_trace_.end()) {
      pd.parent = it->second;
      deposit_trace_.erase(it);
    }
    Rpc::Site site;
    site.retry_note = "deposit attempt timed out; resending";
    site.on_exhausted = [this](Message& request) {
      // Keep the transcript; a later flush_deposits() re-submits it.
      ++resilience_.timeouts;
      trace_note(request.trace, "rpc.exhausted",
                 "deposit retries exhausted; parked for next flush");
      end_span(request.trace, "exhausted");
    };
    pd.rpc = rpc(directory_.broker, "deposit.submit", w.take(), {},
                 std::move(site));
    pending_deposits_[coin_hash] = std::move(pd);
  }
  // Submit every deposit not already in its retry loop.
  for (auto& [coin_hash, pd] : pending_deposits_) {
    if (pd.rpc.running()) continue;
    pd.rpc.request().trace = start_span(pd.parent, "deposit");
    pd.rpc.start();
  }
}

void MerchantActor::handle_deposit_receipt(const Message& msg) {
  Reader r(msg.payload);
  const Hash256 coin_hash = ecash::read_hash(r);
  auto it = pending_deposits_.find(coin_hash);
  if (it == pending_deposits_.end()) return;  // manual submission or dup ack
  std::string status = "ok";
  if (msg.type == "deposit.refused") {
    const auto reason = static_cast<RefusalReason>(r.get_u8());
    if (reason == RefusalReason::kAlreadyDeposited) {
      // An earlier retry landed and only the receipt was lost: that is an
      // ack, not an error.
      suppress_duplicate(it->second.rpc.request().trace,
                         "already deposited: lost receipt, not an error");
    } else {
      status = "refused";
    }
    // Any other refusal is definitive (the broker validated and said no);
    // retrying the same bytes cannot change it.
  }
  end_span(it->second.rpc.request().trace, status);
  pending_deposits_.erase(it);
}

void MerchantActor::on_restart() {
  // Volatile per-payment state is gone — clients re-drive or time out.
  in_flight_.clear();
  // Deposit submissions are journaled with the durable storefront state.
  // The node is still down while this hook runs, so park them for
  // re-submission by the next flush_deposits() instead of resending here.
  for (auto& [coin_hash, pd] : pending_deposits_) {
    pd.rpc.cancel();
    trace_note(pd.rpc.request().trace, "node.restart",
               "merchant restarted mid-deposit");
    end_span(pd.rpc.request().trace, "restart");
  }
}

// ---------------------------------------------------------------------------
// ClientActor
// ---------------------------------------------------------------------------

ClientActor::ClientActor(transport::Transport& tx, simnet::CostModel cost,
                         const group::SchnorrGroup& grp,
                         sig::PublicKey broker_key,
                         const ecash::WitnessTable& table,
                         const Directory& directory, std::uint64_t seed)
    : ProtocolActor(tx, cost),
      grp_(grp),
      broker_key_(broker_key),
      table_(table),
      directory_(directory),
      rng_(seed),
      wallet_(grp, broker_key, broker_key, rng_) {}

void ClientActor::withdraw(Cents denomination, WithdrawCallback done,
                           SimTime deadline_ms) {
  const std::uint64_t req_id = next_request_++;
  PendingWithdrawal& pending = withdrawals_[req_id];
  pending.done = std::move(done);
  pending.retries = deadline_ms > 0;
  if (auto* tr = tracer()) pending.span = tr->start_root("withdraw", id());
  Writer w;
  w.put_u64(req_id);
  w.put_u32(denomination);
  pending.rpc = broker_rpc(pending, "withdraw.start", w.take());
  if (pending.retries) {
    // Overall deadline: fail with a clean refusal if still unresolved.
    schedule(deadline_ms, [this, req_id]() {
      auto it = withdrawals_.find(req_id);
      if (it == withdrawals_.end()) return;
      if (it->second.state) sessions_.erase(it->second.state->session);
      auto cb = std::move(it->second.done);
      auto span = it->second.span;
      withdrawals_.erase(it);
      ++resilience_.timeouts;
      trace_note(span, "rpc.timeout", "withdrawal deadline expired");
      end_span(span, "timeout");
      cb(Refusal{RefusalReason::kInternal, "timeout"});
    });
    pending.rpc.start();
  } else {
    send_now(pending.rpc.request());
  }
}

Rpc ClientActor::broker_rpc(PendingWithdrawal& w, std::string type,
                            std::vector<std::uint8_t> payload) {
  Rpc::Site site;
  site.health = &health_;
  site.wait_out_open_breaker = true;
  site.silence_note = "no broker reply before timeout";
  site.trip_note = "broker circuit opened";
  site.retry_note = "resending " + type;
  // Out of attempts: stop, and let the withdrawal deadline decide.
  return rpc(directory_.broker, std::move(type), std::move(payload), w.span,
             std::move(site));
}

void ClientActor::handle_withdraw_offer(const Message& msg) {
  Reader r(msg.payload);
  const std::uint64_t req_id = r.get_u64();
  auto it = withdrawals_.find(req_id);
  if (it == withdrawals_.end() || it->second.state) {
    // Duplicate offer (retransmitted start, duplicated delivery) — the
    // first copy won and this request is past the offer.
    ignore_late_reply(msg.trace, "withdraw.offer");
    return;
  }
  PendingWithdrawal& pending = it->second;

  ecash::Broker::WithdrawalOffer offer;
  offer.session = r.get_u64();
  offer.info = ecash::CoinInfo::decode(r);
  offer.first.a = r.get_bigint();
  offer.first.b = r.get_bigint();

  health_.record_success(directory_.broker);
  OpCounters ops;
  Writer w;
  {
    ScopedOpCounting guard(ops);
    pending.state = wallet_.begin_withdrawal(offer);
    w.put_u64(pending.state->session);
    w.put_bigint(pending.state->e);
  }
  sessions_[pending.state->session] = req_id;
  // Replacing the start call silences its timers.
  pending.rpc = broker_rpc(pending, "withdraw.challenge", w.take());
  send_after_cost(ops, pending.rpc.request());
  if (pending.retries) pending.rpc.start_sent();
}

void ClientActor::handle_withdraw_response(const Message& msg) {
  Reader r(msg.payload);
  const std::uint64_t key = r.get_u64();
  auto it = withdrawals_.end();
  if (auto s = sessions_.find(key); s != sessions_.end()) {
    it = withdrawals_.find(s->second);
    sessions_.erase(s);
  } else if (msg.type == "withdraw.refused") {
    // A refusal straight after withdraw.start carries our request id.
    it = withdrawals_.find(key);
    if (it != withdrawals_.end() && it->second.state) it = withdrawals_.end();
  }
  if (it == withdrawals_.end()) {
    ignore_late_reply(msg.trace, msg.type);
    return;
  }
  auto pending = std::move(it->second);
  withdrawals_.erase(it);

  if (msg.type == "withdraw.refused") {
    end_span(pending.span, "refused");
    pending.done(Refusal{RefusalReason::kInternal, r.get_string()});
    return;
  }
  health_.record_success(directory_.broker);
  blindsig::SignerResponse response;
  response.r = r.get_bigint();
  response.c = r.get_bigint();
  response.s = r.get_bigint();
  OpCounters ops;
  Outcome<ecash::WalletCoin> coin =
      Refusal{RefusalReason::kInternal, "unset"};
  {
    ScopedOpCounting guard(ops);
    coin = wallet_.complete_withdrawal(*pending.state, response, table_);
  }
  // Charge the unblinding cost before reporting completion.
  schedule(cost_.sample_cost_ms(ops, rng()),
           [this, span = pending.span, done = std::move(pending.done),
            coin = std::move(coin)]() mutable {
             end_span(span, coin ? "ok" : "refused");
             done(std::move(coin));
           });
}

void ClientActor::pay(const ecash::WalletCoin& coin,
                      const MerchantId& merchant, PayCallback done,
                      SimTime timeout_ms) {
  // One in-flight payment per coin per client: replies are correlated by
  // coin hash.  (An attacker wanting concurrent spends runs two clients —
  // see the actors test; the witness still serializes them.)
  {
    metrics::ScopedSuspendOpCounting suspend;
    const auto hash = coin.coin.bare.coin_hash();
    if (payments_.contains(hash)) {
      PayResult result;
      result.error = "payment already in flight for this coin";
      done(std::move(result));
      return;
    }
  }
  auto merchant_node = directory_.merchants.find(merchant);
  if (merchant_node == directory_.merchants.end()) {
    PayResult result;
    result.error = "unknown merchant";
    done(std::move(result));
    return;
  }
  // Not make_shared: the payment's timers hold weak references for up to
  // timeout_ms, and those would pin a make_shared object's storage.
  PaymentPtr pp(new PendingPayment);
  PendingPayment& p = *pp;
  p.coin = coin;
  p.merchant = merchant;
  p.merchant_node = merchant_node->second;
  p.started = now_ms();
  p.done = std::move(done);
  if (auto* tr = tracer()) {
    p.trace_root = tr->start_root("payment", id());
    p.phase = tr->start_child(p.trace_root, "assign_witness", id());
  }

  OpCounters ops;
  {
    ScopedOpCounting guard(ops);
    p.intent = wallet_.prepare_payment(coin, merchant);
  }
  {
    // The coin's n witness entries are its replica set.  Order them the way
    // a chord successor-list lookup would try replicas from the coin's
    // primary witness point: nearest clockwise range first, then onward
    // around the ring.  (Suspended counting: witness_point re-hashes the
    // coin, which is bookkeeping, not protocol work.)
    metrics::ScopedSuspendOpCounting suspend;
    const bn::BigInt key = coin.coin.bare.witness_point(0);
    std::vector<bn::BigInt> points;
    points.reserve(coin.coin.witnesses.size());
    for (const auto& entry : coin.coin.witnesses) points.push_back(entry.lo);
    for (std::size_t idx : overlay::failover_order(key, points)) {
      const auto& entry = coin.coin.witnesses[idx];
      auto node = directory_.merchants.find(entry.merchant);
      if (node == directory_.merchants.end()) continue;
      WitnessAttempt attempt;
      attempt.witness = entry.merchant;
      attempt.node = node->second;
      p.plan.push_back(std::move(attempt));
    }
  }
  Writer w;
  w.put_bytes(p.intent.coin_hash);
  w.put_bytes(p.intent.nonce);
  p.commit_payload = w.take();
  payments_[p.intent.coin_hash] = pp;

  // Step 1: engage the first witness_k admissible witnesses in failover
  // order, after charging the preparation cost once.  The rest of the plan
  // is spare capacity for failover.
  auto engage = [this](PendingPayment& payment) {
    // Witness selection done: move the trace into the commit phase.
    if (auto* tr = tracer()) {
      tr->end_span(payment.phase);
      payment.phase = tr->start_child(payment.trace_root, "payment_commit",
                                      id());
    }
    const std::size_t need = payment.coin.coin.bare.info.witness_k;
    std::size_t engaged = 0;
    for (std::size_t i = 0; i < payment.plan.size() && engaged < need; ++i) {
      if (!health_.allow(payment.plan[i].node, now_ms())) continue;
      engage_witness(payment, i);
      ++engaged;
    }
  };
  const SimTime prep_cost = cost_.sample_cost_ms(ops, rng());
  if (prep_cost > 0) {
    after(pp, prep_cost, engage);
  } else {
    engage(p);
  }

  after(pp, timeout_ms, [this](PendingPayment& payment) {
    ++resilience_.timeouts;
    trace_note(payment.phase, "rpc.timeout", "payment deadline expired");
    fail_payment(payment, "timeout");
  });
}

void ClientActor::after(const PaymentPtr& p, SimTime delay_ms,
                        std::function<void(PendingPayment&)> fn) {
  schedule(delay_ms, [weak = std::weak_ptr<PendingPayment>(p),
                      fn = std::move(fn)] {
    if (auto live = weak.lock()) fn(*live);
  });
}

void ClientActor::engage_witness(PendingPayment& p, std::size_t index) {
  WitnessAttempt& attempt = p.plan[index];
  const std::string node = "witness node " + std::to_string(attempt.node);
  Rpc::Site site;
  site.health = &health_;
  site.silence_note = "no commit from " + node;
  site.trip_note = node + " circuit opened";
  site.retry_note = "re-requesting commitment from " + node;
  // Silence: the witness (or the path to it) is failing.  Hedge with the
  // next replica immediately, and retry this one with backoff until its
  // attempt budget runs out.
  site.on_silence = [this, &p] { engage_next_witness(p); };
  site.on_exhausted = [this, &p, index, node](Message&) {
    p.plan[index].exhausted = true;
    trace_note(p.phase, "rpc.exhausted", node + " attempt budget spent");
    check_commit_possibility(p, "witness unreachable");
  };
  attempt.commit = rpc(attempt.node, "pay.commit_req", p.commit_payload,
                       p.phase, std::move(site));
  attempt.commit.start();
  // Engaged after the commit phase closed (a late refusal re-drove the
  // plan): the request goes out, but its silence no longer matters.
  if (p.commitments.size() >= p.coin.coin.bare.info.witness_k)
    attempt.commit.cancel();
}

void ClientActor::engage_next_witness(PendingPayment& p) {
  for (std::size_t i = 0; i < p.plan.size(); ++i) {
    WitnessAttempt& attempt = p.plan[i];
    if (attempt.commit.attempts() > 0 || attempt.refused || attempt.exhausted)
      continue;
    if (!health_.allow(attempt.node, now_ms())) continue;
    ++resilience_.failovers;
    trace_note(p.phase, "rpc.failover",
               "engaging spare witness node " + std::to_string(attempt.node));
    engage_witness(p, i);
    return;
  }
}

void ClientActor::check_commit_possibility(PendingPayment& p,
                                           const std::string& detail) {
  const std::size_t need = p.coin.coin.bare.info.witness_k;
  if (p.commitments.size() >= need) return;
  std::size_t possible = 0;
  for (const auto& attempt : p.plan) {
    if (!attempt.refused && !attempt.exhausted) ++possible;
  }
  if (possible >= need) return;
  fail_payment(p, detail);
}

void ClientActor::handle_commit(const Message& msg) {
  Reader r(msg.payload);
  auto commitment = ecash::WitnessCommitment::decode(r);
  auto it = payments_.find(commitment.coin_hash);
  if (it == payments_.end()) {
    ignore_late_reply(msg.trace, "pay.commit");
    return;
  }
  PendingPayment& p = *it->second;
  if (commitment.nonce != p.intent.nonce) {
    // A commitment from an earlier, abandoned payment of this coin — its
    // nonce binds a different (salt, merchant) pair.
    ignore_late_reply(msg.trace, "stale-nonce commitment");
    return;
  }
  auto plan_it = std::find_if(p.plan.begin(), p.plan.end(),
                              [&](const WitnessAttempt& a) {
                                return a.witness == commitment.witness;
                              });
  if (plan_it == p.plan.end()) {
    ignore_late_reply(msg.trace, "unknown witness");
    return;
  }
  if (plan_it->committed) {
    // Duplicated delivery or a resend's echo.
    suppress_duplicate(p.phase, "duplicate commitment");
    return;
  }
  plan_it->committed = true;
  plan_it->commit.cancel();
  health_.record_success(plan_it->node);
  const std::uint8_t need = p.coin.coin.bare.info.witness_k;
  if (p.commitments.size() >= need) return;  // hedged extra; already moving on
  p.commitments.push_back(std::move(commitment));
  if (p.commitments.size() < need) return;

  // k commitments gathered: the commit phase is over (no more commit
  // retries), the witness-sign phase (transcript build, merchant
  // validation, countersignatures) opens.
  for (auto& attempt : p.plan) attempt.commit.cancel();
  if (auto* tr = tracer()) {
    tr->end_span(p.phase);
    p.phase = tr->start_child(p.trace_root, "witness_sign", id());
  }

  // Step 3: build and send the transcript (this is where the client's Ver
  // of the commitment signature and the NIZK response happen).
  OpCounters ops;
  Outcome<ecash::PaymentTranscript> transcript =
      Refusal{RefusalReason::kInternal, "unset"};
  {
    ScopedOpCounting guard(ops);
    transcript = wallet_.build_transcript(p.coin, p.intent, p.commitments,
                                          now());
  }
  if (!transcript) {
    fail_payment(p, transcript.refusal().detail);
    return;
  }
  Writer w;
  transcript.value().encode(w);
  w.put_u8(static_cast<std::uint8_t>(p.commitments.size()));
  for (const auto& c : p.commitments) c.encode(w);

  Rpc::Site site;
  site.health = &health_;
  site.silence_note = "no merchant reply to transcript";
  site.trip_note = "merchant circuit opened";
  site.retry_note = "resending transcript";
  // The merchant is the one fixed counterparty — no failover target.
  site.on_exhausted = [this, &p](Message&) {
    fail_payment(p, "merchant unreachable");
  };
  p.transcript = rpc(p.merchant_node, "pay.transcript", w.take(), p.phase,
                     std::move(site));
  const SimTime build_cost = cost_.sample_cost_ms(ops, rng());
  if (build_cost > 0) {
    after(it->second, build_cost,
          [](PendingPayment& live) { live.transcript.start(); });
  } else {
    p.transcript.start();
  }
}

void ClientActor::handle_pay_reply(const Message& msg) {
  Reader r(msg.payload);
  if (msg.type == "pay.refused_double_spend") {
    auto proof = ecash::DoubleSpendProof::decode(r);
    auto it = payments_.find(proof.coin_hash);
    if (it == payments_.end()) {
      ignore_late_reply(msg.trace, "double-spend refusal");
      return;
    }
    PendingPayment& p = *it->second;
    if (msg.from != p.merchant_node) {
      ignore_late_reply(msg.trace, "wrong merchant");
      return;
    }
    trace_note(p.phase, "pay.double_spend",
               "merchant returned a double-spend proof");
    PayResult result;
    result.double_spend_proof = std::move(proof);
    result.error = "double spend detected";
    finish_payment(p, std::move(result));
    return;
  }
  const Hash256 coin_hash = ecash::read_hash(r);
  auto it = payments_.find(coin_hash);
  if (it == payments_.end()) {
    ignore_late_reply(msg.trace, msg.type);
    return;
  }
  PendingPayment& p = *it->second;

  if (msg.type == "pay.commit_refused") {
    // One witness refused to commit; under k-of-n others may still carry
    // the payment.  Fail only when k successes are no longer reachable.
    auto plan_it = std::find_if(p.plan.begin(), p.plan.end(),
                                [&](const WitnessAttempt& a) {
                                  return a.node == msg.from;
                                });
    if (plan_it == p.plan.end()) {
      ignore_late_reply(msg.trace, "refusal from non-plan node");
      return;
    }
    plan_it->refused = true;
    plan_it->commit.cancel();
    health_.record_success(plan_it->node);  // it answered; it is alive
    trace_note(p.phase, "commit.refused",
               "witness node " + std::to_string(plan_it->node) + " refused");
    engage_next_witness(p);
    check_commit_possibility(p, "commitment refused: " + r.get_string());
    return;
  }

  // pay.service / pay.refused come from the payment's merchant; anything
  // else is a stray or stale delivery.
  if (msg.from != p.merchant_node) {
    ignore_late_reply(msg.trace, "reply from wrong node");
    return;
  }
  PayResult result;
  if (msg.type == "pay.service") {
    health_.record_success(p.merchant_node);
    result.accepted = true;
  } else {
    result.error = r.get_string();
  }
  finish_payment(p, std::move(result));
}

void ClientActor::finish_payment(PendingPayment& p, PayResult result) {
  result.elapsed_ms = now_ms() - p.started;
  result.trace_id = p.trace_root.trace;
  if (auto* tr = tracer()) {
    const std::string status =
        result.accepted ? "ok" : result.error.value_or("failed");
    tr->end_span(p.phase, status);
    tr->end_span(p.trace_root, status);
  }
  auto done = std::move(p.done);
  payments_.erase(p.intent.coin_hash);
  done(std::move(result));
}

void ClientActor::fail_payment(PendingPayment& p, std::string error) {
  PayResult result;
  result.error = std::move(error);
  finish_payment(p, std::move(result));
}

void ClientActor::on_message(const Message& msg) {
  if (msg.type == "withdraw.offer") {
    handle_withdraw_offer(msg);
  } else if (msg.type == "withdraw.response" ||
             msg.type == "withdraw.refused") {
    handle_withdraw_response(msg);
  } else if (msg.type == "pay.commit") {
    handle_commit(msg);
  } else if (msg.type == "pay.service" || msg.type == "pay.refused" ||
             msg.type == "pay.refused_double_spend" ||
             msg.type == "pay.commit_refused") {
    handle_pay_reply(msg);
  }
}

}  // namespace p2pcash::actors
