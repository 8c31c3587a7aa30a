// retry.h — the resilient RPC layer: retry policy, per-peer circuit
// breaker, and the one retried-call primitive (Rpc) every actor uses.
//
// The actors speak UDP-like request/response: a silent peer is
// indistinguishable from a lost message, so every payment-critical RPC
// (withdrawal, commitment request, transcript hand-off, deposit
// submission) is an Rpc: a per-attempt timeout, decorrelated-jitter
// backoff between resends of the same bytes, a cap on attempts per peer,
// and optionally a per-peer circuit breaker so a dead witness stops eating
// attempts while its replicas carry the payment.  All randomness comes
// from the issuing endpoint's bn::Rng, keeping chaos runs seed-reproducible.
//
// Observability: every silence, retry and breaker trip is annotated onto
// the call's trace context (rpc.silence, rpc.retry, breaker.trip — see
// src/obs/trace.h), so a trace shows exactly which machinery fired and
// when.
//
// This is the only retry layer: the transport drops frames on a failed
// connection and redials on the next send, so resends, backoff and
// breaking all happen here.  Rpc needs only the Transport interface, not
// a concrete transport.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "bn/rng.h"
#include "metrics/counters.h"
#include "simnet/models.h"
#include "simnet/net.h"
#include "simnet/sim.h"
#include "sync/annotated.h"

namespace p2pcash::transport {
class Transport;
}

namespace p2pcash::actors {

/// Knobs for one retried RPC.  Defaults are tuned so a fault-free run is
/// byte-for-byte identical to the retry-free protocol (the first attempt is
/// the protocol message; timers only ever fire as no-ops).
struct RetryPolicy {
  /// Silence window before a resend / failover is considered.
  simnet::SimTime attempt_timeout_ms = 4'000;
  /// Decorrelated-jitter backoff: next = min(cap, uniform(base, 3 * prev)).
  simnet::SimTime backoff_base_ms = 250;
  simnet::SimTime backoff_cap_ms = 8'000;
  /// Sends per peer (including the first) before giving up on it.
  std::size_t max_attempts = 4;

  /// Samples the next backoff delay given the previous one (0 on the first
  /// retry).  Decorrelated jitter (min(cap, uniform(base, 3*prev))) spreads
  /// retry storms instead of synchronizing them.
  simnet::SimTime next_backoff(simnet::SimTime prev_ms, bn::Rng& rng) const;
};

/// Per-peer consecutive-failure circuit breaker.
///
/// closed --(failure_threshold consecutive failures)--> open
/// open   --(open_ms elapsed)--> half-open: allow() admits ONE probe
/// half-open --success--> closed;  --failure--> open again (re-trip)
///
/// Any success fully closes the breaker and resets the failure count.
///
/// Internally locked: breaker state is check-then-update (allow() admits
/// exactly one half-open probe), so concurrent RPC completions must not
/// interleave inside a transition.
class PeerHealth {
 public:
  struct Config {
    std::size_t failure_threshold = 3;  ///< consecutive failures to trip
    simnet::SimTime open_ms = 10'000;   ///< how long the breaker stays open
  };

  PeerHealth() = default;
  explicit PeerHealth(Config config) : config_(config) {}

  /// Replaces the config and resets all breaker state (same semantics as
  /// constructing a fresh PeerHealth with `config`).
  void configure(Config config);

  /// True if a request to `peer` may be sent now.  While open, admits a
  /// single half-open probe once open_ms has elapsed.
  bool allow(simnet::NodeId peer, simnet::SimTime now);

  void record_success(simnet::NodeId peer);
  /// Records a failure; returns true iff this transition tripped the
  /// breaker (closed -> open, or a failed half-open probe re-opening it).
  bool record_failure(simnet::NodeId peer, simnet::SimTime now);

  bool is_open(simnet::NodeId peer, simnet::SimTime now) const;
  std::uint64_t trips() const {
    sync::MutexLock lock(mu_);
    return trips_;
  }

 private:
  struct State {
    std::size_t consecutive_failures = 0;
    bool open = false;
    bool probing = false;  ///< half-open probe in flight
    simnet::SimTime open_until = 0;
  };

  mutable sync::Mutex mu_{"actors.peer_health", sync::level::kActors};
  Config config_ P2P_GUARDED_BY(mu_);
  std::map<simnet::NodeId, State> peers_ P2P_GUARDED_BY(mu_);
  std::uint64_t trips_ P2P_GUARDED_BY(mu_) = 0;
};

/// One retried request/response call.  It owns the request (bytes, type,
/// destination, trace context), the attempt count and previous backoff,
/// and its own liveness; what differs between call sites is passed in as
/// a Site.
///
/// start() sends the request and arms a silence timer
/// (attempt_timeout_ms).  A reply is the owner's business: it cancel()s or
/// destroys the Rpc.  On silence, in this order: rpc.silence note; a
/// breaker failure (Site::health, with breaker.trip when it opens);
/// on_silence; then either on_exhausted (attempt budget spent — the call
/// stops) or one backoff draw and, after it, a resend (rpc.retry).
///
/// Liveness: timers hold only a weak reference to the call's state and
/// start() gives the call fresh state, so a timer that outlives its
/// request — reply arrived, owner destroyed, call re-driven — does nothing.
/// The timers are still scheduled and fire on time.
///
/// Strand-confined: every method, timer and hook runs on the issuing
/// endpoint's strand (transport.h), so the state needs no lock.
class Rpc {
 public:
  /// A call site's behaviour.
  struct Site {
    /// Breaker fed on every silence; nullptr = none (no failure recorded).
    PeerHealth* health = nullptr;
    /// When the breaker refuses a resend, re-arm the silence timer without
    /// spending an attempt, so the loop resumes with the half-open probe.
    bool wait_out_open_breaker = false;
    /// Trace-note details (an empty silence_note records no rpc.silence).
    std::string silence_note, trip_note, retry_note;
    /// Runs after each silence, before the attempt budget is checked.
    std::function<void()> on_silence;
    /// Runs once when the budget is spent; gets the request so the owner
    /// can close or annotate its trace context.
    std::function<void(simnet::Message& request)> on_exhausted;
  };

  Rpc() = default;
  /// `request.from` is the issuing endpoint: timers run on its strand and
  /// backoff draws come from its RNG.  `policy` and `counters` must
  /// outlive the call (they belong to the issuing actor).
  Rpc(transport::Transport& tx, const RetryPolicy& policy,
      metrics::ResilienceCounters& counters, simnet::Message request,
      Site site);

  /// (Re)starts with a fresh attempt budget: sends and arms the timer.
  void start();
  /// Same, for a first copy the caller already sent (cost-charged).
  void start_sent();
  /// Stops the call; pending timers do nothing.  start() can re-drive it.
  void cancel();

  bool running() const { return state_ && state_->running; }
  /// Sends so far in the current run (0 = never started).
  std::size_t attempts() const { return state_ ? state_->attempts : 0; }
  simnet::Message& request() { return state_->request; }

 private:
  struct State {
    transport::Transport* tx;
    const RetryPolicy* policy;
    metrics::ResilienceCounters* counters;
    simnet::Message request;
    Site site;
    std::size_t attempts = 0;
    simnet::SimTime prev_backoff = 0;
    bool running = false;
  };
  void begin();
  static void send(const std::shared_ptr<State>& s);
  static void arm(const std::shared_ptr<State>& s);
  static void on_timeout(const std::shared_ptr<State>& s);
  static void note(const State& s, std::string_view name,
                   std::string_view detail);

  std::shared_ptr<State> state_;
};

}  // namespace p2pcash::actors
