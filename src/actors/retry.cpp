#include "actors/retry.h"

#include <algorithm>

#include "obs/trace.h"
#include "transport/transport.h"

namespace p2pcash::actors {

simnet::SimTime RetryPolicy::next_backoff(simnet::SimTime prev_ms,
                                          bn::Rng& rng) const {
  const simnet::SimTime lo = backoff_base_ms;
  // Clamp BEFORE the 3x multiply: SimTime is a double, so a pathological
  // prev_ms (a caller feeding accumulated sim time, DBL_MAX, or an inf
  // from earlier arithmetic) would make 3 * prev_ms non-finite, and the
  // bounds of the jitter draw below would no longer be guaranteed to be
  // finite values inside [base, cap].
  const simnet::SimTime prev = std::min(prev_ms, backoff_cap_ms);
  const simnet::SimTime hi =
      std::min(backoff_cap_ms, std::max(lo, 3 * prev));
  if (hi <= lo) return lo;
  const double u = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

void PeerHealth::configure(Config config) {
  sync::MutexLock lock(mu_);
  config_ = config;
  peers_.clear();
  trips_ = 0;
}

bool PeerHealth::allow(simnet::NodeId peer, simnet::SimTime now) {
  sync::MutexLock lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || !it->second.open) return true;
  State& s = it->second;
  if (now >= s.open_until && !s.probing) {
    s.probing = true;  // half-open: exactly one probe
    return true;
  }
  return false;
}

void PeerHealth::record_success(simnet::NodeId peer) {
  sync::MutexLock lock(mu_);
  peers_.erase(peer);
}

bool PeerHealth::record_failure(simnet::NodeId peer, simnet::SimTime now) {
  sync::MutexLock lock(mu_);
  State& s = peers_[peer];
  if (s.open) {
    if (!s.probing) return false;  // failure of a pre-open attempt
    // Failed half-open probe: re-open the window.
    s.probing = false;
    s.open_until = now + config_.open_ms;
    ++trips_;
    return true;
  }
  if (++s.consecutive_failures < config_.failure_threshold) return false;
  s.open = true;
  s.probing = false;
  s.open_until = now + config_.open_ms;
  ++trips_;
  return true;
}

bool PeerHealth::is_open(simnet::NodeId peer, simnet::SimTime now) const {
  sync::MutexLock lock(mu_);
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.open && now < it->second.open_until;
}

Rpc::Rpc(transport::Transport& tx, const RetryPolicy& policy,
         metrics::ResilienceCounters& counters, simnet::Message request,
         Site site)
    : state_(new State{&tx, &policy, &counters, std::move(request),
                       std::move(site)}) {}

void Rpc::begin() {
  // A fresh state orphans every timer of an earlier run.  Not
  // make_shared: expired timers' weak references would pin its storage.
  state_.reset(new State(std::move(*state_)));
  state_->attempts = 0;
  state_->prev_backoff = 0;
  state_->running = true;
}

void Rpc::start() {
  begin();
  send(state_);
}

void Rpc::start_sent() {
  begin();
  state_->attempts = 1;
  arm(state_);
}

void Rpc::cancel() {
  if (state_) state_->running = false;
}

void Rpc::note(const State& s, std::string_view name,
               std::string_view detail) {
  if (auto* tr = s.tx->tracer()) tr->event(s.request.trace, name, detail);
}

void Rpc::send(const std::shared_ptr<State>& s) {
  ++s->attempts;
  s->tx->send(s->request);
  arm(s);
}

void Rpc::arm(const std::shared_ptr<State>& s) {
  s->tx->schedule_on(s->request.from, s->policy->attempt_timeout_ms,
                     [weak = std::weak_ptr<State>(s)] {
                       auto live = weak.lock();
                       if (live && live->running) on_timeout(live);
                     });
}

void Rpc::on_timeout(const std::shared_ptr<State>& s) {
  const Site& site = s->site;
  if (!site.silence_note.empty()) note(*s, "rpc.silence", site.silence_note);
  if (site.health && site.health->record_failure(s->request.to, s->tx->now())) {
    ++s->counters->breaker_trips;
    note(*s, "breaker.trip", site.trip_note);
  }
  if (site.on_silence) site.on_silence();
  if (s->attempts >= s->policy->max_attempts) {
    s->running = false;
    if (site.on_exhausted) site.on_exhausted(s->request);
    return;
  }
  s->prev_backoff =
      s->policy->next_backoff(s->prev_backoff, s->tx->rng(s->request.from));
  s->tx->schedule_on(
      s->request.from, s->prev_backoff, [weak = std::weak_ptr<State>(s)] {
        auto live = weak.lock();
        if (!live || !live->running) return;
        if (live->site.wait_out_open_breaker &&
            !live->site.health->allow(live->request.to, live->tx->now())) {
          arm(live);
          return;
        }
        ++live->counters->retries;
        note(*live, "rpc.retry", live->site.retry_note);
        send(live);
      });
}

}  // namespace p2pcash::actors
