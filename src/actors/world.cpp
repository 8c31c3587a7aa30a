#include "actors/world.h"

#include <thread>

namespace p2pcash::actors {

namespace {
std::uint64_t draw_u64(bn::Rng& rng) {
  std::array<std::uint8_t, 8> b{};
  rng.fill(b);
  std::uint64_t v = 0;
  for (std::uint8_t x : b) v = (v << 8) | x;
  return v;
}
}  // namespace

SimWorld::SimWorld(const group::SchnorrGroup& grp, Options options)
    : Cluster(grp, options) {
  rng_ = std::make_unique<crypto::ChaChaRng>(options.seed);
  net_ = std::make_unique<simnet::Network>(
      sim_,
      std::make_unique<simnet::UniformLatency>(options.latency_lo,
                                               options.latency_hi),
      *rng_, options.wire);
  shim_ = std::make_unique<transport::SimnetTransport>(*net_);
  // The tracer reads the simulator clock directly: spans carry sim-time,
  // so the same seed replays a byte-identical trace.
  tracer_ = std::make_unique<obs::Tracer>([this]() { return sim_.now(); },
                                          &sink_, &registry_);
  // Mark exported batches as simulator traces so tooling can tell them
  // from TCP traces without filename conventions.  hardware_threads is
  // advisory metadata: the simulation itself is single-threaded.
  sink_.set_meta(
      {"sim", static_cast<std::uint32_t>(std::thread::hardware_concurrency())});
  set_tracing(options.trace);
  register_collectors();
  // One thread, one world stream: every service shares it.
  build(*shim_, *rng_, /*fork_services=*/false);

  faults_ = std::make_unique<simnet::FaultPlan>(*net_);
  // Broker: ledgers and the account table survive a crash; open
  // withdrawal and renewal sessions do not.
  add_crash_model(directory_.broker, "broker.log", *broker_, broker_store_,
                  [this] { broker_->drop_sessions(); });
  for (MerchantSlot& s : merchants_) {
    // The storefront's half-done payments were in memory only; clients
    // re-drive or time out.  Endorsed deposits survive (queue + pending
    // submissions are journaled with the witness state).
    add_crash_model(directory_.merchants[s.id], witness_log_name(s.id),
                    *s.witness, s.store, [&s] {
                      s.merchant->drop_pending();
                      s.actor->on_restart();
                    });
  }
}

template <typename Service>
void SimWorld::add_crash_model(NodeId node, const std::string& log,
                               Service& service,
                               std::unique_ptr<store::LogStore>& store,
                               std::function<void()> after_restart) {
  if (options_.durable_stores) {
    // A crash kills the process at an arbitrary byte of the log's unsynced
    // tail; restart reopens the log (truncate + checkpoint restore + delta
    // replay) — no acknowledged state may be lost.
    faults_->set_recovery_hooks(
        node,
        [this, log](NodeId) {
          store_vfs_.crash_file(
              log, draw_u64(*rng_) % (store_vfs_.unsynced_bytes(log) + 1));
        },
        [this, log, &service, &store, after_restart](NodeId) {
          store.reset();
          store = open_log(log);
          service.attach_store(*store);
          after_restart();
        });
  } else {
    // Synchronous WAL: the state is on disk at the moment of the crash, so
    // a restart loses only volatile state.
    faults_->set_recovery_hooks(
        node, nullptr, [after_restart](NodeId) { after_restart(); });
  }
}

void SimWorld::crash_merchant(const MerchantId& id, simnet::SimTime at,
                              simnet::SimTime restart_at) {
  faults_->schedule_crash(merchant_node(id), at, restart_at);
}

void SimWorld::crash_broker(simnet::SimTime at, simnet::SimTime restart_at) {
  faults_->schedule_crash(directory_.broker, at, restart_at);
}

std::vector<NodeId> SimWorld::all_nodes() const {
  std::vector<NodeId> out;
  out.push_back(directory_.broker);
  for (const auto& [id, node] : directory_.merchants) out.push_back(node);
  for (const auto& client : clients_) out.push_back(client->id());
  return out;
}

void SimWorld::set_tracing(bool on) {
  trace_on_ = on;
  net_->set_tracer(on ? tracer_.get() : nullptr);
}

void SimWorld::register_collectors() {
  registry_.register_collector([this]() {
    auto samples = obs::resilience_samples("world", resilience_totals());
    auto ops = obs::op_counter_samples("world", metrics::thread_op_totals());
    samples.insert(samples.end(), ops.begin(), ops.end());
    return samples;
  });
  registry_.register_collector([this]() {
    std::uint64_t sent = 0, received = 0, messages = 0;
    for (NodeId node : all_nodes()) {
      sent += net_->bytes_sent(node);
      received += net_->bytes_received(node);
      messages += net_->messages_sent(node);
    }
    using obs::Sample;
    return std::vector<Sample>{
        {"world_net_bytes_sent_total", static_cast<double>(sent),
         Sample::Type::kCounter},
        {"world_net_bytes_received_total", static_cast<double>(received),
         Sample::Type::kCounter},
        {"world_net_messages_sent_total", static_cast<double>(messages),
         Sample::Type::kCounter},
        {"world_sim_now_ms", sim_.now(), Sample::Type::kGauge},
        {"world_sim_events_executed_total",
         static_cast<double>(sim_.events_executed()), Sample::Type::kCounter},
        {"world_fixed_base_table_bytes",
         static_cast<double>(grp_.fixed_base_memory_bytes()),
         Sample::Type::kGauge},
        {"world_trace_spans", static_cast<double>(sink_.span_count()),
         Sample::Type::kGauge},
        {"world_trace_events", static_cast<double>(sink_.event_count()),
         Sample::Type::kGauge},
        {"world_trace_dropped_total", static_cast<double>(sink_.dropped()),
         Sample::Type::kCounter},
    };
  });
}

}  // namespace p2pcash::actors
