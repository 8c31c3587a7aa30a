// world.h — the cluster (cluster.h) on one deterministic simnet Network:
// broker node, merchant nodes (storefront + witness) and client nodes, all
// drawing from one world RNG stream, so a seed replays a run byte for byte
// (RNG draws, trace, counters, wire bytes).
//
// The world owns a FaultPlan wired to each node's crash-recovery hooks.
// By default durable state follows the synchronous-WAL model: it is on
// disk at the moment of the crash, so the witness's commitments and spent
// records and the broker's ledgers are untouched, and a restart only drops
// volatile state — the storefront's half-done payments, the actor's RPC
// state and the broker's open withdrawal/renewal sessions.  With
// durable_stores a crash instead tears the node's log at a seed-chosen
// unsynced byte and restart recovers from the log before dropping the
// same volatile state.

#pragma once

#include <memory>
#include <vector>

#include "actors/cluster.h"
#include "simnet/fault.h"
#include "simnet/sim.h"
#include "transport/simnet_transport.h"

namespace p2pcash::actors {

class SimWorld : public Cluster {
 public:
  struct Options : Cluster::Options {
    simnet::WireFormat wire = simnet::WireFormat::kBinary;
    /// One-way latency bounds in ms (the paper's WAN: 25–50).
    simnet::SimTime latency_lo = 25.0;
    simnet::SimTime latency_hi = 50.0;
    /// When true, a Tracer is attached to the network before any node
    /// exists, so every protocol phase of every payment is spanned.  The
    /// trace layer consumes no RNG and adds no wire bytes: enabling it
    /// cannot perturb a chaos schedule or the Table-2 byte accounting.
    bool trace = false;
  };

  explicit SimWorld(const group::SchnorrGroup& grp, Options options);

  simnet::Simulator& sim() { return sim_; }
  simnet::Network& net() { return *net_; }
  transport::Transport& transport() { return *shim_; }

  /// The chaos engine, with crash-recovery hooks for every protocol node
  /// already registered (see the header comment).
  simnet::FaultPlan& faults() { return *faults_; }

  /// Convenience wrappers over faults(): crash with recovery semantics.
  void crash_merchant(const MerchantId& id, simnet::SimTime at,
                      simnet::SimTime restart_at);
  void crash_broker(simnet::SimTime at, simnet::SimTime restart_at);

  /// Every attached node id (broker, merchants, clients created so far).
  std::vector<NodeId> all_nodes() const;

  /// The tracer, or nullptr when tracing is off.  The registry carries
  /// collectors for the resilience totals, the thread's op totals,
  /// simulator progress and per-world network traffic.
  obs::Tracer* tracer() { return trace_on_ ? tracer_.get() : nullptr; }
  /// Turns span/event recording on or off at runtime (Options.trace sets
  /// the initial state).  Existing records are kept.
  void set_tracing(bool on);
  bool tracing() const { return trace_on_; }

 private:
  void register_collectors();
  /// Wires `node`'s crash/restart to its service's durable state;
  /// `after_restart` drops the node's volatile state.
  template <typename Service>
  void add_crash_model(NodeId node, const std::string& log, Service& service,
                       std::unique_ptr<store::LogStore>& store,
                       std::function<void()> after_restart);

  simnet::Simulator sim_;
  std::unique_ptr<obs::Tracer> tracer_;
  bool trace_on_ = false;
  std::unique_ptr<crypto::ChaChaRng> rng_;
  std::unique_ptr<simnet::Network> net_;
  /// The deterministic Transport the actors speak through: a verbatim
  /// forwarding shim over net_, so the simnet path stays byte-identical.
  std::unique_ptr<transport::SimnetTransport> shim_;
  std::unique_ptr<simnet::FaultPlan> faults_;
};

}  // namespace p2pcash::actors
