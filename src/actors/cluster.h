// cluster.h — the one deployment recipe: a broker, merchant machines
// (storefront + witness behind one endpoint) and clients, with the witness
// table published to everyone, assembled on any transport::Transport.
// The construction mirrors the paper's PlanetLab setup: every party on its
// own host.
//
// SimWorld (world.h) hosts it on the deterministic simulator, NodeRuntime
// (runtime.h) on real loopback TCP.  A host supplies only what differs:
//   * the Transport the actors speak through;
//   * the RNG each service gets: the setup stream itself (the simulator's
//     one world stream), or its own setup.fork(label) (services on worker
//     threads need strand-confined streams);
//   * whatever it layers on top (SimWorld's FaultPlan recovery hooks,
//     NodeRuntime's obs stack).
//
// Durable mode (Options::durable_stores): broker and every witness journal
// coin state into append-only LogStores on an in-process MemVfs, with
// store_* metrics (fsync latency, group-commit batch) in the registry.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "actors/actors.h"
#include "crypto/chacha.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "store/log_store.h"
#include "store/vfs.h"

namespace p2pcash::actors {

class Cluster {
 public:
  /// What every host configures the same way.
  struct Options {
    std::size_t merchants = 8;
    std::uint64_t seed = 1;
    /// Compute time actors charge before replying, per crypto op.
    simnet::CostModel cost = simnet::openssl_cost();
    ecash::Broker::Config broker;
    ecash::Cents security_deposit = 10'000;
    /// RPC retry discipline applied to every client and merchant actor.
    RetryPolicy retry;
    /// Circuit-breaker configuration applied to every client.
    PeerHealth::Config breaker;
    /// Ring-buffer capacity of the trace sink (records, spans + events).
    std::size_t trace_capacity = std::size_t{1} << 16;
    /// Journal broker and witness state into LogStores (header comment).
    bool durable_stores = false;
  };

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  ecash::Broker& broker() { return *broker_; }
  const Directory& directory() const { return directory_; }
  const group::SchnorrGroup& grp() const { return grp_; }

  std::vector<MerchantId> merchant_ids() const;
  MerchantActor& merchant_actor(const MerchantId& id);
  ecash::Merchant& merchant(const MerchantId& id);
  ecash::WitnessService& witness(const MerchantId& id);
  NodeId merchant_node(const MerchantId& id) const;

  /// Creates a client endpoint (its own RNG stream derived from the seed).
  /// TcpNet fixes its endpoint set at start(), so add clients before that.
  ClientActor& add_client();

  /// Takes a merchant machine down / up (storefront and witness together).
  void set_merchant_down(const MerchantId& id, bool down);

  /// Sum of the resilience counters across all clients and merchant
  /// actors.  The counters are strand-confined: on a threaded transport,
  /// read them only while it is stopped or quiescent.
  metrics::ResilienceCounters resilience_totals() const;

  /// The metrics registry; hosts and benches add collectors/histograms.
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }
  /// The trace sink (empty unless the host traces).
  obs::TraceSink& trace_sink() { return sink_; }
  /// The durable-mode Vfs holding every node's log, exposed so tests can
  /// inspect or corrupt log bytes; file names are "broker.log" and
  /// "witness-<id>.log".
  store::MemVfs& store_vfs() { return store_vfs_; }

 protected:
  struct MerchantSlot {
    MerchantId id;
    std::unique_ptr<ecash::Merchant> merchant;
    std::unique_ptr<ecash::WitnessService> witness;
    std::unique_ptr<store::LogStore> store;  ///< durable mode only
    std::unique_ptr<MerchantActor> actor;
  };

  Cluster(const group::SchnorrGroup& grp, const Options& options);
  ~Cluster();

  /// Assembles the deployment on `tx`.  Keys are drawn from `setup`; each
  /// service gets `setup` itself or, with `fork_services`, its own fork.
  void build(transport::Transport& tx, crypto::ChaChaRng& setup,
             bool fork_services);
  /// Opens (or, on recovery, reopens) a durable log in store_vfs().
  std::unique_ptr<store::LogStore> open_log(const std::string& name);
  static std::string witness_log_name(const MerchantId& id);

  group::SchnorrGroup grp_;
  Options options_;
  // Declared before everything that borrows them: destroyed last.
  obs::MetricsRegistry registry_;
  obs::TraceSink sink_;
  store::MemVfs store_vfs_;
  std::vector<std::unique_ptr<crypto::ChaChaRng>> service_rngs_;
  std::unique_ptr<store::LogStore> broker_store_;  ///< durable mode only
  std::unique_ptr<ecash::Broker> broker_;
  std::unique_ptr<BrokerActor> broker_actor_;
  Directory directory_;
  std::vector<MerchantSlot> merchants_;
  std::vector<std::unique_ptr<ClientActor>> clients_;
  transport::Transport* tx_ = nullptr;
  std::uint64_t next_client_seed_ = 0;
};

}  // namespace p2pcash::actors
