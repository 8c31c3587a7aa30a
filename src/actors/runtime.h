// runtime.h — the cluster (cluster.h) as a real multithreaded deployment
// over TCP: every protocol message crosses a real loopback TCP connection
// (transport::TcpNet) and every actor runs on a worker-pool strand.  This
// is the harness the scalability bench drives for true payments/sec: with
// W worker threads, W payments can be in distinct actors' handlers
// simultaneously.
//
// What the host adds to the shared recipe, all forced by realness:
//   * Time is wall-clock milliseconds (the transport's clock), so runs
//     are NOT seed-reproducible; determinism tests stay on SimWorld.
//   * Every service gets its own RNG stream, forked from the setup stream
//     (SimWorld shares one across the whole world — safe there because the
//     simulation is one thread).
//   * The default CostModel is free_cost(): real crypto already costs
//     real time, and the simulated-cost model would just add sleeps.
//   * The obs stack: wall-clock tracer, flight recorder, scrape server.
//   * No FaultPlan; crash/restart is modeled at the transport
//     (TcpNet::set_down) — the actors' retry over a redialing
//     transport is the thing under test.
//
// This header is det_lint-scoped (src/actors): it reads no clock and no
// entropy of its own; all time flows through the Transport.

#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "actors/cluster.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/obs_server.h"
#include "transport/tcp_net.h"

namespace p2pcash::actors {

class NodeRuntime : public Cluster {
 public:
  struct Options : Cluster::Options {
    Options() {
      merchants = 4;
      cost = simnet::free_cost();  // the bignum work is real here
    }
    /// Strand-executor threads in the transport's worker pool.
    std::size_t worker_threads = 2;
    /// Transport knobs (queue caps, inbound watermarks, frame limit).
    /// worker_threads and seed override the ones in here, and the
    /// runtime's own registry/tracer/flight-recorder are always wired in.
    /// Actor-level retry timers (Options::retry) run on the wall clock.
    transport::TcpNet::Options net;
    /// Flight-recorder ring capacity (crash breadcrumbs).
    std::size_t flight_capacity = 1024;
    /// Where the flight recorder dumps on abort/SIGUSR1.  Empty = stderr.
    /// Set explicitly by the host — this runtime reads no environment
    /// (src/actors is determinism-scoped; getenv is banned here).
    std::string flight_artifact;
  };

  explicit NodeRuntime(const group::SchnorrGroup& grp, Options options);
  ~NodeRuntime();  // stop()s

  transport::TcpNet& net() { return *net_; }

  // -- observability -------------------------------------------------------
  // The runtime owns the full obs stack: a wall-clock Tracer whose spans
  // stitch across nodes via the wire trace envelope, the cluster's
  // MetricsRegistry fed by the transport/pool/store instrumentation, and an
  // always-on FlightRecorder of recent transport breadcrumbs.

  obs::Tracer& tracer() { return tracer_; }
  obs::FlightRecorder& flight_recorder() { return flight_; }

  /// Starts the HTTP scrape endpoint (127.0.0.1, `port` or ephemeral when
  /// 0) serving /metrics, /healthz, /tracez, /flightz from this runtime.
  /// Returns the bound port (0 on failure).  Idempotent.
  std::uint16_t start_obs_server(std::uint16_t port = 0);
  void stop_obs_server();
  obs::ObsServer& obs_server() { return obs_server_; }

  /// Starts the io loop and worker pool; actors begin receiving.
  void start();
  /// Stops the transport.  Actors stay alive for post-mortem inspection.
  void stop();

  // -- blocking drivers ----------------------------------------------------
  // Callable from any external thread (NOT from an actor strand: they
  // block on a future the strand must fulfil).  The operation is posted
  // onto the client's strand, honoring the transport's serialization
  // contract.

  /// Withdraws one coin, waiting up to the actor-level deadline.
  ecash::Outcome<ecash::WalletCoin> withdraw(ClientActor& client,
                                             Cents denomination,
                                             SimTime deadline_ms = 30'000);

  /// Runs one full payment, waiting for the actor-level outcome.
  ClientActor::PayResult pay(ClientActor& client,
                             const ecash::WalletCoin& coin,
                             const MerchantId& merchant,
                             SimTime timeout_ms = 30'000);

 private:
  std::string flight_artifact_;
  obs::WallClock wall_clock_;
  obs::FlightRecorder flight_;
  obs::Tracer tracer_;
  std::unique_ptr<transport::TcpNet> net_;

  // LAST: destroyed first, so a live scrape can never observe a
  // half-torn-down runtime.
  obs::ObsServer obs_server_;
};

}  // namespace p2pcash::actors
