// fault.h — deterministic, seed-driven fault scheduling (the chaos engine).
//
// The paper's availability argument (§6, PlanetLab deployment §7) claims the
// witness scheme keeps its *hard* double-spend guarantee while witnesses
// crash, churn and the WAN loses messages.  A FaultPlan turns that claim
// into an executable schedule: per-node crash/restart windows (wired to the
// owner's crash-recovery hooks so a restart re-runs recovery rather than
// just flipping the down bit), directed per-link faults (loss, added
// latency, duplication, reordering) and named partitions that heal at a
// scheduled time.  Every schedule is generated from a bn::Rng, so a single
// seed reproduces the whole run — the chaos suite's failure artifact is
// just the seed plus the plan's log().

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bn/rng.h"
#include "simnet/net.h"

namespace p2pcash::simnet {

class FaultPlan {
 public:
  /// Called with the node id at crash time (e.g. tear the node's log at an
  /// unsynced byte) and at restart time (e.g. recover the service from its
  /// log and drop volatile state), while the node is still marked down.
  using RecoveryHook = std::function<void(NodeId)>;

  explicit FaultPlan(Network& net) : net_(net) {}

  /// Registers crash/restart hooks for a node. Either may be null.
  void set_recovery_hooks(NodeId node, RecoveryHook on_crash,
                          RecoveryHook on_restart);

  /// Schedules a crash window [at, restart_at); restart_at < at means the
  /// node never comes back within this plan.
  void schedule_crash(NodeId node, SimTime at, SimTime restart_at);

  /// Schedules a directed link fault over [at, clear_at).
  void schedule_link_fault(NodeId from, NodeId to, const LinkFault& fault,
                           SimTime at, SimTime clear_at);

  /// Schedules a named partition over [at, heal_at). Replaces any earlier
  /// partition while active; healing restores full connectivity.
  void schedule_partition(std::string name,
                          std::vector<std::vector<NodeId>> groups, SimTime at,
                          SimTime heal_at);

  /// Random-schedule generator: everything below is sampled from `rng`, so
  /// the same (options, seed) pair always yields the same schedule.
  struct ChaosOptions {
    SimTime start_ms = 2'000;    ///< quiet warm-up before the first fault
    SimTime horizon_ms = 60'000;  ///< all faults cleared/healed by here

    std::vector<NodeId> crashable;  ///< nodes eligible for crash/restart
    std::size_t crashes = 2;
    SimTime min_outage_ms = 1'000;
    SimTime max_outage_ms = 10'000;

    std::vector<NodeId> nodes;  ///< population for link faults / partitions
    std::size_t link_faults = 4;
    double max_drop = 0.4;
    SimTime max_extra_latency_ms = 150;
    double max_duplicate = 0.5;
    double max_reorder = 0.5;
    SimTime max_reorder_hold_ms = 300;

    std::size_t partitions = 1;
    SimTime min_partition_ms = 2'000;
    SimTime max_partition_ms = 8'000;
  };
  void randomize(const ChaosOptions& opt, bn::Rng& rng);

  /// Human-readable schedule, one line per scheduled fault — printed next
  /// to the seed when a chaos run violates an invariant.
  const std::vector<std::string>& log() const { return log_; }

  Network& net() { return net_; }

 private:
  struct Hooks {
    RecoveryHook on_crash;
    RecoveryHook on_restart;
  };

  void note(std::string line) { log_.push_back(std::move(line)); }

  Network& net_;
  std::map<NodeId, Hooks> hooks_;
  std::vector<std::string> log_;
};

}  // namespace p2pcash::simnet
