// driver.cpp — executes one generated perfbench input against p2pcash.
//
// workloads.py writes the input: the seed, the loop mode and one line per
// payment operation.  This program only executes it: it hosts the whole
// system in one actors::NodeRuntime over loopback TCP, drives the
// operations through the asynchronous ClientActor API, checks the outcomes,
// and writes the raw measurements as one JSON object.  run.py turns them
// into metrics.
//
// With --trace 1 it additionally
//   * records a span around every runtime withdraw/pay/flush call, and
//   * replays the head of the same input in-process against the protocol
//     objects (ecash::Deployment), with a span around every public layer
//     call, plus direct calls into the group, sig, nizk, blindsig and wire
//     layers with inputs taken from that replay.
// All spans stay in memory and are written as JSONL at the end.
//
// With --setup-only it builds and starts the runtime, withdraws the input's
// set-up coins, reports the elapsed time and exits.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "actors/runtime.h"
#include "blindsig/abe_okamoto.h"
#include "ecash/deployment.h"
#include "metrics/counters.h"
#include "nizk/representation.h"
#include "sig/schnorr_sig.h"
#include "wire/codec.h"
#include "wire/framing.h"

namespace {

using namespace p2pcash;
using Clock = std::chrono::steady_clock;

constexpr ecash::Cents kDenomination = 100;
// The system every workload runs on: the paper's production group, eight
// merchant machines (storefront + witness each) and the broker on two
// worker threads, driven by kLanes clients.  workloads.py lays out its
// streams for the same lane and merchant counts.
constexpr std::size_t kMerchants = 8;
// Two workers plus the transport's io thread leave a core of a 4-core host
// free, so the runtime's threads are not descheduled by each other or by
// the benchmark's own processes; with four workers the same host gave
// 2-3 times the run-to-run spread (README, "Workloads").
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kLanes = 16;
/// Coins withdrawn inside the timed set-up sample (run.py, setup_s).
constexpr std::size_t kSetupCoins = 32;
constexpr std::int64_t kTimeoutMs = 30'000;
/// Operations replayed in-process by the traced run.
constexpr std::size_t kReplayOps = 48;

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

struct Op {
  int round = 0;
  int lane = 0;
  int merchant = 0;
  long ref = -1;  ///< honest op whose coin this op replays; -1 = honest
  bool replay() const { return ref >= 0; }
};

struct Input {
  std::string mode;  ///< closed | rounds (rounds run on durable stores)
  std::uint64_t seed = 0;
  std::vector<Op> ops;
  bool durable() const { return mode == "rounds"; }
};

Input read_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open input " + path);
  Input input;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "op") {
      Op op;
      ls >> op.round >> op.lane >> op.merchant >> op.ref;
      input.ops.push_back(op);
    } else if (key == "mode") {
      ls >> input.mode;
    } else if (key == "seed") {
      ls >> input.seed;
    } else {
      throw std::runtime_error("unknown input key " + key);
    }
    if (ls.fail()) throw std::runtime_error("malformed input line: " + line);
  }
  if (input.mode != "closed" && input.mode != "rounds")
    throw std::runtime_error("unknown mode " + input.mode);
  for (std::size_t i = 0; i < input.ops.size(); ++i) {
    const Op& op = input.ops[i];
    if (op.lane < 0 || static_cast<std::size_t>(op.lane) >= kLanes ||
        op.merchant < 0 || static_cast<std::size_t>(op.merchant) >= kMerchants ||
        op.ref >= static_cast<long>(i) ||
        (op.replay() && input.ops[static_cast<std::size_t>(op.ref)].replay()))
      throw std::runtime_error("invalid op " + std::to_string(i));
  }
  return input;
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

template <typename T>
std::string array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += num(static_cast<double>(values[i]));
  }
  return out + "]";
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---------------------------------------------------------------------------
// Spans: in-memory records, written as JSONL at the end.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// A fresh span id; children name it as their parent before it closes.
  std::uint64_t reserve() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  /// Records a finished span under an id from reserve().
  void add(std::uint64_t id, std::uint64_t op, std::uint64_t parent,
           const char* part, const std::string& name, std::int64_t t0,
           std::int64_t t1) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back({op, id, parent, part, name, t0, t1});
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : records_) {
      out << "{\"op\":" << r.op << ",\"id\":" << r.id
          << ",\"parent\":" << r.parent << ",\"part\":" << quoted(r.part)
          << ",\"name\":" << quoted(r.name) << ",\"t0_ns\":" << r.t0
          << ",\"t1_ns\":" << r.t1 << "}\n";
    }
  }

 private:
  struct Record {
    std::uint64_t op, id, parent;
    std::string part, name;
    std::int64_t t0, t1;
  };
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::uint64_t next_id_ = 0;
};

/// RAII span around one replayed layer call.
class Span {
 public:
  Span(SpanLog& log, std::uint64_t op, std::uint64_t parent, std::string name)
      : log_(log),
        op_(op),
        parent_(parent),
        id_(log.reserve()),
        name_(std::move(name)),
        t0_(log.now_ns()) {}
  ~Span() {
    log_.add(id_, op_, parent_, "replay", name_, t0_, log_.now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }
  void rename(std::string name) { name_ = std::move(name); }

 private:
  SpanLog& log_;
  std::uint64_t op_, parent_, id_;
  std::string name_;
  std::int64_t t0_;
};

// ---------------------------------------------------------------------------
// Registry snapshots: what the runtime already exports, read from outside.
// ---------------------------------------------------------------------------

std::string snapshot_json(actors::NodeRuntime& rt, double wall_s) {
  std::ostringstream out;
  out << "{\"wall_s\":" << num(wall_s) << ",\"cpu_s\":" << num(cpu_seconds());
  out << ",\"histograms\":{";
  bool first = true;
  for (const auto& name : rt.metrics().histogram_names()) {
    const auto* h = rt.metrics().find_histogram(name);
    if (!h) continue;
    const auto buckets = h->buckets();
    std::vector<std::uint64_t> b(buckets.begin(), buckets.end());
    out << (first ? "" : ",") << quoted(name) << ":{\"count\":" << h->count()
        << ",\"sum\":" << num(h->sum()) << ",\"max\":" << num(h->max())
        << ",\"buckets\":" << array(b) << "}";
    first = false;
  }
  out << "},\"counters\":{";
  first = true;
  for (const char* name : {"store_appends_total", "store_commits_total"}) {
    const auto* c = rt.metrics().find_counter(name);
    out << (first ? "" : ",") << quoted(name) << ":" << (c ? c->value() : 0);
    first = false;
  }
  const auto s = rt.net().stats();
  const std::pair<const char*, std::uint64_t> transport[] = {
      {"transport_messages_sent", s.messages_sent},
      {"transport_bytes_sent", s.bytes_sent},
      {"transport_backpressure_drops", s.backpressure_drops},
      {"transport_disconnects", s.disconnects},
      {"trace_spans", rt.trace_sink().span_count()},
      {"trace_dropped", rt.trace_sink().dropped()},
      {"broker_coins_deposited", rt.broker().coins_deposited()},
  };
  for (const auto& [name, value] : transport)
    out << "," << quoted(name) << ":" << value;
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// The runtime run
// ---------------------------------------------------------------------------

struct OpRecord {
  std::int64_t submit_ns = -1;
  std::int64_t done_ns = -1;
  bool accepted = false;
  std::optional<ecash::DoubleSpendProof> proof;
  std::string error;
};

struct WithdrawRecord {
  std::int64_t submit_ns = -1;
  std::int64_t done_ns = -1;
  bool ok = false;
  std::string error;
};

class Runner {
 public:
  Runner(const Input& in, const group::SchnorrGroup& grp,
         Clock::time_point entry, bool trace)
      : in_(in),
        grp_(grp),
        entry_(entry),
        trace_(trace),
        spans_(entry),
        ops_(in.ops.size()),
        withdrawals_(in.ops.size()),
        coins_(in.ops.size()) {}

  SpanLog& spans() { return spans_; }

  /// Builds and starts the runtime.  Returns once it accepts work.
  void start() {
    actors::NodeRuntime::Options opt;
    opt.merchants = kMerchants;
    opt.worker_threads = kWorkers;
    opt.seed = in_.seed;
    opt.durable_stores = in_.durable();
    rt_ = std::make_unique<actors::NodeRuntime>(grp_, opt);
    for (std::size_t i = 0; i < kLanes; ++i)
      clients_.push_back(&rt_->add_client());
    rt_->start();
    ids_ = rt_->merchant_ids();
    snapshot("start");
  }

  /// Set-up only: withdraws the set-up coins and returns the elapsed time
  /// from process entry.
  double setup_only() {
    start();
    std::vector<std::vector<Task>> lanes(kLanes);
    std::size_t n = 0;
    for (std::size_t i = 0; i < in_.ops.size() && n < kSetupCoins; ++i) {
      if (in_.ops[i].replay()) continue;
      lanes[static_cast<std::size_t>(in_.ops[i].lane)].push_back({true, i});
      ++n;
    }
    run_lanes(std::move(lanes));
    return setup_s();
  }

  void run() {
    start();
    if (in_.mode == "rounds") {
      run_rounds();
    } else {
      // Set-up: every coin, warm-up payments' included.
      withdraw_region_[0] = now_ns();
      run_lanes(tasks([](const Op& op) { return !op.replay(); }, true));
      withdraw_region_[1] = now_ns();
      snapshot("withdrawn");
      // Warm-up payments open the connections and fill the caches that the
      // timed payments then find warm; they are checked, not timed.
      run_lanes(tasks([](const Op& op) { return op.round < 0; }, false));
      snapshot("warm");
      const double cpu0 = cpu_seconds();
      pay_region_[0] = now_ns();
      run_lanes(tasks([](const Op& op) { return op.round >= 0; }, false));
      pay_region_[1] = now_ns();
      region_cpu_s_ = cpu_seconds() - cpu0;
      snapshot("paid");
    }
  }

  void stop() {
    rt_->stop();
    resilience_ = rt_->resilience_totals();
  }

  double setup_s() const {
    return static_cast<double>(setup_done_ns_.load()) / 1e9;
  }

  /// Verifies the at-most-once rule, and that every replay of an accepted
  /// coin was refused with a proof the arbiter accepts.
  void check() {
    ecash::Arbiter arbiter(grp_);
    std::set<ecash::Hash256> accepted;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = in_.ops[i];
      const OpRecord& r = ops_[i];
      if (r.done_ns < 0) continue;  // never ran (failed set-up)
      const std::size_t coin_op =
          op.replay() ? static_cast<std::size_t>(op.ref) : i;
      if (!coins_[coin_op]) continue;
      const auto& coin = coins_[coin_op]->coin;
      if (r.accepted && !accepted.insert(coin.bare.coin_hash()).second)
        violations_.push_back("coin of op " + std::to_string(coin_op) +
                              " accepted twice (op " + std::to_string(i) +
                              ")");
      if (r.proof && !arbiter.verify_double_spend_proof(coin, *r.proof))
        violations_.push_back("op " + std::to_string(i) +
                              ": double-spend proof rejected by the arbiter");
      if (op.replay() && ops_[coin_op].accepted && !r.proof)
        violations_.push_back("op " + std::to_string(i) + ": replay of op " +
                              std::to_string(coin_op) +
                              " not refused with a double-spend proof" +
                              (r.error.empty() ? "" : " (" + r.error + ")"));
    }
  }

  std::string result_json() const {
    std::ostringstream out;
    std::vector<double> pay_lat, pay_done, wd_lat, wd_done;
    std::vector<int> pay_accepted;
    std::size_t accepted = 0, honest_failed = 0, replay_refused = 0,
                replay_failed = 0, wd_failed = 0, pays = 0, withdrawals = 0;
    std::map<std::string, std::size_t> errors;  ///< failure reason -> count
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const OpRecord& r = ops_[i];
      const bool replay = in_.ops[i].replay();
      if (r.done_ns < 0) {
        // Never ran: its coin's withdrawal failed.  A failed attempt, unless
        // it replays a coin that never existed.
        if (!replay || withdrawals_[static_cast<std::size_t>(in_.ops[i].ref)].ok)
          replay ? ++replay_failed : ++honest_failed;
        continue;
      }
      ++pays;
      if (replay) {
        if (r.proof) {
          ++replay_refused;
        } else if (!r.accepted) {
          ++replay_failed;
          ++errors["replay: " + r.error];
        }
      } else if (r.accepted) {
        ++accepted;
      } else {
        ++honest_failed;
        ++errors["pay: " + r.error];
      }
      if (in_.ops[i].round < 0) continue;  // warm-up: checked, not timed
      pay_lat.push_back(static_cast<double>(r.done_ns - r.submit_ns) / 1e6);
      pay_done.push_back(static_cast<double>(r.done_ns) / 1e9);
      pay_accepted.push_back(!replay && r.accepted ? 1 : 0);
    }
    for (const auto& w : withdrawals_) {
      if (w.submit_ns < 0) continue;
      ++withdrawals;
      if (!w.ok) {
        ++wd_failed;
        ++errors["withdraw: " + w.error];
        continue;
      }
      wd_lat.push_back(static_cast<double>(w.done_ns - w.submit_ns) / 1e6);
      wd_done.push_back(static_cast<double>(w.done_ns) / 1e9);
    }
    auto seconds = [](const std::int64_t* region) {
      return "[" + num(static_cast<double>(region[0]) / 1e9) + "," +
             num(static_cast<double>(region[1]) / 1e9) + "]";
    };
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out << "{\"mode\":" << quoted(in_.mode) << ",\"workers\":" << kWorkers
        << ",\"withdraw_region\":" << seconds(withdraw_region_)
        << ",\"pay_region\":" << seconds(pay_region_)
        << ",\"region_cpu_s\":" << num(region_cpu_s_)
        << ",\"peak_rss_kb\":" << ru.ru_maxrss
        << ",\"ops_total\":" << in_.ops.size() << ",\"payments\":" << pays
        << ",\"accepted\":" << accepted << ",\"honest_failed\":" << honest_failed
        << ",\"replay_refused\":" << replay_refused
        << ",\"replay_failed\":" << replay_failed
        << ",\"withdrawals\":" << withdrawals
        << ",\"withdraw_failed\":" << wd_failed
        << ",\"deposits\":" << deposits_ << ",\"deposit_failed\":"
        << deposit_failed_ << ",\"pay_lat_ms\":" << array(pay_lat)
        << ",\"pay_done_s\":" << array(pay_done)
        << ",\"pay_accepted\":" << array(pay_accepted)
        << ",\"withdraw_lat_ms\":" << array(wd_lat)
        << ",\"withdraw_done_s\":" << array(wd_done) << ",\"flushes\":[";
    for (std::size_t i = 0; i < flushes_.size(); ++i)
      out << (i ? "," : "") << "[" << flushes_[i].first << ","
          << num(flushes_[i].second) << "]";
    out << "],\"rounds\":[";
    for (std::size_t i = 0; i < rounds_.size(); ++i)
      out << (i ? "," : "") << "[" << num(rounds_[i][0]) << ","
          << num(rounds_[i][1]) << "," << num(rounds_[i][2]) << "]";
    out << "],\"errors\":{";
    for (auto it = errors.begin(); it != errors.end(); ++it)
      out << (it == errors.begin() ? "" : ",") << quoted(it->first) << ":"
          << it->second;
    out << "},\"resilience\":{"
        << "\"retries\":" << resilience_.retries
        << ",\"failovers\":" << resilience_.failovers
        << ",\"duplicates_suppressed\":" << resilience_.duplicates_suppressed
        << ",\"breaker_trips\":" << resilience_.breaker_trips
        << ",\"timeouts\":" << resilience_.timeouts
        << ",\"late_replies_ignored\":" << resilience_.late_replies_ignored
        << "},\"snapshots\":{";
    for (std::size_t i = 0; i < snapshots_.size(); ++i)
      out << (i ? "," : "") << quoted(snapshots_[i].first) << ":"
          << snapshots_[i].second;
    out << "},\"violations\":[";
    for (std::size_t i = 0; i < violations_.size(); ++i)
      out << (i ? "," : "") << quoted(violations_[i]);
    out << "]}";
    return out.str();
  }

 private:
  struct Task {
    bool withdraw;
    std::size_t op;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                entry_)
        .count();
  }

  /// Per-lane task lists, in input order, for the ops `pick` selects.
  template <typename Pick>
  std::vector<std::vector<Task>> tasks(Pick pick, bool withdraw) const {
    std::vector<std::vector<Task>> lanes(kLanes);
    for (std::size_t i = 0; i < in_.ops.size(); ++i)
      if (pick(in_.ops[i]))
        lanes[static_cast<std::size_t>(in_.ops[i].lane)].push_back(
            {withdraw, i});
    return lanes;
  }

  void snapshot(const std::string& label) {
    snapshots_.emplace_back(
        label, snapshot_json(*rt_, static_cast<double>(now_ns()) / 1e9));
  }

  // -- lanes: each lane is one client running its tasks one at a time ------

  void run_lanes(std::vector<std::vector<Task>> lanes) {
    lane_tasks_ = std::move(lanes);
    lane_pos_.assign(lane_tasks_.size(), 0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      lanes_done_ = 0;
    }
    for (std::size_t lane = 0; lane < lane_tasks_.size(); ++lane) kick(lane);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return lanes_done_ == lane_tasks_.size(); });
  }

  /// Posts the lane's next task onto its client's strand.  Posting (rather
  /// than calling from inside a completion callback) keeps every protocol
  /// call out of the client's own reply handler.
  void kick(std::size_t lane) {
    if (lane_pos_[lane] == lane_tasks_[lane].size()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++lanes_done_;
      cv_.notify_all();
      return;
    }
    const Task task = lane_tasks_[lane][lane_pos_[lane]++];
    rt_->net().post(clients_[lane]->id(), [this, lane, task] {
      if (task.withdraw)
        start_withdraw(lane, task.op, [this, lane] { kick(lane); });
      else
        start_pay(lane, task.op, [this, lane] { kick(lane); });
    });
  }

  void start_withdraw(std::size_t lane, std::size_t op,
                      std::function<void()> next) {
    withdrawals_[op].submit_ns = now_ns();
    clients_[lane]->withdraw(
        kDenomination,
        [this, op, next = std::move(next)](
            ecash::Outcome<ecash::WalletCoin> outcome) {
          auto& w = withdrawals_[op];
          w.done_ns = now_ns();
          if (outcome) {
            w.ok = true;
            coins_[op] = std::move(outcome).value();
          } else {
            w.error = outcome.refusal().detail;
          }
          if (trace_)
            spans_.add(spans_.reserve(), op, 0, "runtime", "rt.withdraw",
                       w.submit_ns, w.done_ns);
          if (++withdrawn_ == kSetupCoins) setup_done_ns_ = now_ns();
          next();
        },
        kTimeoutMs);
  }

  /// Runs op `op` on lane `lane`'s client.  Must run on the client's strand.
  void start_pay(std::size_t lane, std::size_t op,
                 std::function<void()> next) {
    OpRecord& r = ops_[op];
    r.submit_ns = now_ns();
    const Op& spec = in_.ops[op];
    const std::size_t coin_op =
        spec.replay() ? static_cast<std::size_t>(spec.ref) : op;
    if (!coins_[coin_op]) {  // its withdrawal failed: nothing to pay with
      next();
      return;
    }
    clients_[lane]->pay(
        *coins_[coin_op], ids_[static_cast<std::size_t>(spec.merchant)],
        [this, op, next = std::move(next)](
            actors::ClientActor::PayResult result) {
          OpRecord& rec = ops_[op];
          rec.done_ns = now_ns();
          rec.accepted = result.accepted;
          rec.proof = std::move(result.double_spend_proof);
          if (result.error) rec.error = *result.error;
          if (trace_)
            spans_.add(spans_.reserve(), op, 0, "runtime", "rt.pay",
                       rec.submit_ns, rec.done_ns);
          next();
        },
        kTimeoutMs);
  }

  /// bank_durable: per round, each lane withdraws the coin for each of its
  /// payments and then pays it; then every merchant flushes its deposits at
  /// once and the round ends when the broker has acknowledged all of them.
  void run_rounds() {
    int rounds = 0;
    for (const Op& op : in_.ops) rounds = std::max(rounds, op.round + 1);
    const double cpu0 = cpu_seconds();
    pay_region_[0] = withdraw_region_[0] = now_ns();
    for (int round = 0; round < rounds; ++round) {
      std::vector<std::vector<Task>> lanes(kLanes);
      for (std::size_t i = 0; i < in_.ops.size(); ++i) {
        if (in_.ops[i].round != round) continue;
        auto& lane = lanes[static_cast<std::size_t>(in_.ops[i].lane)];
        if (!in_.ops[i].replay()) lane.push_back({true, i});
        lane.push_back({false, i});
      }
      const auto r0 = now_ns();
      run_lanes(std::move(lanes));
      const auto r1 = now_ns();
      settle(round);
      rounds_.push_back({static_cast<double>(r0) / 1e9,
                         static_cast<double>(r1) / 1e9,
                         static_cast<double>(now_ns()) / 1e9});
    }
    pay_region_[1] = withdraw_region_[1] = now_ns();
    region_cpu_s_ = cpu_seconds() - cpu0;
    snapshot("end");
  }

  /// Flushes every merchant's deposit queue and waits until the broker has
  /// acknowledged every accepted payment so far; then checks the broker's
  /// ledger against the accepted payments.
  void settle(int round) {
    std::size_t expected = 0;
    for (const OpRecord& r : ops_) expected += r.accepted ? 1 : 0;
    const auto t_flush = now_ns();
    const std::uint64_t deposited_before = rt_->broker().coins_deposited();
    for (const auto& id : ids_) {
      auto& actor = rt_->merchant_actor(id);
      rt_->net().post(rt_->merchant_node(id),
                      [&actor] { actor.flush_deposits(); });
    }
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    bool settled = false;
    while (Clock::now() < deadline) {
      if (rt_->broker().coins_deposited() >= expected && outstanding() == 0) {
        settled = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (trace_)
      spans_.add(spans_.reserve(), 1'000'000 + static_cast<std::uint64_t>(round),
                 0, "runtime", "rt.flush", t_flush, now_ns());
    const std::uint64_t deposited = rt_->broker().coins_deposited();
    const std::int64_t paid = rt_->broker().fiat_paid_out();
    if (!settled) {
      deposit_failed_ += expected > deposited ? expected - deposited : 0;
      violations_.push_back("deposits did not settle within 60 s (" +
                            std::to_string(deposited) + " of " +
                            std::to_string(expected) + ")");
    }
    if (deposited != expected ||
        paid != static_cast<std::int64_t>(expected) * kDenomination)
      violations_.push_back(
          "ledger mismatch: broker deposited " + std::to_string(deposited) +
          " coins paying out " + std::to_string(paid) + " cents; " +
          std::to_string(expected) + " payments were accepted");
    deposits_ = deposited;
    flushes_.emplace_back(deposited - deposited_before,
                          static_cast<double>(now_ns() - t_flush) / 1e9);
  }

  /// Deposits flushed but not yet acknowledged, plus transcripts still
  /// queued, over every merchant (read on each merchant's strand).
  std::size_t outstanding() {
    std::size_t total = 0;
    for (const auto& id : ids_) {
      auto& actor = rt_->merchant_actor(id);
      auto promise = std::make_shared<std::promise<std::size_t>>();
      auto future = promise->get_future();
      rt_->net().post(rt_->merchant_node(id), [&actor, promise] {
        promise->set_value(actor.deposits_outstanding() +
                           actor.merchant().deposit_queue_size());
      });
      total += future.get();
    }
    return total;
  }

  const Input& in_;
  const group::SchnorrGroup& grp_;
  Clock::time_point entry_;
  bool trace_;
  SpanLog spans_;
  std::unique_ptr<actors::NodeRuntime> rt_;
  std::vector<actors::ClientActor*> clients_;
  std::vector<ecash::MerchantId> ids_;

  std::vector<OpRecord> ops_;
  std::vector<WithdrawRecord> withdrawals_;
  std::vector<std::optional<ecash::WalletCoin>> coins_;
  std::atomic<std::size_t> withdrawn_{0};
  std::atomic<std::int64_t> setup_done_ns_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t lanes_done_ = 0;
  std::vector<std::vector<Task>> lane_tasks_;
  std::vector<std::size_t> lane_pos_;

  /// [start, end] of the set-up withdrawals and of the timed payments, in
  /// ns since process entry (bank_durable: both are the whole rounds).
  std::int64_t withdraw_region_[2] = {0, 0}, pay_region_[2] = {0, 0};
  double region_cpu_s_ = 0;
  std::uint64_t deposits_ = 0, deposit_failed_ = 0;
  /// Per round's settle(): transcripts acknowledged and seconds taken.
  std::vector<std::pair<std::uint64_t, double>> flushes_;
  /// bank_durable, per round: start, end of withdraw-and-pay, end (seconds
  /// since process entry).
  std::vector<std::array<double, 3>> rounds_;
  metrics::ResilienceCounters resilience_;
  std::vector<std::pair<std::string, std::string>> snapshots_;
  std::vector<std::string> violations_;
};

// ---------------------------------------------------------------------------
// The traced in-process replay
// ---------------------------------------------------------------------------

struct ReplayCounts {
  std::vector<std::uint64_t> pay_exp, pay_ver, withdraw_exp;
};

/// One in-process pass over the chosen operations: every honest op
/// withdraws its coin, every op pays in input order, then every merchant's
/// deposit queue is deposited.  A span surrounds every public layer call.
class ReplayPass {
 public:
  ReplayPass(const Input& in, ecash::Deployment& dep, ecash::Wallet& wallet,
             ecash::Timestamp& now, SpanLog& log,
             std::vector<std::string>& violations)
      : in_(in), dep_(dep), wallet_(wallet), now_(now), log_(log),
        violations_(violations), ids_(dep.merchant_ids()) {}

  void run(const std::set<std::size_t>& chosen) {
    for (std::size_t i : chosen)
      if (!in_.ops[i].replay()) withdraw(i);
    for (std::size_t i : chosen) pay(i);
    std::uint64_t deposit_op = in_.ops.size();
    for (const auto& id : ids_) {
      for (auto& st : dep_.node(id).merchant->drain_deposit_queue()) {
        Span s(log_, deposit_op++, 0, "broker.deposit");
        if (!dep_.broker().deposit(id, st, ++now_))
          violations_.push_back("replay: deposit refused");
        transcripts_.push_back(std::move(st));
      }
    }
    if (transcripts_.empty())
      throw std::runtime_error("replay: nothing deposited");
  }

  const ReplayCounts& counts() const { return counts_; }
  const std::vector<ecash::SignedTranscript>& transcripts() const {
    return transcripts_;
  }

 private:
  void withdraw(std::size_t i) {
    using namespace ecash;
    metrics::OpCounters ops;
    metrics::ScopedOpCounting counting(ops);
    Span root(log_, i, 0, "withdraw");
    std::optional<Broker::WithdrawalOffer> offer;
    {
      Span s(log_, i, root.id(), "broker.start_withdrawal");
      auto o = dep_.broker().start_withdrawal(kDenomination, ++now_);
      if (o) offer = o.value();
    }
    if (!offer) throw std::runtime_error("replay: withdrawal refused");
    std::optional<Wallet::Withdrawal> state;
    {
      Span s(log_, i, root.id(), "wallet.begin_withdrawal");
      state = wallet_.begin_withdrawal(*offer);
    }
    std::optional<blindsig::SignerResponse> response;
    {
      Span s(log_, i, root.id(), "broker.finish_withdrawal");
      auto r = dep_.broker().finish_withdrawal(state->session, state->e);
      if (r) response = r.value();
    }
    if (!response) throw std::runtime_error("replay: withdrawal refused");
    {
      Span s(log_, i, root.id(), "wallet.complete_withdrawal");
      auto c = wallet_.complete_withdrawal(*state, *response,
                                           dep_.broker().current_table());
      if (!c) throw std::runtime_error("replay: withdrawal failed");
      coins_.insert_or_assign(i, std::move(c).value());
    }
    counts_.withdraw_exp.push_back(ops.exp);
  }

  void pay(std::size_t i) {
    using namespace ecash;
    const Op& op = in_.ops[i];
    const WalletCoin& coin =
        coins_.at(op.replay() ? static_cast<std::size_t>(op.ref) : i);
    const MerchantId& merchant_id =
        ids_[static_cast<std::size_t>(op.merchant)];
    Merchant& storefront = *dep_.node(merchant_id).merchant;
    metrics::OpCounters ops;
    bool accepted = false;
    {
      metrics::ScopedOpCounting counting(ops);
      Span root(log_, i, 0, op.replay() ? "replay" : "pay");
      std::optional<Wallet::PaymentIntent> intent;
      {
        Span s(log_, i, root.id(), "wallet.prepare_payment");
        intent = wallet_.prepare_payment(coin, merchant_id);
      }
      std::vector<WitnessCommitment> commitments;
      for (const auto& entry : coin.coin.witnesses) {
        if (commitments.size() >= coin.coin.bare.info.witness_k) break;
        Span s(log_, i, root.id(), "witness.request_commitment");
        auto c = dep_.node(entry.merchant)
                     .witness->request_commitment(intent->coin_hash,
                                                  intent->nonce, ++now_);
        if (c) commitments.push_back(std::move(c).value());
      }
      std::optional<PaymentTranscript> transcript;
      {
        Span s(log_, i, root.id(), "wallet.build_transcript");
        auto t = wallet_.build_transcript(coin, *intent, commitments, now_);
        if (t) transcript = std::move(t).value();
      }
      if (!transcript) throw std::runtime_error("replay: no transcript");
      bool received = false;
      {
        Span s(log_, i, root.id(), "merchant.receive_payment");
        received = static_cast<bool>(
            storefront.receive_payment(*transcript, commitments, now_));
      }
      if (!received) throw std::runtime_error("replay: payment not received");
      for (const auto& commitment : commitments) {
        std::optional<SignResult> result;
        {
          Span s(log_, i, root.id(), "witness.sign_transcript");
          auto r = dep_.node(commitment.witness)
                       .witness->sign_transcript(*transcript, now_);
          if (r) {
            result = std::move(r).value();
            if (std::holds_alternative<DoubleSpendProof>(*result))
              s.rename("witness.refuse_transcript");
          }
        }
        if (!result) throw std::runtime_error("replay: witness refused");
        if (auto* proof = std::get_if<DoubleSpendProof>(&*result)) {
          Span s(log_, i, root.id(), "merchant.handle_double_spend");
          auto judged =
              storefront.handle_double_spend(intent->coin_hash, *proof);
          if (!judged || !dep_.arbiter().verify_double_spend_proof(
                             coin.coin, judged.value()))
            violations_.push_back("replay op " + std::to_string(i) +
                                  ": proof not verified");
          break;
        }
        Span s(log_, i, root.id(), "merchant.add_endorsement");
        auto done = storefront.add_endorsement(
            intent->coin_hash, std::get<WitnessEndorsement>(*result));
        if (done && done.value()) accepted = true;
      }
    }
    if (accepted != !op.replay())
      violations_.push_back("replay op " + std::to_string(i) +
                            (accepted ? ": replayed coin accepted"
                                      : ": honest payment refused"));
    if (!op.replay()) {
      counts_.pay_exp.push_back(ops.exp);
      counts_.pay_ver.push_back(ops.ver);
    }
  }

  const Input& in_;
  ecash::Deployment& dep_;
  ecash::Wallet& wallet_;
  ecash::Timestamp& now_;  ///< protocol time, increasing across passes
  SpanLog& log_;
  std::vector<std::string>& violations_;
  const std::vector<ecash::MerchantId> ids_;
  std::map<std::size_t, ecash::WalletCoin> coins_;
  std::vector<ecash::SignedTranscript> transcripts_;
  ReplayCounts counts_;
};

/// Direct calls into the lower layers, with values from the replay.
void probe_layers(const group::SchnorrGroup& grp,
                  const std::vector<ecash::SignedTranscript>& transcripts,
                  std::uint64_t seed, SpanLog& warmup, SpanLog& log,
                  std::vector<std::string>& violations) {
  using ecash::SignedTranscript;
  crypto::ChaChaRng rng(seed ^ 0x5eedULL);
  const auto key = sig::KeyPair::generate(grp, rng);
  const blindsig::BlindSigner signer(grp, grp.random_scalar(rng));
  constexpr std::size_t kWarmup = 16, kReps = 64;
  for (std::size_t k = 0; k < kWarmup + kReps; ++k) {
    // The first rounds only let the group's recurring-base tables fill.
    SpanLog& out = k < kWarmup ? warmup : log;
    const std::uint64_t probe = 2'000'000 + k;
    const SignedTranscript& st = transcripts[k % transcripts.size()];
    const auto& coin = st.transcript.coin.bare;
    const bn::BigInt e1 = grp.random_scalar(rng), e2 = grp.random_scalar(rng);
    {
      Span s(out, probe, 0, "group.exp");
      (void)grp.exp(coin.a, e1);
    }
    {
      Span s(out, probe, 0, "group.exp2");
      (void)grp.exp2(coin.a, e1, coin.b, e2);
    }
    const auto payload = st.transcript.signed_payload();
    std::optional<sig::Signature> signature;
    {
      Span s(out, probe, 0, "sig.sign");
      signature = key.sign(payload, rng);
    }
    {
      Span s(out, probe, 0, "sig.verify");
      if (!sig::verify(grp, key.public_key(), payload, *signature))
        violations.push_back("probe: signature did not verify");
    }
    const auto secret = nizk::CoinSecret::random(grp, rng);
    const auto comm = nizk::commit(grp, secret);
    const auto resp = nizk::respond(grp, secret, e1);
    {
      Span s(out, probe, 0, "nizk.verify");
      if (!nizk::verify_response(grp, comm, e1, resp))
        violations.push_back("probe: NIZK did not verify");
    }
    {
      Span s(out, probe, 0, "blindsig.issue");
      const auto session = signer.start(coin.info.bytes(), rng);
      (void)signer.respond(session, e2);
    }
    std::vector<std::uint8_t> bytes;
    {
      Span s(out, probe, 0, "wire.encode");
      bytes = wire::encode(st);
    }
    {
      Span s(out, probe, 0, "wire.decode");
      if (!(wire::decode<SignedTranscript>(bytes) == st))
        violations.push_back("probe: transcript did not round-trip");
    }
    {
      Span s(out, probe, 0, "wire.frame");
      std::vector<std::uint8_t> stream;
      wire::append_frame(stream, bytes);
      wire::FrameDecoder decoder;
      decoder.feed(stream);
      if (decoder.next() != bytes)
        violations.push_back("probe: frame did not round-trip");
    }
  }
}

/// Replays the input's head in one thread against the protocol objects,
/// then probes the lower layers.  The runtime run warmed the group's caches
/// for its keys before it was measured; so does the replay, with one
/// unrecorded pass before the recorded one.  Returns the exact op counts;
/// spans go to `log`.
ReplayCounts replay(const Input& in, const group::SchnorrGroup& grp,
                    SpanLog& log, std::vector<std::string>& violations) {
  ecash::Deployment dep(grp, kMerchants, in.seed);
  auto wallet = dep.make_wallet();

  // The replayed subset: the input's first few replays with their
  // originals, topped up with the earliest honest ops to kReplayOps.
  std::set<std::size_t> chosen;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < in.ops.size() && replays < 4; ++i) {
    if (!in.ops[i].replay()) continue;
    chosen.insert(i);
    chosen.insert(static_cast<std::size_t>(in.ops[i].ref));
    ++replays;
  }
  for (std::size_t i = 0; i < in.ops.size() && chosen.size() < kReplayOps; ++i)
    if (!in.ops[i].replay()) chosen.insert(i);

  ecash::Timestamp now = 1000;
  SpanLog warmup(Clock::now());
  ReplayPass(in, dep, *wallet, now, warmup, violations).run(chosen);
  ReplayPass pass(in, dep, *wallet, now, log, violations);
  pass.run(chosen);
  probe_layers(grp, pass.transcripts(), in.seed, warmup, log, violations);
  return pass.counts();
}

}  // namespace

int main(int argc, char** argv) {
  const auto entry = Clock::now();
  std::string input_path, out_path, spans_path;
  bool trace = false, setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--input") {
      input_path = value();
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--spans") {
      spans_path = value();
    } else if (a == "--trace") {
      trace = value() == "1";
    } else if (a == "--setup-only") {
      setup_only = true;
    } else {
      std::fprintf(stderr, "usage: perfbench_driver --input FILE --out FILE "
                           "[--trace 0|1 --spans FILE] [--setup-only]\n");
      return 2;
    }
  }
  if (input_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "perfbench_driver: --input and --out are required\n");
    return 2;
  }
  try {
    const Input in = read_input(input_path);
    const auto& grp = group::SchnorrGroup::production_1024();
    Runner runner(in, grp, entry, trace);
    std::ofstream out(out_path);
    if (setup_only) {
      const double s = runner.setup_only();
      runner.stop();
      out << "{\"setup_s\":" << num(s) << "}\n";
      return 0;
    }
    runner.run();
    runner.stop();
    runner.check();
    std::string replay_json = "null";
    if (trace) {
      std::vector<std::string> violations;
      const auto counts = replay(in, grp, runner.spans(), violations);
      std::ostringstream r;
      r << "{\"pay_exp\":" << array(counts.pay_exp)
        << ",\"pay_ver\":" << array(counts.pay_ver)
        << ",\"withdraw_exp\":" << array(counts.withdraw_exp)
        << ",\"violations\":[";
      for (std::size_t i = 0; i < violations.size(); ++i)
        r << (i ? "," : "") << quoted(violations[i]);
      r << "]}";
      replay_json = r.str();
      if (!spans_path.empty()) runner.spans().write_jsonl(spans_path);
    }
    std::string body = runner.result_json();
    body.pop_back();  // reopen the object to append the replay
    out << body << ",\"replay\":" << replay_json << "}\n";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
