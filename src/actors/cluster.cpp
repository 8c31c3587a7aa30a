#include "actors/cluster.h"

#include <stdexcept>

namespace p2pcash::actors {

Cluster::Cluster(const group::SchnorrGroup& grp, const Options& options)
    : grp_(grp), options_(options), sink_(options.trace_capacity) {}

Cluster::~Cluster() = default;

std::string Cluster::witness_log_name(const MerchantId& id) {
  return "witness-" + id + ".log";
}

std::unique_ptr<store::LogStore> Cluster::open_log(const std::string& name) {
  store::LogStore::Options opts;
  opts.metrics = &registry_;
  return std::make_unique<store::LogStore>(store_vfs_, name, opts);
}

void Cluster::build(transport::Transport& tx, crypto::ChaChaRng& setup,
                    bool fork_services) {
  tx_ = &tx;
  auto service_rng = [&](std::string_view label) -> bn::Rng& {
    if (!fork_services) return setup;
    return *service_rngs_.emplace_back(
        std::make_unique<crypto::ChaChaRng>(setup.fork(label)));
  };
  broker_ = std::make_unique<ecash::Broker>(grp_, service_rng("broker"),
                                            options_.broker);
  if (options_.durable_stores) {
    broker_store_ = open_log("broker.log");
    broker_->attach_store(*broker_store_);
  }
  broker_actor_ = std::make_unique<BrokerActor>(tx, options_.cost, *broker_);
  directory_.broker = tx.attach(*broker_actor_);

  if (options_.merchants == 0)
    throw std::invalid_argument("Cluster: need at least one merchant");
  merchants_.reserve(options_.merchants);
  for (std::size_t i = 0; i < options_.merchants; ++i) {
    MerchantSlot slot;
    slot.id = ecash::merchant_name(i);
    auto key = sig::KeyPair::generate(grp_, setup);
    broker_->register_merchant(slot.id, key.public_key(),
                               options_.security_deposit);
    bn::Rng& rng = service_rng(slot.id);
    slot.merchant = std::make_unique<ecash::Merchant>(
        grp_, broker_->coin_key(), slot.id, key, rng);
    slot.witness = std::make_unique<ecash::WitnessService>(
        grp_, broker_->coin_key(), slot.id, key, rng);
    if (options_.durable_stores) {
      slot.store = open_log(witness_log_name(slot.id));
      slot.witness->attach_store(*slot.store);
    }
    slot.actor = std::make_unique<MerchantActor>(
        tx, options_.cost, *slot.merchant, *slot.witness, directory_);
    slot.actor->set_retry_policy(options_.retry);
    directory_.merchants[slot.id] = tx.attach(*slot.actor);
    merchants_.push_back(std::move(slot));
  }
  broker_->publish_witness_table(/*now=*/0);
}

std::vector<MerchantId> Cluster::merchant_ids() const {
  std::vector<MerchantId> out;
  out.reserve(merchants_.size());
  for (const auto& slot : merchants_) out.push_back(slot.id);
  return out;
}

MerchantActor& Cluster::merchant_actor(const MerchantId& id) {
  for (auto& slot : merchants_) {
    if (slot.id == id) return *slot.actor;
  }
  throw std::invalid_argument("Cluster: unknown merchant " + id);
}

ecash::Merchant& Cluster::merchant(const MerchantId& id) {
  return merchant_actor(id).merchant();
}

ecash::WitnessService& Cluster::witness(const MerchantId& id) {
  return merchant_actor(id).witness();
}

NodeId Cluster::merchant_node(const MerchantId& id) const {
  auto it = directory_.merchants.find(id);
  if (it == directory_.merchants.end())
    throw std::invalid_argument("Cluster: unknown merchant " + id);
  return it->second;
}

ClientActor& Cluster::add_client() {
  clients_.push_back(std::make_unique<ClientActor>(
      *tx_, options_.cost, grp_, broker_->coin_key(),
      broker_->current_table(), directory_,
      options_.seed * 1000003 + (++next_client_seed_)));
  tx_->attach(*clients_.back());
  clients_.back()->set_retry_policy(options_.retry);
  clients_.back()->set_breaker_config(options_.breaker);
  return *clients_.back();
}

void Cluster::set_merchant_down(const MerchantId& id, bool down) {
  tx_->set_down(merchant_node(id), down);
}

metrics::ResilienceCounters Cluster::resilience_totals() const {
  metrics::ResilienceCounters total;
  for (const auto& client : clients_) total += client->resilience();
  for (const auto& slot : merchants_) total += slot.actor->resilience();
  return total;
}

}  // namespace p2pcash::actors
