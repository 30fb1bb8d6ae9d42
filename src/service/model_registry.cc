#include "service/model_registry.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace maliva {

PublishedModel ModelRegistry::Publish(const std::string& key,
                                      std::unique_ptr<const QAgent> agent,
                                      AgentSnapshotMeta meta,
                                      uint64_t expected_parent_version) {
  PublishedModel model;
  model.agent = std::shared_ptr<const QAgent>(std::move(agent));

  std::unique_lock<std::shared_mutex> lock(mutex_);
  Chain& chain = chains_[key];
  if (expected_parent_version != 0) {
    uint64_t current = chain.versions.empty()
                           ? 0
                           : chain.versions.back().snapshot->meta().version;
    if (current != expected_parent_version) return PublishedModel{};
  }
  meta.version = chain.next_version++;
  model.snapshot = std::make_shared<const AgentSnapshot>(meta);
  chain.versions.push_back(model);
  // Bound the chain: keep version 1 (the rollback floor) and the newest
  // versions; prune the oldest middle. Readers holding a pruned version
  // keep it alive through their own shared_ptr.
  while (chain.versions.size() > max_retained_per_key_) {
    chain.versions.erase(chain.versions.begin() + 1);
  }
  return model;
}

PublishedModel ModelRegistry::Current(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = chains_.find(key);
  if (it == chains_.end() || it->second.versions.empty()) return PublishedModel{};
  return it->second.versions.back();
}

bool ModelRegistry::Rollback(const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = chains_.find(key);
  if (it == chains_.end() || it->second.versions.size() <= 1) return false;
  it->second.versions.pop_back();
  return true;
}

uint64_t ModelRegistry::CurrentVersion(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = chains_.find(key);
  if (it == chains_.end() || it->second.versions.empty()) return 0;
  return it->second.versions.back().snapshot->meta().version;
}

size_t ModelRegistry::ChainLength(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = chains_.find(key);
  return it == chains_.end() ? 0 : it->second.versions.size();
}

uint64_t ModelRegistry::MaxVersion() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  uint64_t max_version = 0;
  for (const auto& [key, chain] : chains_) {
    if (!chain.versions.empty()) {
      max_version =
          std::max(max_version, chain.versions.back().snapshot->meta().version);
    }
  }
  return max_version;
}

}  // namespace maliva
