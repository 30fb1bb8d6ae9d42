#include "service/shard_router.h"

#include <utility>

namespace maliva {

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kRegistered: return "registered";
    case ShardState::kWarming: return "warming";
    case ShardState::kReady: return "ready";
    case ShardState::kDraining: return "draining";
  }
  return "unknown";
}

std::string ShardRouter::IdsListLocked() const {
  if (shards_.empty()) return "(none registered)";
  std::string list;
  for (const auto& [id, shard] : shards_) {
    if (!list.empty()) list += ", ";
    list += id;
  }
  return list;
}

Status ShardRouter::CheckAvailableLocked(const std::string& id) const {
  if (id.empty()) {
    return Status::InvalidArgument("scenario id must not be empty");
  }
  if (shards_.count(id) != 0) {
    return Status::InvalidArgument("scenario \"" + id +
                                   "\" is already registered (registered scenarios: " +
                                   IdsListLocked() + ")");
  }
  return Status::OK();
}

Status ShardRouter::CheckAvailable(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return CheckAvailableLocked(id);
}

Status ShardRouter::Insert(std::shared_ptr<Shard> shard) {
  if (shard == nullptr) {
    return Status::InvalidArgument("shard must not be null");
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  MALIVA_RETURN_NOT_OK(CheckAvailableLocked(shard->id));
  shards_.emplace(shard->id, std::move(shard));
  return Status::OK();
}

Result<std::shared_ptr<Shard>> ShardRouter::Resolve(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = shards_.find(id);
  if (it == shards_.end()) {
    return Status::NotFound("unknown scenario \"" + id +
                            "\" (registered scenarios: " + IdsListLocked() + ")");
  }
  return it->second;
}

Result<std::shared_ptr<Shard>> ShardRouter::Remove(const std::string& id,
                                                   const Shard* expected) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = shards_.find(id);
  if (it == shards_.end() ||
      (expected != nullptr && it->second.get() != expected)) {
    // Either never registered, or the shard the caller validated was
    // already removed (and possibly replaced by a fresh registration) —
    // from the caller's perspective its shard is gone.
    return Status::NotFound("unknown scenario \"" + id +
                            "\" (registered scenarios: " + IdsListLocked() + ")");
  }
  std::shared_ptr<Shard> shard = std::move(it->second);
  shards_.erase(it);
  return shard;
}

std::vector<std::shared_ptr<Shard>> ShardRouter::List() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::shared_ptr<Shard>> shards;
  shards.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) shards.push_back(shard);
  return shards;  // std::map iteration order is already sorted by id
}

std::shared_ptr<Shard> ShardRouter::Sole() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (shards_.size() != 1) return nullptr;
  return shards_.begin()->second;
}

std::string ShardRouter::IdsList() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return IdsListLocked();
}

}  // namespace maliva
