#include "service/deadline_scheduler.h"

#include <algorithm>
#include <utility>

namespace maliva {

DeadlineScheduler::DeadlineScheduler(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DeadlineScheduler::~DeadlineScheduler() {
  if (workers_.empty()) {
    // Manual mode: nothing will ever drain the queue, so the destructor
    // runs the leftovers itself — queued jobs hold completion promises that
    // must not be dropped.
    while (RunOne()) {
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void DeadlineScheduler::SetShare(const std::string& scenario, double weight,
                                 int tier) {
  std::unique_lock<std::mutex> lock(mutex_);
  Lane& lane = lanes_[scenario];
  lane.weight = weight > 0.0 ? weight : 1.0;
  lane.tier = tier;
}

void DeadlineScheduler::Submit(SchedulerJob job) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    Lane& lane = lanes_[job.scenario];
    Entry entry;
    entry.deadline_ms = job.deadline_ms;
    entry.seq = next_seq_++;
    entry.run = std::move(job.run);
    lane.jobs.push_back(std::move(entry));
    std::push_heap(lane.jobs.begin(), lane.jobs.end(), EntryLater{});
    ++queued_;
    ++pending_;
  }
  wake_.notify_one();
}

bool DeadlineScheduler::PopNextLocked(Entry* out) {
  // Lane selection: strict tier first, then the smallest SFQ start tag
  // (max(vtime, lane.vfinish) — a long-idle lane re-enters at the global
  // virtual time instead of burning its idle period as credit), then the
  // earliest head deadline, then lane name (lanes_ is an ordered map, so
  // the final tie-break is deterministic).
  Lane* best = nullptr;
  double best_tag = 0.0;
  double best_deadline = 0.0;
  for (auto& kv : lanes_) {
    Lane& lane = kv.second;
    if (lane.jobs.empty()) continue;
    double tag = std::max(vtime_, lane.vfinish);
    double head_deadline = lane.jobs.front().deadline_ms;
    bool take = false;
    if (best == nullptr) {
      take = true;
    } else if (lane.tier != best->tier) {
      take = lane.tier > best->tier;
    } else if (tag != best_tag) {
      take = tag < best_tag;
    } else if (head_deadline != best_deadline) {
      take = head_deadline < best_deadline;
    }
    if (take) {
      best = &lane;
      best_tag = tag;
      best_deadline = head_deadline;
    }
  }
  if (best == nullptr) return false;

  std::pop_heap(best->jobs.begin(), best->jobs.end(), EntryLater{});
  *out = std::move(best->jobs.back());
  best->jobs.pop_back();
  --queued_;
  vtime_ = best_tag;
  best->vfinish = best_tag + 1.0 / best->weight;
  return true;
}

bool DeadlineScheduler::RunOne() {
  Entry entry;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!PopNextLocked(&entry)) return false;
  }
  entry.run();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--pending_ == 0) idle_.notify_all();
  }
  return true;
}

void DeadlineScheduler::WorkerLoop() {
  for (;;) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (!PopNextLocked(&entry)) return;  // stop_ and drained
    }
    entry.run();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--pending_ == 0) idle_.notify_all();
    }
  }
}

void DeadlineScheduler::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

size_t DeadlineScheduler::QueueDepth() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return queued_;
}

}  // namespace maliva
