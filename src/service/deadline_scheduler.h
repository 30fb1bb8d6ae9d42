// EDF + weighted-fair dispatch for the fleet's overload control plane
// (DESIGN.md "Overload control plane").
//
// The fleet's FIFO ThreadPool treats every request equally; under overload
// that serves already-doomed work while requests that could still make
// their deadlines wait. The DeadlineScheduler replaces FIFO with a
// two-level policy over per-scenario lanes:
//
//   * across lanes — strict priority tiers first (a higher tier always
//     dispatches before a lower one), then start-time weighted fair queuing:
//     each dispatched job advances its lane's virtual finish tag by
//     1/weight, and the lane with the smallest effective tag runs next, so
//     a weight-2 scenario gets twice the dispatch slots of a weight-1
//     scenario under contention and one hot scenario cannot starve the
//     rest;
//   * within a lane — earliest deadline first (submission order breaks
//     ties), so the request closest to its budget is always the next one
//     served.
//
// Construction with `workers == 0` creates no threads: jobs queue up and
// the caller drains them with RunOne(), which makes dispatch order itself
// deterministic and unit-testable. With workers > 0 the scheduler owns its
// worker threads (the fleet's serve pool when admission is on); destruction
// drains every queued job before joining, mirroring ThreadPool.

#ifndef MALIVA_SERVICE_DEADLINE_SCHEDULER_H_
#define MALIVA_SERVICE_DEADLINE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace maliva {

/// One unit of admitted work.
struct SchedulerJob {
  /// Absolute deadline on the caller's timeline; only the relative order
  /// matters to the scheduler (EDF within the lane).
  double deadline_ms = 0.0;
  /// Weighted-fair lane key (the fleet uses the scenario id; "" is a valid
  /// lane and gets the default share).
  std::string scenario;
  /// The work; must not throw (same contract as ThreadPool::Submit).
  std::function<void()> run;
};

class DeadlineScheduler {
 public:
  /// `workers` dispatch threads; 0 = none (drain manually with RunOne).
  explicit DeadlineScheduler(size_t workers);

  /// Runs every still-queued job (on the caller thread when workers == 0),
  /// then joins the workers.
  ~DeadlineScheduler();

  DeadlineScheduler(const DeadlineScheduler&) = delete;
  DeadlineScheduler& operator=(const DeadlineScheduler&) = delete;

  /// Sets a lane's weighted-fair share before (or between) submissions.
  /// Weight must be > 0 (validated upstream by AdmissionConfig); higher
  /// tiers dispatch strictly first.
  void SetShare(const std::string& scenario, double weight, int tier = 0);

  void Submit(SchedulerJob job);

  /// Blocks until every job submitted so far has completed.
  void Wait();

  /// Dispatches the single next job per the policy above on the caller
  /// thread; false when the queue is empty. The deterministic test hook —
  /// meaningful with workers == 0 (with workers racing, which job "is next"
  /// is already gone by the time the caller asks).
  bool RunOne();

  /// Jobs queued and not yet claimed by a worker: the admission gate's load
  /// signal.
  size_t QueueDepth() const;

  size_t workers() const { return workers_.size(); }

 private:
  struct Entry {
    double deadline_ms;
    uint64_t seq;  ///< submission order, the EDF tie-break
    std::function<void()> run;
  };
  /// Max-heap comparator that puts the *earliest* deadline on top (std heap
  /// functions build max-heaps; "later is less" inverts them into EDF).
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline_ms != b.deadline_ms) return a.deadline_ms > b.deadline_ms;
      return a.seq > b.seq;
    }
  };
  struct Lane {
    double weight = 1.0;
    int tier = 0;
    /// SFQ virtual finish tag of the lane's last dispatched job.
    double vfinish = 0.0;
    /// EDF heap (push_heap/pop_heap with EntryLater).
    std::vector<Entry> jobs;
  };

  /// Picks and pops the next job per tier -> fair tag -> EDF; caller holds
  /// `mutex_`. Returns false when every lane is empty.
  bool PopNextLocked(Entry* out);

  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::map<std::string, Lane> lanes_;  ///< ordered: deterministic tie-breaks
  double vtime_ = 0.0;                 ///< SFQ global virtual time
  uint64_t next_seq_ = 0;
  size_t queued_ = 0;   ///< entries across lanes, not yet dispatched
  size_t pending_ = 0;  ///< submitted, not yet completed
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_DEADLINE_SCHEDULER_H_
