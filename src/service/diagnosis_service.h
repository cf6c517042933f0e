// DiagnosisService — the long-running concurrent diagnosis front end
// (DESIGN.md §9).
//
// Wraps one TelemetryStream with a bounded priority queue and a worker
// pool. Requests are admitted or rejected synchronously at submit() —
// rejection is always the explicit kRejectedQueueFull status, never a
// silent drop — and completed on a std::future. Each admitted request
// carries a deadline; expiry is enforced twice: a request already past its
// deadline at dequeue is answered kDeadlineExceeded without running, and a
// running diagnosis polls the deadline at phase boundaries through the
// engine's cooperative-cancellation hook (DiagnosisRequest::cancel).
//
// Determinism contract: a completed (kOk) response is a pure function of
// (request, db version, service options) — bitwise identical at any worker
// count, queue depth or arrival order. The pieces: every diagnosis runs
// with the same configured seed; workers hold the stream's shared lock for
// the whole run so the db version cannot move mid-diagnosis; and the shared
// training caches yield bitwise-identical factors by construction (see
// FactorCache / WindowStats). Cancellation cannot break this — it only
// abandons phases, never alters a completed one.
//
// Cache invalidation: one core::TrainingCaches shared by every worker and
// handed to each request's MurphyDiagnoser.
// Cache keys carry the per-series write epochs and the train window, so a
// streaming append retires only the entries that read the touched series
// and unrelated entries keep hitting. The generation (MonitoringDb::uid() +
// structural_data_version() + training options) is renewed by each worker
// under the stream's shared lock; structural changes (new entities/
// associations, axis swap, erasure) reset everything. Stale entries are
// never looked up again, so maintain() bounds the maps by pruning under the
// stream's exclusive lock — the one point where no diagnosis can hold a
// cache reference.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/factor_cache.h"
#include "src/core/murphy.h"
#include "src/service/telemetry_stream.h"

namespace murphy::service {

enum class RequestStatus : std::uint8_t {
  kOk = 0,
  // Admission control: the queue was at capacity at submit(). The request
  // never entered the system.
  kRejectedQueueFull,
  // The deadline passed before the diagnosis completed (possibly before it
  // started). The partial result is discarded.
  kDeadlineExceeded,
  // submit() after stop() began.
  kShuttingDown,
  // The symptom references an unknown entity or metric (checked at
  // execution time against the db version the diagnosis would have run at).
  kInvalidRequest,
  // The engine threw (defensive; the chaos harness aims for this never to
  // happen). The exception is swallowed so the future always resolves.
  kInternalError,
};

[[nodiscard]] std::string_view to_string(RequestStatus s);

struct ServiceResponse;

struct ServiceRequest {
  EntityId symptom_entity;
  std::string symptom_metric;
  TimeIndex now = 0;
  TimeIndex train_begin = 0;
  TimeIndex train_end = 0;
  std::size_t max_hops = 4;
  // Larger runs sooner. Ties run in submission order.
  int priority = 0;
  // Absolute deadline; max() = none. Checked at dequeue and at every
  // diagnosis phase boundary.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  // Optional completion hook, invoked with the final response immediately
  // before the future resolves — on the worker thread that finished the
  // request, or on the submitting thread for synchronous rejections
  // (kRejectedQueueFull / kShuttingDown). Runs with no service lock held;
  // it may take the stream's shared lock but must not wait on this
  // request's future and must not throw. The socket front end uses this to
  // deliver pipelined completions out of order; future-only callers leave
  // it empty.
  std::function<void(const ServiceResponse&)> on_complete;
};

struct ServiceResponse {
  std::uint64_t request_id = 0;
  RequestStatus status = RequestStatus::kOk;
  // Filled for kOk only.
  core::DiagnosisResult result;
  // MonitoringDb::data_version() the diagnosis ran at (0 when it never
  // ran). Re-running the same request at the same version reproduces
  // `result` bitwise.
  std::uint64_t db_version = 0;
  double queue_ms = 0.0;  // admit -> dequeue
  double run_ms = 0.0;    // dequeue -> response
};

struct DiagnosisServiceOptions {
  // Engine configuration shared by every request (seed included — the
  // determinism contract is per (request, db version, options)).
  core::MurphyOptions murphy;
  // Concurrent diagnoses. 0 is legal: requests then run inline inside
  // submit() (useful for tests and the serial re-execution harness).
  std::size_t num_workers = 2;
  // Admission bound on QUEUED requests (running ones do not count).
  std::size_t max_queue = 64;
  // maintain() prunes each training cache down whenever it exceeds this.
  std::size_t cache_max_entries = core::TrainingCaches::kDefaultMaxEntries;
};

class DiagnosisService {
 public:
  // The stream must outlive the service.
  DiagnosisService(TelemetryStream& stream, DiagnosisServiceOptions opts);
  // Implies stop().
  ~DiagnosisService();
  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  // Admission + scheduling. Returns a future that is always eventually
  // fulfilled: kRejectedQueueFull / kShuttingDown resolve before submit()
  // returns, everything admitted resolves when a worker finishes with it.
  [[nodiscard]] std::future<ServiceResponse> submit(ServiceRequest req);

  // Completes every admitted request (running and queued), then stops
  // accepting. Idempotent. The destructor calls it; unlike ThreadPool's
  // destructor-abandonment, a service stop() never drops admitted work —
  // every future resolves.
  void stop();

  // Cache size bound: prunes either training cache that exceeds
  // cache_max_entries, under the stream's exclusive lock (no diagnosis can
  // hold a cache reference there). Call after ingest batches; murphyd does.
  void maintain();

  // Queued (not yet running) requests, for tests and the STATS verb.
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Pending {
    ServiceRequest req;
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point admitted;
    // promise travels via shared_ptr: std::priority_queue only exposes a
    // const top(), so entries must be copyable out.
    std::shared_ptr<std::promise<ServiceResponse>> promise;
  };
  struct PendingOrder {
    // std::priority_queue surfaces the LARGEST element: higher priority
    // wins, then the smaller (earlier) id. Deterministic for any arrival
    // interleaving of a fixed request set.
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.req.priority != b.req.priority)
        return a.req.priority < b.req.priority;
      return a.id > b.id;
    }
  };

  void run_one();
  ServiceResponse execute(const Pending& p);

  TelemetryStream& stream_;
  DiagnosisServiceOptions opts_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex queue_mu_;
  std::priority_queue<Pending, std::vector<Pending>, PendingOrder> queue_;
  std::uint64_t next_id_ = 0;
  bool stopping_ = false;

  // Shared across workers (see file comment).
  core::TrainingCaches caches_;
};

}  // namespace murphy::service
