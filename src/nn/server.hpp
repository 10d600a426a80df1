// Replicated dynamic-batching serving front-end over compiled
// InferenceSessions, with a deadline-aware request lifecycle and
// self-healing replicas.
//
// An InferenceServer accepts concurrent requests (blocking infer() and
// infer_frame() calls from any number of client threads) and micro-batches
// their samples into session runs. A frame of N samples is admitted under
// one lock, its samples queue side by side, and they may spread over
// several replicas and batches; a single-sample infer() is the N = 1 frame.
// Samples pass a bounded admission queue (backpressure: block until space
// frees or reject immediately — see ServerOptions::admission)
// and are drained by N dispatcher replicas. Each replica owns a compiled
// InferenceSession — its own ActivationSlab, batch gather/scatter
// tensors, and a private ThreadPool slice of the hardware
// (DESIGN.md §10), so replicas never share mutable kernel state and never
// oversubscribe a global pool N×; the only cross-replica state is the
// admission queue, the WorkStealGroup that lets idle slices absorb a
// sibling's queued loop chunks, and the const network weights.
//
// Request lifecycle (DESIGN.md §9 has the full state machine); one
// request is one sample of a frame:
//
//   admitted -> queued -> batched -> done(logits)
//                 |            \-> done(ServerError)
//                 \-> withdrawn (a sibling sample failed the frame)
//
// A frame is all-or-nothing: the call returns the logits of every sample,
// or throws the first failure in sample order. It returns only once every
// admitted sample has completed or been withdrawn from the queue, because
// queued requests read the caller's frame and write the caller's logits.
//
// Every way a request can fail is a typed ServerError whose ErrorKind the
// Stats count per kind: the sample is malformed (kInvalidSample, failed at
// admission so it never joins a batch), the queue is full under kReject
// (kQueueFull), the server is stopping (kShuttingDown), the request's
// deadline expired (kDeadlineExceeded — checked at admission, while blocked
// on backpressure, and at dequeue before the request occupies a batch
// slot; batch formation is never held open past the earliest deadline in
// the queue), or the replica holding the request died (kReplicaFailed — a
// dispatcher never strands its dequeued clients).
//
// Replica self-healing: a monitor thread watches every dispatcher. A
// replica whose cycle throws (any escaped exception) fails its in-flight
// requests with kReplicaFailed and exits; a replica whose dispatch cycle
// exceeds ServerOptions::stuck_threshold has its in-flight requests failed
// immediately (clients unblock long before the stall resolves) and is
// retired when the stalled cycle finally returns. Either way the monitor
// joins the dead thread, recompiles the replica's session and restarts it —
// until the replica has crashed more than max_replica_restarts times, at
// which point it is quarantined. Per-replica health (kHealthy, kRestarting,
// kQuarantined) is exported in Stats; when every replica is quarantined the
// server fails queued and future requests with kReplicaFailed instead of
// stranding them.
//
// Batching is exact: the session's logits are bit-identical whether a
// sample runs alone or inside any batch on any replica, so serving results
// never depend on traffic (tests/test_server.cpp pins this; the fault
// drills in tests/test_chaos.cpp pin that injected crashes never corrupt a
// non-injected response).
//
// Dynamic-shape models (ModelSpec::seq_buckets nonempty) add bucketed batch
// formation: each request's token count is resolved at admission to the
// smallest covering sequence bucket, and a micro-batch only ever contains
// requests of one bucket — the dispatcher takes the head request's bucket
// and gathers matching requests from anywhere in the queue (FIFO within the
// bucket), zero-padding each sample up to the bucket length. The session's
// compiled plan family serves every bucket without recompiling, so mixed
// sequence lengths cost one plan lookup per batch, never a compile.
//
// Shutdown drains: ~InferenceServer stops admission (late infer() callers
// get kShuttingDown), lets the replicas finish every queued request, joins
// the monitor and the dispatchers, fails any request left queued when no
// dispatcher survived, then waits for the last in-flight client to leave.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/session.hpp"
#include "src/parallel/thread_pool.hpp"

namespace apnn::nn {

/// Why a request failed. Every failure path out of InferenceServer::infer()
/// carries exactly one of these (Stats::error_counts indexes by it).
enum class ErrorKind {
  kDeadlineExceeded = 0,  ///< the request's deadline passed before dispatch
  kQueueFull,             ///< rejected by admission control
  kShuttingDown,          ///< admission after shutdown began
  kInvalidSample,         ///< malformed sample (failed admission validation)
  kReplicaFailed,         ///< the dispatcher holding the request died
};
inline constexpr std::size_t kErrorKindCount = 5;
const char* error_kind_name(ErrorKind kind);

/// Typed serving failure. Still an apnn::Error, so callers that only care
/// that a request failed need no new catch; callers that route on the
/// failure (retry vs shed vs alert) switch on kind().
class ServerError : public Error {
 public:
  ServerError(ErrorKind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

/// Dispatcher replica health as exported in Stats.
enum class ReplicaHealth {
  kHealthy = 0,  ///< dispatching (or idle, waiting for work)
  kRestarting,   ///< crashed/stuck; the monitor is recompiling it
  kQuarantined,  ///< crashed too often; permanently out of rotation
};
const char* replica_health_name(ReplicaHealth health);

struct ServerOptions {
  /// Largest batch one session run may serve. 4 rather than 8: at 8 the
  /// vgg_lite activation slab grows to ~1.26 MB per replica for little
  /// throughput over 4 (docs/OPERATIONS.md §5).
  std::int64_t max_batch = 4;
  /// How long a dispatcher holds an open batch waiting for more requests.
  /// Never held past the earliest deadline among the queued requests.
  std::chrono::microseconds batch_window{500};

  /// Dispatcher replicas, each owning a compiled InferenceSession and a
  /// private ThreadPool slice. 0 derives jointly with `slice_threads` (see
  /// derive_topology) so replicas × slice never exceeds the hardware width.
  int replicas = 0;

  /// Logical width (participating dispatcher + workers) of each replica's
  /// private kernel pool. 0 derives jointly with `replicas` so the total
  /// replicas × slice_threads stays within hardware_concurrency() — the fix
  /// for the old topology where N replicas shared one hardware-wide global
  /// pool and a busy server ran ~N× more runnable threads than cores.
  int slice_threads = 0;

  /// Admission-queue bound (queued requests, not counting the batches
  /// already inside the replicas). 0 derives as replicas * max_batch * 4.
  std::int64_t max_queue = 0;

  /// What infer() does when the admission queue cannot take a frame.
  enum class Admission {
    kBlock,    ///< samples enter as dispatchers free space (backpressure)
    kReject,   ///< a frame that does not fit the free space throws
               ///< kQueueFull as a whole, nothing queued (load shedding)
  };
  Admission admission = Admission::kBlock;

  /// Self-healing watchdog: a dispatch cycle still running after this long
  /// is declared stuck — its requests fail with kReplicaFailed and the
  /// replica is restarted once the stalled cycle returns. Generous default:
  /// a healthy micro-batch runs in milliseconds even under sanitizers.
  std::chrono::milliseconds stuck_threshold{10000};
  /// Crashes (escaped dispatch exceptions or stuck declarations) a replica
  /// may accumulate before it is quarantined instead of restarted.
  int max_replica_restarts = 2;
};

class InferenceServer {
 public:
  /// A request deadline: a steady-clock instant after which the server
  /// stops spending resources on the request. kNoDeadline means "wait
  /// however long serving takes".
  using Deadline = std::chrono::steady_clock::time_point;
  static constexpr Deadline kNoDeadline = Deadline::max();

  /// Compiles one session per replica for `net` (must be calibrated and
  /// outlive the server) and starts the dispatcher threads plus the health
  /// monitor.
  InferenceServer(const ApnnNetwork& net, const tcsim::DeviceSpec& dev,
                  ServerOptions opts = {});
  /// Stops admission, drains queued requests, then stops the dispatchers.
  ~InferenceServer();

  /// Graceful drain: stops admission (every later infer() call throws
  /// kShuttingDown), lets the replicas finish all queued requests, and
  /// joins the monitor and dispatcher threads. Requests still queued after
  /// the join (possible only when every dispatcher died) fail with
  /// kShuttingDown rather than strand. Idempotent; the destructor calls it.
  /// Must not race itself — call from one controlling thread (concurrent
  /// infer() calls are fine).
  void shutdown();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Serves a frame of N samples — HWC uint8 codes {N, H, W, C} (or one
  /// sample {H, W, C}) — blocking until every sample has run, and writes
  /// the logits {N, classes} into *logits (reshaped in place, so a caller
  /// reusing one tensor per connection allocates nothing per frame). For
  /// dynamic-shape models H (the token count) may be any length in
  /// [1, largest bucket]; the samples batch with same-bucket requests only.
  /// Thread-safe; any number of callers may be in flight. Every sample is
  /// validated before any is queued. Throws ServerError on every failure
  /// path (see ErrorKind) — the first failure in sample order, after the
  /// frame's other samples have finished or been withdrawn. The optional
  /// deadline bounds admission, backpressure waiting, and queue residency —
  /// a sample that reaches a batch slot before its deadline completes
  /// normally.
  void infer_frame(const Tensor<std::int32_t>& frame_u8,
                   Tensor<std::int32_t>* logits,
                   Deadline deadline = kNoDeadline);
  /// The N = 1 frame: one sample {H, W, C} (or {1, H, W, C}); returns the
  /// logits {classes}.
  Tensor<std::int32_t> infer(const Tensor<std::int32_t>& sample_u8,
                             Deadline deadline = kNoDeadline);
  /// Deadline convenience: now() + budget.
  Tensor<std::int32_t> infer(const Tensor<std::int32_t>& sample_u8,
                             std::chrono::milliseconds budget);

  struct Stats {
    std::int64_t requests = 0;   ///< samples served successfully
    std::int64_t batches = 0;    ///< session runs dispatched (all replicas)
    std::int64_t max_batch = 0;  ///< largest micro-batch formed
    std::int64_t rejected = 0;   ///< frames refused (kReject only)

    std::int64_t queue_depth = 0;       ///< queued right now
    std::int64_t peak_queue_depth = 0;  ///< high-water of queue_depth

    /// Failures by ErrorKind: one per sample failed in the queue or a
    /// replica, one per frame failed
    /// by its caller's admission (validation, kReject, shutdown, ...).
    /// Samples withdrawn because a sibling failed are not counted.
    std::array<std::int64_t, kErrorKindCount> error_counts{};
    std::int64_t errors(ErrorKind k) const {
      return error_counts[static_cast<std::size_t>(k)];
    }

    /// Self-healing.
    std::int64_t replica_restarts = 0;  ///< successful monitor restarts
    std::vector<ReplicaHealth> replica_health;  ///< index = replica

    /// Latency accounting over completed requests (admission to response).
    double total_latency_ms = 0.0;  ///< sum; mean = total / requests
    double max_latency_ms = 0.0;
    /// Wall time spent inside dispatch cycles (gather + run + scatter),
    /// summed across replicas; batches/total_batch_ms is the service rate.
    double total_batch_ms = 0.0;

    /// Per-replica dispatch counts (index = replica); the spread shows
    /// whether load actually fans out across the pool.
    std::vector<std::int64_t> replica_batches;
    std::vector<std::int64_t> replica_requests;
  };
  Stats stats() const;

  /// Resolved replica count (after the hardware-width derivation).
  int replicas() const { return static_cast<int>(replicas_.size()); }
  /// Resolved per-replica pool width (after derive_topology).
  int slice_threads() const { return opts_.slice_threads; }

  /// Resolved execution topology: how many replicas, each how wide.
  struct Topology {
    int replicas = 1;
    int slice_threads = 1;
  };
  /// The joint replica-count / slice-width derivation, exposed for tests.
  /// Rules, with hw = max(1, hw_threads):
  ///   both 0        -> replicas = clamp(hw/2, 1, 8), slice = hw/replicas
  ///   replicas set  -> slice = max(1, hw/replicas)
  ///   slice set     -> replicas = clamp(hw/slice, 1, 8)
  ///   both set      -> taken as given (the caller opted out of the guard)
  /// Every derived combination satisfies replicas * slice <= hw (explicit
  /// settings may exceed it — oversubscription becomes opt-in, not the
  /// default).
  static Topology derive_topology(const ServerOptions& opts,
                                  unsigned hw_threads);

 private:
  /// One in-flight request: one sample of a frame. A frame's requests live
  /// in one shared array; the queue, the dispatching replica and the
  /// monitor hold aliasing pointers into it. Any of them may complete a
  /// request (under mu_, exactly once — `done` guards), and shared
  /// ownership means a request failed early (deadline, stuck replica)
  /// cannot dangle under a dispatcher that still holds it.
  struct Request {
    /// The sample's codes inside the caller's frame, and its logits row in
    /// the caller's output. Caller-owned: touched only under mu_ while the
    /// request is not done, and the caller returns only once every request
    /// of its frame is done.
    const std::int32_t* codes = nullptr;
    std::int32_t* logits = nullptr;
    /// Failure outcome as plain data, not an exception_ptr: the ServerError
    /// is constructed in the *caller's* thread at rethrow time. A shared
    /// exception object's lifetime would otherwise end on whichever thread
    /// drops the last Request reference — a cross-thread free that TSan
    /// cannot see through libsupc++'s uninstrumented refcount.
    bool failed = false;
    ErrorKind error_kind = ErrorKind::kReplicaFailed;
    std::string error_message;
    bool done = false;
    Deadline deadline = kNoDeadline;
    std::chrono::steady_clock::time_point enqueued;
    /// Dynamic-shape models only: the sample's token count and the sequence
    /// bucket it was resolved to at admission (samples of one bucket batch
    /// together; the gather zero-pads seq up to bucket). Both 0 when the
    /// model is shape-static.
    std::int64_t seq = 0;
    std::int64_t bucket = 0;
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// One dispatcher worker: session + reusable gather/scatter tensors
  /// (steady-state zero allocation, per replica), plus the health state the
  /// monitor drives (all guarded by mu_ except the running session).
  struct Replica {
    /// Private kernel pool slice. Declared before `session` so the session
    /// (which runs loops on the pool) is destroyed first; the pool itself
    /// deregisters from steal_group_ (declared before replicas_) on
    /// destruction. Never reassigned after construction, so the monitor may
    /// read `pool.get()` for a restart recompile without the lock.
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<InferenceSession> session;
    Tensor<std::int32_t> batch_input;
    Tensor<std::int32_t> batch_logits;
    std::thread thread;

    ReplicaHealth health = ReplicaHealth::kHealthy;
    std::vector<RequestPtr> in_flight;  ///< current batch (dequeued)
    bool in_cycle = false;
    std::chrono::steady_clock::time_point cycle_start;
    bool declared_stuck = false;  ///< monitor verdict; thread must retire
    bool exited = false;          ///< thread returned; monitor must join
    int crashes = 0;
  };

  /// Session options with `pool` pointed at replica_index's private slice —
  /// used for the initial compiles and every monitor restart recompile, so
  /// a restarted replica always lands back on its own pool.
  SessionOptions session_options_for(std::size_t replica_index) const;

  /// The one admission path behind infer() and infer_frame().
  void serve(const Tensor<std::int32_t>& frame_u8, bool one_sample,
             Tensor<std::int32_t>* logits, Deadline deadline);
  /// Waits until reqs[0, admitted) are all done. Once one of them has
  /// failed, or at once when `failing` (the caller failed the frame
  /// itself), the still-queued ones are withdrawn so nothing of the frame
  /// stays behind.
  void settle_frame_locked(std::unique_lock<std::mutex>& lock, Request* reqs,
                           std::int64_t admitted, bool failing);

  void dispatch_loop(std::size_t replica_index);
  bool dispatch_cycle(std::size_t replica_index,
                      std::vector<RequestPtr>& batch);
  void monitor_loop();

  // All helpers below require mu_ held.
  [[noreturn]] void fail_caller_locked(ErrorKind kind, const std::string& msg);
  void complete_with_error_locked(const RequestPtr& req, ErrorKind kind,
                                  const std::string& msg);
  void expire_queued_locked(std::chrono::steady_clock::time_point now);
  Deadline earliest_queued_deadline_locked() const;
  void quarantine_locked(std::size_t replica_index);

  const ApnnNetwork& net_;  ///< for replica recompiles on restart
  const tcsim::DeviceSpec dev_;
  const ActShape input_shape_;
  const std::int64_t classes_;  ///< logits per sample
  /// Ascending sequence buckets (empty = shape-static model). Mirrors the
  /// session's plan family so admission can resolve a request's bucket
  /// without touching a replica.
  std::vector<std::int64_t> seq_buckets_;
  ServerOptions opts_;  ///< resolved: replicas/max_queue filled in
  /// Stealing membership for the replica pools. Declared before replicas_
  /// so it outlives every pool (a destructing pool deregisters itself).
  WorkStealGroup steal_group_;
  std::vector<Replica> replicas_;
  std::thread monitor_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    ///< dispatcher wakeups
  std::condition_variable done_cv_;     ///< client wakeups
  std::condition_variable space_cv_;    ///< admission backpressure wakeups
  std::condition_variable idle_cv_;     ///< destructor waits for clients
  std::condition_variable monitor_cv_;  ///< monitor wakeups (exit, crash)
  std::deque<RequestPtr> queue_;
  bool stop_ = false;
  bool no_replicas_ = false;   ///< every replica quarantined
  std::int64_t active_clients_ = 0;  ///< infer() calls inside the monitor
  Stats stats_;
};

}  // namespace apnn::nn
