#include "src/nn/server.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>

#include "src/common/check.hpp"
#include "src/common/faultinject.hpp"

namespace apnn::nn {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

const char* error_kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorKind::kQueueFull: return "queue_full";
    case ErrorKind::kShuttingDown: return "shutting_down";
    case ErrorKind::kInvalidSample: return "invalid_sample";
    case ErrorKind::kReplicaFailed: return "replica_failed";
  }
  return "unknown";
}

const char* replica_health_name(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kRestarting: return "restarting";
    case ReplicaHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

InferenceServer::Topology InferenceServer::derive_topology(
    const ServerOptions& opts, unsigned hw_threads) {
  const int hw = static_cast<int>(std::max(1u, hw_threads));
  Topology t{opts.replicas, opts.slice_threads};
  if (t.replicas <= 0 && t.slice_threads <= 0) {
    // Half the hardware as replicas (clamped to [1, 8]) — enough to overlap
    // the serial sections of a dispatch cycle — and the rest of the width
    // split evenly among them. Total = replicas * slice <= hw, which the
    // old derivation (hw/2 replicas, each on an hw-wide global pool,
    // ~hw^2/2 runnable threads under load) badly violated.
    t.replicas = std::clamp(hw / 2, 1, 8);
    t.slice_threads = std::max(1, hw / t.replicas);
  } else if (t.replicas > 0 && t.slice_threads <= 0) {
    t.slice_threads = std::max(1, hw / t.replicas);
  } else if (t.replicas <= 0) {
    t.replicas = std::clamp(hw / t.slice_threads, 1, 8);
  }
  return t;
}

InferenceServer::InferenceServer(const ApnnNetwork& net,
                                 const tcsim::DeviceSpec& dev,
                                 ServerOptions opts)
    : net_(net),
      dev_(dev),
      input_shape_(net.spec().input),
      classes_(net.shapes().back().numel()),
      opts_(opts) {
  seq_buckets_ = net.spec().seq_buckets;
  std::sort(seq_buckets_.begin(), seq_buckets_.end());
  seq_buckets_.erase(
      std::unique(seq_buckets_.begin(), seq_buckets_.end()),
      seq_buckets_.end());
  APNN_CHECK(opts_.max_batch >= 1);
  APNN_CHECK(opts_.max_replica_restarts >= 0);
  APNN_CHECK(opts_.stuck_threshold.count() > 0);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const Topology topo = derive_topology(opts_, hw);
  opts_.replicas = topo.replicas;
  opts_.slice_threads = topo.slice_threads;
  if (opts_.max_queue <= 0) {
    opts_.max_queue = opts_.replicas * opts_.max_batch * 4;
  }

  stats_.replica_batches.assign(static_cast<std::size_t>(opts_.replicas), 0);
  stats_.replica_requests.assign(static_cast<std::size_t>(opts_.replicas), 0);

  // Build each replica's private pool slice, then compile its session on
  // that slice. The dispatchers and monitor start only once the replica
  // vector is final.
  replicas_.resize(static_cast<std::size_t>(opts_.replicas));
  // Replica pools join one stealing group: an idle slice helps a busy
  // sibling's loop, while a dispatcher's own wait stays bounded by its
  // batch's chunks (§10).
  WorkStealGroup* group = replicas_.size() > 1 ? &steal_group_ : nullptr;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    replicas_[r].pool = std::make_unique<ThreadPool>(
        static_cast<unsigned>(opts_.slice_threads), group);
    replicas_[r].session =
        std::make_unique<InferenceSession>(net, dev, session_options_for(r));
  }
  try {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      replicas_[i].thread = std::thread([this, i] { dispatch_loop(i); });
    }
    monitor_ = std::thread([this] { monitor_loop(); });
  } catch (...) {
    // A failed std::thread spawn (e.g. EAGAIN) must not unwind past
    // running dispatchers — destroying a joinable thread terminates the
    // process. Stop and join what started, then let the caller see it.
    shutdown();
    throw;
  }
}

void InferenceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();    // dispatchers: drain, then exit
  space_cv_.notify_all();    // blocked admissions: fail with kShuttingDown
  monitor_cv_.notify_all();  // monitor: exit (no restarts during shutdown)
  if (monitor_.joinable()) monitor_.join();
  for (Replica& r : replicas_) {
    if (r.thread.joinable()) r.thread.join();
  }
  // The dispatchers drain the queue before exiting, so anything still
  // queued here means no dispatcher survived shutdown (crashed or
  // quarantined). Those clients must fail, not strand.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const RequestPtr& r : queue_) {
      if (!r->done) {
        complete_with_error_locked(
            r, ErrorKind::kShuttingDown,
            "server shut down before the request could be dispatched");
      }
    }
    queue_.clear();
  }
  done_cv_.notify_all();
}

InferenceServer::~InferenceServer() {
  shutdown();
  // Every queued request has completed; wait for the last in-flight infer()
  // to leave the monitor before the mutex and cvs are destroyed.
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return active_clients_ == 0; });
}

void InferenceServer::fail_caller_locked(ErrorKind kind,
                                         const std::string& msg) {
  ++stats_.error_counts[static_cast<std::size_t>(kind)];
  throw ServerError(kind, msg);
}

void InferenceServer::complete_with_error_locked(const RequestPtr& req,
                                                 ErrorKind kind,
                                                 const std::string& msg) {
  req->failed = true;
  req->error_kind = kind;
  req->error_message = msg;
  req->done = true;
  ++stats_.error_counts[static_cast<std::size_t>(kind)];
}

void InferenceServer::expire_queued_locked(
    std::chrono::steady_clock::time_point now) {
  bool removed = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->deadline != kNoDeadline && now >= (*it)->deadline) {
      complete_with_error_locked(
          *it, ErrorKind::kDeadlineExceeded,
          "deadline expired while queued (never occupied a batch slot)");
      it = queue_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  if (removed) {
    done_cv_.notify_all();
    space_cv_.notify_all();
  }
}

InferenceServer::Deadline InferenceServer::earliest_queued_deadline_locked()
    const {
  Deadline earliest = kNoDeadline;
  for (const RequestPtr& r : queue_) {
    earliest = std::min(earliest, r->deadline);
  }
  return earliest;
}

Tensor<std::int32_t> InferenceServer::infer(
    const Tensor<std::int32_t>& sample_u8, std::chrono::milliseconds budget) {
  return infer(sample_u8, std::chrono::steady_clock::now() + budget);
}

Tensor<std::int32_t> InferenceServer::infer(
    const Tensor<std::int32_t>& sample_u8, Deadline deadline) {
  Tensor<std::int32_t> logits;
  serve(sample_u8, /*one_sample=*/true, &logits, deadline);
  return logits;
}

void InferenceServer::infer_frame(const Tensor<std::int32_t>& frame_u8,
                                  Tensor<std::int32_t>* logits,
                                  Deadline deadline) {
  serve(frame_u8, /*one_sample=*/false, logits, deadline);
}

void InferenceServer::serve(const Tensor<std::int32_t>& frame_u8,
                            bool one_sample, Tensor<std::int32_t>* logits,
                            Deadline deadline) {
  // Admission validation: a malformed sample (wrong shape, out-of-range
  // code) throws here, in its own caller, before any sample of its frame
  // is queued — it never joins a micro-batch.
  std::int64_t count = 0;
  try {
    count = InferenceSession::validate_frame(input_shape_, seq_buckets_,
                                             frame_u8);
    APNN_CHECK(!one_sample || count == 1)
        << "sample must be one image: {H, W, C} or {1, H, W, C}";
  } catch (const Error& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.error_counts[static_cast<std::size_t>(
          ErrorKind::kInvalidSample)];
    }
    throw ServerError(ErrorKind::kInvalidSample, e.what());
  }
  faultinject::point(faultinject::kAdmission);

  if (one_sample) {
    logits->reset_shape({classes_});
  } else {
    logits->reset_shape({count, classes_});
  }
  // One allocation per frame. The queue, a dispatching replica and the
  // monitor may all still hold a request after this caller has been
  // failed out of it (stuck replica) — the shared array keeps their
  // pointers valid.
  const std::shared_ptr<Request[]> reqs = std::make_shared<Request[]>(
      static_cast<std::size_t>(count));
  const std::int64_t seq = frame_u8.dim(frame_u8.rank() == 4 ? 1 : 0);
  std::int64_t bucket = 0;
  for (std::int64_t b : seq_buckets_) {
    if (b >= seq) {  // resolved once, at admission — dispatchers group by it
      bucket = b;
      break;
    }
  }
  const std::int64_t sample_elems = frame_u8.numel() / count;
  for (std::int64_t i = 0; i < count; ++i) {
    Request& r = reqs[static_cast<std::size_t>(i)];
    r.codes = frame_u8.data() + i * sample_elems;
    r.logits = logits->data() + i * classes_;
    r.deadline = deadline;
    if (!seq_buckets_.empty()) {
      r.seq = seq;
      r.bucket = bucket;
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  ++active_clients_;
  struct ClientGuard {  // leaves the monitor on every path, throws included
    InferenceServer* s;
    ~ClientGuard() {
      if (--s->active_clients_ == 0 && s->stop_) s->idle_cv_.notify_all();
    }
  } guard{this};
  if (stop_) {
    fail_caller_locked(ErrorKind::kShuttingDown, "server is shutting down");
  }
  if (no_replicas_) {
    fail_caller_locked(ErrorKind::kReplicaFailed,
                       "every replica is quarantined");
  }
  // Latency accounting starts at admission — backpressure time spent
  // waiting for queue space below is part of the latency the bound
  // creates, not overhead to hide.
  const auto enqueued = std::chrono::steady_clock::now();
  if (deadline != kNoDeadline && enqueued >= deadline) {
    fail_caller_locked(ErrorKind::kDeadlineExceeded,
                       "deadline expired before admission");
  }
  const auto free_slots = [&] {
    return opts_.max_queue - static_cast<std::int64_t>(queue_.size());
  };
  if (count > free_slots() &&
      opts_.admission == ServerOptions::Admission::kReject) {
    ++stats_.rejected;
    std::ostringstream os;
    os << "admission queue full (" << queue_.size() << " of "
       << opts_.max_queue << " slots taken; the frame needs " << count << ")";
    fail_caller_locked(ErrorKind::kQueueFull, os.str());
  }

  // kBlock admits the samples as space frees; under kReject the frame fit,
  // so this loop runs once.
  std::int64_t admitted = 0;
  for (;;) {
    const std::int64_t before = admitted;
    while (admitted < count && free_slots() > 0) {
      Request& r = reqs[static_cast<std::size_t>(admitted)];
      r.enqueued = enqueued;
      queue_.emplace_back(reqs, &r);
      ++admitted;
    }
    if (admitted > before) {
      // stats().queue_depth is computed live from queue_.size(); only the
      // peak needs recording here.
      stats_.peak_queue_depth = std::max(
          stats_.peak_queue_depth, static_cast<std::int64_t>(queue_.size()));
      queue_cv_.notify_one();
    }
    if (admitted == count) break;
    if (std::any_of(reqs.get(), reqs.get() + admitted,
                    [](const Request& r) { return r.failed; })) {
      break;  // the frame is lost; settle withdraws the rest, reports why
    }
    ErrorKind kind = ErrorKind::kShuttingDown;
    const char* why = nullptr;
    if (stop_) {
      why = "server is shutting down";
    } else if (no_replicas_) {
      kind = ErrorKind::kReplicaFailed;
      why = "every replica is quarantined";
    } else if (deadline != kNoDeadline &&
               std::chrono::steady_clock::now() >= deadline) {
      kind = ErrorKind::kDeadlineExceeded;
      why = "deadline expired while blocked on admission backpressure";
    }
    if (why != nullptr) {
      settle_frame_locked(lock, reqs.get(), admitted, /*failing=*/true);
      fail_caller_locked(kind, why);
    }
    if (deadline != kNoDeadline) {
      space_cv_.wait_until(lock, deadline);
    } else {
      space_cv_.wait(lock);
    }
  }
  settle_frame_locked(lock, reqs.get(), admitted, /*failing=*/false);
  for (std::int64_t i = 0; i < count; ++i) {
    const Request& r = reqs[static_cast<std::size_t>(i)];
    if (r.failed) throw ServerError(r.error_kind, r.error_message);
  }
}

void InferenceServer::settle_frame_locked(std::unique_lock<std::mutex>& lock,
                                          Request* reqs,
                                          std::int64_t admitted,
                                          bool failing) {
  Request* const end = reqs + admitted;
  const auto all_done = [&] {
    return std::all_of(reqs, end, [](const Request& r) { return r.done; });
  };
  const auto any_failed = [&] {
    return std::any_of(reqs, end, [](const Request& r) { return r.failed; });
  };
  if (!failing) done_cv_.wait(lock, [&] { return all_done() || any_failed(); });
  if (all_done()) return;
  // The frame is lost. Withdraw its still-queued samples: nobody will read
  // their logits, and they must not read the caller's frame after it
  // leaves. What remains is inside a replica's batch and completes there.
  const std::less<const Request*> before;
  for (auto it = queue_.begin(); it != queue_.end();) {
    Request* r = it->get();
    if (!before(r, reqs) && before(r, end)) {
      r->done = true;
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  space_cv_.notify_all();
  done_cv_.wait(lock, all_done);
}

SessionOptions InferenceServer::session_options_for(
    std::size_t replica_index) const {
  SessionOptions so;
  so.pool = replicas_[replica_index].pool.get();
  return so;
}

void InferenceServer::dispatch_loop(std::size_t replica_index) {
  // An exception escaping the cycle below — the session run, the injected
  // replica.dispatch fault, anything outside a per-request path — is a
  // replica failure. Requests the replica holds are its responsibility:
  // fail them explicitly (never strand a waiting client), then retire the
  // thread and let the monitor decide between restart and quarantine.
  std::vector<RequestPtr> batch;
  batch.reserve(static_cast<std::size_t>(opts_.max_batch));
  for (;;) {
    batch.clear();
    bool keep_going = false;
    try {
      keep_going = dispatch_cycle(replica_index, batch);
    } catch (...) {
      std::string what = "unknown failure";
      try {
        throw;
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        Replica& rep = replicas_[replica_index];
        for (const RequestPtr& r : batch) {
          if (!r->done) {
            complete_with_error_locked(
                r, ErrorKind::kReplicaFailed,
                "replica " + std::to_string(replica_index) +
                    " failed mid-dispatch: " + what);
          }
        }
        rep.in_flight.clear();
        rep.in_cycle = false;
        rep.declared_stuck = false;
        rep.exited = true;  // monitor: join me, then restart or quarantine
      }
      done_cv_.notify_all();
      space_cv_.notify_all();  // a frame blocked on admission has lost a sample
      monitor_cv_.notify_all();
      return;
    }
    if (!keep_going) return;
  }
}

// One dispatch cycle: dequeue a batch (blocking), run it, respond. Leaves
// the dequeued requests in `batch` so dispatch_loop can fail them if the
// cycle throws between dequeue and response. Returns false when the thread
// should exit: shutdown has drained the queue, or the monitor declared this
// replica stuck while the cycle ran (the replica retires so a fresh thread
// can take its slot).
bool InferenceServer::dispatch_cycle(std::size_t replica_index,
                                     std::vector<RequestPtr>& batch) {
  Replica& rep = replicas_[replica_index];
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // stop requested and fully drained
    // Expired requests fail at dequeue — before occupying a batch slot.
    expire_queued_locked(std::chrono::steady_clock::now());
    // Hold the batch open up to the batch window for more requests
    // (unless shutdown wants the queue drained as fast as possible) — but
    // never past the earliest deadline among the queued requests: the
    // window is clipped to just short of that deadline so the batch forms
    // while its most urgent member can still be served. Requests stay
    // queued during the window, so another replica may legitimately take
    // them — a zero take just re-enters the outer wait.
    if (!stop_ && !queue_.empty() &&
        static_cast<std::int64_t>(queue_.size()) < opts_.max_batch) {
      const Deadline window_end =
          std::chrono::steady_clock::now() + opts_.batch_window;
      while (!stop_ &&
             static_cast<std::int64_t>(queue_.size()) < opts_.max_batch) {
        Deadline limit = window_end;
        const Deadline urgent = earliest_queued_deadline_locked();
        if (urgent != kNoDeadline) {
          limit = std::min(limit, urgent - std::chrono::milliseconds(1));
        }
        if (queue_cv_.wait_until(lock, limit) == std::cv_status::timeout) {
          break;
        }
      }
      expire_queued_locked(std::chrono::steady_clock::now());
    }
    if (queue_.empty()) return true;
    // Dequeue and gather in one critical section: a queued request's
    // client is parked in serve() (queued implies not done), so its
    // caller-owned frame is alive exactly here and only here.
    //
    // Dynamic-shape models batch by bucket: the head request picks the
    // bucket and the scan takes only same-bucket requests (FIFO within the
    // bucket, head-of-line for the rest) — one micro-batch never mixes
    // sequence buckets, so one session run serves it from one family plan.
    const std::int64_t bucket = queue_.front()->bucket;
    const std::int64_t rows =
        seq_buckets_.empty() ? input_shape_.h : bucket;
    const std::int64_t row_elems = input_shape_.w * input_shape_.c;
    for (auto it = queue_.begin();
         it != queue_.end() &&
         static_cast<std::int64_t>(batch.size()) < opts_.max_batch;) {
      if ((*it)->bucket == bucket) {
        batch.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    const std::int64_t take = static_cast<std::int64_t>(batch.size());
    rep.batch_input.reset_shape(
        {take, rows, input_shape_.w, input_shape_.c});
    for (std::int64_t i = 0; i < take; ++i) {
      const RequestPtr& r = batch[static_cast<std::size_t>(i)];
      const std::int64_t in_elems =
          (seq_buckets_.empty() ? rows : r->seq) * row_elems;
      std::int32_t* dst = rep.batch_input.data() + i * rows * row_elems;
      std::memcpy(dst, r->codes,
                  sizeof(std::int32_t) * static_cast<std::size_t>(in_elems));
      if (in_elems < rows * row_elems) {
        std::memset(dst + in_elems, 0,
                    sizeof(std::int32_t) *
                        static_cast<std::size_t>(rows * row_elems - in_elems));
      }
    }
    rep.in_flight = batch;
    rep.in_cycle = true;
    rep.cycle_start = std::chrono::steady_clock::now();
    // The queue may still hold a batch's worth for an idle replica, and
    // admission backpressure has space again.
    if (!queue_.empty()) queue_cv_.notify_one();
    space_cv_.notify_all();
  }

  // Chaos drill for the dequeued-then-died path: the requests in `batch`
  // are no longer queued, so only the dispatch_loop catch can save them.
  faultinject::point(faultinject::kReplicaDispatch);

  const auto batch_start = std::chrono::steady_clock::now();
  const std::int64_t b = static_cast<std::int64_t>(batch.size());
  // A throw from the session run escapes to dispatch_loop: the batch fails
  // with kReplicaFailed and this replica retires. Per-sample validation at
  // admission means a well-formed batch never organically throws here —
  // anything that does is a replica-level defect, not a request-level one.
  rep.session->run(rep.batch_input, &rep.batch_logits);
  const auto batch_end = std::chrono::steady_clock::now();

  bool retire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t classes = classes_;
    APNN_CHECK(rep.batch_logits.dim(1) == classes);
    std::int64_t served = 0;
    for (std::int64_t i = 0; i < b; ++i) {
      const RequestPtr& r = batch[static_cast<std::size_t>(i)];
      if (r->done) continue;  // the monitor already failed it (stuck cycle)
      std::memcpy(r->logits, rep.batch_logits.data() + i * classes,
                  sizeof(std::int32_t) * static_cast<std::size_t>(classes));
      r->done = true;
      ++served;
      const double latency = elapsed_ms(r->enqueued, batch_end);
      stats_.total_latency_ms += latency;
      stats_.max_latency_ms = std::max(stats_.max_latency_ms, latency);
    }
    stats_.requests += served;
    stats_.batches += 1;
    stats_.max_batch = std::max(stats_.max_batch, b);
    stats_.total_batch_ms += elapsed_ms(batch_start, batch_end);
    stats_.replica_batches[replica_index] += 1;
    stats_.replica_requests[replica_index] += served;
    rep.in_flight.clear();
    rep.in_cycle = false;
    if (rep.declared_stuck) {
      // The monitor gave up on this cycle while it ran: its requests were
      // already failed (skipped above). Retire so the monitor can join and
      // restart this replica with a fresh session.
      rep.declared_stuck = false;
      rep.exited = true;
      retire = true;
    }
  }
  batch.clear();  // responded: nothing left for the dispatch_loop catch
  done_cv_.notify_all();
  if (retire) monitor_cv_.notify_all();
  return !retire;
}

void InferenceServer::monitor_loop() {
  // Poll often enough to catch a stuck cycle promptly but stay invisible
  // next to real dispatch work; crash notifications arrive via monitor_cv_
  // without waiting out the poll.
  const auto poll = std::clamp(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          opts_.stuck_threshold / 4),
      std::chrono::milliseconds(1), std::chrono::milliseconds(200));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    monitor_cv_.wait_for(lock, poll, [&] {
      if (stop_) return true;
      for (const Replica& r : replicas_) {
        if (r.exited) return true;
      }
      return false;
    });
    if (stop_) return;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      Replica& rep = replicas_[i];
      if (rep.health == ReplicaHealth::kQuarantined) continue;

      if (rep.exited) {
        // The dispatcher retired (crash, or stuck-then-completed). Join it
        // and recompile outside the lock — a restart must not stall
        // admission or the other replicas.
        rep.exited = false;
        rep.health = ReplicaHealth::kRestarting;
        ++rep.crashes;
        std::thread dead = std::move(rep.thread);
        const bool too_many = rep.crashes > opts_.max_replica_restarts;
        lock.unlock();
        if (dead.joinable()) dead.join();
        std::unique_ptr<InferenceSession> fresh;
        if (!too_many) {
          try {
            // session_options_for: the fresh session lands back on the
            // replica's own pool slice (rep.pool is never reassigned, so
            // reading it without the lock is safe).
            fresh = std::make_unique<InferenceSession>(
                net_, dev_, session_options_for(i));
          } catch (...) {
            // Recompile failed — quarantine below.
          }
        }
        lock.lock();
        bool started = false;
        if (fresh != nullptr && !stop_) {
          rep.session = std::move(fresh);
          try {
            rep.thread = std::thread([this, i] { dispatch_loop(i); });
            started = true;
          } catch (...) {
            // Spawn failed — quarantine below.
          }
        }
        if (started) {
          rep.health = ReplicaHealth::kHealthy;
          ++stats_.replica_restarts;
        } else {
          quarantine_locked(i);
        }
        continue;
      }

      if (rep.in_cycle && !rep.declared_stuck &&
          now - rep.cycle_start > opts_.stuck_threshold) {
        // The cycle has been running past the watchdog: fail its requests
        // now — the waiting clients get kReplicaFailed immediately instead
        // of riding out the stall — and let the thread retire itself when
        // (if) the stalled cycle returns; the exited branch above then
        // restarts it. A thread wedged forever cannot be restarted safely
        // (killing it would corrupt shared kernel state), but its clients
        // are never stranded.
        rep.declared_stuck = true;
        const auto stuck_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - rep.cycle_start)
                .count();
        for (const RequestPtr& r : rep.in_flight) {
          if (!r->done) {
            complete_with_error_locked(
                r, ErrorKind::kReplicaFailed,
                "replica " + std::to_string(i) + " stuck in dispatch for " +
                    std::to_string(stuck_ms) + " ms; request abandoned");
          }
        }
        done_cv_.notify_all();
        space_cv_.notify_all();  // see dispatch_loop
      }
    }
  }
}

void InferenceServer::quarantine_locked(std::size_t replica_index) {
  replicas_[replica_index].health = ReplicaHealth::kQuarantined;
  for (const Replica& r : replicas_) {
    if (r.health != ReplicaHealth::kQuarantined) return;
  }
  // The last replica just left rotation: nothing will ever drain the queue
  // again. Fail everything queued and every future admission instead of
  // stranding clients.
  no_replicas_ = true;
  for (const RequestPtr& r : queue_) {
    if (!r->done) {
      complete_with_error_locked(r, ErrorKind::kReplicaFailed,
                                 "every replica is quarantined");
    }
  }
  queue_.clear();
  done_cv_.notify_all();
  space_cv_.notify_all();
}

InferenceServer::Stats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.queue_depth = static_cast<std::int64_t>(queue_.size());
  s.replica_health.reserve(replicas_.size());
  for (const Replica& r : replicas_) {
    s.replica_health.push_back(r.health);
  }
  return s;
}

}  // namespace apnn::nn
