#include "support/service.h"

#include <algorithm>
#include <chrono>

#include "ceres/char_stack.h"
#include "interp/shape.h"
#include "js/atom.h"
#include "rivertrail/thread_pool.h"
#include "support/obs.h"

namespace jsceres {

const char* to_string(ServiceState state) {
  switch (state) {
    case ServiceState::Completed:
      return "completed";
    case ServiceState::Degraded:
      return "degraded";
    case ServiceState::Cancelled:
      return "cancelled";
    case ServiceState::TimedOut:
      return "timed-out";
    case ServiceState::Quarantined:
      return "quarantined";
    case ServiceState::Shed:
      return "shed";
  }
  return "?";
}

/// Shared completion state of one submitted request. Owned jointly by the
/// ticket, the admission queue / active set, and the pool task, so it
/// outlives whichever of them finishes last.
struct ServiceTicket::Entry {
  ServiceRequest request;
  int requested_mode = 3;  // mode the caller asked for, before admission
  int admitted_mode = 3;   // may be below requested_mode (governor)
  CancelSource cancel;    // armed per-attempt; watchdog latches Cancelled
  /// steady_clock ns when the session actually started running; 0 while
  /// queued. The watchdog keys stuck detection off this.
  std::atomic<std::int64_t> started_ns{0};
  std::atomic<bool> watchdog_flagged{false};

  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool done = false;
  ServiceOutcome outcome;

  void complete(ServiceOutcome result) {
    {
      const std::lock_guard lock(mutex);
      outcome = std::move(result);
      done = true;
    }
    cv.notify_all();
    // Outside the entry mutex: the callback may take its own locks, and a
    // waiter woken above never waits on it.
    if (request.on_complete) request.on_complete();
  }
};

ServiceOutcome ServiceTicket::wait() const {
  std::unique_lock lock(entry_->mutex);
  entry_->cv.wait(lock, [this] { return entry_->done; });
  return entry_->outcome;
}

std::optional<ServiceOutcome> ServiceTicket::wait_for(std::int64_t ms) const {
  std::unique_lock lock(entry_->mutex);
  if (ms <= 0) {
    if (!entry_->done) return std::nullopt;
    return entry_->outcome;
  }
  // wait_for's predicate form re-checks under the lock, so the
  // timeout-then-complete race collapses to two clean cases: the outcome
  // either became visible within the window (returned) or it did not
  // (nullopt now, a later wait sees it).
  if (!entry_->cv.wait_for(lock, std::chrono::milliseconds(ms),
                           [this] { return entry_->done; })) {
    return std::nullopt;
  }
  return entry_->outcome;
}

bool ServiceTicket::done() const {
  const std::lock_guard lock(entry_->mutex);
  return entry_->done;
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ServiceState from_session_state(SessionState state) {
  switch (state) {
    case SessionState::Completed:
      return ServiceState::Completed;
    case SessionState::Degraded:
      return ServiceState::Degraded;
    case SessionState::Cancelled:
      return ServiceState::Cancelled;
    case SessionState::TimedOut:
      return ServiceState::TimedOut;
    case SessionState::Quarantined:
      return ServiceState::Quarantined;
  }
  return ServiceState::Quarantined;
}

}  // namespace

std::size_t AnalysisService::shared_structure_bytes() {
  return js::atom_table_bytes() + interp::Shape::live_bytes() +
         ceres::stamp_bytes_live();
}

std::size_t AnalysisService::run_reclamation_pass() { return 0; }

AnalysisService::AnalysisService(rivertrail::ThreadPool& pool,
                                 ServiceOptions options)
    : pool_(&pool),
      options_(options),
      governor_(options.governor),
      supervisor_(pool) {
  if (options_.watchdog_interval_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

void AnalysisService::begin_shutdown() {
  const std::lock_guard lock(mutex_);
  shutting_down_ = true;
}

AnalysisService::~AnalysisService() {
  begin_shutdown();
  drain();
  if (watchdog_.joinable()) {
    {
      const std::lock_guard lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

ServiceTicket AnalysisService::submit(ServiceRequest request) {
  auto entry = std::make_shared<Entry>();
  entry->request = std::move(request);
  entry->requested_mode = entry->request.session.mode;
  entry->admitted_mode = entry->requested_mode;
  entry->request.session.cancel = &entry->cancel;

  const char* shed_reason = nullptr;
  {
    const std::lock_guard lock(mutex_);
    shed_reason = admit_locked(entry);
  }
  // A shed completes after the unlock, so the caller's on_complete never
  // runs under the service lock.
  if (shed_reason != nullptr) {
    ServiceOutcome outcome;
    outcome.state = ServiceState::Shed;
    outcome.shed_reason = shed_reason;
    outcome.session.name = entry->request.session.name;
    entry->complete(std::move(outcome));
  }
  return ServiceTicket(entry);
}

const char* AnalysisService::admit_locked(const std::shared_ptr<Entry>& entry) {
  ++submitted_;
  if (shutting_down_) {
    ++shed_shutdown_;
    return "shutdown";
  }

  const bool can_run_now =
      active_.size() < options_.max_active &&
      tenant_active_[entry->request.tenant] < options_.max_per_tenant;
  // Queue capacity is checked before the governor so a queue-full shed
  // leaves no reservation to unwind.
  if (!can_run_now && queue_.size() >= options_.max_queue) {
    ++shed_queue_full_;
    return "queue-full";
  }

  switch (governor_.admit(entry->request.memory_estimate,
                          shared_structure_bytes())) {
    case AdmitDecision::Shed:
      return "memory-pressure";  // counted once, by the governor
    case AdmitDecision::Degrade:
      // Admit one rung down: the paper's ladder (3 -> 1 -> 0), entered
      // lower so the session's instrumentation footprint shrinks with the
      // process's memory headroom. The supervisor may still degrade
      // further on its own.
      if (entry->admitted_mode > 0) {
        entry->admitted_mode = entry->admitted_mode >= 3 ? 1 : 0;
        ++degraded_admissions_;
      }
      break;
    case AdmitDecision::Admit:
      break;
  }
  entry->request.session.mode = entry->admitted_mode;

  if (can_run_now) {
    dispatch_locked(entry);
  } else {
    queue_.push_back(entry);
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
  }
  return nullptr;
}

void AnalysisService::dispatch_locked(const std::shared_ptr<Entry>& entry) {
  active_.push_back(entry);
  active_high_water_ = std::max(active_high_water_, active_.size());
  ++tenant_active_[entry->request.tenant];
  pool_->submit([this, entry] { run_entry(entry); });
}

void AnalysisService::run_entry(const std::shared_ptr<Entry>& entry) {
  entry->started_ns.store(now_ns(), std::memory_order_release);

  ServiceOutcome outcome;
  outcome.session = supervisor_.run_one(entry->request.session);

  outcome.state = from_session_state(outcome.session.state);
  if (outcome.session.state == SessionState::Cancelled &&
      entry->watchdog_flagged.load(std::memory_order_acquire)) {
    // The cancel was the watchdog's, not a caller's: the session was stuck
    // and has been forcibly reclaimed — that is a quarantine.
    outcome.state = ServiceState::Quarantined;
    outcome.watchdog_quarantined = true;
  } else if (outcome.session.state == SessionState::Completed &&
             entry->admitted_mode < entry->requested_mode) {
    outcome.state = ServiceState::Degraded;  // admission already degraded it
  }

  finish_entry(entry, outcome.session.peak_bytes);
  entry->complete(std::move(outcome));
}

void AnalysisService::finish_entry(const std::shared_ptr<Entry>& entry,
                                   std::size_t peak_bytes) {
  governor_.release(entry->request.memory_estimate, peak_bytes);

#if JSCERES_OBS
  // Per-tenant session latency. Dynamic names intern once per tenant; the
  // registry's cell cap turns a hostile tenant-name cardinality into the
  // obs.registry_overflow counter instead of unbounded growth.
  const std::int64_t started =
      entry->started_ns.load(std::memory_order_acquire);
  if (started != 0) {
    const std::int64_t ms = (now_ns() - started) / 1'000'000;
    JSCERES_OBS_HIST("service.session_ms", ms);
    const std::string& tenant = entry->request.tenant;
    obs::Histogram::at("service.session_ms." +
                       (tenant.empty() ? std::string("anon") : tenant))
        .record(std::uint64_t(ms));
  }
#endif

  // Shutdown edge: once the final unlock below publishes "queue and active
  // both empty", drain() may return and the destructor may start tearing
  // the service down — so that unlock must be this handler's LAST touch of
  // any member.
  std::shared_ptr<Entry> next;
  {
    const std::lock_guard lock(mutex_);
    ++completed_;
    active_.erase(std::remove(active_.begin(), active_.end(), entry),
                  active_.end());
    const auto it = tenant_active_.find(entry->request.tenant);
    if (it != tenant_active_.end() && --it->second == 0) {
      tenant_active_.erase(it);
    }
    // Dispatch the next eligible queued request (FIFO, skipping requests
    // whose tenant is at its cap — they keep their queue position).
    if (active_.size() < options_.max_active) {
      for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
        if (tenant_active_[(*qit)->request.tenant] < options_.max_per_tenant) {
          next = *qit;
          queue_.erase(qit);
          break;
        }
      }
      if (next != nullptr) dispatch_locked(next);
    }
    if (queue_.empty() && active_.empty()) idle_cv_.notify_all();
  }
}

void AnalysisService::drain() {
  // Help the pool while waiting: drain() may be called from a thread the
  // sessions' own parallel work would otherwise like to use, and helping
  // keeps a single-worker pool deadlock-free.
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      if (queue_.empty() && active_.empty()) return;
      if (idle_cv_.wait_for(lock, std::chrono::milliseconds(1),
                            [this] { return queue_.empty() && active_.empty(); })) {
        return;
      }
    }
    pool_->try_run_one();
  }
}

ServiceStats AnalysisService::stats() const {
  ServiceStats out;
  {
    const std::lock_guard lock(mutex_);
    out.submitted = submitted_;
    out.completed = completed_;
    out.shed_queue_full = shed_queue_full_;
    // Under the service lock, which admission holds while it asks the
    // governor, so the shed count and `submitted` are one consistent cut.
    out.shed_memory = governor_.shed_count();
    out.shed_shutdown = shed_shutdown_;
    out.degraded_admissions = degraded_admissions_;
    out.watchdog_quarantines = watchdog_quarantines_;
    out.queue_depth = queue_.size();
    out.active_sessions = active_.size();
    out.queue_high_water = queue_high_water_;
    out.active_high_water = active_high_water_;
  }
  out.governor_reserved_bytes = governor_.reserved_bytes();
  out.governor_high_water_bytes = governor_.high_water_bytes();
  out.shared_structure_bytes = shared_structure_bytes();
  return out;
}

void AnalysisService::watchdog_main() {
  for (;;) {
    {
      std::unique_lock lock(watchdog_mutex_);
      watchdog_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.watchdog_interval_ms),
          [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    if (options_.watchdog_stuck_ms <= 0) continue;
    const std::int64_t now = now_ns();
    const std::int64_t stuck_ns = options_.watchdog_stuck_ms * 1'000'000;
    const std::lock_guard lock(mutex_);
    for (const auto& entry : active_) {
      const std::int64_t started =
          entry->started_ns.load(std::memory_order_acquire);
      if (started == 0 || now - started < stuck_ns) continue;
      if (entry->watchdog_flagged.exchange(true, std::memory_order_acq_rel)) {
        continue;  // already flagged on a previous scan
      }
      // Explicit cancel, not a deadline: the supervisor's reset() clears
      // deadline expiries between attempts, but an explicit cancel is
      // sticky — the stuck session cannot resurrect itself by retrying.
      entry->cancel.request_cancel();
      ++watchdog_quarantines_;
    }
  }
}

void AnalysisService::refresh_engine_gauges() {
  JSCERES_OBS_GAUGE_SET("interp.shape_count", interp::Shape::live_count());
  JSCERES_OBS_GAUGE_SET("interp.shape_bytes", interp::Shape::live_bytes());
  JSCERES_OBS_GAUGE_SET("js.atom_table_size", js::atom_table_size());
  JSCERES_OBS_GAUGE_SET("js.atom_table_bytes", js::atom_table_bytes());
  JSCERES_OBS_GAUGE_SET("ceres.stamp_segments_live",
                        ceres::stamp_segments_live());
  JSCERES_OBS_GAUGE_SET("ceres.stamp_bytes_live", ceres::stamp_bytes_live());
}

obs::Snapshot AnalysisService::metrics_snapshot() const {
  refresh_engine_gauges();
  obs::Snapshot snap = obs::snapshot();
  // This service and its governor own their counts; the registry holds no
  // copy of them. Appended here, they read the same in the probes-on and
  // the probes-off build.
  using obs::MetricKind;
  const ServiceStats s = stats();
  const auto add = [&snap](const char* name, MetricKind kind,
                           std::uint64_t value) {
    obs::SnapshotEntry& entry = snap.entries.emplace_back();
    entry.name = name;
    entry.kind = kind;
    if (kind == MetricKind::Counter) {
      entry.value = value;
    } else {
      entry.gauge = std::int64_t(value);
    }
  };
  add("service.submitted", MetricKind::Counter, s.submitted);
  add("service.completed", MetricKind::Counter, s.completed);
  add("service.shed_queue_full", MetricKind::Counter, s.shed_queue_full);
  add("service.shed_memory", MetricKind::Counter, s.shed_memory);
  add("service.shed_shutdown", MetricKind::Counter, s.shed_shutdown);
  add("service.watchdog_quarantines", MetricKind::Counter,
      s.watchdog_quarantines);
  add("service.queue_depth", MetricKind::Gauge, s.queue_depth);
  add("service.active_sessions", MetricKind::Gauge, s.active_sessions);
  add("governor.admit", MetricKind::Counter, governor_.admit_count());
  add("governor.degrade", MetricKind::Counter, governor_.degrade_count());
  add("governor.shed", MetricKind::Counter, governor_.shed_count());
  add("governor.reserved_bytes", MetricKind::Gauge, s.governor_reserved_bytes);
  add("governor.max_underestimate_bytes", MetricKind::Gauge,
      governor_.max_underestimate());
  add("governor.pressure_pct", MetricKind::Gauge,
      std::uint64_t(governor_.pressure(s.shared_structure_bytes) * 100.0));
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const obs::SnapshotEntry& a, const obs::SnapshotEntry& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace jsceres
