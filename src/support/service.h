#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/cancel.h"
#include "support/govern.h"
#include "support/obs.h"
#include "support/supervisor.h"

namespace jsceres {

/// Terminal state of a service request. Extends SessionState with the one
/// outcome only the ingress layer can produce: Shed — the request was
/// rejected at admission (queue full, memory ceiling, shutdown) and never
/// became a session. A shed is structured and immediate: submit() never
/// blocks the caller and a ticket for a shed request is already complete.
enum class ServiceState : std::uint8_t {
  Completed,
  Degraded,     // answered below the requested mode (ladder or admission)
  Cancelled,
  TimedOut,
  Quarantined,  // includes sessions the watchdog declared stuck
  Shed,
};

const char* to_string(ServiceState state);

/// One tenant-attributed unit of ingress work.
struct ServiceRequest {
  SessionRequest session;
  /// Tenant key for the per-tenant concurrency cap (empty: the anonymous
  /// tenant, still capped as one tenant).
  std::string tenant;
  /// Bytes the governor reserves at admission; reconciled against the
  /// session's measured peak on release. Callers that underestimate show up
  /// in MemoryGovernor::max_underestimate().
  std::size_t memory_estimate = 1u << 20;
  /// Optional: called exactly once, right after the outcome turns final
  /// (done() is already true), on whichever thread finalized it — a pool
  /// worker, or the submitting thread itself for a shed. Runs outside every
  /// service lock; it must not block. The server uses it to wake the
  /// connection that owns the ticket instead of polling the ticket.
  std::function<void()> on_complete;
};

/// The structured result every submit() eventually yields — shed or served,
/// never a hang and never an exception.
struct ServiceOutcome {
  ServiceState state = ServiceState::Shed;
  /// Why admission rejected this request ("queue-full", "memory-pressure",
  /// "shutdown"); empty when the request became a session.
  std::string shed_reason;
  /// True when the watchdog cancelled the session for running past the
  /// stuck threshold (state reads Quarantined).
  bool watchdog_quarantined = false;
  /// The supervised session result; default-constructed for a shed.
  SessionOutcome session;
};

class AnalysisService;

/// Completion handle for one submitted request. wait() blocks until the
/// outcome is final; a shed ticket is complete before submit() returns.
class ServiceTicket {
 public:
  /// Block until the outcome is final, then return a copy. By value on
  /// purpose: the ticket is the outcome's only owner, so a reference would
  /// dangle in the natural one-liner `service.submit(...).wait()`.
  ServiceOutcome wait() const;

  /// Bounded wait: the outcome if it turns final within `ms` milliseconds
  /// (<= 0: an immediate check), std::nullopt otherwise. A nullopt return
  /// claims nothing about the future — the outcome may complete a
  /// nanosecond later and a subsequent wait()/wait_for() will see it. The
  /// server's graceful drain bounds its wait on each ticket with this, so a
  /// wedged session can never pin a connection thread past the drain
  /// budget.
  [[nodiscard]] std::optional<ServiceOutcome> wait_for(std::int64_t ms) const;

  [[nodiscard]] bool done() const;

 private:
  friend class AnalysisService;
  struct Entry;
  explicit ServiceTicket(std::shared_ptr<Entry> entry)
      : entry_(std::move(entry)) {}

  std::shared_ptr<Entry> entry_;
};

struct ServiceOptions {
  /// Sessions running concurrently (each occupies one pool task).
  std::size_t max_active = 4;
  /// Bounded admission queue; a submit that finds it full is shed.
  std::size_t max_queue = 16;
  /// Concurrent sessions per tenant; excess requests queue behind the cap
  /// even when global capacity is free.
  std::size_t max_per_tenant = 2;
  /// Memory governor knobs (ceiling 0: admission never sheds on memory).
  MemoryGovernor::Options governor;
  /// Watchdog scan period; 0 disables the watchdog thread.
  std::int64_t watchdog_interval_ms = 0;
  /// Wall time after which a running session is declared stuck and
  /// cancelled (sticky — it wins over any retry rung). 0 with a nonzero
  /// interval means the watchdog only maintains diagnostics.
  std::int64_t watchdog_stuck_ms = 0;
};

/// Point-in-time service counters (all monotonic except the gauges). The
/// service owns them; shed_memory and the governor_* rows are read from
/// its MemoryGovernor.
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;   // sessions that ran to a terminal outcome
  std::size_t shed_queue_full = 0;
  std::size_t shed_memory = 0;
  std::size_t shed_shutdown = 0;
  std::size_t degraded_admissions = 0;  // admitted below the asked mode
  std::size_t watchdog_quarantines = 0;
  std::size_t queue_depth = 0;         // gauge
  std::size_t active_sessions = 0;     // gauge
  std::size_t queue_high_water = 0;
  std::size_t active_high_water = 0;
  std::size_t governor_reserved_bytes = 0;   // gauge
  std::size_t governor_high_water_bytes = 0;
  std::size_t shared_structure_bytes = 0;    // gauge (atoms+shapes+stamps)
};

/// Ingress front-end of the resident analysis service: a bounded admission
/// queue over SessionSupervisor with memory-governed admission, per-tenant
/// concurrency caps, and a stuck-session watchdog.
///
/// Structure: submit() decides synchronously — shed (structured, instant),
/// run now (a pool task is dispatched inline), or queue (bounded). There is
/// no dispatcher thread: the completion handler of each finishing session
/// dispatches the next eligible queued request, so the service is driven
/// entirely by the pool it already shares with the sessions' own parallel
/// work. The process does not accrete atoms or shapes across tenants by
/// construction: each session's program owns its atoms and shape tree (see
/// js::Program), so there is no cross-session reclamation to schedule.
class AnalysisService {
 public:
  AnalysisService(rivertrail::ThreadPool& pool, ServiceOptions options = {});
  /// Drains (queued requests still run; new submits shed with "shutdown")
  /// and stops the watchdog.
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Admit, queue, or shed `request`. Never blocks on capacity: the worst
  /// case is an immediate structured Shed. The returned ticket's wait() is
  /// the only blocking point, and only for admitted requests.
  ServiceTicket submit(ServiceRequest request);

  /// Block until every admitted request has a final outcome.
  void drain();

  /// Flip the service into shutdown: every later submit() is shed with the
  /// structured "shutdown" reason; already-admitted requests still run.
  /// Idempotent, and the first thing the destructor does — exposed so
  /// ingress layers (and tests) can fence submitters racing teardown
  /// before the destructor starts invalidating state.
  void begin_shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] MemoryGovernor& governor() { return governor_; }

  /// Full observability snapshot: refreshes the cross-layer engine gauges
  /// (live shapes, prefix atom table, stamp segments), aggregates the whole
  /// metrics registry, and appends the service.* and governor.* counters
  /// and gauges from this service and its governor, which own them (the
  /// registry never holds them, so the snapshot carries this instance's
  /// counts only, in every build).
  [[nodiscard]] obs::Snapshot metrics_snapshot() const;

  /// Push the process-wide shared-structure gauges into the registry.
  /// Static: callable without a service (the soak driver's periodic dump).
  static void refresh_engine_gauges();

  /// Bytes held by the structures the governor folds into pressure beyond
  /// each session's own ledger: the prefix atom table + every live shape
  /// (summed over the programs alive right now) + stamp segments.
  static std::size_t shared_structure_bytes();

  /// A no-op that returns 0 bytes freed. Programs free their own atoms and
  /// shapes when they are destroyed, so there is nothing left to reclaim
  /// across sessions; kept so callers that time the pass still link.
  static std::size_t run_reclamation_pass();

 private:
  using Entry = ServiceTicket::Entry;

  /// submit()'s decision under mutex_: dispatch or queue `entry`, or return
  /// the shed reason (the caller completes the shed after unlocking).
  const char* admit_locked(const std::shared_ptr<Entry>& entry);
  void dispatch_locked(const std::shared_ptr<Entry>& entry);
  void run_entry(const std::shared_ptr<Entry>& entry);
  void finish_entry(const std::shared_ptr<Entry>& entry,
                    std::size_t peak_bytes);
  void watchdog_main();

  rivertrail::ThreadPool* pool_;
  ServiceOptions options_;
  MemoryGovernor governor_;
  SessionSupervisor supervisor_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;  // drain(): queue and active both empty
  std::deque<std::shared_ptr<Entry>> queue_;
  std::vector<std::shared_ptr<Entry>> active_;
  std::unordered_map<std::string, std::size_t> tenant_active_;
  bool shutting_down_ = false;

  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t shed_queue_full_ = 0;
  std::size_t shed_shutdown_ = 0;
  std::size_t degraded_admissions_ = 0;
  std::size_t watchdog_quarantines_ = 0;
  std::size_t queue_high_water_ = 0;
  std::size_t active_high_water_ = 0;

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace jsceres
