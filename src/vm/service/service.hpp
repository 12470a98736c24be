// Multi-tenant execution service (DESIGN.md §11): a job queue + worker pool
// running verified IL jobs from N tenants on one shared VM, with three
// per-tenant resource boundaries the paper's single-tenant harness lacks:
//
//   Fuel     — a deterministic execution budget, in taken backward branches,
//              armed per JOB (per-job, not per-tenant, so the kill point does
//              not depend on co-tenant scheduling). The tier backends charge
//              the meter at their existing back-edge pulse cadence; an
//              over-budget job faults with a catchable
//              HPCNet.FuelExhaustedException at the next back-edge safepoint
//              or call boundary, in all three tiers and OSR continuations.
//   Deadline — a wall-clock budget per job (milliseconds from worker pickup,
//              monotonic clock), polled at the same back-edge pulse cadence
//              as fuel and at call boundaries. Fuel is deterministic but not
//              time; the deadline is time but not deterministic — services
//              exposed to a network (src/vm/net) arm both. An overdue job
//              faults with a catchable HPCNet.DeadlineExceededException;
//              overshoot is bounded by one pulse window (DESIGN.md §14).
//   Memory   — an allocation budget (bytes), shared per TENANT across its
//              concurrent jobs, charged at TLAB refill and on the
//              large-object path (heap.hpp AllocBudget). A refused charge
//              surfaces as a managed System.OutOfMemoryException.
//
// Scheduling is deficit round-robin over per-tenant sub-queues (unit job
// cost, quantum = TenantConfig::weight): a backlogged tenant gets `weight`
// consecutive dispatches per turn, then the turn rotates — so one chatty
// tenant (or network connection) cannot starve the rest, and relative
// throughput under backlog tracks the weight ratio (DESIGN.md §14).
//
// Workers are plain attached VM threads: each owns an engine built from the
// service's profile (engines sharing the VM and profile name share compiled
// code through the VM's CodeCache), parks GC-safe while the queue is empty,
// and tears fuel/budget state down between jobs so no state leaks across
// tenants. Job isolation is by construction — tenants share the heap and the
// code cache but never a TLAB window, a fuel meter, or an unreleased budget.
// Metered jobs are single-threaded by construction too: Thread.Start from a
// context with fuel armed (which includes deadline-only jobs) or a budget
// bound is refused with a catchable managed exception, because a spawned
// thread would run unmetered and could outlive the job's released budget.
//
// Concurrency contract (the PR-10 bugfix pass):
//   * Ref-typed arguments of a queued job are pinned through the VM's pin
//     registry from submit until worker pickup — a collection between the
//     two must not sweep an otherwise-unreachable argument graph.
//   * capture_snapshot closes admission (submit blocks) across its whole
//     quiesce window, so no submit racing the drain can start a compile
//     mid-capture.
//   * Destroying the service fails every still-queued job as Rejected
//     ("service stopped") before joining the workers — a handle whose
//     service died never blocks forever. In-flight jobs still finish.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "vm/archive.hpp"
#include "vm/execution.hpp"

namespace hpcnet::vm::service {

/// Per-tenant resource limits. Zero means unmetered for fuel, deadline and
/// memory; weight 0 is treated as 1.
struct TenantConfig {
  std::string name;
  std::uint64_t fuel_per_job = 0;        // taken backward branches per job
  std::uint64_t memory_budget_bytes = 0; // in-flight allocation cap, shared
                                         // by the tenant's concurrent jobs
  std::uint64_t deadline_ms = 0;         // wall-clock budget per job, from
                                         // worker pickup (0 = none)
  std::uint32_t weight = 1;              // deficit-round-robin quantum: jobs
                                         // dispatched per scheduling turn
                                         // under backlog
};

/// Keep the numeric values stable: the RESULT frame of the network protocol
/// (src/vm/net) carries the outcome on the wire as this exact uint8.
enum class JobOutcome : std::uint8_t {
  Completed = 0,
  KilledFuel = 1,     // fuel budget exhausted (uncaught FuelExhausted)
  KilledMemory = 2,   // allocation budget exhausted (uncaught OutOfMemory)
  Faulted = 3,        // any other managed or native fault
  Rejected = 4,       // refused before execution (bad method/args/IL,
                      // cancelled, or service stopped)
  KilledDeadline = 5, // wall-clock deadline passed (uncaught
                      // DeadlineExceeded)
};
const char* outcome_name(JobOutcome o);

struct JobResult {
  JobOutcome outcome = JobOutcome::Rejected;
  Slot value{};              // return value when Completed
  std::string error;         // exception class + message otherwise
  std::uint64_t fuel_spent = 0;    // backward branches charged
  std::uint64_t bytes_charged = 0; // budget bytes charged by this job's TLAB
  std::int64_t queue_ns = 0;       // submit -> worker pickup
  std::int64_t run_ns = 0;         // worker pickup -> finish
};

/// Shared handle to a submitted job. wait() blocks until a worker finishes
/// (or rejects) the job. A ref-typed result is pinned in the VM until the
/// last handle to the job is dropped — which is why the VM must outlive
/// every handle (the drop unpins through the VM's pin registry).
class JobHandle {
 public:
  /// Callers on a VM-attached thread must pass their context so the wait
  /// parks GC-safe (a worker's collection would otherwise deadlock against
  /// an attached waiter blocked outside a safepoint).
  JobResult wait(VMContext* ctx = nullptr);
  bool done() const;

 private:
  friend class ExecutionService;
  struct State;
  explicit JobHandle(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

/// Per-tenant job accounting: the one tally of finished jobs, always
/// collected (no telemetry switch). The STATS frame carries it on the wire
/// and examples/vmserve prints it.
struct TenantStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_killed_fuel = 0;
  std::uint64_t jobs_killed_memory = 0;
  std::uint64_t jobs_killed_deadline = 0;
  std::uint64_t jobs_faulted = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t fuel_spent = 0;
  std::uint64_t bytes_charged = 0;
  std::int64_t queue_ns = 0;
  std::int64_t run_ns = 0;
};

struct ServiceOptions {
  int workers = 1;
  /// Optional warm start: attached to the VM before any worker runs, so the
  /// workers' first jobs dispatch straight into the archived optimized code
  /// (no per-instance recompilation — N services can share one archive).
  /// Ignored (cold boot) when null or when the archive targets a different
  /// profile than the service's.
  std::shared_ptr<const CodeArchive> warm_start;
};

class ExecutionService {
 public:
  using Options = ServiceOptions;
  /// Completion hook, invoked exactly once per job after the result is
  /// published (handle waiters are already released when it runs). Called on
  /// the worker thread that finished the job — or on the submitting thread
  /// for submit-time rejects, the cancelling thread for cancellations, and
  /// the destroying thread for service-stopped rejects. Must not call back
  /// into the service. The network front end uses this to push RESULT
  /// frames without a thread parked in wait() per job.
  using Completion = std::function<void(const JobResult&)>;

  /// Workers share `vm` (heap, module, code caches) and each build their own
  /// engine from `profile`. The VM must outlive the service — and every
  /// JobHandle the service issues (handles unpin results through the VM).
  ExecutionService(VirtualMachine& vm, const EngineProfile& profile,
                   Options options = {});
  /// Fails every still-queued job as Rejected ("service stopped"), lets
  /// in-flight jobs finish, and joins the workers.
  ~ExecutionService();

  ExecutionService(const ExecutionService&) = delete;
  ExecutionService& operator=(const ExecutionService&) = delete;

  /// Registers a tenant. Throws std::invalid_argument on a duplicate name.
  void add_tenant(const TenantConfig& config);

  /// Enqueues `method_id(args)` for `tenant`. Malformed submissions (unknown
  /// tenant throws; bad method id / arg count) come back Rejected without
  /// reaching a worker; unverifiable IL is Rejected by the worker's verify
  /// latch. Ref-typed args are pinned until worker pickup, so the caller may
  /// drop its own references to the argument graph as soon as submit
  /// returns. Blocks while a capture_snapshot quiesce is in progress. The
  /// returned handle may outlive the service, but not the VM.
  JobHandle submit(const std::string& tenant, std::int32_t method_id,
                   std::vector<Slot> args, Completion on_done = nullptr);

  /// Cancels a job that is still queued: removes it from its tenant's
  /// sub-queue and fails it as Rejected ("cancelled"). Returns false when
  /// the job already left the queue (running or finished) — a running job is
  /// never interrupted. The network front end calls this for every pending
  /// job of a dropped connection.
  bool cancel(const JobHandle& handle);

  /// Blocks until every job submitted so far has finished. Same attached-
  /// caller rule as JobHandle::wait.
  void drain(VMContext* ctx = nullptr);

  /// Snapshots the service's warmed code cache into an immutable archive.
  /// This is an explicit quiesced operation: it closes admission (concurrent
  /// submits block), drains the queue (no job runs or compiles during
  /// capture), captures the profile's cache, then reopens admission. The
  /// archive can seed other services via Options::warm_start or be
  /// serialized with serialize_archives/save_snapshot.
  std::shared_ptr<const CodeArchive> capture_snapshot(VMContext* ctx = nullptr);

  TenantStats tenant_stats(const std::string& tenant) const;
  /// True when `tenant` is registered (the network front end authenticates
  /// HELLO frames against this before any submit).
  bool has_tenant(const std::string& tenant) const;
  int workers() const { return static_cast<int>(threads_.size()); }

 private:
  struct Tenant {
    TenantConfig config;
    std::unique_ptr<AllocBudget> budget;  // null when unmetered
    // Deficit-round-robin state, all guarded by mu_: this tenant's FIFO
    // sub-queue, the dispatches left in its current turn, and whether it is
    // linked into the active ring.
    std::deque<std::shared_ptr<JobHandle::State>> queue;
    std::uint32_t deficit = 0;
    bool in_ring = false;
  };

  void worker_main(std::size_t index);
  void run_job(VMContext& ctx, Engine& engine, JobHandle::State& job);
  void finish(JobHandle::State& job, JobResult result);
  void enqueue_locked(Tenant& tenant, std::shared_ptr<JobHandle::State> job);
  std::shared_ptr<JobHandle::State> pop_locked();
  void unpin_args(JobHandle::State& job);

  VirtualMachine& vm_;
  const EngineProfile profile_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // signalled on submit and stop
  std::condition_variable drain_cv_;  // signalled when a job finishes
  std::condition_variable admit_cv_;  // signalled when admission reopens
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::deque<Tenant*> ring_;      // tenants with queued jobs, DRR order
  std::size_t queued_ = 0;        // jobs across all sub-queues
  std::map<std::string, TenantStats> stats_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  bool admission_closed_ = false;  // capture_snapshot quiesce in progress

  std::vector<std::thread> threads_;
};

}  // namespace hpcnet::vm::service
