#include "vm/service/service.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "support/timer.hpp"
#include "vm/verifier.hpp"

namespace hpcnet::vm::service {

const char* outcome_name(JobOutcome o) {
  switch (o) {
    case JobOutcome::Completed: return "completed";
    case JobOutcome::KilledFuel: return "killed-fuel";
    case JobOutcome::KilledMemory: return "killed-memory";
    case JobOutcome::KilledDeadline: return "killed-deadline";
    case JobOutcome::Faulted: return "faulted";
    case JobOutcome::Rejected: return "rejected";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// JobHandle.

struct JobHandle::State {
  // Filled at submit; immutable once queued. `budget` points into the
  // service's tenant table, valid while jobs can run (the service fails the
  // queue and joins its workers before the table is destroyed).
  VirtualMachine* vm = nullptr;
  std::string tenant;
  std::int32_t method_id = -1;
  std::vector<Slot> args;
  std::uint64_t fuel = 0;
  std::uint64_t deadline_ms = 0;
  AllocBudget* budget = nullptr;
  bool returns_ref = false;
  // True while the job's ref-typed args are pinned in the VM (submit ->
  // worker pickup / cancel / service stop). Owned by whoever holds the job:
  // the queue hands a job to exactly one of those paths under mu_.
  bool args_pinned = false;
  std::int64_t submit_ns = 0;
  ExecutionService::Completion on_done;

  // Completion protocol.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool result_pinned = false;  // written before `done` is published
  JobResult result;

  // Unpins through the VM: a handle may outlive the service, but the VM
  // must outlive every handle (service.hpp documents this contract).
  ~State() {
    if (result_pinned) vm->unpin(result.value.ref);
  }
};

JobResult JobHandle::wait(VMContext* ctx) {
  if (ctx != nullptr) state_->vm->enter_safe_region(*ctx);
  JobResult out;
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    out = state_->result;
  }
  if (ctx != nullptr) state_->vm->leave_safe_region(*ctx);
  return out;
}

bool JobHandle::done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

// ---------------------------------------------------------------------------
// ExecutionService.

ExecutionService::ExecutionService(VirtualMachine& vm,
                                   const EngineProfile& profile,
                                   Options options)
    : vm_(vm), profile_(profile) {
  // Warm-start before any worker exists: attach is cheap (refcount + cache
  // stores, no compilation), and doing it here means the very first job a
  // worker picks up already dispatches into the archived optimized code.
  if (options.warm_start != nullptr &&
      options.warm_start->profile() == profile_.name) {
    attach_archive(vm_, options.warm_start);
  }
  const int n = options.workers < 1 ? 1 : options.workers;
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
}

ExecutionService::~ExecutionService() {
  // Fail every still-queued job BEFORE joining: a handle whose service died
  // must observe Rejected, not block in wait() forever. stopping_ and the
  // queue sweep happen under one critical section so no worker can observe
  // stopping_ while jobs it will never run are still queued.
  std::vector<std::shared_ptr<JobHandle::State>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& [name, tenant] : tenants_) {
      for (auto& job : tenant->queue) orphans.push_back(std::move(job));
      tenant->queue.clear();
      tenant->in_ring = false;
      tenant->deficit = 0;
    }
    ring_.clear();
    queued_ = 0;
  }
  work_cv_.notify_all();
  admit_cv_.notify_all();
  for (auto& job : orphans) {
    unpin_args(*job);
    JobResult r;
    r.outcome = JobOutcome::Rejected;
    r.error = "service stopped";
    r.queue_ns = support::now_ns() - job->submit_ns;
    finish(*job, std::move(r));
  }
  drain_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ExecutionService::add_tenant(const TenantConfig& config) {
  auto tenant = std::make_shared<Tenant>();
  tenant->config = config;
  if (config.memory_budget_bytes > 0) {
    tenant->budget = std::make_unique<AllocBudget>(config.memory_budget_bytes);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!tenants_.emplace(config.name, std::move(tenant)).second) {
    throw std::invalid_argument("execution service: duplicate tenant " +
                                config.name);
  }
}

JobHandle ExecutionService::submit(const std::string& tenant,
                                   std::int32_t method_id,
                                   std::vector<Slot> args,
                                   Completion on_done) {
  auto state = std::make_shared<JobHandle::State>();
  state->vm = &vm_;
  state->tenant = tenant;
  state->method_id = method_id;
  state->args = std::move(args);
  state->on_done = std::move(on_done);
  state->submit_ns = support::now_ns();

  std::shared_ptr<Tenant> ten;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      throw std::invalid_argument("execution service: unknown tenant " +
                                  tenant);
    }
    ten = it->second;
  }
  state->fuel = ten->config.fuel_per_job;
  state->deadline_ms = ten->config.deadline_ms;
  state->budget = ten->budget.get();

  // Shape validation up front; IL verification itself happens behind the
  // workers' per-method verify latch (a raw verify() here would race it).
  Module& mod = vm_.module();
  JobResult reject;
  reject.outcome = JobOutcome::Rejected;
  if (method_id < 0 ||
      static_cast<std::size_t>(method_id) >= mod.method_count()) {
    reject.error = "bad method id";
  } else if (state->args.size() != mod.method(method_id).num_args()) {
    reject.error = "argument count mismatch";
  } else {
    const MethodDef& m = mod.method(method_id);
    state->returns_ref = m.sig.ret == ValType::Ref;
    // Root the argument graph while the job sits in the queue: a Slot in a
    // std::deque is invisible to the GC's stack walk, so an otherwise-
    // unreachable ref arg would be swept between submit and pickup. Pinned
    // here, unpinned at worker pickup (or cancel / service stop).
    for (std::size_t i = 0; i < state->args.size(); ++i) {
      if (m.sig.params[i] == ValType::Ref && state->args[i].ref != nullptr) {
        vm_.pin(state->args[i].ref);
        state->args_pinned = true;
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Admission is held closed across a capture_snapshot quiesce window —
      // block here rather than start a compile mid-capture.
      admit_cv_.wait(lock, [&] { return !admission_closed_ || stopping_; });
      if (stopping_) {
        lock.unlock();
        unpin_args(*state);
        throw std::logic_error("execution service: already stopping");
      }
      enqueue_locked(*ten, state);
    }
    work_cv_.notify_one();
    return JobHandle(state);
  }
  finish(*state, std::move(reject));
  return JobHandle(state);
}

bool ExecutionService::cancel(const JobHandle& handle) {
  const std::shared_ptr<JobHandle::State>& job = handle.state_;
  if (job == nullptr) return false;
  bool removed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(job->tenant);
    if (it != tenants_.end()) {
      auto& q = it->second->queue;
      auto pos = std::find(q.begin(), q.end(), job);
      if (pos != q.end()) {
        q.erase(pos);
        --queued_;
        removed = true;
      }
    }
  }
  if (!removed) return false;  // already picked up (or finished): let it run
  unpin_args(*job);
  JobResult r;
  r.outcome = JobOutcome::Rejected;
  r.error = "cancelled";
  r.queue_ns = support::now_ns() - job->submit_ns;
  finish(*job, std::move(r));
  drain_cv_.notify_all();
  return true;
}

void ExecutionService::drain(VMContext* ctx) {
  if (ctx != nullptr) vm_.enter_safe_region(*ctx);
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return queued_ == 0 && in_flight_ == 0; });
  }
  if (ctx != nullptr) vm_.leave_safe_region(*ctx);
}

std::shared_ptr<const CodeArchive> ExecutionService::capture_snapshot(
    VMContext* ctx) {
  // Quiesce with admission closed: the old drain-then-capture left a window
  // where a submit racing the drain predicate could start a compile mid-
  // capture. With admission_closed_ set, concurrent submits block on
  // admit_cv_ until the capture is over, so "queue empty + nothing in
  // flight" stays true for the whole walk of the profile's cache.
  {
    std::unique_lock<std::mutex> lock(mu_);
    admit_cv_.wait(lock, [&] { return !admission_closed_; });
    admission_closed_ = true;
  }
  std::shared_ptr<const CodeArchive> archive;
  try {
    drain(ctx);
    archive = capture_archive(vm_, profile_.name);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      admission_closed_ = false;
    }
    admit_cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    admission_closed_ = false;
  }
  admit_cv_.notify_all();
  return archive;
}

bool ExecutionService::has_tenant(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.find(tenant) != tenants_.end();
}

TenantStats ExecutionService::tenant_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(tenant);
  return it != stats_.end() ? it->second : TenantStats{};
}

void ExecutionService::enqueue_locked(Tenant& tenant,
                                      std::shared_ptr<JobHandle::State> job) {
  tenant.queue.push_back(std::move(job));
  ++queued_;
  if (!tenant.in_ring) {
    tenant.in_ring = true;
    tenant.deficit = 0;  // replenished on the tenant's first service turn
    ring_.push_back(&tenant);
  }
}

std::shared_ptr<JobHandle::State> ExecutionService::pop_locked() {
  // Deficit round-robin, unit job cost: the tenant at the head of the ring
  // dispatches up to `weight` jobs per turn, then rotates to the back — so
  // under backlog every tenant makes progress each round and relative
  // throughput tracks the weight ratio. Tenants leave the ring when their
  // sub-queue empties (cancel can empty one mid-turn).
  while (!ring_.empty()) {
    Tenant* t = ring_.front();
    if (t->queue.empty()) {
      t->in_ring = false;
      t->deficit = 0;
      ring_.pop_front();
      continue;
    }
    if (t->deficit == 0) {  // new service turn
      t->deficit = t->config.weight == 0 ? 1 : t->config.weight;
    }
    std::shared_ptr<JobHandle::State> job = std::move(t->queue.front());
    t->queue.pop_front();
    --queued_;
    --t->deficit;
    if (t->queue.empty()) {
      t->in_ring = false;
      t->deficit = 0;
      ring_.pop_front();
    } else if (t->deficit == 0) {  // turn over: go to the back of the ring
      ring_.pop_front();
      ring_.push_back(t);
    }
    return job;
  }
  return nullptr;
}

void ExecutionService::unpin_args(JobHandle::State& job) {
  if (!job.args_pinned) return;
  job.args_pinned = false;
  const MethodDef& m = vm_.module().method(job.method_id);
  for (std::size_t i = 0; i < job.args.size(); ++i) {
    if (m.sig.params[i] == ValType::Ref && job.args[i].ref != nullptr) {
      vm_.unpin(job.args[i].ref);
    }
  }
}

void ExecutionService::worker_main(std::size_t /*index*/) {
  // Each worker owns an engine built from the service profile; engines
  // sharing a VM and a profile name share compiled code (CodeCache), so
  // tier-up / OSR work done for one tenant's job benefits every worker.
  std::unique_ptr<Engine> engine = make_engine(vm_, profile_);
  std::unique_ptr<VMContext> ctx = vm_.attach_thread(engine.get());
  for (;;) {
    std::shared_ptr<JobHandle::State> job;
    bool stop = false;
    // Park GC-safe while the queue is empty: a collection triggered by a
    // busy worker must not wait on an idle one. mu_ is never held across
    // the safe-region transitions (leave may park for an in-flight GC).
    vm_.enter_safe_region(*ctx);
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || queued_ != 0; });
      if (stopping_) {
        // The destructor already failed everything still queued (under the
        // same lock that set stopping_), so there is nothing left to run.
        stop = true;
      } else {
        job = pop_locked();
        if (job != nullptr) ++in_flight_;
      }
    }
    vm_.leave_safe_region(*ctx);
    if (stop) break;
    if (job == nullptr) continue;  // raced away; re-park
    run_job(*ctx, *engine, *job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    drain_cv_.notify_all();
  }
  vm_.detach_thread(*ctx);
}

void ExecutionService::run_job(VMContext& ctx, Engine& engine,
                               JobHandle::State& job) {
  const std::int64_t start_ns = support::now_ns();
  // Pickup: from here the frame the engine is about to build roots the ref
  // args, so the queue-lifetime pins come off. No safepoint lies between
  // this unpin and the engine pushing the frame's GcFrame, so no collection
  // can run in the gap.
  unpin_args(job);
  JobResult res;
  res.queue_ns = start_ns - job.submit_ns;

  // Arm the per-job meter. Fuel is charged in taken backward branches at the
  // backends' pulse cadence, so the measured kill point is exact to within
  // one pulse window and identical run to run; the wall-clock deadline rides
  // the same pulse (DESIGN.md §14). A deadline-only job arms the meter with
  // the fuel axis clamped to INT64_MAX so it never fires.
  if (job.fuel > 0 || job.deadline_ms > 0) {
    ctx.fuel.active = true;
    // Clamp: a configured fuel_per_job above INT64_MAX means "effectively
    // unmetered", not a meter armed already negative.
    ctx.fuel.remaining = static_cast<std::int64_t>(std::min<std::uint64_t>(
        job.fuel > 0 ? job.fuel : std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::int64_t>::max()));
    ctx.fuel.spent = 0;
    if (job.deadline_ms > 0) {
      // Same clamp idea on the time axis: an absurd deadline must not wrap
      // the ns product negative and kill the job instantly.
      constexpr std::uint64_t kMaxMs =
          std::numeric_limits<std::int64_t>::max() / 4'000'000;
      ctx.fuel.deadline_ns =
          start_ns + static_cast<std::int64_t>(
                         std::min<std::uint64_t>(job.deadline_ms, kMaxMs)) *
                         1'000'000;
    }
  }
  // Bind the tenant's allocation budget, retiring the TLAB window on both
  // sides of the job so no window acquired under one accounting regime is
  // bumped under another.
  if (job.budget != nullptr) {
    vm_.heap().retire_tlab(ctx.tlab);
    ctx.tlab.bind_budget(job.budget);
  }

  try {
    Slot value = engine.invoke(ctx, job.method_id,
                               std::span<const Slot>(job.args));
    res.outcome = JobOutcome::Completed;
    res.value = value;
  } catch (const ManagedException& e) {
    if (e.class_name() == "HPCNet.FuelExhaustedException") {
      res.outcome = JobOutcome::KilledFuel;
    } else if (e.class_name() == "HPCNet.DeadlineExceededException") {
      res.outcome = JobOutcome::KilledDeadline;
    } else if (e.class_name() == "System.OutOfMemoryException") {
      res.outcome = JobOutcome::KilledMemory;
    } else {
      res.outcome = JobOutcome::Faulted;
    }
    res.error = e.what();
  } catch (const VerifyError& e) {
    res.outcome = JobOutcome::Rejected;
    res.error = e.what();
  } catch (const std::exception& e) {
    res.outcome = JobOutcome::Faulted;
    res.error = e.what();
  }

  // Disarm and read back the job's accounting. Frame-exit residual flushes
  // ran during unwinding, so `spent` is complete here.
  res.fuel_spent = ctx.fuel.spent;
  ctx.fuel = FuelMeter{};
  if (job.budget != nullptr) {
    vm_.heap().retire_tlab(ctx.tlab);
    res.bytes_charged = ctx.tlab.budget_charged();
    ctx.tlab.bind_budget(nullptr);
    // The budget caps in-flight allocation, not a lifetime total: the job is
    // over, its garbage belongs to the next GC, the headroom to the tenant.
    job.budget->release(res.bytes_charged);
  }
  // Root a ref-typed result for as long as a handle can observe it
  // (~State unpins).
  if (res.outcome == JobOutcome::Completed && job.returns_ref &&
      res.value.ref != nullptr) {
    vm_.pin(res.value.ref);
    job.result_pinned = true;
  }
  res.run_ns = support::now_ns() - start_ns;
  finish(job, std::move(res));
}

void ExecutionService::finish(JobHandle::State& job, JobResult result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantStats& st = stats_[job.tenant];
    switch (result.outcome) {
      case JobOutcome::Completed: st.jobs_completed += 1; break;
      case JobOutcome::KilledFuel: st.jobs_killed_fuel += 1; break;
      case JobOutcome::KilledMemory: st.jobs_killed_memory += 1; break;
      case JobOutcome::KilledDeadline: st.jobs_killed_deadline += 1; break;
      case JobOutcome::Faulted: st.jobs_faulted += 1; break;
      case JobOutcome::Rejected: st.jobs_rejected += 1; break;
    }
    st.fuel_spent += result.fuel_spent;
    st.bytes_charged += result.bytes_charged;
    st.queue_ns += result.queue_ns;
    st.run_ns += result.run_ns;
  }
  Completion cb;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.result = std::move(result);
    job.done = true;
    cb = std::move(job.on_done);
  }
  job.cv.notify_all();
  // Completion hook last, off every lock: waiters are already released, and
  // job.result is immutable now that done is published.
  if (cb) cb(job.result);
}

}  // namespace hpcnet::vm::service
