#include "vm/execution.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "support/timer.hpp"
#include "vm/codecache.hpp"
#include "vm/engines.hpp"
#include "vm/monitor.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace hpcnet::vm {

// ---------------------------------------------------------------------------
// Profiles (DESIGN.md §5).

namespace profiles {

EngineProfile clr11() {
  EngineProfile p;
  p.name = "clr11";
  p.tier = Tier::Optimizing;
  p.flags.redundant_const_store = true;  // paper Table 6: spilled divisor
  p.flags.mul_imm_fusion = true;
  p.flags.div_imm_fusion = false;
  p.flags.enregister_limit = 64;  // paper §5
  p.flags.fast_multidim = true;
  p.flags.fast_math = true;
  p.flags.cheap_exceptions = false;
  // The commercial leaders run the full classic pass set (paper §5: the
  // CLR and IBM JITs eliminate the most operations from the hot paths).
  p.flags.inline_calls = true;
  p.flags.inline_max_il = 64;
  p.flags.cse = true;
  return p;
}

EngineProfile ibm131() {
  EngineProfile p;
  p.name = "ibm131";
  p.tier = Tier::Optimizing;
  p.flags.div_imm_fusion = true;  // paper Table 6: divisor kept immediate
  p.flags.mul_imm_fusion = false;
  p.flags.fast_multidim = false;  // JVM lacks true rank-2 arrays
  p.flags.fast_math = false;      // paper: CLR Math library faster
  p.flags.cheap_exceptions = true;
  p.flags.inline_calls = true;  // the IBM JIT inlined aggressively
  p.flags.inline_max_il = 64;
  p.flags.cse = true;
  return p;
}

EngineProfile sun14() {
  EngineProfile p;
  p.name = "sun14";
  p.tier = Tier::Optimizing;
  p.flags.fuse_cmp_branch = false;  // fewer passes than the leaders
  p.flags.mul_imm_fusion = false;
  p.flags.fast_multidim = false;
  p.flags.fast_math = false;
  p.flags.cheap_exceptions = true;
  // HotSpot client compiler: local value numbering, but conservative
  // inlining (modelled here as none).
  p.flags.cse = true;
  return p;
}

EngineProfile bea81() {
  EngineProfile p;
  p.name = "bea81";
  p.tier = Tier::Optimizing;
  p.flags.bounds_check_elim = false;
  p.flags.mul_imm_fusion = false;
  p.flags.fast_multidim = false;
  p.flags.fast_math = false;
  p.flags.cheap_exceptions = true;
  // JRockit: strong inliner and value numbering, but no loop-oriented
  // passes in this mix (it also skips BCE above).
  p.flags.inline_calls = true;
  p.flags.cse = true;
  return p;
}

EngineProfile jsharp11() {
  EngineProfile p = clr11();
  p.name = "jsharp11";
  // The J# front end emits CLR-hostile IL; model as the CLR pipeline with
  // fewer fusion opportunities.
  p.flags.fuse_cmp_branch = false;
  p.flags.mul_imm_fusion = false;
  return p;
}

EngineProfile mono023() {
  EngineProfile p;
  p.name = "mono023";
  p.tier = Tier::Baseline;
  return p;
}

EngineProfile rotor10() {
  EngineProfile p;
  p.name = "rotor10";
  p.tier = Tier::Interp;
  return p;
}

std::vector<EngineProfile> all() {
  return {ibm131(), clr11(),  bea81(),  jsharp11(),
          sun14(),  mono023(), rotor10()};
}

EngineProfile tiered(EngineProfile base) {
  base.tiering.mode = TierMode::Tiered;
  switch (base.tier) {
    case Tier::Interp:
      // Rotor never JITted: tiered mode degenerates to the interpreter.
      base.tiering.max_tier = Tier::Interp;
      break;
    case Tier::Baseline:
      // Mono 0.23's JIT is itself the baseline; promote eagerly but never
      // into the register-IR tier it didn't have.
      base.tiering.max_tier = Tier::Baseline;
      base.tiering.baseline_threshold = 4;
      break;
    case Tier::Optimizing:
      base.tiering.max_tier = Tier::Optimizing;
      break;
  }
  base.name += ".tiered";
  return base;
}

EngineProfile vec(EngineProfile base) {
  // The recognizer runs inside the optimizing tier's pass pipeline; BCE is
  // forced on because its loop analysis (and the unchecked element forms it
  // produces) are what the recognizer consumes.
  base.flags.vectorize = true;
  base.flags.bounds_check_elim = true;
  base.name += ".vec";
  return base;
}

EngineProfile by_name(const std::string& name) {
  for (auto& p : all()) {
    if (p.name == name) return p;
  }
  // "<base>.tiered" selects the hotness-promoting pipeline over that base;
  // "<base>.vec" adds the vector tier. Suffixes compose left to right.
  constexpr std::string_view kTiered = ".tiered";
  if (name.size() > kTiered.size() &&
      name.compare(name.size() - kTiered.size(), kTiered.size(), kTiered) ==
          0) {
    return tiered(by_name(name.substr(0, name.size() - kTiered.size())));
  }
  constexpr std::string_view kVec = ".vec";
  if (name.size() > kVec.size() &&
      name.compare(name.size() - kVec.size(), kVec.size(), kVec) == 0) {
    return vec(by_name(name.substr(0, name.size() - kVec.size())));
  }
  throw std::invalid_argument("unknown engine profile: " + name);
}

}  // namespace profiles

// ---------------------------------------------------------------------------
// FrameArena.

void* FrameArena::alloc(std::size_t bytes) {
  bytes = (bytes + alignof(Slot) - 1) & ~(alignof(Slot) - 1);
  if (pos_ + bytes > size_) {
    throw std::runtime_error("managed stack overflow");
  }
  void* p = buf_.get() + pos_;
  pos_ += bytes;
  std::memset(p, 0, bytes);
  return p;
}

// ---------------------------------------------------------------------------
// Engine::invoke.

Slot Engine::invoke(VMContext& ctx, std::int32_t method_id,
                    std::span<const Slot> args) {
  VirtualMachine& vm = *ctx.vm;
  const MethodDef& m = vm.module().method(method_id);
  // Verification happens at frame entry inside the tier backends (through
  // the VM-shared verify cache), not here: this path is reachable from many
  // threads and an unsynchronized MethodDef check would race.
  if (args.size() != m.sig.params.size()) {
    throw std::invalid_argument("invoke " + m.name + ": argument count");
  }
  // The caller's engine and the argument block are restored on every exit,
  // a native exception unwinding out of the engine included.
  struct Restore {
    VMContext& ctx;
    Engine* const engine;
    const FrameArena::Mark mark;
    ~Restore() {
      ctx.engine = engine;
      ctx.arena.release(mark);
    }
  } restore{ctx, ctx.engine, ctx.arena.mark()};
  // Copy args into a frame-arena block the engine will adopt.
  Slot* argbuf = nullptr;
  if (!args.empty()) {
    argbuf = static_cast<Slot*>(ctx.arena.alloc(args.size() * sizeof(Slot)));
    std::copy(args.begin(), args.end(), argbuf);
  }
  ctx.pending_exception = nullptr;
  ctx.engine = this;  // managed Thread.Start spawns onto the running engine
  const Slot result = do_invoke(ctx, m, argbuf);
  if (ctx.pending_exception != nullptr) {
    ObjRef exc = ctx.pending_exception;
    ctx.pending_exception = nullptr;
    auto [cls, msg] = vm.describe_exception(exc);
    throw ManagedException(cls, msg);
  }
  return result;
}

// make_engine lives in tiered.cpp next to the TieredEngine it constructs.

// ---------------------------------------------------------------------------
// VirtualMachine.

VirtualMachine::VirtualMachine() : heap_(&module_) {
  monitors_ = std::make_unique<MonitorTable>(*this);
  thread_class_ =
      module_.define_class("System.Threading.Thread", {{"id", ValType::I32}});
  heap_.set_gc_requester([this](GcKind kind) { collect(kind); });
}

CodeCache& VirtualMachine::code_cache(const std::string& key) {
  std::lock_guard<std::mutex> lock(caches_mu_);
  auto& slot = caches_[key];
  if (!slot) slot = std::make_unique<CodeCache>();
  return *slot;
}

std::vector<std::string> VirtualMachine::code_cache_keys() const {
  std::lock_guard<std::mutex> lock(caches_mu_);
  std::vector<std::string> keys;
  keys.reserve(caches_.size());
  for (const auto& [key, cache] : caches_) keys.push_back(key);
  return keys;  // std::map iteration order: already sorted
}

VirtualMachine::~VirtualMachine() {
  // Join any managed threads that were never joined so they don't outlive
  // the VM state they reference.
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : threads_) {
      if (t->thread.joinable()) t->thread.join();
    }
  }
  // Detach the lazily-attached host-thread context so its TLAB is
  // unregistered before the heap is torn down.
  if (main_ctx_) {
    detach_thread(*main_ctx_);
    main_ctx_.reset();
  }
}

void VirtualMachine::attach_locked(VMContext& ctx,
                                   std::unique_lock<std::mutex>& lock) {
  // A new thread may not start running while a collection is in progress.
  resume_cv_.wait(lock, [&] { return !stw_requested_.load(); });
  ctx.thread_id = next_thread_id_++;
  ctx.os_id = std::this_thread::get_id();
  contexts_.push_back(&ctx);
  ++num_running_;
}

bool VirtualMachine::calling_thread_attached_locked() const {
  const auto me = std::this_thread::get_id();
  for (const VMContext* c : contexts_) {
    if (c->os_id == me) return true;
  }
  return false;
}

std::unique_ptr<VMContext> VirtualMachine::attach_thread(Engine* engine) {
  auto ctx = std::make_unique<VMContext>();
  ctx->vm = this;
  ctx->engine = engine;
  {
    std::unique_lock<std::mutex> lock(park_mu_);
    attach_locked(*ctx, lock);
  }
  // Registered after the attach handshake: the thread now counts as running,
  // so no collection can complete (and sweep the TLAB list) concurrently.
  heap_.register_tlab(ctx->tlab);
  telemetry::on_thread_attach(ctx->thread_id);
  return ctx;
}

void VirtualMachine::detach_thread(VMContext& ctx) {
  heap_.unregister_tlab(ctx.tlab);
  telemetry::on_thread_detach(ctx.thread_id);
  std::unique_lock<std::mutex> lock(park_mu_);
  contexts_.erase(std::remove(contexts_.begin(), contexts_.end(), &ctx),
                  contexts_.end());
  --num_running_;
  park_cv_.notify_all();
}

VMContext& VirtualMachine::main_context() {
  std::lock_guard<std::mutex> g(main_ctx_mu_);
  if (!main_ctx_) {
    main_ctx_ = attach_thread(nullptr);
  }
  return *main_ctx_;
}

void VirtualMachine::safepoint_park(VMContext& ctx) {
  std::unique_lock<std::mutex> lock(park_mu_);
  if (!stw_requested_.load()) return;
  const std::int64_t stall_begin =
      telemetry::enabled() ? support::now_ns() : 0;
  --num_running_;
  park_cv_.notify_all();
  resume_cv_.wait(lock, [&] { return !stw_requested_.load(); });
  ++num_running_;
  if (stall_begin != 0) {
    telemetry::record_safepoint_stall(support::now_ns() - stall_begin);
  }
  (void)ctx;
}

void VirtualMachine::enter_safe_region(VMContext& ctx) {
  (void)ctx;
  std::lock_guard<std::mutex> lock(park_mu_);
  --num_running_;
  park_cv_.notify_all();
}

void VirtualMachine::leave_safe_region(VMContext& ctx) {
  (void)ctx;
  std::unique_lock<std::mutex> lock(park_mu_);
  resume_cv_.wait(lock, [&] { return !stw_requested_.load(); });
  ++num_running_;
}

void VirtualMachine::collect(GcKind kind) {
  std::unique_lock<std::mutex> world(world_mu_, std::try_to_lock);
  if (!world.owns_lock()) {
    // Another thread is already collecting. Blocking on world_mu_ here would
    // deadlock the rendezvous: this thread still counts as running, so the
    // winner's wait for num_running_ == 0 could never finish. Park like any
    // other mutator until the world resumes; the winner's sweep has reset
    // the allocation budget, so there is nothing left to collect.
    std::unique_lock<std::mutex> lock(park_mu_);
    if (!stw_requested_.load()) return;
    if (calling_thread_attached_locked()) {
      --num_running_;
      park_cv_.notify_all();
      resume_cv_.wait(lock, [&] { return !stw_requested_.load(); });
      ++num_running_;
    } else {
      resume_cv_.wait(lock, [&] { return !stw_requested_.load(); });
    }
    return;
  }
  const std::int64_t pause_begin =
      telemetry::enabled() ? support::now_ns() : 0;
  bool attached;
  {
    std::unique_lock<std::mutex> lock(park_mu_);
    attached = calling_thread_attached_locked();
    stw_requested_.store(true);
    if (attached) --num_running_;  // the collecting thread counts as parked
    park_cv_.wait(lock, [&] { return num_running_ == 0; });
  }
  heap_.gc_prepare(kind);
  mark_roots();
  heap_.gc_perform(kind);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    stw_requested_.store(false);
    if (attached) ++num_running_;
  }
  resume_cv_.notify_all();
  if (pause_begin != 0) {
    telemetry::record_gc_pause(kind == GcKind::Major, pause_begin,
                               support::now_ns());
  }
}

void VirtualMachine::mark_roots() {
  // The world is stopped: every mutator is parked or in a safe region, so
  // frame chains and registries are stable.
  struct Visitor {
    Heap* heap;
    static void visit(ObjRef obj, void* arg) {
      static_cast<Visitor*>(arg)->heap->mark(obj);
    }
  } v{&heap_};

  for (VMContext* ctx : contexts_) {
    if (ctx->pending_exception != nullptr) heap_.mark(ctx->pending_exception);
    for (GcFrame* f = ctx->top_frame; f != nullptr; f = f->parent) {
      f->enumerate(f, &Visitor::visit, &v);
    }
  }
  module_.for_each_static_ref([&](ObjRef r) { heap_.mark(r); });
  {
    std::lock_guard<std::mutex> lock(pins_mu_);
    for (ObjRef r : pinned_) heap_.mark(r);
  }
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : threads_) {
      if (t->arg != nullptr) heap_.mark(t->arg);
      if (t->handle != nullptr) heap_.mark(t->handle);
    }
  }
}

ObjRef VirtualMachine::make_exception(VMContext& ctx, std::int32_t class_id,
                                      const std::string& message) {
  // Kill-path exceptions (FuelExhausted, OutOfMemory) must construct even
  // when the thrower's tenant budget is dry, so a refused charge falls back
  // to the heap-shared TLAB, which is never metered. This unmetered reserve
  // is bounded: a handful of small objects per kill.
  ObjRef msg = heap_.alloc_string(message, &ctx.tlab);
  if (msg == nullptr) msg = heap_.alloc_string(message, nullptr);
  Pinned pin(*this, msg);
  ObjRef exc = heap_.alloc_instance(class_id, &ctx.tlab);
  if (exc == nullptr) exc = heap_.alloc_instance(class_id, nullptr);
  exc->fields()[0] = Slot::from_ref(msg);  // System.Exception.message
  return exc;
}

void VirtualMachine::throw_exception(VMContext& ctx, std::int32_t class_id,
                                     const std::string& message) {
  ctx.pending_exception = make_exception(ctx, class_id, message);
}

void raise_fuel_kill(VirtualMachine& vm, VMContext& ctx) {
  Module& mod = vm.module();
  if (ctx.fuel.exhausted()) {
    vm.throw_exception(ctx, mod.fuel_exhausted_class(),
                       "fuel budget exhausted");
  } else {
    vm.throw_exception(ctx, mod.deadline_exceeded_class(),
                       "wall-clock deadline exceeded");
  }
}

std::pair<std::string, std::string> VirtualMachine::describe_exception(
    ObjRef exc) {
  if (exc == nullptr) return {"<null>", ""};
  std::string cls = exc->kind == ObjKind::Instance
                        ? module_.klass(exc->klass).name
                        : "<non-exception>";
  std::string msg;
  if (exc->kind == ObjKind::Instance &&
      module_.is_subclass(exc->klass, module_.exception_class())) {
    msg = string_value(exc->fields()[0].ref);
  }
  return {cls, msg};
}

void VirtualMachine::pin(ObjRef obj) {
  std::lock_guard<std::mutex> lock(pins_mu_);
  pinned_.push_back(obj);
}

void VirtualMachine::unpin(ObjRef obj) {
  std::lock_guard<std::mutex> lock(pins_mu_);
  auto it = std::find(pinned_.rbegin(), pinned_.rend(), obj);
  if (it != pinned_.rend()) pinned_.erase(std::next(it).base());
}

ObjRef VirtualMachine::start_thread(VMContext& ctx, std::int32_t method_id,
                                    ObjRef arg) {
  Engine* engine = ctx.engine;
  if (engine == nullptr) {
    throw std::logic_error("start_thread: context has no engine");
  }
  // A metered job (fuel armed or a tenant allocation budget bound — the
  // service layer's two boundaries) may not spawn threads: the child would
  // run on a fresh context with no meter and no budget, and could keep
  // running after the job completes and its budget is released — escaping
  // both boundaries. Surface as a catchable managed fault (DESIGN.md §11).
  if (ctx.fuel.active || ctx.tlab.budget() != nullptr) {
    throw_exception(ctx, module_.exception_class(),
                    "Thread.Start refused: metered jobs are single-threaded");
    return nullptr;
  }
  const MethodDef& m = module_.method(method_id);
  if (m.sig.params.size() != 1 || m.sig.params[0] != ValType::Ref) {
    throw_exception(ctx, module_.exception_class(),
                    "thread entry point must take one ref argument");
    return nullptr;
  }

  auto rec = std::make_unique<ManagedThread>();
  ManagedThread* t = rec.get();
  t->arg = arg;

  ObjRef handle = heap_.alloc_instance(thread_class_, &ctx.tlab);
  if (handle == nullptr) {  // tenant allocation budget refused
    throw_exception(ctx, module_.out_of_memory_class(),
                    "allocation budget exhausted");
    return nullptr;
  }
  t->handle = handle;

  std::int32_t index;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    index = static_cast<std::int32_t>(threads_.size());
    threads_.push_back(std::move(rec));
  }
  handle->fields()[0] = Slot::from_i32(index);

  t->thread = std::thread([this, engine, method_id, t] {
    auto child = attach_thread(engine);
    try {
      Slot a = Slot::from_ref(t->arg);
      engine->invoke(*child, method_id, std::span<const Slot>(&a, 1));
    } catch (const ManagedException&) {
      // An exception escaping a thread entry point terminates the thread
      // silently (matching the benchmarks' expectations).
    }
    t->arg = nullptr;
    t->done.store(true);
    detach_thread(*child);
  });
  return handle;
}

void VirtualMachine::join_thread(VMContext& ctx, ObjRef handle) {
  if (handle == nullptr || handle->kind != ObjKind::Instance ||
      handle->klass != thread_class_) {
    throw_exception(ctx, module_.exception_class(), "bad thread handle");
    return;
  }
  const std::int32_t index = handle->fields()[0].i32;
  ManagedThread* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (index < 0 || static_cast<std::size_t>(index) >= threads_.size()) {
      throw_exception(ctx, module_.exception_class(), "bad thread handle");
      return;
    }
    t = threads_[static_cast<std::size_t>(index)].get();
    if (t->joined) return;
    t->joined = true;
  }
  enter_safe_region(ctx);
  if (t->thread.joinable()) t->thread.join();
  leave_safe_region(ctx);
  t->handle = nullptr;  // handle no longer needs pinning via the registry
}

}  // namespace hpcnet::vm
