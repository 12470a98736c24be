// The Virtual Execution System: the VirtualMachine facade (heap, monitors,
// managed threads, safepoints, GC), per-thread VMContext, and the Engine
// interface implemented by the three tiers the paper compares:
//
//   Tier::Interp     — per-instruction dynamic dispatch (SSCLI/Rotor role)
//   Tier::Baseline   — type-specialized threaded code   (Mono 0.23 role)
//   Tier::Optimizing — stack-to-register JIT + passes   (CLR 1.1 / JVM role)
//
// A named EngineProfile selects a tier plus the optimization-pass mix that
// reproduces each paper VM's observed behaviour (see DESIGN.md §5). The
// three tiers are backends of one TieredEngine: in the default Single mode
// every method runs on the profile's tier from the first call (the paper's
// measurement mode); "<profile>.tiered" variants interpret cold code and
// promote hot methods through the tiers at call boundaries, sharing compiled
// bodies through a VM-owned CodeCache (DESIGN.md "Tiered execution").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/java_random.hpp"
#include "support/timer.hpp"
#include "vm/heap.hpp"
#include "vm/module.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace hpcnet::vm {

class VirtualMachine;
class Engine;
class CodeCache;
class MonitorTable;
struct VMContext;

// ---------------------------------------------------------------------------
// Engine profiles.

enum class Tier : std::uint8_t { Interp, Baseline, Optimizing };

/// Single = the profile's tier runs every method from the first call (the
/// paper's measurement mode, and what keeps the per-engine benches
/// comparable). Tiered = methods start in the interpreter and promote
/// through the tiers as hotness counters cross the policy thresholds.
enum class TierMode : std::uint8_t { Single, Tiered };

/// Hotness-driven promotion policy. Hotness is invocations plus capped
/// back-edge credit, accumulated in the profile's CodeCache entry. Methods
/// promote at call boundaries; a frame already running when its method gets
/// hot enters compiled code mid-loop via on-stack replacement (DESIGN.md
/// §10). Only what the profiles vary is a field; the optimizing threshold,
/// back-edge credit cap, tiny-method size and OSR trigger are constants of
/// the tiered engine (tiered.cpp).
struct TierPolicy {
  TierMode mode = TierMode::Single;
  Tier max_tier = Tier::Optimizing;      // highest tier this profile reaches
  std::uint32_t baseline_threshold = 8;  // hotness to leave the interpreter
};

/// Optimization-pass flags for the Optimizing tier. Each maps to a behaviour
/// the paper observed in a specific JIT (DESIGN.md §5). Passes every profile
/// runs the same way (copy propagation, immediate operands, the inlining
/// depth and growth budget) are constants of the compiler (regcompile.hpp).
struct EngineFlags {
  bool fuse_cmp_branch = true;    // compare+branch superinstructions
  bool bounds_check_elim = true;  // hoist array bounds checks in counted loops
  bool redundant_const_store = false;  // CLR 1.1 quirk: spills the divisor
                                       // constant to a temp (paper Table 6)
  bool div_imm_fusion = false;    // IBM JVM: keeps the divisor as an immediate
  bool mul_imm_fusion = false;    // CLR: immediate multiply forms
  int enregister_limit = 1 << 30;  // locals beyond this stay in memory
                                   // (CLR 1.0/1.1 used 64; paper §5)
  bool fast_multidim = true;   // direct rank-2 indexing vs generic helper
  bool fast_math = true;       // inlined math intrinsics vs generic call path
  bool cheap_exceptions = false;  // JVM-style lightweight throw path
  bool inline_calls = false;   // method inlining at CALL sites
  int inline_max_il = 24;      // max callee body size (IL instructions)
  bool cse = false;            // common-subexpression elimination (EBB-scoped
                               // value numbering incl. ldlen/field/elem loads)
  bool vectorize = false;      // VECLOOP superinstruction lowering for
                               // recognized map/reduction/stencil loops
                               // (DESIGN.md §12); off in all seven paper
                               // profiles so they stay bit-identical
};

struct EngineProfile {
  std::string name;
  Tier tier = Tier::Optimizing;
  EngineFlags flags;
  TierPolicy tiering;  // Single by default: existing profiles are unchanged
};

/// The seven VM configurations benchmarked by the paper, plus "native" which
/// is handled outside the VM (src/kernels).
namespace profiles {
EngineProfile clr11();
EngineProfile ibm131();
EngineProfile sun14();
EngineProfile bea81();
EngineProfile jsharp11();
EngineProfile mono023();
EngineProfile rotor10();
/// All of the above, in the paper's presentation order.
std::vector<EngineProfile> all();
/// Mixed-mode variant of `base`: renamed "<name>.tiered", methods start
/// interpreted and promote up to base.tier. The rotor shape stays
/// interp-only, mono becomes baseline-heavy (low threshold, capped at
/// baseline), and the optimizing profiles get the clr/ibm mixed-mode shape.
EngineProfile tiered(EngineProfile base);
/// Vector-tier variant of `base`: renamed "<name>.vec", the optimizing tier
/// additionally lowers recognized counted loops into VECLOOP
/// superinstructions (requires bounds_check_elim, which it forces on). Only
/// meaningful for profiles that reach Tier::Optimizing.
EngineProfile vec(EngineProfile base);
/// Lookup by name; "<profile>.tiered" resolves to tiered(<profile>) and
/// "<profile>.vec" to vec(<profile>); the suffixes compose left to right.
/// Throws std::invalid_argument for unknown names.
EngineProfile by_name(const std::string& name);
}  // namespace profiles

// ---------------------------------------------------------------------------
// GC stack walking.

/// A node in a thread's shadow stack. Engines push one per managed frame and
/// implement enumerate() to report the frame's live object references.
struct GcFrame {
  GcFrame* parent = nullptr;
  void (*enumerate)(const GcFrame* self, void (*visit)(ObjRef, void*),
                    void* arg) = nullptr;
};

// ---------------------------------------------------------------------------
// Frame arena: bump allocation for activation records.

class FrameArena {
 public:
  explicit FrameArena(std::size_t bytes = 16u << 20)
      : buf_(new char[bytes]), size_(bytes) {}

  struct Mark {
    std::size_t pos;
  };
  Mark mark() const { return {pos_}; }
  void release(Mark m) { pos_ = m.pos; }

  /// Returns zeroed, Slot-aligned storage; throws on overflow (the managed
  /// "stack overflow" condition).
  void* alloc(std::size_t bytes);

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Managed exception escaping to native code.

class ManagedException : public std::runtime_error {
 public:
  ManagedException(std::string class_name, std::string message)
      : std::runtime_error(class_name + ": " + message),
        class_name_(std::move(class_name)),
        message_(std::move(message)) {}
  const std::string& class_name() const { return class_name_; }
  const std::string& message() const { return message_; }

 private:
  std::string class_name_;
  std::string message_;
};

// ---------------------------------------------------------------------------
// Per-thread execution context.

/// Deterministic execution metering. The service layer (src/vm/service) arms
/// one of these per job; the tier backends charge taken backward branches
/// against it at the pulse cadence they already use for OSR arming, so
/// metering adds no second branch to the dispatch loops (DESIGN.md §11).
/// When the budget runs dry the job faults with a catchable FuelExhausted
/// exception at the next back-edge safepoint or call boundary.
///
/// The meter also carries the job's wall-clock deadline (DESIGN.md §14):
/// fuel is deterministic but not time, so a tenant job that must finish by a
/// real-time SLA arms `deadline_ns` (monotonic, support::now_ns epoch) next
/// to — or instead of — a fuel budget. The deadline is polled at the same
/// back-edge pulse cadence as fuel and at call boundaries, surfacing as a
/// catchable HPCNet.DeadlineExceededException; overshoot past the deadline
/// is bounded by one pulse window of execution. A job with only a deadline
/// armed runs with `remaining` clamped to INT64_MAX so the fuel axis never
/// fires.
struct FuelMeter {
  bool active = false;
  std::int64_t remaining = 0;  // may go negative by < one pulse window
  std::uint64_t spent = 0;     // taken backward branches charged so far
  std::int64_t deadline_ns = 0;  // monotonic now_ns() deadline; 0 = none

  void charge(std::uint64_t n) {
    spent += n;
    remaining -= static_cast<std::int64_t>(n);
  }
  bool exhausted() const { return active && remaining <= 0; }
  /// True once the wall clock has passed the armed deadline. Costs a clock
  /// read, so callers check it only at pulse/call-boundary cadence and only
  /// when a deadline is armed.
  bool past_deadline() const {
    return deadline_ns != 0 && support::now_ns() >= deadline_ns;
  }
};

/// Fuel pulse cadence when no OSR counter is armed; with the tiered pipeline
/// the pulse rides the OSR trigger instead (one shared counter per frame).
constexpr std::uint32_t kFuelPulseBackedges = 1024;

struct VMContext {
  VirtualMachine* vm = nullptr;
  Engine* engine = nullptr;  // engine executing this thread's managed code
  std::uint32_t thread_id = 0;  // 1-based managed thread id
  std::thread::id os_id{};      // the attached OS thread
  GcFrame* top_frame = nullptr;
  ObjRef pending_exception = nullptr;
  FrameArena arena;
  Tlab tlab;  // this thread's allocation buffer; registered with the heap
              // while attached, retired at GC rendezvous and detach
  support::JavaRandom math_random{20030315};  // Math.random() state
  FuelMeter fuel;  // per-job execution budget (inactive outside the service)

  bool has_pending() const { return pending_exception != nullptr; }
};

/// Raises FuelExhausted, or DeadlineExceeded when the fuel is not spent, as
/// ctx.pending_exception. The slow path of fuel_kill.
void raise_fuel_kill(VirtualMachine& vm, VMContext& ctx);

/// The fuel/deadline kill all three tiers share: at frame entry (a frame
/// entered after the budget ran dry faults at once, so loop-free callees
/// cannot extend a dead job) and at each fuel pulse. Returns true, with the
/// catchable exception pending, when the job must stop.
inline bool fuel_kill(VirtualMachine& vm, VMContext& ctx) {
  if (!ctx.fuel.exhausted() && !ctx.fuel.past_deadline()) return false;
  raise_fuel_kill(vm, ctx);
  return true;
}

// ---------------------------------------------------------------------------
// Frame lifecycle.

class TieredEngine;

/// One managed activation's lifecycle, written once for all three tiers.
/// A tier constructs it at frame entry, after the fuel_kill check, and it
/// takes the frame-arena mark there; link() pushes the frame's GcFrame once
/// the frame's storage is allocated. The destructor runs on EVERY exit: a
/// normal return, a managed exception propagating out, and a native C++
/// exception (frame-arena overflow, a compile failure in a nested call)
/// unwinding through the dispatch loop. It pops the GcFrame if it was
/// linked, releases the arena, charges the residual fuel, flushes tiered
/// back-edge credit and counts the invocation. Without it a native unwind
/// would leave ctx.top_frame at a dead frame for the next GC to walk.
///
/// The dispatch loops keep their back-edge and bytecode counters as
/// register-friendly locals; the scope holds references and reads them only
/// at fuel pulses and at exit. `fuel_charged` (back edges already charged to
/// ctx.fuel) is the scope's own: it moves only at pulses.
class FrameScope {
 public:
  /// `credit` is the engine whose hotness the frame's back edges feed at
  /// exit: tiered IL frames pass theirs, every other frame null.
  FrameScope(VMContext& ctx, std::int32_t method_id, Tier tier,
             const std::uint32_t& backedges, const std::uint64_t& bytecodes,
             TieredEngine* credit)
      : ctx_(ctx),
        mark_(ctx.arena.mark()),
        method_id_(method_id),
        tier_(tier),
        backedges_(backedges),
        bytecodes_(bytecodes),
        credit_(credit) {}
  ~FrameScope() {
    if (gc_ != nullptr) ctx_.top_frame = gc_->parent;
    ctx_.arena.release(mark_);
    // Residual fuel: back edges taken since the last pulse are charged here
    // (no kill check: the next pulse or call boundary catches an overdraw),
    // so short loops in callees are still metered.
    if (ctx_.fuel.active && backedges_ != fuel_charged) {
      ctx_.fuel.charge(backedges_ - fuel_charged);
    }
    if (credit_ != nullptr && backedges_ != 0) flush_backedge_credit();
    telemetry::record_invocation(method_id_, bytecodes_,
                                 static_cast<std::uint8_t>(tier_));
  }
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

  /// Pushes `frame` on the thread's shadow stack until the scope ends.
  void link(GcFrame& frame) {
    frame.parent = ctx_.top_frame;
    ctx_.top_frame = &frame;
    gc_ = &frame;
  }

  /// A fuel pulse: charges the back edges taken since the last charge, then
  /// runs the kill check.
  bool fuel_pulse(VirtualMachine& vm) {
    ctx_.fuel.charge(backedges_ - fuel_charged);
    fuel_charged = backedges_;
    return fuel_kill(vm, ctx_);
  }

  std::uint32_t fuel_charged = 0;

 private:
  /// note_backedges on `credit_`. A failed promotion (code-cache
  /// exhaustion) drops the credit rather than terminate the process when
  /// this runs during another unwind. Defined in tiered.cpp.
  void flush_backedge_credit() noexcept;

  VMContext& ctx_;
  const FrameArena::Mark mark_;
  const std::int32_t method_id_;
  const Tier tier_;
  const std::uint32_t& backedges_;
  const std::uint64_t& bytecodes_;
  TieredEngine* const credit_;
  GcFrame* gc_ = nullptr;
};

// ---------------------------------------------------------------------------
// Engine interface.

class Engine {
 public:
  virtual ~Engine() = default;

  /// Runs `method_id` with `args` on the calling thread. If a managed
  /// exception escapes the outermost frame it is rethrown as
  /// ManagedException. `ctx` must be attached to the VM.
  Slot invoke(VMContext& ctx, std::int32_t method_id,
              std::span<const Slot> args);

  virtual const EngineProfile& profile() const = 0;
  const std::string& name() const { return profile().name; }

 protected:
  /// Engine-specific execution; on managed exception, sets
  /// ctx.pending_exception and returns (return value undefined).
  virtual Slot do_invoke(VMContext& ctx, const MethodDef& method,
                         Slot* args) = 0;
  friend class VirtualMachine;
};

/// Creates the (tiered) engine for a profile, bound to `vm`.
std::unique_ptr<Engine> make_engine(VirtualMachine& vm,
                                    const EngineProfile& profile);

// ---------------------------------------------------------------------------
// The VM.

class VirtualMachine {
 public:
  VirtualMachine();
  ~VirtualMachine();

  VirtualMachine(const VirtualMachine&) = delete;
  VirtualMachine& operator=(const VirtualMachine&) = delete;

  Module& module() { return module_; }
  Heap& heap() { return heap_; }
  MonitorTable& monitors() { return *monitors_; }

  /// Attaches the calling thread as a managed thread. The returned context
  /// must be detached before the thread exits. The "main" thread of examples
  /// and tests typically uses main_context() instead.
  std::unique_ptr<VMContext> attach_thread(Engine* engine);
  void detach_thread(VMContext& ctx);

  /// Lazily-attached context for the calling (host) thread.
  VMContext& main_context();

  // -- Safepoint protocol --------------------------------------------------
  /// Fast-path poll, called by engines at back-edges and calls.
  void safepoint_poll(VMContext& ctx) {
    if (stw_requested_.load(std::memory_order_acquire)) safepoint_park(ctx);
  }
  /// Marks the thread GC-safe across a blocking operation (monitor wait,
  /// join, sleep). While safe, the thread must not touch the managed heap.
  void enter_safe_region(VMContext& ctx);
  void leave_safe_region(VMContext& ctx);

  /// Stops the world, marks from all roots, sweeps. Called automatically at
  /// the allocation threshold (Minor unless the old generation outgrew its
  /// own threshold); direct calls (GC.Collect) default to a full Major
  /// collection, preserving the pre-generational contract that an explicit
  /// collect reclaims every unreachable object.
  void collect(GcKind kind = GcKind::Major);

  // -- Exception helpers ----------------------------------------------------
  /// Allocates an exception instance of `class_id` with `message`.
  ObjRef make_exception(VMContext& ctx, std::int32_t class_id,
                        const std::string& message);
  /// Sets ctx.pending_exception to a new instance of `class_id`.
  void throw_exception(VMContext& ctx, std::int32_t class_id,
                       const std::string& message);
  /// Class name + message of an exception object (for ManagedException).
  std::pair<std::string, std::string> describe_exception(ObjRef exc);

  // -- Pinned handles (native code holding refs across allocations) --------
  void pin(ObjRef obj);
  void unpin(ObjRef obj);

  // -- Managed threads -------------------------------------------------------
  /// Starts a managed thread running `method_id(arg)` on `engine`; returns a
  /// handle object. Used by the Thread.Start intrinsic and the MT benchmarks.
  /// Refused (catchable managed exception, returns nullptr) when `ctx` is
  /// metered — fuel armed or an allocation budget bound — because the child
  /// context would be neither and would escape both boundaries.
  ObjRef start_thread(VMContext& ctx, std::int32_t method_id, ObjRef arg);
  /// Joins the thread behind `handle` (safe-region blocking).
  void join_thread(VMContext& ctx, ObjRef handle);
  std::int32_t thread_class() const { return thread_class_; }

  /// Number of GCs performed (tests): a view over the heap's counts.
  std::size_t gc_count() const {
    const HeapStats s = heap_.stats();
    return s.minor_collections + s.major_collections;
  }

  // -- Code cache ------------------------------------------------------------
  /// The code cache for `key` (created on first use). Engines key their
  /// cache by profile name, so engines sharing a VM and a name share
  /// compiled code; profiles with differing flags must therefore use
  /// distinct names. Verification state lives in the reserved "<verify>"
  /// cache shared by every engine on this VM.
  CodeCache& code_cache(const std::string& key);
  /// Names of every cache created so far, sorted (snapshot save enumerates
  /// these to archive each warmed profile; "<verify>" is included — callers
  /// that only want engine profiles skip it).
  std::vector<std::string> code_cache_keys() const;

 private:
  friend class Engine;
  void safepoint_park(VMContext& ctx);
  void mark_roots();
  bool calling_thread_attached_locked() const;
  void attach_locked(VMContext& ctx, std::unique_lock<std::mutex>& lock);

  Module module_;
  Heap heap_;
  std::unique_ptr<MonitorTable> monitors_;
  std::int32_t thread_class_ = -1;

  // Thread registry + safepoint state.
  std::mutex park_mu_;
  std::condition_variable park_cv_;    // signalled when a thread parks
  std::condition_variable resume_cv_;  // signalled when the world resumes
  std::atomic<bool> stw_requested_{false};
  int num_running_ = 0;
  std::vector<VMContext*> contexts_;  // all attached threads
  std::uint32_t next_thread_id_ = 1;
  std::mutex world_mu_;  // serializes collections

  // Managed thread table.
  struct ManagedThread {
    std::thread thread;
    ObjRef arg = nullptr;        // root until the thread picks it up
    ObjRef handle = nullptr;     // root for the handle object
    std::atomic<bool> done{false};
    bool joined = false;
  };
  std::mutex threads_mu_;
  std::vector<std::unique_ptr<ManagedThread>> threads_;

  std::mutex pins_mu_;
  std::vector<ObjRef> pinned_;

  std::mutex main_ctx_mu_;
  std::unique_ptr<VMContext> main_ctx_;

  mutable std::mutex caches_mu_;
  std::map<std::string, std::unique_ptr<CodeCache>> caches_;
};

/// RAII pin.
class Pinned {
 public:
  Pinned(VirtualMachine& vm, ObjRef obj) : vm_(&vm), obj_(obj) {
    if (obj_ != nullptr) vm_->pin(obj_);
  }
  ~Pinned() {
    if (obj_ != nullptr) vm_->unpin(obj_);
  }
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;
  ObjRef get() const { return obj_; }

 private:
  VirtualMachine* vm_;
  ObjRef obj_;
};

}  // namespace hpcnet::vm
