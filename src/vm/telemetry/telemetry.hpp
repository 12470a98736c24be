// VM telemetry: a low-overhead, always-compiled (cheaply-disabled)
// instrumentation layer threaded through the whole VM.
//
// Architecture (DESIGN.md §9):
//   - A process-global TelemetryHub owns everything. High-frequency data
//     (per-method invocation/bytecode counters, allocation and monitor
//     counters) goes to lock-free per-thread sinks: plain increments on the
//     calling thread, merged under a lock only at snapshot time.
//   - Low-frequency data (GC pauses, JIT compiles, safepoint stalls,
//     contended monitor acquires, trace spans) is recorded under a hub mutex;
//     these events are rare enough that the lock never shows up.
//   - Two exporters consume a Snapshot: print_summary (summary.hpp) renders
//     human-readable tables through support/reporter, write_chrome_trace
//     (trace_writer.hpp) emits a chrome://tracing JSON trace.
//
// Cost model: every hook starts with `if (!enabled())` on a relaxed atomic
// bool. With the CMake option HPCNET_TELEMETRY=OFF, enabled() is constexpr
// false and the hooks compile to nothing. With telemetry compiled in but not
// enabled (the default; set HPCNET_TELEMETRY=1 in the environment or call
// set_enabled(true)), the hot paths pay one predictable branch.
//
// Snapshots taken while managed threads are running may miss in-flight
// increments (counters are plain, not atomic); counts are exact once the
// threads whose work is being counted have been joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/stats.hpp"

#ifndef HPCNET_TELEMETRY_ENABLED
#define HPCNET_TELEMETRY_ENABLED 1
#endif

namespace hpcnet::vm::telemetry {

// ---------------------------------------------------------------------------
// Counter and pass identifiers.

enum class Counter : std::uint8_t {
  Allocations,       // heap objects allocated
  BytesAllocated,    // payload+header bytes allocated
  MonitorAcquires,   // Monitor.Enter calls (fast or contended)
  MonitorContended,  // acquires that had to park
  MonitorWaits,      // Monitor.Wait calls
  TlabRefills,       // TLAB refill slow paths (one lock trip per refill)
  TlabWasteBytes,    // bytes discarded at TLAB retirement (refill/detach)
  LargeAllocs,       // allocations routed to the large-object list
  TierUps,           // tiered-pipeline promotions (interp->baseline->opt)
  OsrEntries,        // on-stack replacements: frames that entered compiled
                     // code mid-loop at a back-edge safepoint
  Deopts,            // deoptimizations: compiled frames that bailed out at a
                     // back-edge safepoint to an interpreter continuation
                     // (request_deopt invalidated the method's assumptions)
  CardsScanned,      // dirty cards visited by minor-collection card scans
  PromotedBytes,     // nursery-survivor bytes promoted to the old generation
  SnapshotMethodsRestored,  // archive records attached warm (code/tier/
                            // hotness published into a cold cache entry)
  SnapshotMisses,           // archive records rejected at attach (id, name
                            // or verified-IL hash mismatch — stale archive)
  kCount,
};
constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
const char* counter_name(Counter c);

/// The optimizing pipeline's passes, in execution order (regcompile.cpp).
enum class JitPass : std::uint8_t {
  Inline,           // IL-level method inlining (pre-translation)
  Translate,        // stack IL -> register IR
  Optimize,         // copy propagation + DCE rounds
  Cse,              // common-subexpression elimination (EBB value numbering)
  BoundsCheckElim,  // counted-loop bounds-check hoisting
  VecLower,         // vector-loop lowering (VECLOOP superinstructions)
  Compact,          // dead-instruction squeeze + branch retarget
  Finalize,         // ref maps, arg pools, il->pc tables
  kCount,
};
constexpr std::size_t kNumJitPasses = static_cast<std::size_t>(JitPass::kCount);
const char* jit_pass_name(JitPass p);

// ---------------------------------------------------------------------------
// Snapshot model.

struct TraceEvent {
  std::string name;
  const char* cat = "";  // "gc", "jit", "kernel", "thread"
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;          // managed thread id (0 = unattached)
  std::string args_json;          // pre-rendered `"k":v` pairs, may be empty
};

constexpr std::size_t kNumTiers = 3;  // Tier::Interp..Tier::Optimizing

struct MethodProfile {
  std::int32_t method_id = -1;
  std::uint64_t invocations = 0;  // managed frames entered (all tiers)
  std::uint64_t bytecodes = 0;    // IL instructions retired (interp/baseline)
  std::int64_t jit_ns = 0;        // compile time, summed over engines
  std::uint64_t tier_invocations[kNumTiers] = {};  // frames entered per tier
};

/// Sweep facts summed over collections. How many collections ran is the
/// count() of Snapshot's pause histograms (one record_gc_pause each).
struct GcTelemetry {
  std::uint64_t bytes_allocated = 0;  // allocated in the windows before GCs
  std::uint64_t bytes_freed = 0;
  std::uint64_t objects_swept = 0;
  std::uint64_t heap_segments = 0;  // gauge: walkable segments after the
                                    // most recent sweep
  std::int64_t mark_ns = 0;   // total trace/mark phase time, all collections
  std::int64_t sweep_ns = 0;  // total sweep phase time, all collections
};

/// Vector-kernel execution stats (DESIGN.md §12): one row per VECLOOP kernel
/// that actually ran, with a histogram of its trip counts. Accumulated by
/// record_vec_loop (one hub-lock trip per guarded loop entry — a whole loop's
/// worth of work, so the lock never dominates). The histogram's count() is
/// the kernel's loop entries.
struct VecKernelTelemetry {
  std::string kernel;          // veckernels::kernel_name
  support::Histogram trips;    // iterations per VECLOOP entry
};

struct EngineJitTimes {
  std::string engine;
  std::int64_t pass_ns[kNumJitPasses] = {};
  std::int64_t compile_ns = 0;  // wall time of whole compiles (verify + IR)
  std::uint64_t methods_compiled = 0;
  std::int64_t pass_total_ns() const {
    std::int64_t t = 0;
    for (std::int64_t v : pass_ns) t += v;
    return t;
  }
};

struct Snapshot {
  std::vector<MethodProfile> methods;  // sorted by method_id
  std::uint64_t counters[kNumCounters] = {};
  support::Histogram gc_pause_ns;        // all collections (minor + major)
  support::Histogram minor_pause_ns;     // nursery collections only
  support::Histogram major_pause_ns;     // full collections only
                                         // (count() = collections of a kind)
  support::Histogram safepoint_stall_ns;
  support::Histogram monitor_wait_ns;  // contended-acquire wait times
  support::Histogram archive_load_ns;  // per attach_archive call, whole-load
  GcTelemetry gc;
  std::vector<EngineJitTimes> jit;     // one entry per engine that compiled
  std::vector<VecKernelTelemetry> vec_kernels;  // sorted by kernel name
  std::vector<TraceEvent> events;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const MethodProfile* method(std::int32_t id) const;
  const EngineJitTimes* engine_jit(const std::string& engine) const;
  std::int64_t jit_total_ns() const;
};

// ---------------------------------------------------------------------------
// Control.

#if HPCNET_TELEMETRY_ENABLED
namespace detail {
extern std::atomic<bool> g_enabled;
}
/// Fast-path gate: one relaxed atomic load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
#else
constexpr bool enabled() { return false; }
#endif

/// Runtime switch (also settable via the HPCNET_TELEMETRY env var: any value
/// other than empty/"0" enables collection at process start).
void set_enabled(bool on);

/// Clears all collected data (sinks stay registered). Call at quiescence.
void reset();

/// Merged view of everything collected so far.
Snapshot snapshot();

// ---------------------------------------------------------------------------
// Hot-path hooks: inline gate, out-of-line recording.

namespace detail {
void record_invocation_slow(std::int32_t method_id, std::uint64_t bytecodes,
                            std::uint8_t tier);
void count_slow(Counter c, std::uint64_t delta);
void record_allocation_slow(std::uint64_t bytes);
}  // namespace detail

/// One managed frame, counted at its exit (plus the bytecodes it retired,
/// for the IL tiers; a frame unwound by a native exception still counts).
/// `tier` is the numeric Tier the frame ran on (uint8 to keep this header
/// free of execution.hpp).
inline void record_invocation(std::int32_t method_id,
                              std::uint64_t bytecodes = 0,
                              std::uint8_t tier = 0) {
  if (enabled()) detail::record_invocation_slow(method_id, bytecodes, tier);
}

inline void count(Counter c, std::uint64_t delta = 1) {
  if (enabled()) detail::count_slow(c, delta);
}

inline void record_allocation(std::uint64_t bytes) {
  if (enabled()) detail::record_allocation_slow(bytes);
}

// ---------------------------------------------------------------------------
// Low-frequency hooks (gate checked inside; call cost irrelevant).

/// Attributes JIT pass/compile times recorded on this thread to `engine`
/// while in scope (the optimizing engine wraps regir::compile with this).
class CompileContext {
 public:
  explicit CompileContext(const char* engine_name);
  ~CompileContext();
  CompileContext(const CompileContext&) = delete;
  CompileContext& operator=(const CompileContext&) = delete;

 private:
  const char* prev_;
};

void record_jit_pass(std::int32_t method_id, JitPass pass, std::int64_t ns);
/// Whole-compile span; also emits a "jit" trace event named after the method.
void record_compile(std::int32_t method_id, const std::string& method_name,
                    std::int64_t begin_ns, std::int64_t end_ns);

/// A tiered-pipeline promotion: bumps Counter::TierUps and emits an instant
/// "tier" trace event. Called once per transition (the CAS/compile winner).
void record_tier_up(std::int32_t method_id, const std::string& method_name,
                    std::uint8_t from_tier, std::uint8_t to_tier);

/// An on-stack replacement: a running interpreter/baseline frame entered
/// compiled code at the loop header `il_pc`. Bumps Counter::OsrEntries and
/// emits an instant "tier" trace event.
void record_osr_entry(std::int32_t method_id, const std::string& method_name,
                      std::int32_t il_pc);

/// A deoptimization: a compiled frame bailed out at a back-edge safepoint to
/// an interpreter continuation at `il_pc`. Bumps Counter::Deopts and emits
/// an instant "tier" trace event.
void record_deopt(std::int32_t method_id, const std::string& method_name,
                  std::int32_t il_pc);

/// Sweep-side GC facts, recorded by the heap during the stop-the-world
/// window; folded into the pause recorded by record_gc_pause. `major`
/// selects which per-kind totals the facts land in; `mark_ns`/`sweep_ns`
/// are the collection's phase timings. `segments` is the post-sweep
/// walkable-segment count (kept as a gauge).
void record_gc_sweep(bool major, std::uint64_t bytes_allocated,
                     std::uint64_t bytes_freed, std::uint64_t objects_swept,
                     std::uint64_t segments, std::int64_t mark_ns,
                     std::int64_t sweep_ns);
/// Full stop-the-world pause (request -> world resumed). Lands in the
/// combined gc_pause_ns histogram and the per-kind minor/major one.
void record_gc_pause(bool major, std::int64_t begin_ns, std::int64_t end_ns);

/// Time a mutator spent parked at a safepoint for someone else's collection.
void record_safepoint_stall(std::int64_t ns);

/// A contended monitor acquire is starting (counted before the park so tests
/// and live dashboards can observe contention while the waiter is blocked).
void record_monitor_contention_begin();
/// ...and has finished, after `wait_ns` parked.
void record_monitor_contention_end(std::int64_t wait_ns);

/// One VECLOOP superinstruction entered with its guards passing: `trips`
/// scalar iterations ran as a single `kernel` call. Records the trip count
/// per kernel.
void record_vec_loop(const char* kernel, std::uint64_t trips);

/// One attach_archive call finished: `restored` records published warm,
/// `missed` rejected, `ns` the whole attach (verify + hash + publish).
/// Bumps the Snapshot* counters and records the load-time histogram.
void record_archive_load(std::uint64_t restored, std::uint64_t missed,
                         std::int64_t ns);

/// Generic trace span on the current thread ("kernel" runs, etc.).
void record_span(const char* cat, std::string name, std::int64_t begin_ns,
                 std::int64_t end_ns, std::string args_json = {});

/// Thread lifecycle (managed thread id <-> trace tid; emits a "thread" run
/// span at detach).
void on_thread_attach(std::uint32_t thread_id);
void on_thread_detach(std::uint32_t thread_id);

}  // namespace hpcnet::vm::telemetry
