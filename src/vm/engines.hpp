// Internal: the tiered execution pipeline. The three engines the paper
// compares (the interpreter and baseline instantiations of stackcore.cpp,
// and optimizing.cpp) are tier backends behind one TieredEngine; public code
// uses make_engine().
//
// Dispatch (tiered.cpp): every call funnels through TieredEngine::call(),
// which consults the method's CodeCache entry. Methods at Tier::Optimizing
// run their published register-IR body directly; colder methods bump the
// hotness counter, may promote at the call boundary, and run on their
// current tier's backend. A frame that gets hot while ALREADY running enters
// compiled code mid-loop via on-stack replacement (osr_code/osr_enter), and
// compiled frames can bail back to the interpreter through the deopt side
// table (request_deopt/deopt_bailout). In TierMode::Single the profile's
// tier runs unconditionally, preserving the paper's per-engine measurement
// mode.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "vm/codecache.hpp"
#include "vm/execution.hpp"

namespace hpcnet::vm {

class TieredEngine;

/// One execution tier. execute() runs `m` on the calling thread; `args`
/// points at m.num_args() Slots (copied into the frame; never mutated). On
/// managed exception the backend sets ctx.pending_exception and returns.
class TierBackend {
 public:
  virtual ~TierBackend() = default;
  virtual Slot execute(VMContext& ctx, const MethodDef& m,
                       const Slot* args) = 0;
};

/// The optimizing tier also dispatches directly on compiled bodies (the
/// hot-to-hot CALL_R fast path skips the CodeCache entry entirely).
class OptBackend : public TierBackend {
 public:
  virtual Slot run_compiled(VMContext& ctx, const regir::RCode& rc,
                            const Slot* args) = 0;
};

std::unique_ptr<TierBackend> make_interp_backend(VirtualMachine& vm,
                                                 TieredEngine& engine);
std::unique_ptr<TierBackend> make_baseline_backend(VirtualMachine& vm,
                                                   TieredEngine& engine);
std::unique_ptr<OptBackend> make_optimizing_backend(VirtualMachine& vm,
                                                    TieredEngine& engine);

/// The engine: owns one backend per tier and drives per-method tier
/// selection through the profile's CodeCache.
class TieredEngine final : public Engine {
 public:
  TieredEngine(VirtualMachine& vm, EngineProfile profile);
  ~TieredEngine() override;

  const EngineProfile& profile() const override { return profile_; }
  VirtualMachine& vm() { return vm_; }
  bool tiered() const { return tiered_; }

  /// Dispatches one call: straight into published optimized code when the
  /// method is hot, otherwise hotness bookkeeping + the current tier.
  Slot call(VMContext& ctx, std::int32_t method_id, const Slot* args);

  /// Frame-entry verification gate used by the IL tiers: one acquire load
  /// once the method is verified. Verification state is shared VM-wide (the
  /// "<verify>" cache), so concurrent engines never race on MethodDef.
  void ensure_verified(const MethodDef& m) {
    CodeCache::Entry& e = vcache_.entry(m.id);
    if (!e.verified.load(std::memory_order_acquire)) verify_slow(e, m);
  }

  /// Optimized code for a CALL_R site. Single mode compiles on demand and
  /// never returns null; tiered mode returns the published body or null
  /// (the caller routes the cold callee back through call()).
  const regir::RCode* opt_code_for_call(std::int32_t method_id);

  /// Frame-exit flush of taken-backward-branch counts from the IL tiers;
  /// may promote the method for its next invocation (loop-heavy methods
  /// tier up after one or two calls even if rarely invoked).
  void note_backedges(std::int32_t method_id, std::uint32_t taken);

  /// The method's current dispatch tier (telemetry, tests, benches).
  Tier method_tier(std::int32_t method_id) {
    return static_cast<Tier>(
        cache_.entry(method_id).tier.load(std::memory_order_acquire));
  }

  // --- On-stack replacement / deoptimization (DESIGN.md §10) ---------------

  /// Per-frame taken-back-edge count at which the IL tiers attempt OSR;
  /// 0 when this engine can never OSR (Single mode, or the policy caps
  /// below the optimizing tier).
  std::uint32_t osr_step() const { return osr_step_; }

  /// Compiled OSR continuation of `body` at loop header `header_pc` — the
  /// published one, or compiled on the spot (also promotes the method itself
  /// so future calls run fully compiled). `body` is the method the frame is
  /// executing: the module's method, or a continuation from an earlier
  /// OSR/deopt of this same invocation (re-OSR keys off that body pointer).
  /// Returns nullptr when the continuation cannot be built; callers then
  /// stop trying for the rest of the frame.
  const regir::RCode* osr_code(const MethodDef& body, std::int32_t header_pc);

  /// Enters a compiled OSR continuation with the live frame state (`args` =
  /// frame slots then operand stack, matching the continuation signature).
  /// The return value is the original invocation's result; a managed
  /// exception propagates via ctx.pending_exception as usual.
  Slot osr_enter(VMContext& ctx, const regir::RCode& rc,
                 std::int32_t header_pc, const Slot* args);

  /// Invalidates the method's compiled assumptions: bumps the entry's deopt
  /// generation (running compiled frames bail out at their next back-edge
  /// safepoint), drops the dispatch tier below Optimizing and zeroes hotness
  /// so the method re-profiles. The compiled body stays cached — a re-warm
  /// republishes it without recompiling.
  void request_deopt(std::int32_t method_id);

  /// Bails a compiled frame out at the back-edge safepoint `rpc`: maps the
  /// register file back to IL frame state through the deopt side table and
  /// finishes the invocation in an interpreter continuation. Returns the
  /// invocation's result (exceptions via ctx.pending_exception).
  Slot deopt_bailout(VMContext& ctx, const regir::RCode& rc, std::int32_t rpc,
                     const Slot* regs);

  /// The per-method cache entry (the optimizing backend snapshots
  /// deopt_generation at frame entry).
  CodeCache::Entry& code_entry(std::int32_t method_id) {
    return cache_.entry(method_id);
  }

 protected:
  Slot do_invoke(VMContext& ctx, const MethodDef& m, Slot* args) override;

 private:
  Tier maybe_promote(CodeCache::Entry& e, const MethodDef& m,
                     std::uint32_t hotness);
  const regir::RCode& compile_optimizing(CodeCache::Entry& e,
                                         const MethodDef& m);
  /// The compile step every optimized body shares: under `e`'s latch (the
  /// only latch held), compiles `body`, publishes the code, raises the tier
  /// to Optimizing and unlocks, then records the compile. Returns the code
  /// and the tier byte it replaced (Optimizing when another thread had
  /// already published).
  std::pair<const regir::RCode*, std::uint8_t> compile_and_publish(
      CodeCache::Entry& e, const MethodDef& body);
  void pre_verify_callees(const MethodDef& root);
  void verify_slow(CodeCache::Entry& e, const MethodDef& m);
  /// The continuation MethodDef for (body, header), built+verified once and
  /// cached for the VM's lifetime (nullptr is cached too: an unbuildable
  /// header is never retried). Shared by the OSR-up and deopt directions.
  std::shared_ptr<const MethodDef> continuation_for(const MethodDef& body,
                                                    std::int32_t header_pc);

  VirtualMachine& vm_;
  EngineProfile profile_;
  const bool tiered_;
  std::uint32_t osr_step_ = 0;
  CodeCache& cache_;   // this profile's compiled code + tier state
  CodeCache& vcache_;  // VM-shared verification latches/flags
  std::unique_ptr<TierBackend> interp_;
  std::unique_ptr<TierBackend> baseline_;
  std::unique_ptr<OptBackend> opt_;
  // OSR/deopt continuations are rare (once per hot loop header) and live as
  // long as the engine; a plain mutex-guarded map is plenty.
  std::mutex osr_mu_;
  std::map<std::pair<const void*, std::int32_t>,
           std::shared_ptr<const MethodDef>>
      continuations_;
};

}  // namespace hpcnet::vm
