// CodeArchive capture/attach and the verified-IL content hash that keys
// method identity across VM instances (see archive.hpp for the contract).
#include "vm/archive.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "support/timer.hpp"
#include "vm/codecache.hpp"
#include "vm/execution.hpp"
#include "vm/module.hpp"
#include "vm/regir.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/verifier.hpp"

namespace hpcnet::vm {
namespace {

constexpr std::uint8_t kTierBaseline =
    static_cast<std::uint8_t>(Tier::Baseline);
constexpr std::uint8_t kTierOpt = static_cast<std::uint8_t>(Tier::Optimizing);

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis

  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;  // FNV-1a 64 prime
    }
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void i32(std::int32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// Folded in for any out-of-range id: keeps the hash total on malformed
  /// references instead of faulting, and can't collide with a well-formed
  /// stream because well-formed hashing never emits this tag.
  void poison() { u64(0x9e3779b97f4a7c15ull); }
};

void hash_class(Fnv& f, const Module& mod, std::int32_t cls) {
  if (cls < 0 || static_cast<std::size_t>(cls) >= mod.class_count()) {
    f.poison();
    return;
  }
  const ClassDef& c = mod.klass(cls);
  f.str(c.name);
  f.i32(c.base);  // base chain ids feed exception matching in compiled code
  f.u64(c.fields.size());
  for (const FieldDef& fd : c.fields) {
    f.str(fd.name);
    f.u8(static_cast<std::uint8_t>(fd.type));
  }
  f.u64(c.static_fields.size());
  for (const FieldDef& fd : c.static_fields) {
    f.str(fd.name);
    f.u8(static_cast<std::uint8_t>(fd.type));
  }
}

/// One method's verified body plus every module datum its compiled form
/// bakes in by id: string pool entries, class layouts, handler regions.
/// Instr::type is included — it carries semantic element/operand types (the
/// builder sets it on array and conversion ops; the verifier fills the rest
/// deterministically), which is why callers hash only verified methods.
void hash_method(Fnv& f, const Module& mod, const MethodDef& m) {
  f.str(m.name);
  f.i32(m.id);
  f.u64(m.sig.params.size());
  for (ValType t : m.sig.params) f.u8(static_cast<std::uint8_t>(t));
  f.u8(static_cast<std::uint8_t>(m.sig.ret));
  f.u64(m.locals.size());
  for (ValType t : m.locals) f.u8(static_cast<std::uint8_t>(t));
  f.u64(m.code.size());
  for (const Instr& in : m.code) {
    f.u8(static_cast<std::uint8_t>(in.op));
    f.u8(static_cast<std::uint8_t>(in.type));
    f.i32(in.a);
    f.i32(in.b);
    f.u64(static_cast<std::uint64_t>(in.imm.i64));
    switch (in.op) {
      case Op::LDSTR:
        if (in.a < 0 ||
            static_cast<std::size_t>(in.a) >= mod.string_count()) {
          f.poison();
        } else {
          f.str(mod.string_at(in.a));
        }
        break;
      case Op::NEWOBJ:
        hash_class(f, mod, in.a);
        break;
      case Op::LDFLD:
      case Op::STFLD:
      case Op::LDSFLD:
      case Op::STSFLD:
        hash_class(f, mod, in.b);
        break;
      default:
        break;
    }
  }
  f.u64(m.handlers.size());
  for (const ExHandler& h : m.handlers) {
    f.u8(static_cast<std::uint8_t>(h.kind));
    f.i32(h.try_begin);
    f.i32(h.try_end);
    f.i32(h.handler);
    f.i32(h.catch_class);
    if (h.kind == HandlerKind::Catch) hash_class(f, mod, h.catch_class);
  }
}

/// The method plus its transitive CALL targets, BFS discovery order (the
/// same order for the same IL on both the capture and attach side).
/// Out-of-range callees are skipped here; hash_method poisons them.
std::vector<std::int32_t> call_closure(const Module& mod, std::int32_t root) {
  std::vector<std::int32_t> order{root};
  std::vector<bool> seen(mod.method_count(), false);
  seen[static_cast<std::size_t>(root)] = true;
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const MethodDef& m = mod.method(order[qi]);
    for (const Instr& in : m.code) {
      if (in.op != Op::CALL) continue;
      if (in.a < 0 || static_cast<std::size_t>(in.a) >= mod.method_count()) {
        continue;
      }
      if (!seen[static_cast<std::size_t>(in.a)]) {
        seen[static_cast<std::size_t>(in.a)] = true;
        order.push_back(in.a);
      }
    }
  }
  return order;
}

/// Mirror of TieredEngine::ensure_verified/verify_slow against the VM-shared
/// "<verify>" cache: per-method latch, double-checked flag, release publish.
/// Safe to run while engines execute — they take the same latch.
void verify_under_latch(VirtualMachine& vm, std::int32_t method_id) {
  CodeCache::Entry& e = vm.code_cache("<verify>").entry(method_id);
  if (e.verified.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> latch(e.latch);
  if (e.verified.load(std::memory_order_relaxed)) return;
  verify(vm.module(), method_id);
  e.verified.store(true, std::memory_order_release);
}

/// Verifies `root` and its transitive CALL closure (each under its own
/// latch, never two at once — the codecache.hpp deadlock rule). Returns
/// false if any method in the closure fails verification.
bool verify_closure(VirtualMachine& vm, std::int32_t root) {
  try {
    for (std::int32_t id : call_closure(vm.module(), root)) {
      verify_under_latch(vm, id);
    }
  } catch (const VerifyError&) {
    return false;
  }
  return true;
}

}  // namespace

std::uint64_t il_content_hash(const Module& module, std::int32_t method_id) {
  Fnv f;
  if (method_id < 0 ||
      static_cast<std::size_t>(method_id) >= module.method_count()) {
    f.poison();
    return f.h;
  }
  for (std::int32_t id : call_closure(module, method_id)) {
    hash_method(f, module, module.method(id));
  }
  return f.h;
}

std::shared_ptr<const CodeArchive> capture_archive(
    VirtualMachine& vm, const std::string& profile_name) {
  CodeCache& cache = vm.code_cache(profile_name);
  const Module& mod = vm.module();
  std::vector<CodeArchive::MethodRecord> records;
  for (std::size_t i = 0; i < mod.method_count(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    CodeCache::Entry& e = cache.entry(id);
    const std::uint8_t tier = e.tier.load(std::memory_order_acquire);
    const std::uint32_t hotness = e.hotness.load(std::memory_order_relaxed);
    const regir::RCode* raw = e.code.load(std::memory_order_acquire);
    if (tier == 0 && hotness == 0 && raw == nullptr) continue;  // cold
    CodeArchive::MethodRecord rec;
    rec.method_id = id;
    rec.name = mod.method(id).name;
    rec.code = raw != nullptr ? cache.shared_code(raw) : nullptr;
    // A published body implies adopt() registered it; a miss would mean a
    // foreign pointer — snapshot the counters but not the code.
    rec.tier = rec.code != nullptr ? tier : std::min(tier, kTierBaseline);
    rec.hotness = hotness;
    // The hash is defined over verified IL; warm methods are verified
    // already, but cold transitive callees of a warm method may not be.
    if (!verify_closure(vm, id)) continue;
    rec.il_hash = il_content_hash(mod, id);
    records.push_back(std::move(rec));
  }
  return std::make_shared<const CodeArchive>(profile_name, std::move(records));
}

ArchiveStats attach_archive(VirtualMachine& vm,
                            const std::shared_ptr<const CodeArchive>& archive) {
  const std::int64_t t0 = support::now_ns();
  ArchiveStats stats;
  if (archive == nullptr) return stats;
  CodeCache& cache = vm.code_cache(archive->profile());
  const Module& mod = vm.module();
  for (const CodeArchive::MethodRecord& rec : archive->records()) {
    if (rec.method_id < 0 ||
        static_cast<std::size_t>(rec.method_id) >= mod.method_count() ||
        mod.method(rec.method_id).name != rec.name ||
        !verify_closure(vm, rec.method_id) ||
        il_content_hash(mod, rec.method_id) != rec.il_hash) {
      ++stats.missed;  // stays cold; the engine compiles it normally
      continue;
    }
    CodeCache::Entry& e = cache.entry(rec.method_id);
    std::lock_guard<std::mutex> latch(e.latch);
    // Only cold entries are written: a VM that already ran (or raced another
    // attach) keeps its own state. Restored methods therefore always start
    // exactly at the snapshot.
    if (e.code.load(std::memory_order_relaxed) != nullptr ||
        e.tier.load(std::memory_order_relaxed) != 0 ||
        e.hotness.load(std::memory_order_relaxed) != 0) {
      continue;
    }
    std::uint8_t tier = rec.tier;
    if (rec.code != nullptr) {
      const regir::RCode* raw = cache.adopt(rec.code);  // refcount, not copy
      e.code.store(raw, std::memory_order_release);
    } else if (tier > kTierBaseline) {
      tier = kTierBaseline;  // never dispatch to Optimizing without a body
    }
    e.hotness.store(rec.hotness, std::memory_order_relaxed);
    if (tier > kTierOpt) tier = kTierOpt;
    // Published after code, release — the same order compile_optimizing
    // uses, so the call() fast path's acquire/relaxed pairing holds.
    e.tier.store(tier, std::memory_order_release);
    ++stats.restored;
  }
  telemetry::record_archive_load(stats.restored, stats.missed,
                                 support::now_ns() - t0);
  return stats;
}

}  // namespace hpcnet::vm
