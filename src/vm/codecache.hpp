// The VM-owned code cache behind the tiered execution pipeline (DESIGN.md
// §"Tiered execution"). One CodeCache per engine profile holds the per-method
// CodeEntry table: hotness counters, the method's current dispatch tier,
// published compiled bodies keyed by (method_id, tier), and a per-method
// compile latch.
//
// Locking discipline:
//   - entry() is lock-free once the entry's chunk exists (chunks are
//     allocated under mu_ and published with release stores; entries never
//     move, so readers index concurrently with growth).
//   - Entry::latch serializes verification and compilation of ONE method.
//     regir::compile runs under the method's latch only — never under a
//     cache-wide lock — so different methods compile concurrently.
//   - A thread must never hold one entry's latch while acquiring another's:
//     the inline pass verifies callees, so compile callers pre-verify the
//     transitive callee set (each under its own latch) before latching the
//     method being compiled. This is what makes mutually-inlining methods
//     deadlock-free.
//   - mu_ guards only chunk allocation and ownership of compiled bodies;
//     it is held for pointer pushes, never across verify/compile.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace hpcnet::vm {

namespace regir {
struct RCode;
}

class CodeCache {
 public:
  /// Per-method tiering state. Writers publish `code` (release) before
  /// raising `tier` to Optimizing (release); readers that load `tier` with
  /// acquire and see Optimizing may load `code` relaxed and rely on it
  /// non-null. Only the optimizing tier has a compiled artifact.
  struct Entry {
    std::atomic<std::uint32_t> hotness{0};  // invocations + capped back-edges
    std::atomic<std::uint8_t> tier{0};      // current dispatch Tier
    std::atomic<bool> verified{false};      // method passed IL verification
    std::atomic<const regir::RCode*> code{nullptr};
    /// Bumped by TieredEngine::request_deopt. Compiled frames capture the
    /// generation at entry and bail out (deopt) at the next back-edge
    /// safepoint once it no longer matches — the hook speculative
    /// optimizations use to invalidate running code.
    std::atomic<std::uint32_t> deopt_generation{0};
    /// Synchronized OSR/deopt event counts for this method (continuations
    /// report against their root method's entry). Telemetry keeps the same
    /// tallies in thread-local sinks, but those only merge safely once the
    /// recording threads quiesce; these atomics are pollable mid-run.
    std::atomic<std::uint32_t> osr_entries{0};
    std::atomic<std::uint32_t> deopts{0};
    std::mutex latch;  // serializes this method's verify/compile
  };

  CodeCache();  // out of line: members hold the still-incomplete RCode
  ~CodeCache();
  CodeCache(const CodeCache&) = delete;
  CodeCache& operator=(const CodeCache&) = delete;

  /// The entry for `method_id`; lock-free after first touch of its chunk.
  Entry& entry(std::int32_t method_id) {
    const auto id = static_cast<std::size_t>(method_id);
    Chunk* c = chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    if (c == nullptr) c = grow(id >> kChunkBits);
    return c->entries[id & (kChunkSize - 1)];
  }

  /// Retains a shared reference to a compiled body; the returned pointer
  /// stays valid for the cache's lifetime (entries publish it, never free
  /// it). Ownership is refcounted so the same immutable body can be held by
  /// many VMs' caches and by a CodeArchive (src/vm/archive.hpp) at once —
  /// the cache is now only the mutable per-VM tier-state layer over bodies
  /// that may outlive it.
  const regir::RCode* adopt(std::shared_ptr<const regir::RCode> code);

  /// The shared handle behind a pointer previously returned by adopt(), or
  /// null for a foreign pointer. This is how snapshot capture recovers
  /// refcounted ownership of published bodies (archive.cpp); rare-path, so
  /// it takes mu_.
  std::shared_ptr<const regir::RCode> shared_code(
      const regir::RCode* code) const;

  /// The OSR entry keyed (method body, loop-header pc). Bodies at distinct
  /// headers compile independently; continuations of a deopted continuation
  /// re-key by their own body pointer, so the map also backs re-OSR. Takes
  /// mu_ (OSR compiles are rare — once per hot loop header); the returned
  /// reference is stable for the cache's lifetime.
  Entry& osr_entry(const void* body, std::int32_t header_pc);

 private:
  static constexpr std::size_t kChunkBits = 9;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = 128;  // 65536 methods

  struct Chunk {
    Entry entries[kChunkSize];
  };

  Chunk* grow(std::size_t chunk_index);

  mutable std::mutex mu_;
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  // Keyed by raw pointer so shared_code() can recover the refcounted handle
  // for any published body (capture into a CodeArchive).
  std::map<const regir::RCode*, std::shared_ptr<const regir::RCode>> owned_;
  // Entries are address-stable (they hold atomics and a mutex), so the OSR
  // map stores them behind unique_ptr.
  std::map<std::pair<const void*, std::int32_t>, std::unique_ptr<Entry>>
      osr_entries_;
};

}  // namespace hpcnet::vm
