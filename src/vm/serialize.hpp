// Metadata-driven binary serialization of managed object graphs — the
// substrate for the JGF "Serial" micro-benchmark (writing and reading a
// linked structure of objects). Handles arbitrary graphs including cycles
// via a back-reference table, like the CLI BinaryFormatter the paper's port
// exercised.
//
// The wire format is a private, versioned byte stream:
//   [u32 magic][u32 object count][records...]
// Each record: [u8 kind][type info][payload]; object references inside
// payloads are encoded as record indices (-1 = null). Both formats here go
// through the VM's one byte codec (vm/wire.hpp, shared with the network
// frames): little-endian integers and [u32 len][bytes] strings, with every
// read bounds-checked. serialize.cpp is the only place that knows either
// layout.
//
// The same module also carries the snapshot wire format (DESIGN.md §13): a
// separately-tagged archive section that round-trips CodeArchives — compiled
// regir::RCode bodies (instructions, constant pools, deopt and vector-loop
// side tables, the owned IL body) plus per-method tier/hotness records:
//   [u32 'HPCA'][u32 version][u64 fnv1a checksum of the remainder]
//   [u32 narchives][per archive: profile, records...]
// Deserialization checks structure: truncation, bad magic/version, checksum
// mismatches, out-of-range ids/registers/branch targets and side-table
// length mismatches all throw SerializeError, and restored IL bodies are
// re-verified against the local module. The RegIR itself is not type-checked:
// a structurally valid forged body (say, CHK_BOUNDS replaced by NOP_R)
// attaches and runs, so archives must come from a trusted source (ROADMAP:
// "Make archive loading sound").
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "vm/archive.hpp"
#include "vm/value.hpp"

namespace hpcnet::vm {

class Module;
class VirtualMachine;
struct VMContext;

class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes the graph rooted at `root` to a byte buffer.
std::vector<char> serialize_graph(VirtualMachine& vm, ObjRef root);

/// Reconstructs a graph from serialize_graph output; returns the new root.
/// Newly created objects are kept GC-reachable throughout. Throws
/// SerializeError on malformed input.
ObjRef deserialize_graph(VirtualMachine& vm, VMContext& ctx, const char* data,
                         std::size_t size);

/// Convenience wrappers over String blobs (what the intrinsics expose).
/// The blob is allocated through `ctx`'s TLAB so a metered job's serialized
/// output is charged to its tenant budget like any other allocation.
ObjRef serialize_to_string(VirtualMachine& vm, VMContext& ctx, ObjRef root);
ObjRef deserialize_from_string(VirtualMachine& vm, VMContext& ctx,
                               ObjRef blob);

// --- Code archives (snapshot warm start) ----------------------------------

/// Serializes one or more CodeArchives (one per engine profile) into the
/// 'HPCA' archive stream described above.
std::vector<char> serialize_archives(
    const std::vector<std::shared_ptr<const CodeArchive>>& archives);

/// Reconstructs CodeArchives from serialize_archives output. Structural
/// damage throws SerializeError. Each restored compiled body's IL is
/// re-verified against `module` (verify_body) — a body whose IL does not
/// verify locally is dropped to a counters-only record (tier clamped below
/// Optimizing), so stale archives degrade to cold compiles. The RegIR is
/// kept as stored: a forged body that passes the structural checks runs.
std::vector<std::shared_ptr<const CodeArchive>> deserialize_archives(
    Module& module, const char* data, std::size_t size);

/// Captures every warmed engine-profile cache of `vm` (code_cache_keys()
/// minus the reserved "<verify>" cache) and writes one archive stream to
/// `path`. The VM must be quiesced (see capture_archive).
void save_snapshot(VirtualMachine& vm, const std::string& path);

/// Reads an archive stream from `path` and attaches every archive in it to
/// `vm`'s same-named caches. Returns the aggregate restore/miss counts.
/// Throws SerializeError on malformed input or unreadable files.
ArchiveStats load_snapshot(VirtualMachine& vm, const std::string& path);

}  // namespace hpcnet::vm
