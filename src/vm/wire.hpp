// The one byte codec of the VM's three binary formats (DESIGN.md §7):
// serialize_graph blobs ('HPC1'), code archives ('HPCA', serialize.cpp) and
// the network frames ('HPCN', net/protocol.cpp). Each format keeps its
// layout in its own .cpp; this header only moves integers and bytes.
//
// Integers are little-endian. The codec copies them as host memory, as
// serialize.cpp does whole primitive arrays, so it requires a little-endian
// host (asserted below) and every host reads and writes the same bytes.
// Strings are [u32 len][bytes]. Every read is bounds-checked against the
// buffer and throws the format's own error type, so truncated or bit-flipped
// input fails cleanly: SerializeError for graphs and archives,
// net::ProtocolError for frames.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace hpcnet::vm {

static_assert(std::endian::native == std::endian::little,
              "the wire formats are little-endian and copied as host memory");

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  const std::vector<char>& data() const { return buf_; }
  std::vector<char> take() { return std::move(buf_); }

 private:
  std::vector<char> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer; every
/// overrun throws `Error`.
template <typename Error>
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : p_(data), n_(size) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// A hostile length cannot drive a giant allocation: the bytes must be in
  /// the buffer before the string is built.
  std::string str() {
    const std::uint32_t len = u32();
    return std::string(take(len), len);
  }
  /// Borrows `n` bytes out of the buffer (no copy; valid while it lives).
  const char* bytes(std::size_t n) { return take(n); }
  /// Throws unless `n` items of `item_bytes` each are left. Decoders check a
  /// count this way before allocating for it, so a short buffer that claims
  /// a huge array is refused without first reserving its size.
  void expect(std::size_t n, std::size_t item_bytes) const {
    if (n > remaining() / item_bytes) throw Error("truncated input");
  }
  std::size_t remaining() const { return n_ - off_; }
  bool empty() const { return off_ == n_; }

 private:
  const char* take(std::size_t k) {
    if (remaining() < k) throw Error("truncated input");
    const char* at = p_ + off_;
    off_ += k;
    return at;
  }
  template <typename T>
  T get() {
    const char* b = take(sizeof(T));
    T v;
    std::memcpy(&v, b, sizeof v);
    return v;
  }
  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

}  // namespace hpcnet::vm
