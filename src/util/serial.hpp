// Checksummed binary serialization for world snapshots (DESIGN.md §13).
//
// A snapshot is a little-endian byte stream framed as
//
//   magic[8]="MVFLOWCK"  u32 version  u32 flags  u64 payload_size
//   u32 payload_crc32    payload bytes...
//
// where the payload is a sequence of tagged sections
//
//   u32 tag  u64 size  bytes[size]
//
// Every read is bounds-checked and every failure throws SnapshotError with
// a message naming what was wrong (bad magic, unsupported version,
// truncation, CRC mismatch, section overrun) — a corrupted file must never
// crash or silently misparse. Files are written crash-safely: the bytes go
// to `<path>.tmp`, are fsync()ed, and the file is atomically renamed into
// place, so a kill mid-write leaves either the old snapshot or none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mvflow::util::serial {

/// Any structural problem with a snapshot: corruption, truncation, version
/// or magic mismatch, or (at restore time) a determinism-audit divergence.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) over a byte span.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0) noexcept;

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink.
class BufWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { raw_le(v); }
  void u32(std::uint32_t v) { raw_le(v); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i32(std::int32_t v) { raw_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { raw_le(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// Doubles are serialized as their IEEE-754 bit pattern: bit-exact
  /// round-trip, no text formatting involved.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  const std::vector<std::byte>& data() const noexcept { return buf_; }
  std::vector<std::byte> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void raw_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }
  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte span. Every
/// overrun throws SnapshotError naming `what` (the field being decoded).
class BufReader {
 public:
  BufReader(const std::byte* data, std::size_t len) : p_(data), end_(data + len) {}
  explicit BufReader(const std::vector<std::byte>& v)
      : BufReader(v.data(), v.size()) {}

  std::uint8_t u8(const char* what = "u8") { return take<std::uint8_t>(what); }
  std::uint16_t u16(const char* what = "u16") { return take<std::uint16_t>(what); }
  std::uint32_t u32(const char* what = "u32") { return take<std::uint32_t>(what); }
  std::uint64_t u64(const char* what = "u64") { return take<std::uint64_t>(what); }
  std::int32_t i32(const char* what = "i32") {
    return static_cast<std::int32_t>(take<std::uint32_t>(what));
  }
  std::int64_t i64(const char* what = "i64") {
    return static_cast<std::int64_t>(take<std::uint64_t>(what));
  }
  bool b(const char* what = "bool") { return u8(what) != 0; }
  double f64(const char* what = "f64") {
    const std::uint64_t bits = take<std::uint64_t>(what);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str(const char* what = "string") {
    const std::uint64_t n = u64(what);
    require(n, what);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  std::vector<std::byte> bytes(std::size_t n, const char* what = "bytes") {
    require(n, what);
    std::vector<std::byte> out(p_, p_ + n);
    p_ += n;
    return out;
  }
  void skip(std::size_t n, const char* what = "skip") {
    require(n, what);
    p_ += n;
  }

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  bool at_end() const noexcept { return p_ == end_; }

 private:
  template <typename T>
  T take(const char* what) {
    require(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p_[i]) << (8 * i)));
    }
    p_ += sizeof(T);
    return v;
  }
  void require(std::uint64_t n, const char* what) const {
    if (n > remaining()) {
      throw SnapshotError(std::string("snapshot truncated while reading ") +
                          what + " (need " + std::to_string(n) + " bytes, " +
                          std::to_string(remaining()) + " left)");
    }
  }
  const std::byte* p_;
  const std::byte* end_;
};

// ---------------------------------------------------------------------------
// Snapshot container (header + tagged sections)
// ---------------------------------------------------------------------------

inline constexpr char kMagic[8] = {'M', 'V', 'F', 'L', 'O', 'W', 'C', 'K'};
// v2: engine section switched to the canonical layout-free encoding
// (sorted live pending set, no zombie/layout leakage) and the config
// section gained the engine-mode fields (threads, scheduler).
// v3: the config section dropped the scheduler byte (one pending set), and
// the metrics section lost the two engine counters only the deleted
// schedulers used.
// v4: the config section gained the profiler-armed flag, and the trace
// section lost the recorder's latency accumulators (latency.* now derives
// from the profiler's records).
inline constexpr std::uint32_t kVersion = 4;
inline constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;

struct Section {
  std::uint32_t tag = 0;
  std::vector<std::byte> bytes;
};

/// Frame `sections` into a complete snapshot byte stream (header + CRC).
std::vector<std::byte> frame_sections(const std::vector<Section>& sections);

/// Parse and fully validate a snapshot byte stream: magic, version, declared
/// payload size vs. actual, CRC, and per-section bounds. Throws
/// SnapshotError with a specific diagnostic on any mismatch.
std::vector<Section> parse_sections(const std::vector<std::byte>& file);

/// Find a section by tag; nullptr when absent.
const Section* find_section(const std::vector<Section>& sections,
                            std::uint32_t tag) noexcept;

// ---------------------------------------------------------------------------
// Crash-safe file I/O
// ---------------------------------------------------------------------------

/// Write `data` to `path` crash-safely: write `<path>.tmp`, fsync it, then
/// atomically rename over `path` (and fsync the directory so the rename
/// itself is durable). Throws SnapshotError on any I/O failure, leaving the
/// previous `path` contents (if any) untouched.
void write_file_atomic(const std::string& path,
                       const std::vector<std::byte>& data);

/// Read a whole file; throws SnapshotError (with errno text) when the file
/// cannot be opened or read.
std::vector<std::byte> read_file(const std::string& path);

}  // namespace mvflow::util::serial
