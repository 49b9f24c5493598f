// Byte-oriented serialization used by the GridSAT wire protocol
// (subproblem transfer, clause-sharing batches, checkpoints).
//
// Format: little-endian fixed-width integers plus LEB128 varints for
// counts and literal streams, so a 100-MByte subproblem message (the
// paper's Figure-3 payload) stays compact.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gridsat::util {

/// Error thrown when a reader runs off the end of a buffer or sees a
/// malformed varint; the GridSAT master treats this as a failed transfer.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { raw_le(v); }
  void u32(std::uint32_t v) { raw_le(v); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i64(std::int64_t v) { raw_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    raw_le(bits);
  }

  /// Unsigned LEB128 varint.
  void var_u64(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// ZigZag-encoded signed varint (small magnitudes stay short).
  void var_i64(std::int64_t v) {
    var_u64((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
  }

  void str(std::string_view s) {
    var_u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  template <typename T>
  void raw_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Drop-in stand-in for ByteWriter that only counts bytes. Payload
/// encoders are templates over the writer type (`serialize_to<W>`), so
/// `wire_size()` runs the exact encoding logic against a counter and is
/// equal to `to_bytes().size()` by construction — the scheduler and the
/// simulated network both bill transfers off this number, so it must
/// never drift from the real encoder.
class ByteCounter {
 public:
  ByteCounter() = default;

  void u8(std::uint8_t) { ++size_; }
  void u16(std::uint16_t) { size_ += 2; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void i64(std::int64_t) { size_ += 8; }
  void f64(double) { size_ += 8; }

  void var_u64(std::uint64_t v) {
    ++size_;
    while (v >= 0x80) {
      ++size_;
      v >>= 7;
    }
  }

  void var_i64(std::int64_t v) {
    var_u64((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
  }

  void str(std::string_view s) {
    var_u64(s.size());
    size_ += s.size();
  }

  void bytes(std::span<const std::uint8_t> data) { size_ += data.size(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::uint8_t u8() { return need(1), data_[pos_++]; }
  std::uint16_t u16() { return raw_le<std::uint16_t>(); }
  std::uint32_t u32() { return raw_le<std::uint32_t>(); }
  std::uint64_t u64() { return raw_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(raw_le<std::uint64_t>()); }

  double f64() {
    const std::uint64_t bits = raw_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t var_u64() {
    std::uint64_t result = 0;
    int shift = 0;
    for (;;) {
      need(1);
      const std::uint8_t byte = data_[pos_++];
      if (shift == 63 && (byte & 0x7e) != 0) {
        throw DecodeError("varint overflows 64 bits");
      }
      result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return result;
      shift += 7;
      if (shift > 63) throw DecodeError("varint too long");
    }
  }

  std::int64_t var_i64() {
    const std::uint64_t z = var_u64();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string str() {
    const std::uint64_t n = var_u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) throw DecodeError("buffer underrun");
  }

  template <typename T>
  T raw_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace gridsat::util
