// Byte-buffer packing/unpacking for building send buffers.
//
// The BSBR/BSLC/BSBRC methods assemble heterogeneous send buffers (bounding
// rectangle info, run-length codes, packed pixels — Sec. 3.4 lines 9-12).
// PackBuffer/UnpackBuffer give a typed, bounds-checked view of that process.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace slspvr::img {

/// Typed error for malformed wire data: truncated buffers, counts that do
/// not fit the payload, rectangles outside the frame. Receivers must treat
/// it as a peer-supplied-garbage event, never as memory corruption — every
/// decoder bounds-checks before touching pixels.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sequential writer of trivially-copyable values into a byte buffer.
class PackBuffer {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    append(&value, sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> values) {
    append(values.data(), values.size_bytes());
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return data_.capacity(); }
  void clear() noexcept { data_.clear(); }
  /// Release the backing storage entirely (clear() keeps the capacity) —
  /// the arena shrink policy uses this when a frame-size drop makes the
  /// held capacity dead weight.
  void reset() noexcept { data_ = std::vector<std::byte>(); }
  void reserve(std::size_t n) { data_.reserve(n); }

 private:
  void append(const void* src, std::size_t n) {
    if (n == 0) return;  // an empty span's data() may be null: no memcpy
    const auto old = data_.size();
    data_.resize(old + n);
    std::memcpy(data_.data() + old, src, n);
  }

  std::vector<std::byte> data_;
};

/// Sequential, bounds-checked reader over a received byte buffer.
class UnpackBuffer {
 public:
  explicit UnpackBuffer(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T get() {
    T value;
    read(&value, sizeof(T));
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] std::vector<T> get_vector(std::size_t count) {
    // Bounds-check before allocating: a corrupted count field must fail
    // with DecodeError, not attempt a multi-gigabyte allocation.
    if (count > remaining() / sizeof(T)) {
      throw DecodeError("UnpackBuffer: short read (want " +
                        std::to_string(count * sizeof(T)) + " bytes, have " +
                        std::to_string(remaining()) + ")");
    }
    std::vector<T> values(count);
    read(values.data(), count * sizeof(T));
    return values;
  }

  /// Borrow `n` bytes in place (zero-copy) and advance the cursor. The view
  /// aliases the receive buffer — valid only while the message bytes live.
  /// The streaming decoders use this to blend straight off the wire; callers
  /// casting to a typed pointer must check alignment themselves (wire pixel
  /// payloads can land 2-mod-4 when an odd code count precedes them).
  [[nodiscard]] std::span<const std::byte> get_bytes(std::size_t n) {
    if (n > remaining()) {
      throw DecodeError("UnpackBuffer: short read (want " + std::to_string(n) +
                        ", have " + std::to_string(remaining()) + ")");
    }
    const std::span<const std::byte> view = data_.subspan(cursor_, n);
    cursor_ += n;
    return view;
  }

  /// Everything after the cursor, without consuming (decode prescans).
  [[nodiscard]] std::span<const std::byte> peek_remaining() const noexcept {
    return data_.subspan(cursor_);
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - cursor_; }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void read(void* dst, std::size_t n) {
    if (n > remaining()) {
      throw DecodeError("UnpackBuffer: short read (want " + std::to_string(n) +
                        ", have " + std::to_string(remaining()) + ")");
    }
    if (n == 0) return;  // dst may be an empty vector's null data()
    std::memcpy(dst, data_.data() + cursor_, n);
    cursor_ += n;
  }

  std::span<const std::byte> data_;
  std::size_t cursor_ = 0;
};

}  // namespace slspvr::img
