// The byte layer shared by the three recorder artifacts: provenance.bin
// (ETHPROV1), txprov.bin (ETHTX1) and timeseries.bin (ETHTS1). Each format
// is an 8-byte magic, a u32 version, format-specific header scalars, then
// fixed-width columns, all raw little-endian with no padding. The formats
// own their layouts (each lists its columns once, in a ForEachColumn-style
// visitor that both WriteBinary and ReadBinary use); this module owns how
// the bytes move and the reader's size-before-allocate rule.
//
// ColumnReader learns the file size once at open. Every scalar, string and
// column read first checks the claimed count against the bytes that remain
// and fails without allocating when they cannot cover it, so a header that
// claims 2^58 rows reads as "truncated", never as std::bad_alloc. End()
// enforces exact size: nothing may trail the last column.
//
// Both classes report errors through the caller's `std::string* error`
// (nullable), with the messages every format shares: "cannot open",
// "bad magic", "unsupported format version", "truncated header",
// "trailing bytes", "short write".
#pragma once

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ethsim::obs {

static_assert(std::endian::native == std::endian::little,
              "columnar artifacts are written as raw little-endian bytes");

class ColumnWriter {
 public:
  // Truncates/creates `path`. Errors surface from Header() and Close().
  ColumnWriter(const std::string& path, std::string* error);

  // Writes magic + version; false ("cannot open ... for writing") when the
  // file could not be created.
  bool Header(const char (&magic)[8], std::uint32_t version);

  template <typename T>
  void Scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  template <typename T>
  void Column(const std::vector<T>& column) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(column.data()),
               static_cast<std::streamsize>(column.size() * sizeof(T)));
  }
  void Bytes(std::string_view bytes) {
    out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Flushes and closes; false ("short write to ...") when any write failed.
  bool Close();

 private:
  std::string path_;
  std::string* error_;
  std::ofstream out_;
};

class ColumnReader {
 public:
  ColumnReader(const std::string& path, std::string* error);

  // Opens the file and checks magic and version; false with "cannot open",
  // "bad magic (not a <artifact> artifact)", "truncated header" or
  // "unsupported format version N".
  bool Header(const char (&magic)[8], std::uint32_t version,
              std::string_view artifact);

  template <typename T>
  bool Scalar(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Take(value, 1);
  }
  // Reads `count` elements into `column`; false, without allocating, when
  // fewer than count * sizeof(T) bytes remain.
  template <typename T>
  bool Column(std::vector<T>* column, std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining_ / sizeof(T)) return false;
    column->resize(static_cast<std::size_t>(count));
    return Take(column->data(), count);
  }
  bool String(std::string* value, std::uint64_t length) {
    if (length > remaining_) return false;
    value->resize(static_cast<std::size_t>(length));
    return Take(value->data(), length);
  }

  // Sets the error to "<path>: <what>" and returns false.
  bool Fail(std::string_view what);
  // True when every byte was consumed; else Fail("trailing bytes ...").
  bool End();

 private:
  template <typename T>
  bool Take(T* data, std::uint64_t count) {
    const std::uint64_t bytes = count * sizeof(T);
    if (bytes > remaining_) return false;
    if (bytes == 0) return true;
    in_.read(reinterpret_cast<char*>(data),
             static_cast<std::streamsize>(bytes));
    remaining_ -= bytes;
    return in_.good();
  }

  std::string path_;
  std::string* error_;
  std::ifstream in_;
  std::uint64_t remaining_ = 0;
};

}  // namespace ethsim::obs
