#include "obs/columnar.hpp"

#include <cstring>
#include <utility>

namespace ethsim::obs {

namespace {

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

ColumnWriter::ColumnWriter(const std::string& path, std::string* error)
    : path_(path),
      error_(error),
      out_(path, std::ios::binary | std::ios::trunc) {}

bool ColumnWriter::Header(const char (&magic)[8], std::uint32_t version) {
  if (!out_) return SetError(error_, "cannot open " + path_ + " for writing");
  out_.write(magic, sizeof(magic));
  Scalar(version);
  return true;
}

bool ColumnWriter::Close() {
  out_.close();
  if (!out_.good()) return SetError(error_, "short write to " + path_);
  return true;
}

ColumnReader::ColumnReader(const std::string& path, std::string* error)
    : path_(path), error_(error), in_(path, std::ios::binary | std::ios::ate) {
  if (!in_) return;
  const std::streamoff size = in_.tellg();
  in_.seekg(0);
  if (size > 0 && in_) remaining_ = static_cast<std::uint64_t>(size);
}

bool ColumnReader::Header(const char (&magic)[8], std::uint32_t version,
                          std::string_view artifact) {
  if (!in_) return SetError(error_, "cannot open " + path_);
  char found[sizeof(magic)];
  if (!Take(found, sizeof(found)) ||
      std::memcmp(found, magic, sizeof(magic)) != 0) {
    return Fail("bad magic (not a " + std::string(artifact) + " artifact)");
  }
  std::uint32_t found_version = 0;
  if (!Scalar(&found_version)) return Fail("truncated header");
  if (found_version != version) {
    return Fail("unsupported format version " + std::to_string(found_version));
  }
  return true;
}

bool ColumnReader::Fail(std::string_view what) {
  return SetError(error_, path_ + ": " + std::string(what));
}

bool ColumnReader::End() {
  return remaining_ == 0 || Fail("trailing bytes after columns");
}

}  // namespace ethsim::obs
