// Byte-level mutation coverage for the three recorder artifacts
// (provenance.bin / ETHPROV1, txprov.bin / ETHTX1, timeseries.bin / ETHTS1).
// Each test writes a small real log, then feeds ReadBinary every truncation
// point, every header bit flip, inflated header counts (2^32-1, 2^58,
// 2^64-1), one trailing byte and a fixed-seed scatter of column bit flips.
// Every read must return (no throw, no abort, no allocation of a claimed
// size); every truncated, inflated or trailing case must fail with the
// diagnostic that names it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "obs/provenance_dag.hpp"
#include "obs/sampler.hpp"
#include "obs/tx_provenance.hpp"

namespace ethsim::obs {
namespace {

using Blob = std::vector<char>;
using ReadFn = std::function<bool(const std::string&, std::string*)>;

enum class FieldRole { kMagic, kVersion, kCount, kFree };

struct HeaderField {
  std::size_t offset;
  std::size_t width;  // bytes
  FieldRole role;
  // For kCount: the diagnostic an inflated value must produce.
  const char* inflated_error = nullptr;
};

struct Artifact {
  std::string name;
  Blob blob;
  ReadFn read;
  std::vector<HeaderField> header;
  // The diagnostic a file cut to `length` bytes must produce.
  std::function<const char*(std::size_t length)> truncation_error;
};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ethsim_mutation_test_" + name))
      .string();
}

Blob ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Blob((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
}

// Writes `bytes` to the artifact's scratch file and reads it back.
bool ReadMutated(const Artifact& a, const Blob& bytes, std::string* error) {
  const std::string path = TempPath(a.name + ".mutated");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  error->clear();
  return a.read(path, error);
}

std::uint64_t LoadField(const Blob& blob, const HeaderField& f) {
  std::uint64_t value = 0;
  std::memcpy(&value, blob.data() + f.offset, f.width);
  return value;
}

void StoreField(Blob& blob, const HeaderField& f, std::uint64_t value) {
  std::memcpy(blob.data() + f.offset, &value, f.width);
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

void CheckMutations(const Artifact& a) {
  std::string error;
  ASSERT_TRUE(ReadMutated(a, a.blob, &error)) << a.name << ": " << error;

  for (std::size_t length = 0; length < a.blob.size(); ++length) {
    const Blob cut(a.blob.begin(),
                   a.blob.begin() + static_cast<std::ptrdiff_t>(length));
    EXPECT_FALSE(ReadMutated(a, cut, &error)) << a.name << " cut " << length;
    EXPECT_TRUE(Contains(error, a.truncation_error(length)))
        << a.name << " cut " << length << ": " << error;
  }

  for (const HeaderField& field : a.header) {
    for (std::size_t bit = 0; bit < field.width * 8; ++bit) {
      Blob flipped = a.blob;
      flipped[field.offset + bit / 8] ^= static_cast<char>(1u << (bit % 8));
      const bool ok = ReadMutated(a, flipped, &error);
      const std::string where =
          a.name + " flip @" + std::to_string(field.offset) + " bit " +
          std::to_string(bit) + ": " + error;
      switch (field.role) {
        case FieldRole::kMagic:
          EXPECT_FALSE(ok) << where;
          EXPECT_TRUE(Contains(error, "bad magic")) << where;
          break;
        case FieldRole::kVersion:
          EXPECT_FALSE(ok) << where;
          EXPECT_TRUE(Contains(error, "unsupported format version")) << where;
          break;
        case FieldRole::kCount:
          // A larger count overruns the file, a smaller one leaves bytes.
          EXPECT_FALSE(ok) << where;
          EXPECT_TRUE(LoadField(flipped, field) > LoadField(a.blob, field)
                          ? Contains(error, "truncated")
                          : Contains(error, "trailing bytes"))
              << where;
          break;
        case FieldRole::kFree:
          EXPECT_TRUE(ok) << where;
          break;
      }
    }
  }

  for (const HeaderField& field : a.header) {
    if (field.role != FieldRole::kCount) continue;
    for (const std::uint64_t claim : {std::uint64_t{0xffffffffu},
                                      std::uint64_t{1} << 58,
                                      ~std::uint64_t{0}}) {
      if (field.width < 8 && claim > 0xffffffffu) continue;
      Blob inflated = a.blob;
      StoreField(inflated, field, claim);
      EXPECT_FALSE(ReadMutated(a, inflated, &error))
          << a.name << " count @" << field.offset << " = " << claim;
      EXPECT_TRUE(Contains(error, field.inflated_error))
          << a.name << " count @" << field.offset << " = " << claim << ": "
          << error;
    }
  }

  Blob trailing = a.blob;
  trailing.push_back('\0');
  EXPECT_FALSE(ReadMutated(a, trailing, &error)) << a.name;
  EXPECT_TRUE(Contains(error, "trailing bytes")) << a.name << ": " << error;

  // Column bytes are data: a flip there may still read back, but it must
  // never crash, and a rejection must name a known defect.
  std::mt19937_64 rng{1};
  for (int i = 0; i < 256; ++i) {
    Blob flipped = a.blob;
    const std::size_t bit = rng() % (flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    if (!ReadMutated(a, flipped, &error)) {
      EXPECT_TRUE(Contains(error, "bad magic") ||
                  Contains(error, "unsupported format version") ||
                  Contains(error, "truncated") ||
                  Contains(error, "trailing bytes"))
          << a.name << " flip bit " << bit << ": " << error;
    }
  }
  std::filesystem::remove(TempPath(a.name + ".mutated"));
}

Hash32 H(std::uint8_t tag) {
  Hash32 h;
  h.bytes[0] = tag;
  return h;
}

TEST(ArtifactMutation, ProvenanceLog) {
  ProvenanceRecorder recorder{ProvenanceConfig{}};
  recorder.checker().set_handler([](InvariantCheck, const std::string&) {});
  for (std::uint32_t host = 0; host < 3; ++host)
    recorder.RegisterHost(host, static_cast<std::uint8_t>(host));
  recorder.RecordOrigin(0, H(1), H(9), 100, 0);
  recorder.StageBlockEdge(0, 1, EdgeKind::kNewBlock, H(1), 100, nullptr, 500,
                          10);
  recorder.FinalizeScheduled(0, 1, 1000);
  recorder.StageBlockEdge(0, 2, EdgeKind::kAnnouncement, H(1), 100, nullptr,
                          40, 20);
  recorder.FinalizeDropped(0, 2, EdgeDrop::kRandomLoss);
  recorder.StageTxEdge(1, 2, 3, 300, 1500);
  recorder.FinalizeScheduled(1, 2, 2500);
  recorder.SetEndTime(60'000'000);

  Artifact a;
  a.name = "provenance";
  const std::string path = TempPath("provenance.bin");
  std::string error;
  ASSERT_TRUE(recorder.Finish().WriteBinary(path, &error)) << error;
  a.blob = ReadFile(path);
  std::filesystem::remove(path);
  a.read = [](const std::string& p, std::string* e) {
    ProvenanceLog log;
    return ProvenanceLog::ReadBinary(p, &log, e);
  };
  a.header = {{0, 8, FieldRole::kMagic},
              {8, 4, FieldRole::kVersion},
              {12, 4, FieldRole::kCount, "truncated column data"},
              {16, 8, FieldRole::kCount, "truncated column data"},
              {24, 8, FieldRole::kFree}};
  a.truncation_error = [](std::size_t length) {
    return length < 8    ? "bad magic"
           : length < 32 ? "truncated header"
                         : "truncated column data";
  };
  CheckMutations(a);
}

TEST(ArtifactMutation, TxProvLog) {
  TxProvConfig cfg;
  cfg.confirmation_depths = {0, 2};
  TxProvRecorder recorder{cfg};
  recorder.checker().set_handler([](TxInvariant, const std::string&) {});
  for (std::uint32_t host = 0; host < 3; ++host)
    recorder.RegisterHost(host, static_cast<std::uint8_t>(host));
  recorder.MarkAnchor(0);
  recorder.RecordSubmitted(H(1), 100, 0, 0, 20, 0);
  recorder.RecordPoolOutcome(0, H(1), 110, TxPoolOutcome::kPending, 20);
  recorder.RecordSelected(0, H(1), 200, 0, H(7), 5);
  recorder.RecordIncluded(0, H(1), 300, H(7), 5);
  recorder.AdvanceHead(0, 7, 400);
  recorder.SetEndTime(1'000'000);

  Artifact a;
  a.name = "txprov";
  const std::string path = TempPath("txprov.bin");
  std::string error;
  ASSERT_TRUE(recorder.Finish().WriteBinary(path, &error)) << error;
  a.blob = ReadFile(path);
  std::filesystem::remove(path);
  a.read = [](const std::string& p, std::string* e) {
    TxProvLog log;
    return TxProvLog::ReadBinary(p, &log, e);
  };
  a.header = {{0, 8, FieldRole::kMagic},
              {8, 4, FieldRole::kVersion},
              {12, 4, FieldRole::kCount, "truncated column data"},
              {16, 4, FieldRole::kCount, "truncated column data"},
              {20, 8, FieldRole::kCount, "truncated column data"},
              {28, 8, FieldRole::kFree}};
  a.truncation_error = [](std::size_t length) {
    return length < 8    ? "bad magic"
           : length < 36 ? "truncated header"
                         : "truncated column data";
  };
  CheckMutations(a);
}

TEST(ArtifactMutation, TimeSeriesLog) {
  StateSampler sampler{250'000};
  std::int64_t depth = 0;
  sampler.AddProbe("queue.depth", [depth]() mutable { return depth += 3; });
  sampler.AddProbe("txpool.size", [] { return std::int64_t{7}; });
  for (std::int64_t t = 0; t <= 1'000'000; t += 250'000) sampler.SampleNow(t);

  Artifact a;
  a.name = "timeseries";
  const std::string path = TempPath("timeseries.bin");
  std::string error;
  ASSERT_TRUE(sampler.log().WriteBinary(path, &error)) << error;
  a.blob = ReadFile(path);
  std::filesystem::remove(path);
  a.read = [](const std::string& p, std::string* e) {
    TimeSeriesLog log;
    return TimeSeriesLog::ReadBinary(p, &log, e);
  };
  a.header = {{0, 8, FieldRole::kMagic},
              {8, 4, FieldRole::kVersion},
              {12, 4, FieldRole::kCount, "truncated series name table"},
              {16, 8, FieldRole::kCount, "truncated time column"},
              {24, 8, FieldRole::kFree}};
  std::size_t names_end = 32;
  for (const std::string& name : sampler.log().names)
    names_end += 4 + name.size();
  const std::size_t time_end = names_end + 8 * sampler.sample_count();
  a.truncation_error = [names_end, time_end](std::size_t length) {
    return length < 8           ? "bad magic"
           : length < 32        ? "truncated header"
           : length < names_end ? "truncated series name table"
           : length < time_end  ? "truncated time column"
                                : "truncated value columns";
  };
  CheckMutations(a);
}

}  // namespace
}  // namespace ethsim::obs
