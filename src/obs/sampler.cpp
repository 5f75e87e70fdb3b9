#include "obs/sampler.hpp"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <utility>

#include "obs/columnar.hpp"

namespace ethsim::obs {

namespace {

constexpr char kMagic[8] = {'E', 'T', 'H', 'T', 'S', '1', '\0', '\0'};
constexpr std::uint32_t kFormatVersion = 1;

constexpr std::uint32_t kMaxNameLength = 4096;

// The sample columns in artifact order (the shared time column, then one
// value column per series), each with the section name its truncation
// diagnostic reports: the one list WriteBinary and ReadBinary both walk.
// `f` returns false to stop the walk.
template <typename Log, typename F>
bool ForEachColumn(Log& log, F&& f) {
  if (!f(log.t_us, "time column")) return false;
  for (auto& column : log.values)
    if (!f(column, "value columns")) return false;
  return true;
}

}  // namespace

std::size_t TimeSeriesLog::Find(std::string_view name) const {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  return npos;
}

bool TimeSeriesLog::Accumulate(const TimeSeriesLog& other) {
  if (interval_us != other.interval_us || names != other.names) return false;
  // Ragged lengths (members that sampled for different spans) are legal as
  // long as the shorter time column is a prefix of the longer; anything else
  // is a genuine shape mismatch and leaves the target untouched.
  const std::size_t common = std::min(t_us.size(), other.t_us.size());
  for (std::size_t i = 0; i < common; ++i)
    if (t_us[i] != other.t_us[i]) return false;
  for (std::size_t s = 0; s < values.size(); ++s) {
    for (std::size_t i = 0; i < common; ++i)
      values[s][i] += other.values[s][i];
    // The longer member's tail carries over verbatim: past the shorter run's
    // end the pool is just the surviving members' sum.
    values[s].insert(values[s].end(), other.values[s].begin() + common,
                     other.values[s].end());
  }
  t_us.insert(t_us.end(), other.t_us.begin() + common, other.t_us.end());
  return true;
}

bool TimeSeriesLog::WriteBinary(const std::string& path,
                                std::string* error) const {
  ColumnWriter out(path, error);
  if (!out.Header(kMagic, kFormatVersion)) return false;
  out.Scalar(static_cast<std::uint32_t>(names.size()));
  out.Scalar(static_cast<std::uint64_t>(t_us.size()));
  out.Scalar(interval_us);
  for (const std::string& name : names) {
    out.Scalar(static_cast<std::uint32_t>(name.size()));
    out.Bytes(name);
  }
  ForEachColumn(*this, [&out](const auto& column, const char*) {
    out.Column(column);
    return true;
  });
  return out.Close();
}

bool TimeSeriesLog::ReadBinary(const std::string& path, TimeSeriesLog* out,
                               std::string* error) {
  ColumnReader in(path, error);
  if (!in.Header(kMagic, kFormatVersion, "timeseries.bin")) return false;
  std::uint32_t series_count = 0;
  std::uint64_t sample_count = 0;
  if (!in.Scalar(&series_count) || !in.Scalar(&sample_count) ||
      !in.Scalar(&out->interval_us))
    return in.Fail("truncated header");
  // No reserve by the claimed count: the table grows only as names parse.
  out->names.clear();
  for (std::uint32_t s = 0; s < series_count; ++s) {
    std::uint32_t length = 0;
    std::string name;
    if (!in.Scalar(&length) || length > kMaxNameLength ||
        !in.String(&name, length))
      return in.Fail("truncated series name table");
    out->names.push_back(std::move(name));
  }
  out->values.assign(series_count, {});
  if (!ForEachColumn(*out, [&](auto& column, const char* section) {
        return in.Column(&column, sample_count) ||
               in.Fail(std::string("truncated ") + section);
      }))
    return false;
  return in.End();
}

StateSampler::StateSampler(std::int64_t interval_us)
    : interval_us_(interval_us) {
  log_.interval_us = interval_us;
}

void StateSampler::AddProbe(std::string name, Probe probe) {
  assert(log_.sample_count() == 0 &&
         "probe registration must precede the first sample");
  log_.names.push_back(std::move(name));
  log_.values.emplace_back();
  probes_.push_back(std::move(probe));
}

void StateSampler::SampleNow(std::int64_t now_us) {
  log_.t_us.push_back(now_us);
  for (std::size_t s = 0; s < probes_.size(); ++s)
    log_.values[s].push_back(probes_[s]());
}

std::vector<SeriesWatermark> ComputeWatermarks(const TimeSeriesLog& log) {
  std::vector<SeriesWatermark> marks;
  marks.reserve(log.series_count());
  for (std::size_t s = 0; s < log.series_count(); ++s) {
    SeriesWatermark mark;
    mark.series = log.names[s];
    for (std::size_t i = 0; i < log.sample_count(); ++i) {
      if (i == 0 || log.values[s][i] > mark.peak) {
        mark.peak = log.values[s][i];
        mark.at_us = log.t_us[i];
      }
    }
    marks.push_back(std::move(mark));
  }
  return marks;
}

std::vector<SeriesWatermark> StateSampler::Watermarks() const {
  return ComputeWatermarks(log_);
}

bool StateSampler::WriteArtifact(const std::string& dir,
                                 std::string* error) const {
  namespace fs = std::filesystem;
  return log_.WriteBinary((fs::path(dir) / "timeseries.bin").string(), error);
}

}  // namespace ethsim::obs
