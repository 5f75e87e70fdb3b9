// In-memory span log for the traced benchmark run. Each span is one public
// call the harness made into the simulator (or a group of such calls), with
// its wall-clock start/end and the span that enclosed it. Spans are only
// appended while tracing; the log is written out once, at the end.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int parent = -1;  // index into the log; -1 for a root span
  double start_s = 0;
  double end_s = 0;

  double duration_s() const { return end_s - start_s; }
};

class SpanLog {
 public:
  // A disabled log records nothing; Scope still times its interval.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  const std::vector<Span>& spans() const { return spans_; }

  // Self time: the span's duration minus the parts its direct children
  // cover (children never overlap: the harness is single-threaded).
  double SelfSeconds(std::size_t index) const {
    double self = spans_[index].duration_s();
    for (const Span& s : spans_)
      if (s.parent == static_cast<int>(index)) self -= s.duration_s();
    return self;
  }

  // RAII span: opens on construction, closes on destruction or Close().
  // Nested scopes become children of the innermost open scope.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), start_(NowSeconds()) {
      if (!log_.enabled_) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({std::move(name), log_.open_, start_, start_});
      log_.open_ = index_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { Close(); }

    // Ends the span and returns its duration in seconds; idempotent.
    double Close() {
      if (closed_) return seconds_;
      closed_ = true;
      const double end = NowSeconds();
      seconds_ = end - start_;
      if (index_ >= 0) {
        log_.spans_[index_].end_s = end;
        log_.open_ = log_.spans_[index_].parent;
      }
      return seconds_;
    }

   private:
    SpanLog& log_;
    double start_;
    int index_ = -1;
    bool closed_ = false;
    double seconds_ = 0;
  };

 private:
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

// Runs fn() inside a span called `name` and returns its result.
template <typename Fn>
auto Timed(SpanLog& log, const char* name, Fn&& fn) {
  SpanLog::Scope span(log, name);
  return fn();
}

}  // namespace perfbench
