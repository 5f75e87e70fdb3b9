// The one invariant-violation policy shared by the runtime checkers
// (obs::InvariantChecker on the gossip edge stream, obs::TxInvariantChecker
// on the transaction stage stream). A checker derives from it and calls
// Violate() from its fact hooks; the reporter counts the violation (total,
// per check, and the eagerly wired `<metric>{check=...}` counter), then
// either hands it to a test handler or logs it under the checker's tag —
// the first kMaxLoggedViolations individually, then one "going quiet" line
// — and aborts when the checker is fatal (ETHSIM_PROVENANCE / ETHSIM_TXPROV
// = strict).
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "obs/diag.hpp"
#include "obs/metrics.hpp"

namespace ethsim::obs {

// How many individual violations get a log line before the reporter goes
// quiet (the counters keep the full tally either way).
inline constexpr std::uint64_t kMaxLoggedViolations = 16;

template <typename Check, std::size_t kCount,
          std::string_view (*kCheckName)(Check)>
class ViolationReporter {
 public:
  // `tag` names the log component, `metric` the labeled counter family.
  ViolationReporter(const char* tag, const char* metric, bool fatal)
      : tag_(tag), metric_(metric), fatal_(fatal) {}

  // Wires `<metric>{check=...}` counters (eagerly, one per check, so the
  // metrics stream shape is a function of config alone).
  void AttachMetrics(MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    for (std::size_t i = 0; i < kCount; ++i) {
      counters_[i] = metrics->GetCounter(LabeledName(
          metric_, {{"check", kCheckName(static_cast<Check>(i))}}));
    }
  }

  std::uint64_t total() const { return total_; }
  const std::array<std::uint64_t, kCount>& by_check() const {
    return by_check_;
  }

  // Test hook: replaces the default handler (LogWarn, abort when fatal).
  using Handler = std::function<void(Check, const std::string&)>;
  void set_handler(Handler handler) { handler_ = std::move(handler); }

 protected:
  void Violate(Check check, const std::string& detail) {
    const auto index = static_cast<std::size_t>(check);
    ++total_;
    ++by_check_[index];
    if (Counter* c = counters_[index]) c->Add();
    if (handler_) {
      handler_(check, detail);
      return;
    }
    const std::string name(kCheckName(check));
    if (total_ <= kMaxLoggedViolations) {
      LogWarn(tag_, "invariant %s violated: %s", name.c_str(), detail.c_str());
      if (total_ == kMaxLoggedViolations) {
        LogWarn(tag_,
                "further invariant violations will be counted but not logged");
      }
    }
    if (fatal_) {
      LogError(tag_, "aborting on invariant violation (%s): %s", name.c_str(),
               detail.c_str());
      std::abort();
    }
  }

 private:
  const char* tag_;
  const char* metric_;
  bool fatal_;
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kCount> by_check_{};
  std::array<Counter*, kCount> counters_{};
  Handler handler_;
};

}  // namespace ethsim::obs
