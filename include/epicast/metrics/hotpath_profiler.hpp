// epicast — always-on phase counters for the protocol hot path.
//
// Every perf PR needs attribution: which phase of a scenario got faster or
// slower. The profiler keeps one {ops, ns} pair per hot phase. Op counts
// are always maintained (one increment per phase entry — cheap enough for
// production runs and aggregated into ScenarioResult); nanosecond timing
// costs two steady_clock reads per phase entry, so it is off by default and
// enabled per scenario (ScenarioConfig::profile_hotpath / EPICAST_PROFILE=1
// or by bench_hotpath).
//
// Phases nest (a dispatch includes the forwards and cache ops it triggers),
// so per-phase ns are INCLUSIVE of nested phases; ops are exact.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace epicast {

enum class HotPhase : unsigned {
  Dispatch = 0,     ///< overlay event reception (dedup, deliver, hand-off)
  Forward,          ///< reverse-path fan-out of one event
  Control,          ///< subscription forwarding machinery
  GossipRound,      ///< one timer-driven gossip round
  GossipHandle,     ///< one received gossip message (digest/request/reply)
  CacheOp,          ///< one EventCache operation (insert/get/find/match)
  TransportOverlay, ///< one overlay send (observers, link model, schedule)
  TransportDirect,  ///< one out-of-band send
};
inline constexpr std::size_t kHotPhaseCount = 8;

[[nodiscard]] constexpr const char* to_string(HotPhase p) {
  switch (p) {
    case HotPhase::Dispatch: return "dispatch";
    case HotPhase::Forward: return "forward";
    case HotPhase::Control: return "control";
    case HotPhase::GossipRound: return "gossip_round";
    case HotPhase::GossipHandle: return "gossip_handle";
    case HotPhase::CacheOp: return "cache_op";
    case HotPhase::TransportOverlay: return "transport_overlay";
    case HotPhase::TransportDirect: return "transport_direct";
  }
  return "?";
}

class HotpathProfiler {
 public:
  struct PhaseTotals {
    std::uint64_t ops = 0;
    std::uint64_t ns = 0;  ///< 0 unless timing was enabled
  };

  /// Copyable aggregate for ScenarioResult.
  struct Snapshot {
    std::array<PhaseTotals, kHotPhaseCount> phase{};
    bool timed = false;

    [[nodiscard]] const PhaseTotals& operator[](HotPhase p) const {
      return phase[static_cast<std::size_t>(p)];
    }
  };

  /// Turns nanosecond timing on/off; op counting is unconditional.
  void enable_timing(bool on) { timed_ = on; }

  /// Counts one entry of `p` without timing (for leaf ops where even a
  /// branch on timed_ is unwanted).
  void count(HotPhase p) { ++phase_[static_cast<std::size_t>(p)].ops; }

  [[nodiscard]] PhaseTotals& totals(HotPhase p) {
    return phase_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    s.phase = phase_;
    s.timed = timed_;
    return s;
  }

  /// RAII phase marker: one op count always; enter/exit timestamps only
  /// when timing is enabled.
  class Scope {
   public:
    Scope(HotpathProfiler& prof, HotPhase p)
        : totals_(&prof.phase_[static_cast<std::size_t>(p)]),
          timed_(prof.timed_) {
      ++totals_->ops;
      if (timed_) start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (timed_) {
        totals_->ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTotals* totals_;
    bool timed_;
    std::chrono::steady_clock::time_point start_{};
  };

  /// As Scope, but tolerates a null profiler (components wired with an
  /// optional pointer, e.g. EventCache).
  class MaybeScope {
   public:
    MaybeScope(HotpathProfiler* prof, HotPhase p) {
      if (prof != nullptr) {
        totals_ = &prof->phase_[static_cast<std::size_t>(p)];
        ++totals_->ops;
        timed_ = prof->timed_;
        if (timed_) start_ = std::chrono::steady_clock::now();
      }
    }
    ~MaybeScope() {
      if (timed_) {
        totals_->ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
      }
    }
    MaybeScope(const MaybeScope&) = delete;
    MaybeScope& operator=(const MaybeScope&) = delete;

   private:
    PhaseTotals* totals_ = nullptr;
    bool timed_ = false;
    std::chrono::steady_clock::time_point start_{};
  };

 private:
  std::array<PhaseTotals, kHotPhaseCount> phase_{};
  bool timed_ = false;
};

}  // namespace epicast
