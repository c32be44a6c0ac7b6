// Wall-clock timing utilities and the per-phase accumulator used to
// reproduce the paper's execution-time breakdown charts (Figs. 3, 5, 6).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace parhde {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Reset(); }

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  [[nodiscard]] double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates named phase timings (e.g. "BFS", "DOrtho", "TripleProd").
///
/// The HDE drivers record into one of these through obs::Phase scopes
/// (obs/phase.hpp) so benchmarks can print the paper's percentage-breakdown
/// figures without re-instrumenting.
class PhaseTimings {
 public:
  /// Adds `seconds` to phase `name`, creating it on first use.
  /// Phases keep their first-recorded order for stable printing.
  void Add(const std::string& name, double seconds);

  /// Total seconds recorded for `name`; 0 if never recorded.
  [[nodiscard]] double Get(const std::string& name) const;

  /// Sum of all recorded phases.
  [[nodiscard]] double Total() const;

  /// Percentage of Total() spent in `name` (0 if total is 0).
  [[nodiscard]] double Percent(const std::string& name) const;

  /// Phase names in first-recorded order.
  [[nodiscard]] const std::vector<std::string>& Names() const { return order_; }

  /// Removes all recorded phases.
  void Clear();

  /// Merges another set of timings into this one (phase-wise sum).
  void Merge(const PhaseTimings& other);

 private:
  std::map<std::string, double> seconds_;
  std::vector<std::string> order_;
};

}  // namespace parhde
