// Shared scaffolding of the repo benchmark: options, clocks, medians, input
// digests and the run report every workload fills in.
//
// A workload measures only by calling the program's public functions and
// timing those calls from here; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/user_profile.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call and returns its wall seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> values);

/// 64-bit FNV-1a over 8-byte words of raw bytes: the input digest.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  void add(std::string_view text) { add(text.data(), text.size()); }
  template <typename T>
  void add_value(const T& value) {
    add(&value, sizeof(value));
  }
  /// The profile fields that decide a user's generated traffic volume and
  /// identity (id, address, RNG root, intensity, per-app session rates).
  void add_profile(const monohids::trace::UserProfile& user);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Compute and print the input digests only (baseline recording).
  bool digests_only = false;
};

/// Everything a run prints: metrics with units, the resolved config, input
/// digests, operation counts and the correctness verdict. Human-readable
/// lines go to stdout as they happen; to_json() is the last line.
class Report {
 public:
  void metric(std::string name, double value, std::string unit);
  void config(std::string key, std::string value);
  void input(std::string key, std::string digest);
  void note(const std::string& line) const;

  /// One attempted operation and whether its output check passed.
  void operation(bool ok, std::string_view what = {});
  void operations(std::uint64_t attempted, std::uint64_t failed, std::string_view what = {});

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::string>> inputs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Workload entry points. Each returns normally with the report filled in;
/// a wrong output is recorded as a failed operation, never thrown.
void run_packet_workload(const Options& options, bool storm, Report& report);
void run_fleet_workload(const Options& options, Report& report);
void run_paper_workload(const Options& options, Report& report);

/// Resolved knobs every workload runs under (thread count, SIMD backend,
/// build flavor), echoed into the report.
void echo_common_config(Report& report);

}  // namespace perfbench
