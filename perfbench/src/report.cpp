#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "stats/kernels.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

void Digest::add(const void* data, std::size_t size) {
  // FNV-1a steps over 8-byte words, then the tail bytes: pcap images run to
  // hundreds of MB per host.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    state_ = (state_ ^ word) * kPrime;
  }
  for (; i < size; ++i) state_ = (state_ ^ bytes[i]) * kPrime;
}

void Digest::add_profile(const monohids::trace::UserProfile& user) {
  add_value(user.user_id);
  add_value(user.address.value());
  add_value(user.seed);
  add_value(user.intensity);
  add(user.session_rate_per_hour.data(), sizeof(user.session_rate_per_hour));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(state_));
  return buf;
}

void Report::metric(std::string name, double value, std::string unit) {
  note("metric " + name + " = " + std::to_string(value) + " " + unit);
  metrics_.emplace_back(std::move(name), std::make_pair(value, std::move(unit)));
}

void Report::config(std::string key, std::string value) {
  note("config " + key + " = " + value);
  config_.emplace_back(std::move(key), std::move(value));
}

void Report::input(std::string key, std::string digest) {
  inputs_.emplace_back(std::move(key), std::move(digest));
}

void Report::note(const std::string& line) const { std::cout << "# " << line << '\n'; }

void Report::operation(bool ok, std::string_view what) { operations(1, ok ? 0 : 1, what); }

void Report::operations(std::uint64_t attempted, std::uint64_t failed, std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "FAIL: " << failed << " of " << attempted << " operations failed";
    if (!what.empty()) std::cerr << " (" << what << ")";
    std::cerr << '\n';
  }
}

namespace {

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, entry] = metrics_[i];
    out << (i ? ", " : "") << quoted(name) << ": {\"value\": " << number(entry.first)
        << ", \"unit\": " << quoted(entry.second) << "}";
  }
  out << "}, \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    out << (i ? ", " : "") << quoted(config_[i].first) << ": " << quoted(config_[i].second);
  }
  out << "}, \"inputs\": {";
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    out << (i ? ", " : "") << quoted(inputs_[i].first) << ": " << quoted(inputs_[i].second);
  }
  out << "}}";
  return out.str();
}

void echo_common_config(Report& report) {
  using namespace monohids;
  report.config("threads", std::to_string(util::default_thread_count()));
  report.config("simd_backend",
                std::string(stats::kernels::backend_name(stats::kernels::active_backend())));
  report.config("obs_compiled_in", obs::kEnabled ? "1" : "0");
}

}  // namespace perfbench
