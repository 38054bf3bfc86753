// Output checks of the packet workloads, shared with the benchmark's own
// negative tests (tests/negative_checks.cpp), which prove that a broken
// input or a wrong threshold is caught rather than timed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hids/daemon.hpp"
#include "net/packet.hpp"
#include "trace/pcap.hpp"

namespace perfbench {

/// One alarm of the batch ground truth: feature index, bin and the
/// threshold it crossed.
struct ExpectedAlarm {
  std::size_t feature = 0;
  std::uint64_t bin = 0;
  double threshold = 0.0;
};

/// The batch pipeline the daemon must reproduce bit for bit:
/// extract_features over the whole trace, week k's nearest-rank
/// `config.percentile` threshold applied to week k + 1, alarms where the
/// bin's value exceeds it (week 0 is warm-up). Scan order: bin-major,
/// features in kAllFeatures order.
[[nodiscard]] std::vector<ExpectedAlarm> batch_alarms(
    const monohids::hids::DaemonConfig& config,
    std::span<const monohids::net::PacketRecord> packets);

/// True when the daemon emitted exactly `expected`: same features, bins
/// and thresholds, in the same order.
[[nodiscard]] bool alarms_match(const monohids::hids::DaemonResult& result,
                                const std::vector<ExpectedAlarm>& expected);

/// Verdict on one pcap -> DaemonResult run of one host.
struct PacketRunCheck {
  std::uint64_t attempted = 0;  ///< packets in the image
  std::uint64_t failed = 0;     ///< packets not ingested (or the whole host on a wrong answer)
  std::string problem;          ///< empty when the run is clean
};

/// A packet fails when it was not ingested: lost to a stream error,
/// truncated, skipped or filtered out of order. A run whose alarm set
/// differs from `expected`, or which ingested more packets than the image
/// holds, fails every packet of the host.
[[nodiscard]] PacketRunCheck check_packet_run(const monohids::trace::PcapReadResult& read,
                                              const monohids::hids::DaemonResult& result,
                                              std::uint64_t image_packets,
                                              const std::vector<ExpectedAlarm>& expected);

}  // namespace perfbench
