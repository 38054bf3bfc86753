#include "checks.hpp"

#include <array>

#include "features/pipeline.hpp"
#include "stats/quantile.hpp"

namespace perfbench {

using namespace monohids;

std::vector<ExpectedAlarm> batch_alarms(const hids::DaemonConfig& config,
                                        std::span<const net::PacketRecord> packets) {
  const auto result = features::extract_features(config.monitored, packets, config.pipeline);
  const std::uint64_t bins_per_week = util::kMicrosPerWeek / config.pipeline.grid.width();
  const std::uint64_t total_bins =
      result.matrix.of(features::FeatureKind::TcpConnections).values().size();
  const auto weeks = static_cast<std::uint32_t>((total_bins + bins_per_week - 1) / bins_per_week);

  // thresholds[w][f]: what week w + 1 is tested against.
  std::vector<std::array<double, features::kFeatureCount>> thresholds(weeks);
  for (std::uint32_t w = 0; w + 1 < weeks; ++w) {
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      thresholds[w][f] = stats::quantile_nearest_rank(
          result.matrix.of(features::kAllFeatures[f]).week_slice(w), config.percentile);
    }
  }

  std::vector<ExpectedAlarm> alarms;
  for (std::uint64_t bin = bins_per_week; bin < total_bins; ++bin) {
    const auto week = static_cast<std::uint32_t>(bin / bins_per_week);
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      const double threshold = thresholds[week - 1][f];
      if (result.matrix.of(features::kAllFeatures[f]).values()[bin] > threshold) {
        alarms.push_back({f, bin, threshold});
      }
    }
  }
  return alarms;
}

bool alarms_match(const hids::DaemonResult& result, const std::vector<ExpectedAlarm>& expected) {
  if (result.alerts.size() != expected.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const hids::Alert& alert = result.alerts[i];
    if (features::index_of(alert.feature) != expected[i].feature ||
        alert.bin != expected[i].bin || alert.threshold != expected[i].threshold) {
      return false;
    }
  }
  return true;
}

PacketRunCheck check_packet_run(const trace::PcapReadResult& read,
                                const hids::DaemonResult& result, std::uint64_t image_packets,
                                const std::vector<ExpectedAlarm>& expected) {
  PacketRunCheck check;
  check.attempted = image_packets;
  const std::uint64_t ingested = result.stats.packets_ingested;
  if (ingested > image_packets) {
    check.failed = image_packets;
    check.problem = "ingested more packets than the image holds";
    return check;
  }
  if (!alarms_match(result, expected)) {
    check.failed = image_packets;
    check.problem = "alarm set differs from the batch pipeline (" +
                    std::to_string(result.alerts.size()) + " vs " +
                    std::to_string(expected.size()) + " alarms)";
    return check;
  }
  check.failed = image_packets - ingested;
  if (check.failed > 0) {
    check.problem = std::to_string(check.failed) + " packets not ingested (" +
                    std::to_string(read.truncated) + " truncated, " +
                    std::to_string(read.skipped_non_ipv4 + read.skipped_protocol) +
                    " skipped, " + std::to_string(result.stats.packets_out_of_order) +
                    " out of order" +
                    (read.stream_error.empty() ? "" : ", stream error: " + read.stream_error) +
                    ")";
  } else if (!read.stream_error.empty()) {
    // Every packet arrived but the reader still reported a fault: the image
    // carried bytes that are not a well-formed record.
    check.failed = image_packets;
    check.problem = "stream error after a complete image: " + read.stream_error;
  }
  return check;
}

}  // namespace perfbench
