// Week-rollover regression: the daemon's incrementally re-derived thresholds
// after N simulated weeks must match the batch-derived thresholds on the
// same training window — nearest-rank quantiles over whole week slices for
// WeeklyRollover (also across a forward clock jump over empty weeks and a
// capture that ends mid-bin), the sliding-window quantile for Rolling mode,
// whose alarms with the poisoning guard on match a standalone
// RollingThresholdLearner. Also pins the warm-up contract (week 0 never
// alarms) and the strict value>threshold alarm predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "hids/daemon.hpp"
#include "stats/quantile.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"

namespace monohids::hids {
namespace {

constexpr std::uint32_t kWeeks = 4;

const trace::UserProfile& fixture_user() {
  static const auto users = [] {
    trace::PopulationConfig pop;
    pop.user_count = 10;
    pop.seed = 99;
    return trace::generate_population(pop);
  }();
  return users[5];
}

const std::vector<net::PacketRecord>& fixture_packets() {
  static const auto packets = [] {
    const trace::TraceGenerator generator{trace::GeneratorConfig{}};
    return generator.generate_packets(fixture_user(), 0,
                                      kWeeks * util::kMicrosPerWeek);
  }();
  return packets;
}

DaemonConfig fixture_config() {
  DaemonConfig config;
  config.monitored = fixture_user().address;
  config.user_id = fixture_user().user_id;
  config.pipeline.horizon = kWeeks * util::kMicrosPerWeek;
  config.deliver_inline = true;
  return config;
}

DaemonResult run(const DaemonConfig& config) {
  Daemon daemon(config);
  const auto& packets = fixture_packets();
  constexpr std::size_t kBatch = 8192;
  for (std::size_t off = 0; off < packets.size(); off += kBatch) {
    daemon.on_batch(std::span<const net::PacketRecord>(
        packets.data() + off, std::min(kBatch, packets.size() - off)));
  }
  return daemon.finish();
}

TEST(DaemonRollover, EveryWeeklyThresholdMatchesTheBatchQuantile) {
  const DaemonConfig config = fixture_config();
  const DaemonResult result = run(config);
  const auto batch =
      features::extract_features(config.monitored, fixture_packets(), config.pipeline);

  ASSERT_EQ(result.rollovers.size(), kWeeks - 1);
  for (std::uint32_t w = 1; w < kWeeks; ++w) {
    const ThresholdUpdate& update = result.rollovers[w - 1];
    EXPECT_EQ(update.week, w);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto slice = batch.matrix.of(features::kAllFeatures[i]).week_slice(w - 1);
      EXPECT_EQ(update.thresholds[i],
                stats::quantile_nearest_rank(slice, config.percentile))
          << "week " << w << " " << features::name_of(features::kAllFeatures[i]);
    }
  }
  EXPECT_EQ(result.stats.rollovers, kWeeks - 1);
}

TEST(DaemonRollover, WarmupWeekNeverAlarms) {
  const DaemonConfig config = fixture_config();
  const DaemonResult result = run(config);
  const std::uint64_t bins_per_week =
      util::kMicrosPerWeek / config.pipeline.grid.width();
  for (const Alert& alert : result.alerts) {
    EXPECT_GE(alert.bin, bins_per_week) << "alarm during the warm-up week";
    EXPECT_GT(alert.observed, alert.threshold) << "alarm predicate must be strict >";
    EXPECT_TRUE(std::isfinite(alert.threshold));
  }
}

TEST(DaemonRollover, LiveThresholdSurfaceTracksTheLatestRollover) {
  const DaemonConfig config = fixture_config();
  Daemon daemon(config);
  // Warm-up: before any rollover the scrape surface reports +infinity.
  for (features::FeatureKind f : features::kAllFeatures) {
    EXPECT_TRUE(std::isinf(daemon.threshold(f)));
  }
  const auto& packets = fixture_packets();
  daemon.on_batch(packets);
  EXPECT_EQ(daemon.current_week(), kWeeks - 1);
  const DaemonResult result = daemon.finish();
  ASSERT_EQ(result.rollovers.size(), kWeeks - 1);
}

TEST(DaemonRollover, RollingThresholdAfterNWeeksMatchesTheBatchWindow) {
  DaemonConfig config = fixture_config();
  config.mode = ThresholdMode::Rolling;
  config.rolling.exclude_alarms = false;  // pure sliding window: independent math
  Daemon daemon(config);
  daemon.on_batch(fixture_packets());
  (void)daemon.finish();  // scans every trailing bin through the learner
  const auto batch =
      features::extract_features(config.monitored, fixture_packets(), config.pipeline);

  // After N weeks the live threshold surface must equal the nearest-rank
  // quantile of the last window_bins bins of the batch series — the
  // batch-derived value on the identical window.
  const auto total_bins =
      batch.matrix.of(features::FeatureKind::TcpConnections).values().size();
  ASSERT_GE(total_bins, config.rolling.window_bins);
  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    const auto series = batch.matrix.of(features::kAllFeatures[i]).values();
    const std::vector<double> window(
        series.end() - static_cast<std::ptrdiff_t>(config.rolling.window_bins),
        series.end());
    const double expected =
        stats::quantile_nearest_rank(window, config.rolling.percentile);
    EXPECT_EQ(daemon.threshold(features::kAllFeatures[i]), expected)
        << features::name_of(features::kAllFeatures[i]);
  }
}

TEST(DaemonRollover, RollingGuardAlarmsMatchAStandaloneLearner) {
  // Default Rolling config: alarming bins stay out of the window (the
  // poisoning guard), so each feature's alarm set depends on its own history.
  DaemonConfig config = fixture_config();
  config.mode = ThresholdMode::Rolling;
  ASSERT_TRUE(config.rolling.exclude_alarms);
  Daemon daemon(config);
  daemon.on_batch(fixture_packets());
  const DaemonResult result = daemon.finish();
  const auto batch =
      features::extract_features(config.monitored, fixture_packets(), config.pipeline);

  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    const features::FeatureKind f = features::kAllFeatures[i];
    SCOPED_TRACE(features::name_of(f));
    std::vector<std::uint64_t> expected;
    RollingThresholdLearner learner(config.rolling);
    const auto series = batch.matrix.of(f).values();
    for (std::uint64_t bin = 0; bin < series.size(); ++bin) {
      if (learner.observe(series[bin])) expected.push_back(bin);
    }
    std::vector<std::uint64_t> alarmed;
    for (const Alert& alert : result.alerts) {
      if (alert.feature == f) alarmed.push_back(alert.bin);
    }
    EXPECT_EQ(alarmed, expected);
    EXPECT_EQ(daemon.threshold(f), learner.threshold());
  }
  EXPECT_FALSE(result.alerts.empty()) << "fixture must exercise the guard";
}

TEST(DaemonRollover, ClockJumpOverEmptyWeeksAndMidBinEndMatchTheBatchSlices) {
  // Week 0 of traffic, then the clock jumps forward past two empty weeks
  // into week 3, and the capture (and horizon) ends mid-bin there.
  DaemonConfig config = fixture_config();
  const util::Duration width = config.pipeline.grid.width();
  const util::Timestamp jump_to = 3 * util::kMicrosPerWeek;
  const util::Timestamp end = jump_to + 2 * util::kMicrosPerDay + 5 * width + width / 2;
  ASSERT_NE(end % width, 0u);
  config.pipeline.horizon = end;

  std::vector<net::PacketRecord> packets;
  for (const net::PacketRecord& p : fixture_packets()) {
    if (p.timestamp < util::kMicrosPerWeek || (p.timestamp >= jump_to && p.timestamp < end)) {
      packets.push_back(p);
    }
  }
  ASSERT_GE(packets.back().timestamp, jump_to);

  Daemon daemon(config);
  constexpr std::size_t kBatch = 1000;
  for (std::size_t off = 0; off < packets.size(); off += kBatch) {
    daemon.on_batch(std::span<const net::PacketRecord>(
        packets.data() + off, std::min(kBatch, packets.size() - off)));
  }
  const DaemonResult result = daemon.finish();
  const auto batch = features::extract_features(config.monitored, packets, config.pipeline);

  // Rollovers into weeks 1, 2 and 3: two of them train on an empty week.
  ASSERT_EQ(result.rollovers.size(), 3u);
  for (std::uint32_t w = 1; w <= 3; ++w) {
    const ThresholdUpdate& update = result.rollovers[w - 1];
    EXPECT_EQ(update.week, w);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto slice = batch.matrix.of(features::kAllFeatures[i]).week_slice(w - 1);
      EXPECT_EQ(update.thresholds[i],
                stats::quantile_nearest_rank(slice, config.percentile))
          << "week " << w << " " << features::name_of(features::kAllFeatures[i]);
    }
  }
  for (const features::FeatureKind f : features::kAllFeatures) {
    const auto live = result.pipeline.matrix.of(f).values();
    const auto want = batch.matrix.of(f).values();
    EXPECT_TRUE(std::equal(live.begin(), live.end(), want.begin(), want.end()))
        << features::name_of(f);
  }
}

}  // namespace
}  // namespace monohids::hids
