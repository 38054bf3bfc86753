// Negative tests of the benchmark's output checks: a broken input or a wrong
// threshold must be reported as failed work, never timed as success.
//
// Run through `python3 perfbench/run.py --self-test`; exits non-zero when a
// check lets a wrong answer through (or rejects a correct one).
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "src/checks.hpp"
#include "src/report.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"

namespace {

using namespace monohids;

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::cout << (condition ? "ok   " : "FAIL ") << what << '\n';
  if (!condition) ++failures;
}

struct Fixture {
  trace::UserProfile user;
  hids::DaemonConfig config;
  std::vector<net::PacketRecord> packets;
  std::string image;
};

/// A two-week trace of one busy host of the default population, so both
/// the warm-up week and one alarm-checked week exist.
Fixture make_fixture() {
  Fixture f;
  trace::GeneratorConfig generator_config;
  generator_config.weeks = 2;
  const trace::TraceGenerator generator(generator_config);
  trace::PopulationConfig population;
  population.weeks = 2;
  f.user = trace::generate_population(population)[7];
  f.packets = generator.generate_packets(f.user, 0, generator_config.horizon());
  std::ostringstream out;
  trace::write_pcap(out, f.packets);
  f.image = std::move(out).str();
  f.config.monitored = f.user.address;
  f.config.user_id = f.user.user_id;
  f.config.pipeline.grid = generator_config.grid;
  f.config.pipeline.horizon = generator_config.horizon();
  return f;
}

/// The benchmark's measured path on `image`, then its output check.
perfbench::PacketRunCheck run_and_check(const Fixture& f, const std::string& image,
                                        const std::vector<perfbench::ExpectedAlarm>& expected) {
  std::istringstream in(image);
  hids::Daemon daemon(f.config);
  const trace::PcapReadResult read = daemon.consume_pcap(in);
  const hids::DaemonResult result = daemon.finish();
  return perfbench::check_packet_run(read, result, f.packets.size(), expected);
}

/// Byte offset of record `index`'s incl_len field in a pcap image.
std::size_t incl_len_offset(const std::string& image, std::size_t index) {
  std::size_t at = 24;  // global header
  for (std::size_t i = 0; i < index; ++i) {
    std::uint32_t incl = 0;
    for (int b = 3; b >= 0; --b) incl = incl << 8 | static_cast<unsigned char>(image[at + 8 + b]);
    at += 16 + incl;
  }
  return at + 8;
}

double failed_frac(const perfbench::PacketRunCheck& check) {
  perfbench::Report report;
  report.operations(check.attempted, check.failed, check.problem);
  return static_cast<double>(report.failed()) / static_cast<double>(report.attempted());
}

}  // namespace

int main() {
  const Fixture f = make_fixture();
  const auto expected = perfbench::batch_alarms(f.config, f.packets);
  std::cout << "fixture: " << f.packets.size() << " packets, " << expected.size()
            << " batch alarms\n";
  expect(!expected.empty(), "fixture raises alarms, so alarm checks have something to compare");

  const auto clean = run_and_check(f, f.image, expected);
  expect(clean.failed == 0 && clean.problem.empty(), "clean image passes every check");

  const std::size_t middle = f.packets.size() / 2;
  for (const int byte : {0, 1, 3}) {
    std::string broken = f.image;
    broken[incl_len_offset(f.image, middle) + static_cast<std::size_t>(byte)] ^= 0x5A;
    const auto check = run_and_check(f, broken, expected);
    expect(failed_frac(check) > 0.0,
           "flipped byte " + std::to_string(byte) + " of a record length raises failed_frac (" +
               check.problem + ")");
  }

  std::string truncated = f.image.substr(0, f.image.size() - 100);
  expect(failed_frac(run_and_check(f, truncated, expected)) > 0.0,
         "truncated image raises failed_frac");

  auto nudged = expected;
  nudged[nudged.size() / 2].threshold =
      std::nextafter(nudged[nudged.size() / 2].threshold, std::numeric_limits<double>::max());
  expect(run_and_check(f, f.image, nudged).failed == f.packets.size(),
         "a threshold one ulp off fails the alarm-identity check");

  hids::DaemonConfig other = f.config;
  other.percentile = 0.98;
  const auto shifted = perfbench::batch_alarms(other, f.packets);
  expect(run_and_check(f, f.image, shifted).failed == f.packets.size(),
         "thresholds from a perturbed percentile fail the alarm-identity check");

  std::cout << (failures == 0 ? "all negative checks passed\n" : "negative checks FAILED\n");
  return failures == 0 ? 0 : 1;
}
