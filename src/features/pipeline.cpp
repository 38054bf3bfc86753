#include "features/pipeline.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace monohids::features {

namespace {

/// Ingest metrics, published per batch (not per packet): one counter add
/// per series per on_batch call plus two clock reads for the latency
/// histogram, amortized over up to kDefaultIngestBatch packets.
struct IngestMetrics {
  obs::Counter packets;
  obs::Counter batches;
  obs::Counter flow_starts;
  obs::Counter sessions;
  obs::Histogram batch_ms;
};

IngestMetrics& ingest_metrics() {
  auto& registry = obs::MetricsRegistry::global();
  static IngestMetrics m{
      registry.counter("ingest.packets_total"),
      registry.counter("ingest.batches_total"),
      registry.counter("ingest.flow_starts_total"),
      registry.counter("ingest.sessions_finished_total"),
      registry.histogram("ingest.batch_ms", obs::latency_buckets_ms()),
  };
  return m;
}

}  // namespace

BatchingAdapter::BatchingAdapter(PacketSink& sink, std::size_t max_batch)
    : sink_(&sink), max_batch_(max_batch) {
  MONOHIDS_EXPECT(max_batch > 0, "ingest batch size must be positive");
  buffer_.reserve(max_batch);
}

void BatchingAdapter::flush() {
  if (buffer_.empty()) return;
  sink_->on_batch(buffer_);
  buffer_.clear();
}

std::uint64_t BatchingAdapter::finish() {
  flush();
  return count_;
}

IngestSession::IngestSession(net::Ipv4Address monitored, const PipelineConfig& config)
    : monitored_(monitored),
      grid_(config.grid),
      horizon_(config.horizon),
      table_(monitored, config.flow_config),
      extractor_(config.grid, config.horizon) {}

std::uint64_t IngestSession::completed_bins() const noexcept {
  const std::uint64_t bin_count = grid_.bin_count(horizon_);
  return std::min<std::uint64_t>(grid_.bin_of(last_seen_), bin_count);
}

std::uint64_t IngestSession::seal_completed() {
  MONOHIDS_EXPECT(!finished_, "IngestSession already finished");
  const std::uint64_t completed = completed_bins();
  extractor_.seal_through(completed);
  return completed;
}

void IngestSession::on_batch(std::span<const net::PacketRecord> batch) {
  MONOHIDS_EXPECT(!finished_, "IngestSession already finished");
  const obs::ScopedTimer span("ingest.batch", ingest_metrics().batch_ms);
  std::uint64_t flow_starts = 0;
  // The flow table's batch loop runs uninterrupted (its hot path inlines in
  // one translation unit), then the chunk's flow events and SYN packets feed
  // the extractor in two passes. Splitting the streams is exact: on_packet
  // only touches the TcpSyn series and on_flow_event only the other five, so
  // no single series sees its updates reordered. Chunking (rather than one
  // pass over the whole batch) keeps the pending-event buffer bounded even
  // when a caller hands us an entire trace in one span.
  constexpr std::size_t kChunk = 4096;
  for (std::size_t at = 0; at < batch.size(); at += kChunk) {
    const auto chunk = batch.subspan(at, std::min(kChunk, batch.size() - at));
    table_.process_batch(chunk);
    for (const net::FlowEvent& event : table_.pending_events()) {
      // Same filter the extractor applies first thing; hoisting it here
      // skips the call for End events and inbound-initiated flows.
      if (event.kind == net::FlowEventKind::Start && event.initiated_by_monitored_host) {
        if constexpr (obs::kEnabled) ++flow_starts;
        extractor_.on_flow_event(event);
      }
    }
    table_.clear_events();
    for (const net::PacketRecord& packet : chunk) {
      // Pre-filter: only outbound TCP SYNs can contribute to a feature (the
      // extractor applies the same test, so skipped calls were no-ops).
      if (packet.tuple.src_ip == monitored_ &&
          packet.tuple.protocol == net::Protocol::Tcp &&
          has_flag(packet.tcp_flags, net::TcpFlags::Syn)) {
        extractor_.on_packet(packet, monitored_);
      }
    }
  }
  if (!batch.empty()) last_seen_ = batch.back().timestamp;
  if constexpr (obs::kEnabled) {
    IngestMetrics& m = ingest_metrics();
    m.packets.add(batch.size());
    m.batches.inc();
    m.flow_starts.add(flow_starts);
  }
}

void IngestSession::push(const net::PacketRecord& packet) {
  on_batch(std::span<const net::PacketRecord>(&packet, 1));
}

PipelineResult IngestSession::finish() {
  MONOHIDS_EXPECT(!finished_, "IngestSession already finished");
  // End-of-trace flush at the later of the horizon and the last observed
  // timestamp: flushing at horizon - 1 rejected traces whose final packet
  // landed in the last bin's closing microsecond (or past the horizon), and
  // mislabeled flows still active there as if time had run out early.
  table_.flush(std::max<util::Timestamp>(horizon_, last_seen_));
  for (const net::FlowEvent& event : table_.pending_events()) {
    extractor_.on_flow_event(event);
  }
  table_.clear_events();
  extractor_.finish();
  finished_ = true;
  ingest_metrics().sessions.inc();
  return PipelineResult{extractor_.matrix(), table_.stats()};
}

PipelineResult extract_features(net::Ipv4Address monitored,
                                std::span<const net::PacketRecord> packets,
                                const PipelineConfig& config) {
  IngestSession session(monitored, config);
  session.on_batch(packets);
  return session.finish();
}

}  // namespace monohids::features
