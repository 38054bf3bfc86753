#include "oracles/pipeline_ref.hpp"

#include <algorithm>

#include "features/extractor.hpp"
#include "oracles/flow_table_ref.hpp"

namespace monohids::oracles {

features::PipelineResult extract_features_reference(
    net::Ipv4Address monitored, std::span<const net::PacketRecord> packets,
    const features::PipelineConfig& config) {
  ReferenceFlowTable table(monitored, config.flow_config);
  features::FeatureExtractor extractor(config.grid, config.horizon);

  for (const net::PacketRecord& packet : packets) {
    extractor.on_packet(packet, monitored);
    table.process(packet);
    for (const net::FlowEvent& event : table.drain_events()) {
      extractor.on_flow_event(event);
    }
  }
  const util::Timestamp last_seen = packets.empty() ? 0 : packets.back().timestamp;
  table.flush(std::max<util::Timestamp>(config.horizon, last_seen));
  for (const net::FlowEvent& event : table.drain_events()) {
    extractor.on_flow_event(event);
  }
  extractor.finish();

  return features::PipelineResult{extractor.matrix(), table.stats()};
}

}  // namespace monohids::oracles
