// The seed batch ingest pipeline: ReferenceFlowTable plus per-packet event
// drains into a FeatureExtractor. The streaming engine
// (features::IngestSession / extract_features) must stay byte-identical to
// it; the ingest differential tests and bench/micro_ingest compare against
// it.
#pragma once

#include <span>

#include "features/pipeline.hpp"

namespace monohids::oracles {

/// Runs `packets` (time-ordered, all involving `monitored`) through the
/// map-based reference flow table and the feature extractor, draining flow
/// events after every packet and flushing at the later of the horizon and
/// the last timestamp, exactly as features::extract_features does.
[[nodiscard]] features::PipelineResult extract_features_reference(
    net::Ipv4Address monitored, std::span<const net::PacketRecord> packets,
    const features::PipelineConfig& config = {});

}  // namespace monohids::oracles
