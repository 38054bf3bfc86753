// Reference connection tracker: the seed std::unordered_map implementation.
//
// This is the behavioral spec for net::FlowTable, kept as a test oracle: a
// node-allocating hash map whose idle sweep rescans every live flow. It emits the
// same deterministic (expiry deadline, tuple)-ordered timeout events and
// tuple-ordered flush events as the open-addressing table, so the two are
// byte-comparable: the randomized differential tests assert identical
// FlowEvent streams and stats, and bench/micro_ingest uses it as the
// map-vs-open-addressing and batch-vs-streaming baseline. Part of the
// monohids_oracles library, which nothing under src/ links.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/flow_table.hpp"

namespace monohids::oracles {

/// Map-based flow tracker with FlowTable's exact observable behavior.
class ReferenceFlowTable {
 public:
  ReferenceFlowTable(net::Ipv4Address monitored, net::FlowTableConfig config = {});

  void process(const net::PacketRecord& packet);
  void advance_to(util::Timestamp now);
  void flush(util::Timestamp now);
  [[nodiscard]] std::vector<net::FlowEvent> drain_events();

  [[nodiscard]] const net::FlowTableStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t active_flows() const noexcept { return flows_.size(); }
  [[nodiscard]] net::Ipv4Address monitored() const noexcept { return monitored_; }

 private:
  enum class TcpState : std::uint8_t { SynSent, Established, FinSeen };

  struct Flow {
    util::Timestamp first_seen = 0;
    util::Timestamp last_seen = 0;
    std::uint64_t packets = 0;
    bool initiated_by_monitored = false;
    TcpState tcp_state = TcpState::SynSent;  // TCP only
    bool fin_from_initiator = false;
    bool fin_from_responder = false;
  };

  void sweep(util::Timestamp now);
  void end_flow(const net::FiveTuple& key, const Flow& flow, util::Timestamp at,
                net::FlowEndReason reason);

  net::Ipv4Address monitored_;
  net::FlowTableConfig config_;
  std::unordered_map<net::FiveTuple, Flow> flows_;  // keyed by initiator-oriented tuple
  std::vector<net::FlowEvent> events_;
  net::FlowTableStats stats_;
  util::Timestamp last_sweep_ = 0;
  util::Timestamp clock_ = 0;
};

}  // namespace monohids::oracles
