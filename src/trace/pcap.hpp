// libpcap-format trace export/import.
//
// write_pcap() renders PacketRecords as a classic pcap file (Ethernet II /
// IPv4 / TCP|UDP|ICMP with correct lengths and valid IPv4 header and
// TCP/UDP/ICMP checksums), so a synthetic enterprise trace opens directly
// in Wireshark/tcpdump with no "checksum error" noise;
// read_pcap() parses real captures (either byte order, micro- or
// nanosecond timestamps) back into PacketRecords, so the whole pipeline —
// flow table, features, policies — runs on actual traffic without any
// conversion step.
//
// The readers pull the stream in 256 KiB blocks into one reusable buffer
// and decode each record's headers in place, stepping over the payload
// without a per-record stream call. Every complete record is counted in
// PcapReadResult::records and lands in exactly one outcome:
//
//   records == packet_count + skipped_non_ipv4 + skipped_protocol
//              + skipped_fragment + truncated + malformed
//
// Non-IPv4 frames, other upper protocols and non-first IPv4 fragments are
// skipped; frames whose snaplen cuts the headers count as truncated; an
// IPv4 header with IHL < 5, a total length shorter than its header, or an
// IHL running past the captured bytes counts as malformed. None of these
// reach the sink. A fault in the record framing itself (a stream ending
// inside a record header or body, or an implausible record length) is an
// InputError; only a stream ending exactly on a record boundary is a clean
// end of capture.
//
// Read-ahead: the readers consume up to one block past the record they
// are decoding, so after an early stop (stream_pcap_recovering's fault)
// the stream's position is past the faulting record, not at it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "features/pipeline.hpp"
#include "net/packet.hpp"

namespace monohids::trace {

/// Import statistics alongside the parsed packets. The record counters
/// partition `records` (see the conservation identity above).
struct PcapReadResult {
  std::vector<net::PacketRecord> packets;
  std::uint64_t records = 0;            ///< complete pcap records read
  std::uint64_t packet_count = 0;       ///< parsed packets (== packets.size() for read_pcap)
  std::uint64_t skipped_non_ipv4 = 0;   ///< frames with another ethertype or IP version
  std::uint64_t skipped_protocol = 0;   ///< IPv4 but not TCP/UDP/ICMP
  std::uint64_t skipped_fragment = 0;   ///< IPv4 fragments past the first (offset != 0)
  std::uint64_t truncated = 0;          ///< snaplen cut into the Ethernet/IPv4/L4 headers
  std::uint64_t malformed = 0;          ///< IPv4 header with a bad IHL or total length
  bool nanosecond_timestamps = false;
  bool byte_swapped = false;
  /// Only set by stream_pcap_recovering: the diagnostic of the mid-stream
  /// fault that stopped the import early (empty = clean EOF).
  std::string stream_error;
};

/// Writes a pcap file (linktype Ethernet, microsecond timestamps).
/// Payload bytes are rendered as zeros — headers carry all the information
/// the study uses. Timestamps are microseconds from trace start.
void write_pcap(std::ostream& out, const std::vector<net::PacketRecord>& packets);

/// Parses a pcap stream. Throws InputError on malformed files or framing;
/// skips and counts frames it cannot use (see the counters above).
[[nodiscard]] PcapReadResult read_pcap(std::istream& in);

/// Streaming form of read_pcap: pushes parsed packets into `sink` in batches
/// of at most `max_batch`, so importing a multi-gigabyte capture never
/// materializes it. The returned result carries the import statistics with
/// `packets` left empty (`packet_count` holds the parsed total). Same
/// validation and skip behavior as read_pcap.
PcapReadResult stream_pcap(std::istream& in, features::PacketSink& sink,
                           std::size_t max_batch = features::kDefaultIngestBatch);

/// Fault-tolerant stream_pcap for long-running consumers (the live daemon):
/// a truncated or corrupt record mid-stream stops the import gracefully
/// instead of throwing — every packet parsed before the fault is still
/// flushed to `sink`, and the diagnostic lands in the result's
/// `stream_error` field; this includes a stream that ends 1-15 bytes into a
/// record header. A capture whose global header is already
/// malformed (bad magic, unsupported linktype, truncated header) throws
/// InputError exactly like stream_pcap: there is nothing to recover.
PcapReadResult stream_pcap_recovering(std::istream& in, features::PacketSink& sink,
                                      std::size_t max_batch = features::kDefaultIngestBatch);

/// RFC 1071 checksum over a 16-bit-aligned header (exposed for tests).
[[nodiscard]] std::uint16_t ipv4_header_checksum(const std::uint8_t* header,
                                                 std::size_t length);

/// RFC 1071 checksum of a TCP (protocol 6) or UDP (protocol 17) segment with
/// the IPv4 pseudo-header prepended (exposed for tests). `segment` spans the
/// transport header plus payload; odd lengths are zero-padded per the RFC.
/// Callers writing UDP must map a computed 0 to 0xFFFF on the wire.
[[nodiscard]] std::uint16_t ipv4_transport_checksum(net::Ipv4Address src,
                                                    net::Ipv4Address dst,
                                                    std::uint8_t protocol,
                                                    const std::uint8_t* segment,
                                                    std::size_t length);

/// RFC 1071 checksum over an ICMP message (no pseudo-header).
[[nodiscard]] std::uint16_t icmp_checksum(const std::uint8_t* message,
                                          std::size_t length);

}  // namespace monohids::trace
