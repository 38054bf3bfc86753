// Byte-level helpers for tests that damage or reshape pcap images: write_pcap
// output is a little-endian classic pcap file (24-byte global header, then
// per record a 16-byte header and an Ethernet II / IPv4 frame).
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "trace/pcap.hpp"

namespace monohids::trace::pcap_image {

inline constexpr std::size_t kGlobalHeader = 24;
inline constexpr std::size_t kRecordHeader = 16;
/// Offset of the IPv4 header inside a frame (after the Ethernet header).
inline constexpr std::size_t kIpOffset = 14;

inline std::string of(const std::vector<net::PacketRecord>& packets) {
  std::ostringstream out;
  write_pcap(out, packets);
  return std::move(out).str();
}

inline std::uint32_t u32_le_at(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  }
  return v;
}

inline void put_u32_le(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

inline void put_u16_be(std::string& bytes, std::size_t at, std::uint16_t v) {
  bytes[at] = static_cast<char>(v >> 8);
  bytes[at + 1] = static_cast<char>(v & 0xFF);
}

/// Byte offsets of every record header of a well-formed little-endian image.
inline std::vector<std::size_t> record_offsets(const std::string& bytes) {
  std::vector<std::size_t> offsets;
  for (std::size_t at = kGlobalHeader; at + kRecordHeader <= bytes.size();
       at += kRecordHeader + u32_le_at(bytes, at + 8)) {
    offsets.push_back(at);
  }
  return offsets;
}

/// Offset of the IPv4 header of the record whose header starts at `record`.
inline std::size_t ip_header_at(std::size_t record) {
  return record + kRecordHeader + kIpOffset;
}

}  // namespace monohids::trace::pcap_image
