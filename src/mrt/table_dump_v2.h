// TABLE_DUMP_V2 subtype decoding/encoding — RFC 6396 §4.3.
//
// A RIB dump file is a PEER_INDEX_TABLE record followed by one
// RIB_IPV4_UNICAST record per prefix, each holding the prefix and one RIB
// entry per peer that carried a route for it. This is the exact layout
// RouteViews/RIS publish and what bgpdump post-processes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mrt/bgp_attrs.h"
#include "mrt/bytes.h"
#include "mrt/mrt.h"
#include "netbase/asn.h"
#include "netbase/ipv4.h"
#include "util/expected.h"

namespace sublet::mrt {

/// One vantage-point peer of the collector.
struct Peer {
  Ipv4Addr bgp_id;
  Ipv4Addr address;  ///< IPv4 peers only in this build
  Asn asn;
};

/// PEER_INDEX_TABLE (subtype 1).
struct PeerIndexTable {
  Ipv4Addr collector_bgp_id;
  std::string view_name;
  std::vector<Peer> peers;
};

/// One (peer, attributes) pair inside a RIB record.
struct RibEntry {
  std::uint16_t peer_index = 0;
  std::uint32_t originated_time = 0;
  PathAttributes attributes;
};

/// RIB_IPV4_UNICAST (subtype 2).
struct RibPrefixRecord {
  std::uint32_t sequence = 0;
  Prefix prefix;
  std::vector<RibEntry> entries;
};

Expected<PeerIndexTable> decode_peer_index_table(
    std::span<const std::uint8_t> body);
std::vector<std::uint8_t> encode_peer_index_table(const PeerIndexTable& pit);

/// One RIB entry as framed on the wire; `attributes` views the record body.
struct RibEntryView {
  std::uint16_t peer_index = 0;
  std::uint32_t originated_time = 0;
  std::span<const std::uint8_t> attributes;
};

/// The framing of a RIB_IPV4_UNICAST body: the header, then entry_count()
/// entries read one by one. Both RIB readers (decode_rib_ipv4_unicast and
/// the origin-only read_rib_origins) frame records through it, so they
/// reject the same damage with the same Error.
class RibRecordFrame {
 public:
  static Expected<RibRecordFrame> open(std::span<const std::uint8_t> body);

  std::uint32_t sequence() const { return sequence_; }
  const Prefix& prefix() const { return prefix_; }
  std::uint16_t entry_count() const { return entry_count_; }

  /// The next entry; call at most entry_count() times.
  Expected<RibEntryView> next_entry();

 private:
  explicit RibRecordFrame(std::span<const std::uint8_t> body)
      : reader_(body) {}

  BufReader reader_;
  std::uint32_t sequence_ = 0;
  Prefix prefix_;
  std::uint16_t entry_count_ = 0;
  int entries_read_ = 0;
};

Expected<RibPrefixRecord> decode_rib_ipv4_unicast(
    std::span<const std::uint8_t> body);
std::vector<std::uint8_t> encode_rib_ipv4_unicast(const RibPrefixRecord& rec);

/// NLRI helpers shared with BGP4MP: prefix encoded as length byte + the
/// minimal number of prefix octets.
void encode_nlri_prefix(BufWriter& w, const Prefix& prefix);
Expected<Prefix> decode_nlri_prefix(BufReader& r);

}  // namespace sublet::mrt
