#include "mrt/table_dump_v2.h"

#include "mrt/bytes.h"

namespace sublet::mrt {

namespace {
// Peer Type flag bits (RFC 6396 §4.3.1).
constexpr std::uint8_t kPeerTypeIpv6 = 0x01;
constexpr std::uint8_t kPeerTypeAs4 = 0x02;
}  // namespace

void encode_nlri_prefix(BufWriter& w, const Prefix& prefix) {
  w.u8(static_cast<std::uint8_t>(prefix.length()));
  int octets = (prefix.length() + 7) / 8;
  std::uint32_t net = prefix.network().value();
  for (int i = 0; i < octets; ++i) {
    w.u8(static_cast<std::uint8_t>(net >> (24 - 8 * i)));
  }
}

Expected<Prefix> decode_nlri_prefix(BufReader& r) {
  std::uint8_t len = r.u8();
  if (!r.ok() || len > 32) return fail("bad NLRI prefix length");
  int octets = (len + 7) / 8;
  std::uint32_t net = 0;
  auto raw = r.bytes(static_cast<std::size_t>(octets));
  if (!r.ok()) return fail("truncated NLRI prefix");
  for (int i = 0; i < octets; ++i) {
    net |= static_cast<std::uint32_t>(raw[static_cast<std::size_t>(i)])
           << (24 - 8 * i);
  }
  auto prefix = Prefix::make(Ipv4Addr(net), len);
  if (!prefix || prefix->network().value() != net) {
    return fail("NLRI prefix has nonzero host bits");
  }
  return *prefix;
}

Expected<PeerIndexTable> decode_peer_index_table(
    std::span<const std::uint8_t> body) {
  BufReader r(body);
  PeerIndexTable pit;
  pit.collector_bgp_id = Ipv4Addr(r.u32());
  std::uint16_t name_len = r.u16();
  pit.view_name = r.string(name_len);
  std::uint16_t peer_count = r.u16();
  if (!r.ok()) return fail("truncated PEER_INDEX_TABLE header");
  pit.peers.reserve(peer_count);
  for (int i = 0; i < peer_count; ++i) {
    std::uint8_t type = r.u8();
    Peer peer;
    peer.bgp_id = Ipv4Addr(r.u32());
    if (type & kPeerTypeIpv6) {
      // We only generate IPv4 peers, but tolerate IPv6 on read by skipping
      // the 16-byte address (its routes are indexed identically).
      r.skip(16);
    } else {
      peer.address = Ipv4Addr(r.u32());
    }
    peer.asn = Asn((type & kPeerTypeAs4) ? r.u32() : r.u16());
    if (!r.ok()) {
      return fail("truncated peer entry " + std::to_string(i));
    }
    pit.peers.push_back(peer);
  }
  return pit;
}

std::vector<std::uint8_t> encode_peer_index_table(const PeerIndexTable& pit) {
  BufWriter w;
  w.u32(pit.collector_bgp_id.value());
  w.u16(static_cast<std::uint16_t>(pit.view_name.size()));
  w.string(pit.view_name);
  w.u16(static_cast<std::uint16_t>(pit.peers.size()));
  for (const Peer& peer : pit.peers) {
    w.u8(kPeerTypeAs4);  // IPv4 address, 4-byte AS
    w.u32(peer.bgp_id.value());
    w.u32(peer.address.value());
    w.u32(peer.asn.value());
  }
  return w.take();
}

Expected<RibRecordFrame> RibRecordFrame::open(
    std::span<const std::uint8_t> body) {
  RibRecordFrame frame(body);
  frame.sequence_ = frame.reader_.u32();
  auto prefix = decode_nlri_prefix(frame.reader_);
  if (!prefix) return prefix.error();
  frame.prefix_ = *prefix;
  frame.entry_count_ = frame.reader_.u16();
  if (!frame.reader_.ok()) return fail("truncated RIB record header");
  return frame;
}

Expected<RibEntryView> RibRecordFrame::next_entry() {
  RibEntryView entry;
  entry.peer_index = reader_.u16();
  entry.originated_time = reader_.u32();
  std::uint16_t attr_len = reader_.u16();
  entry.attributes = reader_.bytes(attr_len);
  if (!reader_.ok()) {
    return fail("truncated RIB entry " + std::to_string(entries_read_));
  }
  ++entries_read_;
  return entry;
}

Expected<RibPrefixRecord> decode_rib_ipv4_unicast(
    std::span<const std::uint8_t> body) {
  auto frame = RibRecordFrame::open(body);
  if (!frame) return frame.error();
  RibPrefixRecord rec;
  rec.sequence = frame->sequence();
  rec.prefix = frame->prefix();
  rec.entries.reserve(frame->entry_count());
  for (int i = 0; i < frame->entry_count(); ++i) {
    auto view = frame->next_entry();
    if (!view) return view.error();
    RibEntry entry;
    entry.peer_index = view->peer_index;
    entry.originated_time = view->originated_time;
    // TABLE_DUMP_V2 always encodes AS_PATH with 4-byte ASes (RFC 6396).
    auto attrs =
        decode_path_attributes(view->attributes, /*four_byte_as=*/true);
    if (!attrs) return attrs.error();
    entry.attributes = std::move(*attrs);
    rec.entries.push_back(std::move(entry));
  }
  return rec;
}

std::vector<std::uint8_t> encode_rib_ipv4_unicast(const RibPrefixRecord& rec) {
  BufWriter w;
  w.u32(rec.sequence);
  encode_nlri_prefix(w, rec.prefix);
  w.u16(static_cast<std::uint16_t>(rec.entries.size()));
  for (const RibEntry& entry : rec.entries) {
    w.u16(entry.peer_index);
    w.u32(entry.originated_time);
    auto attrs = encode_path_attributes(entry.attributes, /*four_byte_as=*/true);
    w.u16(static_cast<std::uint16_t>(attrs.size()));
    w.bytes(attrs);
  }
  return w.take();
}

}  // namespace sublet::mrt
