#include "mrt/bgp_attrs.h"

#include "mrt/bytes.h"

namespace sublet::mrt {

namespace {
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
}  // namespace

std::vector<Asn> AsPath::origin_asns() const {
  if (segments.empty()) return {};
  const AsPathSegment& last = segments.back();
  if (last.asns.empty()) return {};
  if (last.type == AsPathSegmentType::kAsSet) return last.asns;
  return {last.asns.back()};
}

std::vector<Asn> AsPath::flatten() const {
  std::vector<Asn> out;
  for (const auto& seg : segments) {
    out.insert(out.end(), seg.asns.begin(), seg.asns.end());
  }
  return out;
}

namespace {

std::size_t as_word(bool four_byte_as) { return four_byte_as ? 4 : 2; }

/// Segment framing of an AS_PATH/AS4_PATH payload: known segment types,
/// no segment running past the payload.
std::optional<Error> check_as_path(std::span<const std::uint8_t> payload,
                                   bool four_byte_as) {
  for (std::size_t pos = 0; pos < payload.size();) {
    std::uint8_t type = payload[pos];
    if (type != 1 && type != 2) {
      return fail("bad AS_PATH segment type " + std::to_string(type));
    }
    if (pos + 1 == payload.size()) return fail("truncated AS_PATH segment");
    pos += 2 + payload[pos + 1] * as_word(four_byte_as);
    if (pos > payload.size()) return fail("truncated AS_PATH segment");
  }
  return std::nullopt;
}

/// Value checks for the attribute types this module understands.
std::optional<Error> check_attribute(std::uint8_t type,
                                     std::span<const std::uint8_t> payload,
                                     bool four_byte_as) {
  switch (static_cast<AttrType>(type)) {
    case AttrType::kOrigin:
      if (payload.empty() || payload[0] > 2) {
        return fail("bad ORIGIN attribute");
      }
      return std::nullopt;
    case AttrType::kAsPath:
      return check_as_path(payload, four_byte_as);
    case AttrType::kAs4Path:
      return check_as_path(payload, /*four_byte_as=*/true);
    case AttrType::kNextHop:
      if (payload.size() != 4) return fail("bad NEXT_HOP length");
      return std::nullopt;
    case AttrType::kMed:
      if (payload.size() != 4) return fail("bad MED length");
      return std::nullopt;
    case AttrType::kLocalPref:
      if (payload.size() != 4) return fail("bad LOCAL_PREF length");
      return std::nullopt;
    case AttrType::kAtomicAggregate:
      if (!payload.empty()) return fail("bad ATOMIC_AGGREGATE length");
      return std::nullopt;
    case AttrType::kAggregator:
    case AttrType::kAs4Aggregator: {
      bool four = four_byte_as ||
                  static_cast<AttrType>(type) == AttrType::kAs4Aggregator;
      if (payload.size() < as_word(four) + 4) {
        return fail("bad AGGREGATOR length");
      }
      return std::nullopt;
    }
    case AttrType::kCommunities:
      if (payload.size() % 4 != 0) return fail("bad COMMUNITIES length");
      return std::nullopt;
  }
  return std::nullopt;
}

/// Decode an AS_PATH payload that check_as_path accepted.
AsPath decode_as_path(std::span<const std::uint8_t> payload,
                      bool four_byte_as) {
  AsPath path;
  BufReader r(payload);
  while (r.remaining() > 0) {
    AsPathSegment seg;
    seg.type = static_cast<AsPathSegmentType>(r.u8());
    std::uint8_t count = r.u8();
    seg.asns.reserve(count);
    for (int i = 0; i < count; ++i) {
      seg.asns.push_back(Asn(four_byte_as ? r.u32() : r.u16()));
    }
    path.segments.push_back(std::move(seg));
  }
  return path;
}

}  // namespace

bool AttributeWalker::check(const AttributeView& attr) {
  if (!reader_.ok()) {
    error_ = fail("truncated attribute type " + std::to_string(attr.type));
  } else if (auto bad =
                 check_attribute(attr.type, attr.payload, four_byte_as_)) {
    error_ = std::move(*bad);
  }
  return !error_;
}

Expected<PathAttributes> decode_path_attributes(
    std::span<const std::uint8_t> data, bool four_byte_as) {
  PathAttributes attrs;
  AttributeWalker walker(data, four_byte_as);
  while (auto attr = walker.next()) {
    BufReader p(attr->payload);
    switch (static_cast<AttrType>(attr->type)) {
      case AttrType::kOrigin:
        attrs.origin = static_cast<BgpOrigin>(p.u8());
        break;
      case AttrType::kAsPath:
        attrs.as_path = decode_as_path(attr->payload, four_byte_as);
        break;
      case AttrType::kAs4Path:
        // RFC 6793: when the main path is 2-byte, AS4_PATH carries the true
        // 4-byte path and overrides it for origin extraction.
        if (!four_byte_as) {
          attrs.as_path = decode_as_path(attr->payload, /*four_byte_as=*/true);
        }
        break;
      case AttrType::kNextHop:
        attrs.next_hop = Ipv4Addr(p.u32());
        break;
      case AttrType::kMed:
        attrs.med = p.u32();
        break;
      case AttrType::kLocalPref:
        attrs.local_pref = p.u32();
        break;
      case AttrType::kAtomicAggregate:
        attrs.atomic_aggregate = true;
        break;
      case AttrType::kAggregator:
      case AttrType::kAs4Aggregator: {
        bool four = four_byte_as || static_cast<AttrType>(attr->type) ==
                                        AttrType::kAs4Aggregator;
        std::uint32_t asn = four ? p.u32() : p.u16();
        attrs.aggregator = {Asn(asn), Ipv4Addr(p.u32())};
        break;
      }
      case AttrType::kCommunities:
        while (p.remaining() >= 4) attrs.communities.push_back(p.u32());
        break;
      default:
        attrs.unrecognized.push_back(
            {attr->flags, attr->type,
             std::vector<std::uint8_t>(attr->payload.begin(),
                                       attr->payload.end())});
        break;
    }
  }
  if (walker.error()) return *walker.error();
  return attrs;
}

std::optional<Error> read_origin_asns(std::span<const std::uint8_t> data,
                                      bool four_byte_as,
                                      std::vector<Asn>& out) {
  // The path decode_path_attributes would keep: the last AS_PATH, or the
  // last AS4_PATH when the main path is 2-byte.
  std::span<const std::uint8_t> path;
  std::size_t word = as_word(four_byte_as);
  AttributeWalker walker(data, four_byte_as);
  while (auto attr = walker.next()) {
    if (attr->type == static_cast<std::uint8_t>(AttrType::kAsPath)) {
      path = attr->payload;
      word = as_word(four_byte_as);
    } else if (attr->type == static_cast<std::uint8_t>(AttrType::kAs4Path) &&
               !four_byte_as) {
      path = attr->payload;
      word = 4;
    }
  }
  if (walker.error()) return walker.error();

  // The walker checked the segment framing; hop to the trailing segment.
  std::size_t last = 0;
  for (std::size_t pos = 0; pos < path.size();) {
    last = pos;
    pos += 2 + path[pos + 1] * word;
  }
  if (path.empty() || path[last + 1] == 0) return std::nullopt;
  BufReader r(path.subspan(last + 2));
  std::size_t count = path[last + 1];
  if (path[last] == static_cast<std::uint8_t>(AsPathSegmentType::kAsSet)) {
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(Asn(word == 4 ? r.u32() : r.u16()));
    }
  } else {
    r.skip((count - 1) * word);
    out.push_back(Asn(word == 4 ? r.u32() : r.u16()));
  }
  return std::nullopt;
}

namespace {

void encode_one(BufWriter& w, std::uint8_t flags, AttrType type,
                const std::vector<std::uint8_t>& payload) {
  bool extended = payload.size() > 255;
  flags &= static_cast<std::uint8_t>(~kFlagExtendedLength);  // recomputed here
  if (extended) flags |= kFlagExtendedLength;
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(type));
  if (extended) {
    w.u16(static_cast<std::uint16_t>(payload.size()));
  } else {
    w.u8(static_cast<std::uint8_t>(payload.size()));
  }
  w.bytes(payload);
}

std::vector<std::uint8_t> encode_as_path(const AsPath& path,
                                         bool four_byte_as) {
  BufWriter w;
  for (const auto& seg : path.segments) {
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (Asn asn : seg.asns) {
      if (four_byte_as) {
        w.u32(asn.value());
      } else {
        w.u16(static_cast<std::uint16_t>(asn.value()));
      }
    }
  }
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> encode_path_attributes(const PathAttributes& attrs,
                                                 bool four_byte_as) {
  BufWriter w;
  if (attrs.origin) {
    encode_one(w, kFlagTransitive, AttrType::kOrigin,
               {static_cast<std::uint8_t>(*attrs.origin)});
  }
  if (!attrs.as_path.empty() || attrs.origin) {
    encode_one(w, kFlagTransitive, AttrType::kAsPath,
               encode_as_path(attrs.as_path, four_byte_as));
  }
  if (attrs.next_hop) {
    BufWriter p;
    p.u32(attrs.next_hop->value());
    encode_one(w, kFlagTransitive, AttrType::kNextHop, p.take());
  }
  if (attrs.med) {
    BufWriter p;
    p.u32(*attrs.med);
    encode_one(w, kFlagOptional, AttrType::kMed, p.take());
  }
  if (attrs.local_pref) {
    BufWriter p;
    p.u32(*attrs.local_pref);
    encode_one(w, kFlagTransitive, AttrType::kLocalPref, p.take());
  }
  if (attrs.atomic_aggregate) {
    encode_one(w, kFlagTransitive, AttrType::kAtomicAggregate, {});
  }
  if (attrs.aggregator) {
    BufWriter p;
    if (four_byte_as) {
      p.u32(attrs.aggregator->first.value());
    } else {
      p.u16(static_cast<std::uint16_t>(attrs.aggregator->first.value()));
    }
    p.u32(attrs.aggregator->second.value());
    encode_one(w, kFlagOptional | kFlagTransitive, AttrType::kAggregator,
               p.take());
  }
  if (!attrs.communities.empty()) {
    BufWriter p;
    for (std::uint32_t c : attrs.communities) p.u32(c);
    encode_one(w, kFlagOptional | kFlagTransitive, AttrType::kCommunities,
               p.take());
  }
  for (const auto& raw : attrs.unrecognized) {
    encode_one(w, raw.flags, static_cast<AttrType>(raw.type), raw.payload);
  }
  return w.take();
}

}  // namespace sublet::mrt
