// BGP path-attribute encoding/decoding (RFC 4271 §4.3, RFC 6793 for 4-byte
// AS support) as embedded in MRT TABLE_DUMP_V2 RIB entries.
//
// Validation lives in one place, AttributeWalker: it frames each attribute
// and rejects damage in every type this module understands. Two readers
// consume it. decode_path_attributes builds the full PathAttributes (dump,
// BGP4MP replay, round trips); read_origin_asns keeps only the origin ASes
// the leasing pipeline needs, without allocating. Both accept and reject
// exactly the same bytes with the same Error.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mrt/bytes.h"
#include "netbase/asn.h"
#include "netbase/ipv4.h"
#include "util/expected.h"

namespace sublet::mrt {

enum class BgpOrigin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

enum class AsPathSegmentType : std::uint8_t { kAsSet = 1, kAsSequence = 2 };

struct AsPathSegment {
  AsPathSegmentType type = AsPathSegmentType::kAsSequence;
  std::vector<Asn> asns;
};

struct AsPath {
  std::vector<AsPathSegment> segments;

  /// The origin ASes of this path: the single last AS of a trailing
  /// AS_SEQUENCE, or every member of a trailing AS_SET (aggregated routes).
  /// Empty path -> empty vector.
  std::vector<Asn> origin_asns() const;

  /// Flattened AS list (sets expanded in place), for display.
  std::vector<Asn> flatten() const;

  bool empty() const { return segments.empty(); }
};

/// Decoded attribute set. Unrecognized attributes are preserved raw so a
/// decode → encode round trip is lossless.
struct PathAttributes {
  std::optional<BgpOrigin> origin;
  AsPath as_path;
  std::optional<Ipv4Addr> next_hop;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  bool atomic_aggregate = false;
  std::optional<std::pair<Asn, Ipv4Addr>> aggregator;
  std::vector<std::uint32_t> communities;

  struct RawAttribute {
    std::uint8_t flags = 0;
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;
  };
  std::vector<RawAttribute> unrecognized;
};

/// Attribute type codes we understand.
enum class AttrType : std::uint8_t {
  kOrigin = 1,
  kAsPath = 2,
  kNextHop = 3,
  kMed = 4,
  kLocalPref = 5,
  kAtomicAggregate = 6,
  kAggregator = 7,
  kCommunities = 8,
  kAs4Path = 17,
  kAs4Aggregator = 18,
};

/// Attribute flag bit: the length field is two bytes, not one.
inline constexpr std::uint8_t kFlagExtendedLength = 0x10;

/// One framed attribute; `payload` views the caller's bytes.
struct AttributeView {
  std::uint8_t flags = 0;
  std::uint8_t type = 0;
  std::span<const std::uint8_t> payload;
};

/// Walks an attribute blob, checking the framing (flags, extended length,
/// truncation) and the value of each recognized attribute: the ORIGIN
/// value, the NEXT_HOP/MED/LOCAL_PREF lengths, ATOMIC_AGGREGATE,
/// AGGREGATOR, COMMUNITIES and the AS_PATH/AS4_PATH segment framing.
/// Unrecognized types pass through unchecked.
class AttributeWalker {
 public:
  AttributeWalker(std::span<const std::uint8_t> data, bool four_byte_as)
      : reader_(data), four_byte_as_(four_byte_as) {}

  /// Next attribute; nullopt at the end of the blob or at the first
  /// damaged attribute (error() then holds why).
  std::optional<AttributeView> next() {
    if (error_ || reader_.remaining() == 0) return std::nullopt;
    AttributeView attr;
    attr.flags = reader_.u8();
    attr.type = reader_.u8();
    std::size_t length =
        (attr.flags & kFlagExtendedLength) ? reader_.u16() : reader_.u8();
    attr.payload = reader_.bytes(length);
    if (!check(attr)) return std::nullopt;
    return attr;
  }

  const std::optional<Error>& error() const { return error_; }

 private:
  /// Validates a framed attribute (or records the truncation that cut it
  /// short); false with error() set when it is damaged.
  bool check(const AttributeView& attr);

  BufReader reader_;
  bool four_byte_as_;
  std::optional<Error> error_;
};

/// Decode a BGP attribute blob. `four_byte_as` selects the AS_PATH word
/// size: TABLE_DUMP_V2 always uses 4-byte ASes (RFC 6396 §4.3.4); classic
/// BGP4MP without 4-byte capability uses 2 and carries AS4_PATH alongside.
Expected<PathAttributes> decode_path_attributes(
    std::span<const std::uint8_t> data, bool four_byte_as = true);

/// Append the origin ASes of an attribute blob to `out`: the same ASes as
/// decode_path_attributes(data, four_byte_as)->as_path.origin_asns(), in
/// the same order, read in place. Returns the Error decode_path_attributes
/// would return for damaged input (`out` may then hold a partial tail).
std::optional<Error> read_origin_asns(std::span<const std::uint8_t> data,
                                      bool four_byte_as,
                                      std::vector<Asn>& out);

/// Encode back to wire form. AS_PATH words follow `four_byte_as`.
std::vector<std::uint8_t> encode_path_attributes(const PathAttributes& attrs,
                                                 bool four_byte_as = true);

}  // namespace sublet::mrt
