// MRT (Multi-Threaded Routing Toolkit) record framing — RFC 6396.
//
// RouteViews and RIPE RIS publish RIB snapshots as MRT TABLE_DUMP_V2 files.
// This header covers the 16-byte common header and record-level streaming;
// table_dump_v2.h decodes the subtypes the pipeline needs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/expected.h"

namespace sublet::mrt {

/// MRT record types (RFC 6396 §4). Only the ones we produce/consume.
enum class MrtType : std::uint16_t {
  kTableDumpV2 = 13,
  kBgp4mp = 16,
};

/// TABLE_DUMP_V2 subtypes (RFC 6396 §4.3).
enum class TableDumpV2Subtype : std::uint16_t {
  kPeerIndexTable = 1,
  kRibIpv4Unicast = 2,
  kRibIpv6Unicast = 4,
  kRibGeneric = 6,
};

/// One framed record: common header fields + raw body.
struct MrtRecord {
  std::uint32_t timestamp = 0;  ///< seconds since epoch
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::vector<std::uint8_t> body;

  bool is(MrtType t, TableDumpV2Subtype s) const {
    return type == static_cast<std::uint16_t>(t) &&
           subtype == static_cast<std::uint16_t>(s);
  }
};

/// Streaming MRT reader. Iterates records from a binary istream; a record
/// with a bad header or truncated body yields an Error and stops (MRT has
/// no resynchronization marker, so damage is not recoverable mid-file).
/// Reuses one record, body buffer included, for the whole stream.
class MrtReader {
 public:
  explicit MrtReader(std::istream& in, std::string source = {});

  /// Next record, valid until the following next() call; nullptr at clean
  /// EOF. Truncation mid-record is reported through error() and also ends
  /// iteration.
  const MrtRecord* next();

  const std::optional<Error>& error() const { return error_; }
  std::size_t records_read() const { return count_; }

 private:
  std::istream& in_;
  std::string source_;
  std::optional<Error> error_;
  std::size_t count_ = 0;
  MrtRecord record_;
};

/// MRT writer: frames bodies with the common header.
class MrtWriter {
 public:
  explicit MrtWriter(std::ostream& out);

  void write(std::uint32_t timestamp, MrtType type, std::uint16_t subtype,
             std::span<const std::uint8_t> body);

  std::size_t records_written() const { return count_; }

 private:
  std::ostream& out_;
  std::size_t count_ = 0;
};

}  // namespace sublet::mrt
