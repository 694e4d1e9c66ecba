// Whole-file RIB dump reader/writer.
//
// A RouteViews/RIS "rib" file = one PEER_INDEX_TABLE record followed by
// RIB_IPV4_UNICAST records in prefix order. Two readers share one record
// loop (framing, PEER_INDEX_TABLE check, NLRI and attribute validation):
//  - read_rib_file decodes everything into a RibSnapshot (dump, benches);
//  - read_rib_origins keeps only what paper step 4 reads, an OriginRun of
//    (prefix, entry count, origin ASes) per record. bgp::Rib builds its
//    table from either.
// Both skip records they do not decode (other types, ADD-PATH and IPv6
// subtypes), counting each in sublet_mrt_records_skipped_total{type,subtype}.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mrt/table_dump_v2.h"
#include "util/expected.h"

namespace sublet::mrt {

/// A decoded RIB dump: the peer table plus every prefix record.
struct RibSnapshot {
  std::uint32_t timestamp = 0;  ///< snapshot time (same on all records)
  PeerIndexTable peer_table;
  std::vector<RibPrefixRecord> records;
};

/// Records of one MRT type/subtype a reader skipped.
struct SkippedRecords {
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::uint64_t count = 0;
};

/// The origin observations of one RIB file, in record order: per record,
/// its prefix, its RIB entry count and the distinct origin ASes of its
/// entries (a record with no entries, or only empty AS_PATHs, has none).
struct OriginRun {
  struct Record {
    Prefix prefix;
    std::uint32_t entries = 0;      ///< RIB entries (peer observations)
    std::uint32_t origins_end = 0;  ///< end of this record's origins slice
  };
  std::vector<Record> records;
  std::vector<Asn> origins;  ///< record slices, each sorted and distinct
  std::vector<SkippedRecords> skipped;  ///< by (type, subtype), first seen

  /// Close a record whose origins were appended to `origins` since the
  /// previous record: sorts and dedups that tail.
  void end_record(const Prefix& prefix, std::uint32_t entries);
  /// Append a record; `record_origins` may repeat ASes in any order.
  void add(const Prefix& prefix, std::uint32_t entries,
           std::span<const Asn> record_origins);

  std::span<const Asn> origins_of(std::size_t record) const;
};

/// Serialize a snapshot to `path` as a standards-conformant TABLE_DUMP_V2
/// file. Sequence numbers are (re)assigned in record order. Throws
/// std::runtime_error on I/O failure.
void write_rib_file(const std::string& path, const RibSnapshot& snapshot);

/// Parse an entire RIB file. Unknown record types/subtypes are skipped;
/// structural damage yields an Error.
Expected<RibSnapshot> read_rib_file(const std::string& path);

/// Stream a RIB file into its origin observations. Accepts and rejects
/// exactly what read_rib_file does, with the same Error; on error nothing
/// of the file is returned.
Expected<OriginRun> read_rib_origins(const std::string& path);

}  // namespace sublet::mrt
