#include "mrt/rib_file.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "mrt/mrt.h"
#include "obs/metrics.h"
#include "util/log.h"

namespace sublet::mrt {

void OriginRun::end_record(const Prefix& prefix, std::uint32_t entries) {
  auto first =
      origins.begin() + (records.empty() ? 0 : records.back().origins_end);
  std::sort(first, origins.end());
  origins.erase(std::unique(first, origins.end()), origins.end());
  records.push_back(
      {prefix, entries, static_cast<std::uint32_t>(origins.size())});
}

void OriginRun::add(const Prefix& prefix, std::uint32_t entries,
                    std::span<const Asn> record_origins) {
  origins.insert(origins.end(), record_origins.begin(), record_origins.end());
  end_record(prefix, entries);
}

std::span<const Asn> OriginRun::origins_of(std::size_t record) const {
  std::size_t first = record == 0 ? 0 : records[record - 1].origins_end;
  return std::span<const Asn>(origins).subspan(
      first, records[record].origins_end - first);
}

void write_rib_file(const std::string& path, const RibSnapshot& snapshot) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  MrtWriter writer(out);

  writer.write(snapshot.timestamp, MrtType::kTableDumpV2,
               static_cast<std::uint16_t>(TableDumpV2Subtype::kPeerIndexTable),
               encode_peer_index_table(snapshot.peer_table));

  std::uint32_t sequence = 0;
  for (const RibPrefixRecord& rec : snapshot.records) {
    RibPrefixRecord numbered = rec;
    numbered.sequence = sequence++;
    writer.write(snapshot.timestamp, MrtType::kTableDumpV2,
                 static_cast<std::uint16_t>(TableDumpV2Subtype::kRibIpv4Unicast),
                 encode_rib_ipv4_unicast(numbered));
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

namespace {

void note_skipped(std::vector<SkippedRecords>& skipped, const MrtRecord& rec) {
  for (SkippedRecords& s : skipped) {
    if (s.type == rec.type && s.subtype == rec.subtype) {
      ++s.count;
      return;
    }
  }
  skipped.push_back({rec.type, rec.subtype, 1});
}

void count_skipped(const std::vector<SkippedRecords>& skipped,
                   const std::string& path) {
  auto& reg = obs::MetricsRegistry::global();
  for (const SkippedRecords& s : skipped) {
    SUBLET_LOG(kDebug) << "skipped " << s.count << " MRT record(s) of type "
                       << s.type << "/" << s.subtype << " in " << path;
    reg.counter("sublet_mrt_records_skipped_total{type=\"" +
                    std::to_string(s.type) + "\",subtype=\"" +
                    std::to_string(s.subtype) + "\"}",
                "MRT records the RIB readers skipped without decoding")
        .add(s.count);
  }
}

/// The record loop both readers share: frames records, decodes the peer
/// table, hands each RIB_IPV4_UNICAST body to `on_rib` (which returns an
/// Error to stop) and tallies every other record in `skipped`.
template <typename OnPeerTable, typename OnRib>
std::optional<Error> scan_rib_file(const std::string& path,
                                   std::uint32_t& timestamp,
                                   std::vector<SkippedRecords>& skipped,
                                   OnPeerTable&& on_peer_table,
                                   OnRib&& on_rib) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open " + path);
  MrtReader reader(in, path);
  bool saw_peer_table = false;
  std::optional<Error> error;
  while (const MrtRecord* rec = reader.next()) {
    timestamp = rec->timestamp;
    if (rec->is(MrtType::kTableDumpV2, TableDumpV2Subtype::kPeerIndexTable)) {
      auto pit = decode_peer_index_table(rec->body);
      if (!pit) {
        error = pit.error();
        break;
      }
      on_peer_table(std::move(*pit));
      saw_peer_table = true;
    } else if (rec->is(MrtType::kTableDumpV2,
                       TableDumpV2Subtype::kRibIpv4Unicast)) {
      if ((error = on_rib(rec->body))) break;
    } else {
      note_skipped(skipped, *rec);
    }
  }
  count_skipped(skipped, path);
  if (error) return error;
  if (reader.error()) return *reader.error();
  if (!saw_peer_table) return fail("no PEER_INDEX_TABLE in " + path);
  return std::nullopt;
}

}  // namespace

Expected<RibSnapshot> read_rib_file(const std::string& path) {
  RibSnapshot snapshot;
  std::vector<SkippedRecords> skipped;
  auto error = scan_rib_file(
      path, snapshot.timestamp, skipped,
      [&](PeerIndexTable pit) { snapshot.peer_table = std::move(pit); },
      [&](std::span<const std::uint8_t> body) -> std::optional<Error> {
        auto rib = decode_rib_ipv4_unicast(body);
        if (!rib) return rib.error();
        snapshot.records.push_back(std::move(*rib));
        return std::nullopt;
      });
  if (error) return *error;
  return snapshot;
}

Expected<OriginRun> read_rib_origins(const std::string& path) {
  OriginRun run;
  std::uint32_t timestamp = 0;
  auto error = scan_rib_file(
      path, timestamp, run.skipped, [](PeerIndexTable) {},
      [&](std::span<const std::uint8_t> body) -> std::optional<Error> {
        auto frame = RibRecordFrame::open(body);
        if (!frame) return frame.error();
        for (int i = 0; i < frame->entry_count(); ++i) {
          auto entry = frame->next_entry();
          if (!entry) return entry.error();
          // TABLE_DUMP_V2 always encodes AS_PATH with 4-byte ASes.
          if (auto bad = read_origin_asns(entry->attributes,
                                          /*four_byte_as=*/true, run.origins)) {
            return bad;
          }
        }
        run.end_record(frame->prefix(), frame->entry_count());
        return std::nullopt;
      });
  if (error) return *error;
  return run;
}

}  // namespace sublet::mrt
