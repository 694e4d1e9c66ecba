// Dataset bundle: everything the pipeline consumes, loaded from one
// directory laid out the way the simulator (or a real-data fetcher) emits:
//
//   <dir>/whois/{ripe,arin,apnic,afrinic,lacnic}.db
//   <dir>/bgp/*.mrt                 one TABLE_DUMP_V2 file per collector
//   <dir>/rpki/vrps-<ts>.csv        dated VRP snapshots
//   <dir>/asgraph/as-rel.txt        CAIDA serial-1
//   <dir>/asgraph/as2org.txt        CAIDA flat as2org
//   <dir>/lists/asn-drop.json       Spamhaus ASN-DROP (JSON Lines)
//   <dir>/lists/serial-hijackers.txt
//   <dir>/lists/brokers-<rir>.txt   registered broker company names
//   <dir>/lists/eval-isp-orgs.txt   "<RIR>|<org-id>" negative-label orgs
//
// Missing optional pieces load as empty; missing WHOIS entirely is an
// error. The simulator's ground-truth file lives outside this bundle on
// purpose (simnet/ground_truth.h) so the classifier can never see it.
//
// A caller that only classifies can skip the pieces classification never
// reads (LoadOptions::scope); skipped pieces stay empty. The CLI loads:
//   infer, explain          WHOIS, RIB, AS data (DatasetScope::kClassify)
//   every other command     everything (DatasetScope::kAll)
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "abuse/asn_lists.h"
#include "asgraph/as2org.h"
#include "asgraph/as_rel.h"
#include "bgp/rib.h"
#include "geo/geodb.h"
#include "rpki/archive.h"
#include "transfers/transfer_log.h"
#include "whoisdb/model.h"

namespace sublet::leasing {

/// Returns the free heap to the system when destroyed: the first member of
/// DatasetBundle, so it runs after every other member has been freed.
struct HeapRelease {
  ~HeapRelease();
};

struct DatasetBundle {
  /// A process that loaded, classified and exported a scale-2 bundle kept
  /// 131-196 MB resident after freeing it all, with ~130 KB in use: a few
  /// live blocks near the top of each heap stop glibc from shrinking it.
  /// malloc_trim hands those pages back (45-79 MB stayed).
  HeapRelease heap_release;
  std::vector<whois::WhoisDb> whois;  ///< one per RIR found on disk
  bgp::Rib rib;                       ///< union of all collectors
  asgraph::AsRelationships as_rel;
  asgraph::As2Org as2org;
  rpki::RpkiArchive rpki_archive;
  abuse::AsnSet drop;
  abuse::AsnSet hijackers;
  transfers::TransferLog transfers;  ///< RIR-reported transfers, if present
  std::vector<geo::GeoDb> geodbs;    ///< geolocation snapshots, if present
  std::map<whois::Rir, std::vector<std::string>> brokers;
  std::map<whois::Rir, std::vector<std::string>> eval_isp_orgs;
  std::vector<Error> diagnostics;     ///< non-fatal per-record problems

  /// The measurement-window VRP set: the archive's latest snapshot (empty
  /// set if there is no RPKI data).
  const rpki::VrpSet* current_vrps() const;

  const whois::WhoisDb* db_for(whois::Rir rir) const;
};

enum class DatasetScope {
  kAll,       ///< every piece of the bundle
  kClassify,  ///< what paper §5 classification reads: WHOIS, RIB, AS data;
              ///< RPKI, geo and lists/ (transfers, abuse, brokers) stay empty
};

struct LoadOptions {
  /// Worker threads for the bundle load: the per-collector RIB files (the
  /// last one to finish builds the RIB), the WHOIS databases' paragraph
  /// slices, and the auxiliary datasets run as tasks of one group.
  /// 0 = process default (--threads), 1 = inline, in submission order.
  /// Results and diagnostics order are identical either way.
  unsigned threads = 0;
  DatasetScope scope = DatasetScope::kAll;
};

/// Load a bundle. Throws std::runtime_error when the directory is missing
/// or contains no WHOIS databases.
///
/// With glibc, the first call fixes the process's malloc mmap threshold at
/// 16 MiB (mallopt M_MMAP_THRESHOLD), which also turns off glibc's dynamic
/// threshold. The load tasks allocate and free buffers of tens of MB on
/// worker threads; after the first such free, the dynamic threshold rose
/// and the next ones came from per-thread arenas, where freed memory stays
/// resident. In a process that loaded a scale-2 world and then freed the
/// bundle, 150-245 MB stayed resident, a different amount in every run;
/// with the fixed threshold ~90 MB did, and `sublet infer`'s peak RSS fell
/// from ~179 MB to ~153 MB at the same wall time.
DatasetBundle load_dataset(const std::string& dir, LoadOptions options);
DatasetBundle load_dataset(const std::string& dir);

}  // namespace sublet::leasing
