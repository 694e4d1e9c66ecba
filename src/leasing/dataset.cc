#include "leasing/dataset.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "mrt/rib_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "whoisdb/parse.h"

namespace sublet::leasing {

namespace fs = std::filesystem;

const rpki::VrpSet* DatasetBundle::current_vrps() const {
  auto timestamps = rpki_archive.timestamps();
  if (timestamps.empty()) return nullptr;
  return rpki_archive.at(timestamps.back());
}

const whois::WhoisDb* DatasetBundle::db_for(whois::Rir rir) const {
  for (const whois::WhoisDb& db : whois) {
    if (db.rir() == rir) return &db;
  }
  return nullptr;
}

namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view view = trim(line);
    if (view.empty() || view.front() == '#') continue;
    out.emplace_back(view);
  }
  return out;
}

std::vector<std::string> sorted_files_with_extension(
    const std::string& dir, const std::string& extension) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == extension) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// See load_dataset in dataset.h: large buffers are mmapped and returned
/// to the system when freed, whichever thread allocated them.
void fix_mmap_threshold() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] { mallopt(M_MMAP_THRESHOLD, 16 << 20); });
#endif
}

/// Returns the free pages of every malloc arena to the system.
void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

HeapRelease::~HeapRelease() { release_free_heap(); }

DatasetBundle load_dataset(const std::string& dir, LoadOptions options) {
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("dataset directory missing: " + dir);
  }
  fix_mmap_threshold();
  unsigned threads = par::resolve_threads(options.threads);
  DatasetBundle bundle;
  obs::ScopedSpan load_span("dataset.load");
  // TaskGroup tasks run on pool threads; hand them the stage span id so
  // their spans nest under dataset.load in the trace.
  obs::SpanId load_id = load_span.id();
  const bool all = options.scope == DatasetScope::kAll;

  // One task graph: every independent file loads as one task, and two
  // stages continue on the worker of the task that completes their input.
  // Each task writes its own result slot and diagnostic sink; after the
  // join, slots merge in the serial load order so the bundle (including
  // diagnostics order) is identical at any thread count. With one thread,
  // every task runs inline in submission order.
  par::TaskGroup group(threads);

  // BGP collectors first: they and the RIB built from them are the longest
  // chain. Every MRT file's origin observations load concurrently, and the
  // task that finishes last hands the runs to the RIB in file order and
  // freezes it while WHOIS parses.
  std::string bgp_dir = dir + "/bgp";
  std::vector<std::string> bgp_files;
  if (fs::is_directory(bgp_dir)) {
    bgp_files = sorted_files_with_extension(bgp_dir, ".mrt");
  }
  std::vector<std::optional<Expected<mrt::OriginRun>>> runs(bgp_files.size());
  std::vector<Error> rib_diags;
  auto build_rib = [&] {
    obs::ScopedSpan rib_span("rib.load", load_id);
    std::size_t rib_snapshots = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      Expected<mrt::OriginRun>& run = *runs[i];
      if (!run) {
        rib_diags.push_back(run.error());
        continue;
      }
      for (const mrt::SkippedRecords& skipped : run->skipped) {
        rib_diags.push_back(
            fail("skipped " + std::to_string(skipped.count) +
                     " MRT record(s) of type " + std::to_string(skipped.type) +
                     "/" + std::to_string(skipped.subtype) +
                     " (not decoded)",
                 bgp_files[i]));
      }
      bundle.rib.add_origins(std::move(*run));
      ++rib_snapshots;
    }
    runs = {};
    // Build the table here, instead of lazily under the first query
    // (which may come from a classification thread).
    bundle.rib.freeze();
    rib_span.add_records(bundle.rib.prefix_count());
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("sublet_rib_snapshots_total",
                "MRT RIB snapshots merged into the routing table")
        .add(rib_snapshots);
    reg.gauge("sublet_rib_prefixes",
              "Prefixes in the most recently loaded RIB")
        .set(static_cast<std::int64_t>(bundle.rib.prefix_count()));
  };
  std::atomic<std::size_t> mrt_pending{bgp_files.size()};
  for (std::size_t i = 0; i < bgp_files.size(); ++i) {
    group.run([&, i] {
      {
        obs::ScopedSpan task("dataset.mrt", load_id);
        runs[i] = mrt::read_rib_origins(bgp_files[i]);
        if (*runs[i]) task.add_records((*runs[i])->records.size());
      }
      // acq_rel: the last task sees every other file's run.
      if (mrt_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        build_rib();
      }
    });
  }
  if (bgp_files.empty()) group.run(build_rib);

  // WHOIS databases, each as paragraph-slice tasks on this group; the
  // last slice of each file merges that file's database.
  constexpr std::size_t kRirCount = whois::kAllRirs.size();
  std::array<std::optional<whois::WhoisDb>, kRirCount> whois_dbs;
  std::array<std::vector<Error>, kRirCount> whois_diags;
  std::array<std::string, kRirCount> whois_paths;
  std::atomic<std::size_t> whois_pending{0};
  for (std::size_t i = 0; i < kRirCount; ++i) {
    std::string path =
        dir + "/whois/" + to_lower(rir_name(whois::kAllRirs[i])) + ".db";
    if (!fs::exists(path)) continue;
    whois_paths[i] = std::move(path);
    ++whois_pending;
  }
  // Each merge frees its file's slice databases into the malloc arenas of
  // the workers that parsed them, where they stayed resident: a scale-2
  // `infer` peaked at 138 MB instead of 131 MB. Once the last file is
  // merged, hand that memory back, off the RIB's critical path.
  auto whois_merged = [&] {
    if (whois_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      release_free_heap();
    }
  };
  for (std::size_t i = 0; i < kRirCount; ++i) {
    if (whois_paths[i].empty()) continue;
    group.run([&, i] {
      obs::ScopedSpan task("dataset.whois", load_id);
      whois::load_whois_file(group, whois_paths[i], whois::kAllRirs[i],
                             whois_dbs[i], &whois_diags[i], load_id,
                             whois_merged);
    });
  }

  // AS-level datasets.
  std::vector<Error> as_rel_diags, as2org_diags;
  std::string rel_path = dir + "/asgraph/as-rel.txt";
  std::string org_path = dir + "/asgraph/as2org.txt";
  if (fs::exists(rel_path)) {
    group.run([&] {
      obs::ScopedSpan task("dataset.asrel", load_id);
      bundle.as_rel = asgraph::AsRelationships::load(rel_path, &as_rel_diags);
    });
  }
  if (fs::exists(org_path)) {
    group.run([&] {
      obs::ScopedSpan task("dataset.as2org", load_id);
      bundle.as2org = asgraph::As2Org::load(org_path, &as2org_diags);
    });
  }

  // RPKI archive.
  std::vector<Error> rpki_diags;
  std::string rpki_dir = dir + "/rpki";
  if (all && fs::is_directory(rpki_dir)) {
    group.run([&] {
      obs::ScopedSpan task("dataset.rpki", load_id);
      bundle.rpki_archive =
          rpki::RpkiArchive::load_directory(rpki_dir, &rpki_diags);
    });
  }

  // Abuse lists.
  std::vector<Error> drop_diags, hijacker_diags, transfer_diags;
  std::string drop_path = dir + "/lists/asn-drop.json";
  std::string hijacker_path = dir + "/lists/serial-hijackers.txt";
  if (all) {
    if (fs::exists(drop_path)) {
      group.run([&] {
        obs::ScopedSpan task("dataset.lists", load_id);
        bundle.drop = abuse::AsnSet::load_drop(drop_path, &drop_diags);
      });
    }
    if (fs::exists(hijacker_path)) {
      group.run([&] {
        obs::ScopedSpan task("dataset.lists", load_id);
        bundle.hijackers =
            abuse::AsnSet::load_plain(hijacker_path, &hijacker_diags);
      });
    }
  }

  std::string transfers_path = dir + "/lists/transfers.txt";
  if (all && fs::exists(transfers_path)) {
    group.run([&] {
      obs::ScopedSpan task("dataset.transfers", load_id);
      bundle.transfers =
          transfers::TransferLog::load(transfers_path, &transfer_diags);
    });
  }

  // Geolocation snapshots, one task per provider CSV.
  std::string geo_dir = dir + "/geo";
  std::vector<std::string> geo_files;
  if (all && fs::is_directory(geo_dir)) {
    geo_files = sorted_files_with_extension(geo_dir, ".csv");
  }
  std::vector<std::optional<geo::GeoDb>> geodbs(geo_files.size());
  std::vector<std::vector<Error>> geo_diags(geo_files.size());
  for (std::size_t i = 0; i < geo_files.size(); ++i) {
    group.run([&, i] {
      obs::ScopedSpan task("dataset.geo", load_id);
      geodbs[i] = geo::GeoDb::load_csv(
          geo_files[i], fs::path(geo_files[i]).stem().string(), &geo_diags[i]);
    });
  }

  group.wait();

  // Merge barrier: everything below replays the serial load order.
  for (std::size_t i = 0; i < kRirCount; ++i) {
    if (!whois_dbs[i]) continue;
    bundle.whois.push_back(std::move(*whois_dbs[i]));
    bundle.diagnostics.insert(bundle.diagnostics.end(),
                              whois_diags[i].begin(), whois_diags[i].end());
    SUBLET_LOG(kInfo) << "loaded " << rir_name(whois::kAllRirs[i])
                      << " WHOIS: " << bundle.whois.back().block_count()
                      << " blocks";
  }
  if (bundle.whois.empty()) {
    throw std::runtime_error("no WHOIS databases under " + dir + "/whois");
  }

  bundle.diagnostics.insert(bundle.diagnostics.end(), rib_diags.begin(),
                            rib_diags.end());
  if (!bgp_files.empty()) {
    SUBLET_LOG(kInfo) << "RIB: " << bundle.rib.prefix_count()
                      << " prefixes from " << bgp_files.size()
                      << " collectors";
  }

  for (auto* diags : {&as_rel_diags, &as2org_diags, &rpki_diags, &drop_diags,
                      &hijacker_diags, &transfer_diags}) {
    bundle.diagnostics.insert(bundle.diagnostics.end(), diags->begin(),
                              diags->end());
  }
  for (std::size_t i = 0; i < geo_files.size(); ++i) {
    bundle.geodbs.push_back(std::move(*geodbs[i]));
    bundle.diagnostics.insert(bundle.diagnostics.end(), geo_diags[i].begin(),
                              geo_diags[i].end());
  }

  // Broker lists and evaluation ISP orgs.
  if (all) {
    obs::ScopedSpan lists_span("dataset.lists");
    for (whois::Rir rir : whois::kAllRirs) {
      std::string path =
          dir + "/lists/brokers-" + to_lower(rir_name(rir)) + ".txt";
      if (fs::exists(path)) bundle.brokers[rir] = read_lines(path);
    }
    std::string isp_path = dir + "/lists/eval-isp-orgs.txt";
    if (fs::exists(isp_path)) {
      for (const std::string& line : read_lines(isp_path)) {
        auto fields = split(line, '|');
        if (fields.size() != 2) continue;
        auto rir = whois::rir_from_name(trim(fields[0]));
        if (!rir) continue;
        bundle.eval_isp_orgs[*rir].emplace_back(trim(fields[1]));
      }
    }
  }
  return bundle;
}

DatasetBundle load_dataset(const std::string& dir) {
  return load_dataset(dir, LoadOptions{});
}

}  // namespace sublet::leasing
