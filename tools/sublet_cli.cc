// sublet — command-line front end to the lease-inference library.
//
//   sublet generate <dir> [--scale S] [--seed N]   emit a synthetic dataset
//   sublet infer <dataset> [-o leases.csv]         run the pipeline
//   sublet explain <dataset> <prefix>...           verdict walkthroughs
//   sublet evaluate <dataset>                      Table-2 style evaluation
//   sublet abuse <dataset>                         blocklist cross-reference
//   sublet timeline <updates.mrt> <rpki-dir> <prefix> [from] [to]
//                                                  lease-history (Figure 3)
//   sublet snapshot write|read|verify ...          binary inference snapshots
//   sublet catalog build|append|ls|verify ...      multi-epoch catalogs
//   sublet serve <file.snap> [--port N]            TCP prefix-query server
//   sublet serve --catalog <dir> [--port N]        time-travel serving
//   sublet query <host:port> <prefix>...           one-shot protocol client
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "bgp/origin_tracker.h"
#include "catalog/catalog.h"
#include "mrt/bgpdump_text.h"
#include "obs/trace.h"
#include "leasing/abuse_analysis.h"
#include "leasing/dataset.h"
#include "leasing/evaluation.h"
#include "leasing/pipeline.h"
#include "leasing/churn.h"
#include "leasing/report.h"
#include "leasing/summary.h"
#include "leasing/timeline.h"
#include "serve/client.h"
#include "serve/engine_state.h"
#include "serve/server.h"
#include "serve/snapshot_file.h"
#include "loadgen/loadgen.h"
#include "simnet/builder.h"
#include "simnet/emit.h"
#include "simnet/timeline_scenario.h"
#include "snapshot/snapshot.h"
#include "snapshot/writer.h"
#include "top.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/table.h"

using namespace sublet;

namespace {

int usage() {
  std::cerr <<
      "usage: sublet [--threads N] [--trace-json F] [--log-json] <command> [args]\n"
      "  --threads N     worker threads for parse/load/classify/emit\n"
      "                  (default: hardware concurrency; 1 = serial)\n"
      "  --trace-json F  write a Chrome trace-viewer span file for the run\n"
      "                  (docs/OBSERVABILITY.md)\n"
      "  --log-json      one-line JSON log records instead of [LEVEL] text\n"
      "  generate <dir> [--scale S] [--seed N]   emit a synthetic dataset\n"
      "  infer <dataset> [-o leases.csv]         classify and export\n"
      "  explain <dataset> <prefix>...           per-prefix walkthrough\n"
      "  evaluate <dataset>                      broker/ISP reference eval\n"
      "  abuse <dataset>                         blocklist cross-reference\n"
      "  timeline <updates.mrt> <rpki-dir> <prefix> [from] [to]\n"
      "                                          lease-history reconstruction\n"
      "  churn <leases-a.csv> <leases-b.csv>     diff two inference exports\n"
      "  report <dataset>                        full measurement summary\n"
      "  dump <rib.mrt>                          MRT -> bgpdump -m text\n"
      "  snapshot write <leases.csv> <out.snap>  pack inferences for serving\n"
      "  snapshot read <in.snap> [-o out.csv]    unpack back to the artifact\n"
      "  snapshot verify <in.snap>               check magic/version/CRC\n"
      "  catalog build <dir> [--epochs N] [--scale S] [--seed N]\n"
      "        [--start TS] [--step SECONDS]     synthesize a multi-epoch\n"
      "                                          catalog (docs/TIMETRAVEL.md)\n"
      "  catalog append <dir> <leases.csv> --epoch TS [--max-delta-frac F]\n"
      "        [--full]                          append one epoch (delta or\n"
      "                                          full per the size guard)\n"
      "  catalog ls <dir>                        list epochs\n"
      "  catalog verify <dir> [--deep]           check every epoch + chain\n"
      "  serve <in.snap> [--port N] [--port-file F] [--shards N]\n"
      "        [--max-conns N] [--idle-timeout-ms N] [--io-timeout-ms N]\n"
      "        [--drain-ms N] [--max-outbuf-bytes N] [--slow-threshold-us N]\n"
      "        [--reload-on-sighup]\n"
      "                                          prefix-query server (see\n"
      "                                          docs/SERVING.md and\n"
      "                                          docs/ROBUSTNESS.md)\n"
      "  serve --catalog <dir> [same flags]      time-travel server: AT and\n"
      "                                          HISTORY answer from any\n"
      "                                          epoch; RELOAD re-scans the\n"
      "                                          catalog for appended epochs\n"
      "  load [--seed N] [--workers N] [--duration-ms N] [--qps F]\n"
      "        [--zipf-alpha F] [--scenario S] [--world-scale F]\n"
      "        [--world-seed N] [--world-epochs N] [--world-pending N]\n"
      "        [--catalog <dir>] [--shards N] [--batch N] [--depth N]\n"
      "        [--p99-us F] [--heavy-p99-us F] [--spot-every N]\n"
      "        [--max-outbuf-bytes N] [--report F] [--run-dir D]\n"
      "        [--keep-run-dir] [--fork-server]    seed-keyed soak + chaos\n"
      "                                          driver; prints the SLO\n"
      "                                          report JSON and exits 0\n"
      "                                          only if slo.pass (see\n"
      "                                          docs/ROBUSTNESS.md)\n"
      "  query <host:port> [--lpm|--bin|--stats|--health|--metrics|--shutdown]\n"
      "        [--inspect] [--at TS] [--history] [--reload <path.snap>]\n"
      "        [--timeout-ms N] [--retries N]\n"
      "        <prefix>...                       one-shot loopback client\n"
      "                                          (--bin batches the addresses\n"
      "                                          into one binary LPM frame;\n"
      "                                          --at needs a catalog\n"
      "                                          server;\n"
      "                                          --inspect dumps the per-shard\n"
      "                                          flight-recorder JSON)\n"
      "  top <host:port> [--interval-ms N] [--count N] [--once]\n"
      "                                          live dashboard: per-verb QPS\n"
      "                                          and p50/p99, per-shard conns,\n"
      "                                          slow-request table (--once\n"
      "                                          prints one plain sample)\n";
  return 2;
}

struct LoadedRun {
  leasing::DatasetBundle bundle;
  asgraph::AsGraph graph;
  std::vector<leasing::LeaseInference> results;

  explicit LoadedRun(
      const std::string& dir,
      leasing::DatasetScope scope = leasing::DatasetScope::kAll)
      : bundle(leasing::load_dataset(dir, {.scope = scope})),
        graph(&bundle.as_rel, &bundle.as2org),
        results(leasing::Pipeline(bundle.rib, graph).classify(bundle.whois)) {}
};

/// The run of a one-shot command (infer, evaluate, abuse, report), never
/// destroyed: the process exits right after the command. Freeing a scale-2
/// run (the classify results, the WHOIS databases, the RIB, then
/// malloc_trim) took 37-40 ms of a ~300 ms `infer`, after its last span.
/// Held here, the run stays reachable, so leak checkers report nothing.
LoadedRun* g_run = nullptr;

LoadedRun& load_run(const std::string& dir,
                    leasing::DatasetScope scope = leasing::DatasetScope::kAll) {
  g_run = new LoadedRun(dir, scope);
  return *g_run;
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  sim::WorldConfig config;
  config.scale = 0.1;
  config.seed = 42;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      config.scale = std::stod(args[++i]);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      config.seed = std::stoull(args[++i]);
    } else {
      std::cerr << "unknown option " << args[i] << "\n";
      return usage();
    }
  }
  sim::World world = sim::build_world(config);
  sim::emit_world(world, args[0]);
  std::cout << "wrote dataset with " << world.leaves.size() << " leaves / "
            << world.ases.size() << " ASes to " << args[0] << "\n";
  return 0;
}

int cmd_infer(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::optional<std::string> out_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      std::cerr << "unknown option " << args[i] << "\n";
      return usage();
    }
  }
  LoadedRun& run = load_run(args[0], leasing::DatasetScope::kClassify);
  auto counts = leasing::Pipeline::count_groups(run.results);
  std::cout << "classified " << with_commas(counts.total())
            << " sub-allocations; " << with_commas(counts.leased())
            << " inferred leased\n";
  obs::ScopedSpan csv_span("csv.write");
  csv_span.add_records(run.results.size());
  if (out_path) {
    leasing::save_inferences_csv(*out_path, run.results);
    std::cout << "inferences written to " << *out_path << "\n";
  } else {
    leasing::write_inferences_csv(std::cout, run.results);
  }
  return 0;
}

int cmd_explain(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  leasing::DatasetBundle bundle = leasing::load_dataset(
      args[0], {.scope = leasing::DatasetScope::kClassify});
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  leasing::Pipeline pipeline(bundle.rib, graph);
  std::vector<whois::AllocationTree> trees;
  trees.reserve(bundle.whois.size());
  for (const whois::WhoisDb& db : bundle.whois) {
    trees.push_back(whois::AllocationTree::build(db));
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto prefix = Prefix::parse(args[i]);
    if (!prefix) {
      std::cerr << "bad prefix '" << args[i] << "'\n";
      continue;
    }
    bool found = false;
    for (std::size_t r = 0; r < bundle.whois.size(); ++r) {
      if (!trees[r].root_of(*prefix)) continue;
      std::cout << pipeline.explain(*prefix, trees[r], bundle.whois[r]) << "\n";
      found = true;
      break;
    }
    if (!found) {
      std::cout << prefix->to_string()
                << ": not in any RIR's allocation tree\n\n";
    }
  }
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  LoadedRun& run = load_run(args[0]);
  leasing::ReferenceDataset reference;
  for (const whois::WhoisDb& db : run.bundle.whois) {
    auto brokers = run.bundle.brokers.find(db.rir());
    if (brokers != run.bundle.brokers.end()) {
      auto match =
          leasing::match_brokers(db, brokers->second, run.bundle.rib);
      for (const Prefix& p : match.prefixes) reference.add(p, true);
    }
    auto isps = run.bundle.eval_isp_orgs.find(db.rir());
    if (isps != run.bundle.eval_isp_orgs.end()) {
      auto tree = whois::AllocationTree::build(db);
      for (const Prefix& p :
           leasing::isp_negatives(db, isps->second, tree, run.bundle.rib)) {
        reference.add(p, false);
      }
    }
  }
  if (reference.labels.empty()) {
    std::cerr << "dataset has no broker/ISP reference lists\n";
    return 1;
  }
  auto m = leasing::evaluate(run.results, reference);
  std::cout << "reference: " << with_commas(reference.positives())
            << " positives, " << with_commas(reference.negatives())
            << " negatives\n";
  std::cout << "TP=" << m.tp << " FN=" << m.fn << " FP=" << m.fp
            << " TN=" << m.tn << "\n";
  std::cout << "precision " << fixed(m.precision(), 3) << ", recall "
            << fixed(m.recall(), 3) << ", specificity "
            << fixed(m.specificity(), 3) << ", accuracy "
            << fixed(m.accuracy(), 3) << "\n";
  return 0;
}

int cmd_abuse(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  LoadedRun& run = load_run(args[0]);
  leasing::AbuseAnalysis analysis(run.results, run.bundle.rib);
  auto drop = analysis.prefix_overlap(run.bundle.drop);
  std::cout << "DROP-originated: leased " << percent(drop.leased_fraction())
            << " vs non-leased " << percent(drop.nonleased_fraction())
            << " (risk ratio " << fixed(drop.risk_ratio(), 1) << "x)\n";
  auto hijack = analysis.prefix_overlap(run.bundle.hijackers);
  std::cout << "hijacker-originated: leased "
            << percent(hijack.leased_fraction()) << " vs non-leased "
            << percent(hijack.nonleased_fraction()) << "\n";
  if (const rpki::VrpSet* vrps = run.bundle.current_vrps()) {
    auto roa = analysis.roa_overlap(*vrps, run.bundle.drop);
    if (roa.leased_roas_total) {
      std::cout << "ROAs authorizing DROP ASes: leased "
                << percent(static_cast<double>(roa.leased_roas_listed) /
                           roa.leased_roas_total)
                << "\n";
    }
  }
  return 0;
}

int cmd_timeline(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  auto prefix = Prefix::parse(args[2]);
  if (!prefix) {
    std::cerr << "bad prefix '" << args[2] << "'\n";
    return 1;
  }
  bgp::OriginTracker tracker;
  auto applied = bgp::replay_updates_file(args[0], tracker);
  if (!applied) {
    std::cerr << applied.error().to_string() << "\n";
    return 1;
  }
  auto archive = rpki::RpkiArchive::load_directory(args[1]);
  auto timestamps = archive.timestamps();
  std::uint32_t from = args.size() > 3
                           ? static_cast<std::uint32_t>(std::stoul(args[3]))
                           : (timestamps.empty() ? 0 : timestamps.front());
  std::uint32_t to = args.size() > 4
                         ? static_cast<std::uint32_t>(std::stoul(args[4]))
                         : (timestamps.empty() ? UINT32_MAX
                                               : timestamps.back());
  auto history = leasing::LeaseTimeline::history_from_tracker(tracker,
                                                              *prefix);
  auto events =
      leasing::LeaseTimeline::collect(*prefix, archive, history, from, to);
  std::cout << leasing::LeaseTimeline::render(events, from, to);
  for (const auto& period : leasing::LeaseTimeline::segment(events)) {
    std::cout << (period.is_as0_gap() ? "AS0 quarantine"
                                      : "lease " + period.asn.to_string())
              << "  [" << period.start << " .. " << period.end << "]\n";
  }
  return 0;
}

int cmd_report(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  LoadedRun& run = load_run(args[0]);
  std::cout << leasing::render_summary(run.bundle, run.results);
  return 0;
}

int cmd_dump(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  auto snapshot = mrt::read_rib_file(args[0]);
  if (!snapshot) {
    std::cerr << snapshot.error().to_string() << "\n";
    return 1;
  }
  mrt::write_bgpdump_text(std::cout, *snapshot);
  return 0;
}

int cmd_churn(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  auto before = leasing::load_inferences_csv(args[0]);
  auto after = leasing::load_inferences_csv(args[1]);
  if (!before || !after) {
    std::cerr << (before ? after.error() : before.error()).to_string()
              << "\n";
    return 1;
  }
  auto churn = leasing::diff_inferences(*before, *after);
  std::cout << "new leases:      " << churn.started.size() << "\n";
  std::cout << "ended leases:    " << churn.ended.size() << "\n";
  std::cout << "lessee changed:  " << churn.lessee_changed.size() << "\n";
  std::cout << "stable:          " << churn.stable.size() << "\n";
  std::cout << "churn rate:      " << percent(churn.churn_rate()) << "\n";
  return 0;
}

int cmd_snapshot(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string& verb = args[0];
  if (verb == "write") {
    if (args.size() != 3) return usage();
    auto inferences = leasing::load_inferences_csv(args[1]);
    if (!inferences) {
      std::cerr << inferences.error().to_string() << "\n";
      return 1;
    }
    snapshot::write_snapshot_file(args[2], *inferences);
    std::cout << "wrote " << with_commas(inferences->size())
              << " records to " << args[2] << "\n";
    return 0;
  }
  if (verb == "read") {
    std::optional<std::string> out_path;
    std::vector<std::string> rest;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "-o" && i + 1 < args.size()) {
        out_path = args[++i];
      } else if (!args[i].empty() && args[i][0] == '-') {
        std::cerr << "unknown option " << args[i] << "\n";
        return usage();
      } else {
        rest.push_back(args[i]);
      }
    }
    if (rest.size() != 1) return usage();
    auto snap = snapshot::Snapshot::open(rest[0]);
    if (!snap) {
      std::cerr << snap.error().to_string() << "\n";
      return 1;
    }
    std::vector<leasing::LeaseInference> inferences;
    inferences.reserve(snap->record_count());
    for (std::size_t i = 0; i < snap->record_count(); ++i) {
      inferences.push_back(snap->materialize(i));
    }
    if (out_path) {
      leasing::save_inferences_csv(*out_path, inferences);
      std::cout << "inferences written to " << *out_path << "\n";
    } else {
      leasing::write_inferences_csv(std::cout, inferences);
    }
    return 0;
  }
  if (verb == "verify") {
    if (args.size() != 2) return usage();
    auto snap =
        snapshot::Snapshot::open(args[1], snapshot::Snapshot::Mode::kRead);
    if (!snap) {
      std::cerr << "invalid snapshot: " << snap.error().to_string() << "\n";
      return 1;
    }
    std::cout << "ok: version " << snap->version() << ", "
              << with_commas(snap->record_count()) << " records, "
              << with_commas(snap->string_count()) << " strings, "
              << with_commas(snap->file_bytes()) << " bytes\n";
    return 0;
  }
  std::cerr << "unknown snapshot verb '" << verb << "'\n";
  return usage();
}

int cmd_catalog(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string& verb = args[0];
  if (verb == "build") {
    // Synthesize a catalog from an evolving simnet world: epoch 1 is a
    // full snapshot, later epochs go through the append path (delta or
    // full per the size guard) — the same code a production ingest runs.
    if (args.size() < 2) return usage();
    const std::string& dir = args[1];
    sim::WorldConfig config;
    config.scale = 0.05;
    config.seed = 42;
    sim::EpochSeriesOptions series_options;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--epochs" && i + 1 < args.size()) {
        auto n = parse_u32(args[++i]);
        if (!n || *n == 0) {
          std::cerr << "--epochs expects a positive integer\n";
          return usage();
        }
        series_options.epochs = *n;
      } else if (args[i] == "--scale" && i + 1 < args.size()) {
        config.scale = std::stod(args[++i]);
      } else if (args[i] == "--seed" && i + 1 < args.size()) {
        config.seed = std::stoull(args[++i]);
      } else if (args[i] == "--start" && i + 1 < args.size()) {
        auto ts = parse_u32(args[++i]);
        if (!ts || *ts == 0) {
          std::cerr << "--start expects a positive unix timestamp\n";
          return usage();
        }
        series_options.start = *ts;
      } else if (args[i] == "--step" && i + 1 < args.size()) {
        auto step = parse_u32(args[++i]);
        if (!step || *step == 0) {
          std::cerr << "--step expects a positive number of seconds\n";
          return usage();
        }
        series_options.step = *step;
      } else {
        std::cerr << "unknown option " << args[i] << "\n";
        return usage();
      }
    }
    sim::EpochSeries series = sim::build_epoch_series(config, series_options);
    for (std::size_t k = 0; k < series.timestamps.size(); ++k) {
      auto entry = k == 0
                       ? catalog::catalog_init(dir, series.timestamps[k],
                                               std::move(series.inferences[k]))
                       : catalog::catalog_append(
                             dir, series.timestamps[k],
                             std::move(series.inferences[k]));
      if (!entry) {
        std::cerr << entry.error().to_string() << "\n";
        return 1;
      }
      std::cout << "epoch " << entry->epoch << ": "
                << (entry->kind == catalog::EpochKind::kFull ? "full" : "delta")
                << ", " << with_commas(entry->records) << " records, "
                << with_commas(entry->bytes) << " bytes (" << entry->name
                << ")\n";
    }
    std::cout << "catalog " << dir << ": " << series.timestamps.size()
              << " epochs\n";
    return 0;
  }
  if (verb == "append") {
    if (args.size() < 3) return usage();
    const std::string& dir = args[1];
    const std::string& csv = args[2];
    std::optional<std::uint32_t> epoch;
    catalog::AppendOptions options;
    for (std::size_t i = 3; i < args.size(); ++i) {
      if (args[i] == "--epoch" && i + 1 < args.size()) {
        epoch = parse_u32(args[++i]);
        if (!epoch || *epoch == 0) {
          std::cerr << "--epoch expects a positive unix timestamp\n";
          return usage();
        }
      } else if (args[i] == "--max-delta-frac" && i + 1 < args.size()) {
        options.max_delta_fraction = std::stod(args[++i]);
      } else if (args[i] == "--full") {
        options.force_full = true;
      } else {
        std::cerr << "unknown option " << args[i] << "\n";
        return usage();
      }
    }
    if (!epoch) {
      std::cerr << "catalog append requires --epoch TS\n";
      return usage();
    }
    auto inferences = leasing::load_inferences_csv(csv);
    if (!inferences) {
      std::cerr << inferences.error().to_string() << "\n";
      return 1;
    }
    auto entry = catalog::read_index(dir)
                     ? catalog::catalog_append(dir, *epoch,
                                               std::move(*inferences), options)
                     : catalog::catalog_init(dir, *epoch,
                                             std::move(*inferences));
    if (!entry) {
      std::cerr << entry.error().to_string() << "\n";
      return 1;
    }
    std::cout << "epoch " << entry->epoch << ": "
              << (entry->kind == catalog::EpochKind::kFull ? "full" : "delta")
              << ", " << with_commas(entry->records) << " records, "
              << with_commas(entry->bytes) << " bytes (" << entry->name
              << ")\n";
    return 0;
  }
  if (verb == "ls") {
    if (args.size() != 2) return usage();
    auto entries = catalog::read_index(args[1]);
    if (!entries) {
      std::cerr << entries.error().to_string() << "\n";
      return 1;
    }
    for (const catalog::EpochEntry& entry : *entries) {
      std::cout << entry.epoch << "  "
                << (entry.kind == catalog::EpochKind::kFull ? "full " : "delta")
                << "  base=" << entry.base_epoch << "  records="
                << entry.records << "  bytes=" << entry.bytes << "  "
                << entry.name << "\n";
    }
    std::cout << entries->size() << " epochs\n";
    return 0;
  }
  if (verb == "verify") {
    if (args.size() < 2) return usage();
    bool deep = false;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--deep") {
        deep = true;
      } else {
        std::cerr << "unknown option " << args[i] << "\n";
        return usage();
      }
    }
    auto opened = catalog::Catalog::open(args[1]);
    if (!opened) {
      std::cerr << "invalid catalog: " << opened.error().to_string() << "\n";
      return 1;
    }
    auto report = (*opened)->verify(deep);
    for (const auto& check : report.checks) {
      std::cout << check.epoch << "  "
                << (check.ok ? "ok" : "BROKEN: " + check.detail) << "\n";
    }
    if (!report.ok()) {
      std::cerr << report.broken << " of " << report.checks.size()
                << " epochs broken\n";
      return 1;
    }
    std::cout << "ok: " << report.checks.size() << " epochs"
              << (deep ? " (deep)" : "") << "\n";
    return 0;
  }
  std::cerr << "unknown catalog verb '" << verb << "'\n";
  return usage();
}

// Signal handlers may only touch lock-free atomics; the server's wait()
// polls this flag so SIGTERM/SIGINT still dump the final counters.
std::atomic<int> g_signal{0};

extern "C" void sublet_on_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::QueryServer::Options options;
  std::optional<std::string> port_file;
  std::optional<std::string> catalog_dir;
  bool reload_on_sighup = false;
  std::vector<std::string> rest;
  auto int_flag = [&](std::size_t& i, const char* name,
                      int* out) -> bool {  // consumes the value on success
    auto value = parse_u32(args[++i]);
    if (!value) {
      std::cerr << name << " expects a non-negative integer\n";
      return false;
    }
    *out = static_cast<int>(*value);
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--port" && i + 1 < args.size()) {
      auto port = parse_u32(args[++i]);
      if (!port || *port > 65535) {
        std::cerr << "--port expects an integer in [0, 65535]\n";
        return usage();
      }
      options.port = static_cast<std::uint16_t>(*port);
    } else if (args[i] == "--port-file" && i + 1 < args.size()) {
      port_file = args[++i];
    } else if (args[i] == "--catalog" && i + 1 < args.size()) {
      catalog_dir = args[++i];
    } else if (args[i] == "--shards" && i + 1 < args.size()) {
      auto shards = parse_u32(args[++i]);
      if (!shards || *shards == 0) {
        std::cerr << "--shards expects a positive integer\n";
        return usage();
      }
      options.shards = *shards;
    } else if (args[i] == "--max-conns" && i + 1 < args.size()) {
      auto cap = parse_u32(args[++i]);
      if (!cap) {
        std::cerr << "--max-conns expects a non-negative integer\n";
        return usage();
      }
      options.max_conns = *cap;
    } else if (args[i] == "--max-outbuf-bytes" && i + 1 < args.size()) {
      auto cap = parse_u64(args[++i]);
      if (!cap || *cap == 0) {
        std::cerr << "--max-outbuf-bytes expects a positive integer\n";
        return usage();
      }
      options.max_outbuf_bytes = *cap;
    } else if (args[i] == "--slow-threshold-us" && i + 1 < args.size()) {
      auto threshold = parse_u64(args[++i]);
      if (!threshold || *threshold == 0) {
        std::cerr << "--slow-threshold-us expects a positive integer\n";
        return usage();
      }
      options.slow_threshold_us = *threshold;
    } else if (args[i] == "--idle-timeout-ms" && i + 1 < args.size()) {
      if (!int_flag(i, "--idle-timeout-ms", &options.idle_timeout_ms)) {
        return usage();
      }
    } else if (args[i] == "--io-timeout-ms" && i + 1 < args.size()) {
      if (!int_flag(i, "--io-timeout-ms", &options.io_timeout_ms)) {
        return usage();
      }
    } else if (args[i] == "--drain-ms" && i + 1 < args.size()) {
      if (!int_flag(i, "--drain-ms", &options.drain_timeout_ms)) {
        return usage();
      }
    } else if (args[i] == "--reload-on-sighup") {
      reload_on_sighup = true;
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::cerr << "unknown option " << args[i] << "\n";
      return usage();
    } else {
      rest.push_back(args[i]);
    }
  }
  if (rest.size() != (catalog_dir ? 0u : 1u)) return usage();
  // One source either way: a catalog serves AT / HISTORY / binary epoch
  // frames through its LRU (docs/TIMETRAVEL.md); a snapshot file is the
  // one epoch 0. Load the latest epoch up front so startup fails loudly
  // on a broken catalog or snapshot.
  std::shared_ptr<serve::EpochSource> source;
  if (catalog_dir) {
    auto opened = catalog::Catalog::open(*catalog_dir);
    if (!opened) {
      std::cerr << opened.error().to_string() << "\n";
      return 1;
    }
    source = std::move(*opened);
  } else {
    source = std::make_shared<serve::SnapshotFile>(rest[0], 0);
  }
  auto initial = source->refresh();
  if (!initial) {
    std::cerr << initial.error().to_string() << "\n";
    return 1;
  }
  // Both moved, not copied: a reference held here would pin the first
  // generation's engine through every later RELOAD.
  const std::size_t records = (*initial)->snapshot().record_count();
  serve::QueryServer server(std::move(source), std::move(*initial), options);
  auto port = server.start();
  if (!port) {
    std::cerr << port.error().to_string() << "\n";
    return 1;
  }
  if (port_file) {
    std::ofstream out(*port_file);
    if (!out) {
      std::cerr << "cannot write " << *port_file << "\n";
      return 1;
    }
    out << *port << "\n";
  }
  std::cout << "serving "
            << with_commas(records)
            << " records on 127.0.0.1:" << *port << "\n"
            << std::flush;
  std::signal(SIGTERM, sublet_on_signal);
  std::signal(SIGINT, sublet_on_signal);
  if (reload_on_sighup) std::signal(SIGHUP, sublet_on_signal);
  for (;;) {
    server.wait(
        [] { return g_signal.load(std::memory_order_relaxed) != 0; });
    int sig = g_signal.exchange(0, std::memory_order_relaxed);
    if (sig == SIGHUP && reload_on_sighup && !server.stop_requested()) {
      // Bare RELOAD refreshes the source — re-reads the snapshot file or
      // re-scans the catalog for appended epochs — counters included. A
      // failed load keeps the old generation serving.
      std::cout << server.handle_request("RELOAD") << "\n" << std::flush;
      continue;
    }
    break;
  }
  server.stop();
  std::cout << server.stats().to_json() << "\n";
  return 0;
}

int cmd_query(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  bool lpm = false, stats = false, health = false, shutdown = false;
  bool metrics = false, bin = false, history = false, inspect = false;
  std::optional<std::uint32_t> at_epoch;
  std::optional<std::string> reload_path;
  serve::QueryClient::Timeouts timeouts;
  serve::QueryClient::RetryPolicy retry;
  retry.attempts = 1;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--lpm") {
      lpm = true;
    } else if (arg == "--bin") {
      bin = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--health") {
      health = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (arg == "--inspect") {
      inspect = true;
    } else if (arg == "--history") {
      history = true;
    } else if (arg == "--at") {
      if (i + 1 >= args.size()) {
        std::cerr << "--at expects an epoch timestamp\n";
        return usage();
      }
      at_epoch = parse_u32(args[++i]);
      if (!at_epoch || *at_epoch == 0) {
        std::cerr << "--at expects a positive unix timestamp\n";
        return usage();
      }
    } else if (arg == "--reload") {
      if (i + 1 >= args.size()) {
        std::cerr << "--reload expects a snapshot path\n";
        return usage();
      }
      reload_path = args[++i];
    } else if (arg == "--timeout-ms" && i + 1 < args.size()) {
      auto ms = parse_u32(args[++i]);
      if (!ms) {
        std::cerr << "--timeout-ms expects a non-negative integer\n";
        return usage();
      }
      timeouts.connect_ms = static_cast<int>(*ms);
      timeouts.io_ms = static_cast<int>(*ms);
    } else if (arg == "--retries" && i + 1 < args.size()) {
      auto n = parse_u32(args[++i]);
      if (!n || *n == 0) {
        std::cerr << "--retries expects a positive integer\n";
        return usage();
      }
      retry.attempts = static_cast<int>(*n);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return usage();
    } else {
      rest.push_back(arg);
    }
  }
  if (rest.empty()) return usage();
  std::size_t colon = rest[0].rfind(':');
  std::optional<std::uint32_t> port;
  if (colon != std::string::npos) {
    port = parse_u32(std::string_view(rest[0]).substr(colon + 1));
  }
  if (!port || *port == 0 || *port > 65535) {
    std::cerr << "expected <host:port>, got '" << rest[0] << "'\n";
    return usage();
  }
  std::string host = rest[0].substr(0, colon);
  std::vector<std::string> prefixes(rest.begin() + 1, rest.end());
  if (prefixes.empty() && !stats && !health && !metrics && !reload_path &&
      !shutdown && !inspect) {
    return usage();
  }
  auto port16 = static_cast<std::uint16_t>(*port);
  auto round_trip = [&](const std::string& line) -> bool {
    auto response =
        retry.attempts > 1
            ? serve::QueryClient::request_with_retry(host, port16, line,
                                                     retry, timeouts)
            : [&]() -> Expected<std::string> {
                auto client =
                    serve::QueryClient::connect(host, port16, timeouts);
                if (!client) return client.error();
                return client->request(line);
              }();
    if (!response) {
      std::cerr << response.error().to_string() << "\n";
      return false;
    }
    std::cout << *response << "\n";
    return true;
  };
  if (bin && !prefixes.empty()) {
    // One binary LPM frame carrying every address (serve/wire.h); answers
    // print in argument order as one-line JSON, mirroring the text verbs.
    std::vector<std::uint32_t> addrs;
    addrs.reserve(prefixes.size());
    for (const std::string& text : prefixes) {
      auto addr = Ipv4Addr::parse(text);
      if (!addr) {
        // Accept "a.b.c.d/len" too: a binary LPM looks up the network bits.
        auto prefix = Prefix::parse(text, /*canonicalize=*/true);
        if (!prefix) {
          std::cerr << "bad address '" << text << "'\n";
          return 1;
        }
        addr = prefix->network();
      }
      addrs.push_back(addr->value());
    }
    auto client = serve::QueryClient::connect(host, port16, timeouts);
    if (!client) {
      std::cerr << client.error().to_string() << "\n";
      return 1;
    }
    auto response = client->request_binary_batch(addrs, at_epoch.value_or(0));
    if (!response) {
      std::cerr << response.error().to_string() << "\n";
      return 1;
    }
    if (response->status != 0) {
      std::cerr << "binary frame rejected (status "
                << static_cast<int>(response->status) << ")\n";
      return 1;
    }
    for (std::size_t i = 0; i < response->results.size(); ++i) {
      const serve::BinResult& result = response->results[i];
      std::cout << "{\"addr\":\"" << Ipv4Addr(addrs[i]).to_string() << "\",";
      if (!result.found) {
        std::cout << "\"found\":false}\n";
        continue;
      }
      auto matched = Prefix::make(Ipv4Addr(result.prefix_addr),
                                  result.prefix_len);
      std::cout << "\"found\":true,\"prefix\":\""
                << (matched ? matched->to_string() : "?") << "\",\"group\":\""
                << leasing::group_name(
                       static_cast<leasing::InferenceGroup>(result.group))
                << "\",\"leased\":" << (result.leased ? "true" : "false")
                << "}\n";
    }
    prefixes.clear();
  }
  for (const std::string& prefix : prefixes) {
    std::string line = history ? "HISTORY " + prefix
                               : (lpm ? "LPM " : "EXACT ") + prefix;
    if (at_epoch && !history) line += " AT " + std::to_string(*at_epoch);
    if (!round_trip(line)) return 1;
  }
  if (reload_path && !round_trip("RELOAD " + *reload_path)) return 1;
  if (health && !round_trip("HEALTH")) return 1;
  if (stats && !round_trip("STATS")) return 1;
  if (inspect && !round_trip("INSPECT")) return 1;
  if (metrics) {
    // METRICS is the one multi-line verb: read until the "# EOF" line.
    auto client = serve::QueryClient::connect(host, port16, timeouts);
    if (!client) {
      std::cerr << client.error().to_string() << "\n";
      return 1;
    }
    auto body = client->request_multiline("METRICS");
    if (!body) {
      std::cerr << body.error().to_string() << "\n";
      return 1;
    }
    std::cout << *body;
  }
  if (shutdown && !round_trip("SHUTDOWN")) return 1;
  return 0;
}

int cmd_load(const std::vector<std::string>& args) {
  loadgen::LoadOptions options;
  auto f64_flag = [&](std::size_t& i, const char* name,
                      double* out) -> bool {
    char* end = nullptr;
    const std::string& text = args[++i];
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || value < 0.0) {
      std::cerr << name << " expects a non-negative number\n";
      return false;
    }
    *out = value;
    return true;
  };
  auto u64_flag = [&](std::size_t& i, const char* name,
                      std::uint64_t* out) -> bool {
    auto value = parse_u64(args[++i]);
    if (!value) {
      std::cerr << name << " expects a non-negative integer\n";
      return false;
    }
    *out = *value;
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::uint64_t u = 0;
    if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!u64_flag(i, "--seed", &options.seed)) return usage();
    } else if (args[i] == "--workers" && i + 1 < args.size()) {
      if (!u64_flag(i, "--workers", &u) || u == 0) return usage();
      options.workers = static_cast<unsigned>(u);
    } else if (args[i] == "--duration-ms" && i + 1 < args.size()) {
      if (!u64_flag(i, "--duration-ms", &options.duration_ms)) {
        return usage();
      }
    } else if (args[i] == "--qps" && i + 1 < args.size()) {
      if (!f64_flag(i, "--qps", &options.qps)) return usage();
    } else if (args[i] == "--zipf-alpha" && i + 1 < args.size()) {
      if (!f64_flag(i, "--zipf-alpha", &options.zipf_alpha)) return usage();
    } else if (args[i] == "--scenario" && i + 1 < args.size()) {
      options.scenario = args[++i];
    } else if (args[i] == "--world-scale" && i + 1 < args.size()) {
      if (!f64_flag(i, "--world-scale", &options.world.scale)) {
        return usage();
      }
    } else if (args[i] == "--world-seed" && i + 1 < args.size()) {
      if (!u64_flag(i, "--world-seed", &options.world.seed)) return usage();
    } else if (args[i] == "--world-epochs" && i + 1 < args.size()) {
      if (!u64_flag(i, "--world-epochs", &u) || u == 0) return usage();
      options.world.epochs = u;
    } else if (args[i] == "--world-pending" && i + 1 < args.size()) {
      if (!u64_flag(i, "--world-pending", &u)) return usage();
      options.world.pending = u;
    } else if (args[i] == "--catalog" && i + 1 < args.size()) {
      options.catalog_dir = args[++i];
    } else if (args[i] == "--shards" && i + 1 < args.size()) {
      if (!u64_flag(i, "--shards", &u)) return usage();
      options.shards = static_cast<unsigned>(u);
    } else if (args[i] == "--batch" && i + 1 < args.size()) {
      if (!u64_flag(i, "--batch", &u) || u == 0 || u > 65536) {
        return usage();
      }
      options.batch_size = u;
    } else if (args[i] == "--depth" && i + 1 < args.size()) {
      if (!u64_flag(i, "--depth", &u) || u == 0) return usage();
      options.pipeline_depth = u;
    } else if (args[i] == "--p99-us" && i + 1 < args.size()) {
      if (!f64_flag(i, "--p99-us", &options.p99_bound_us)) return usage();
    } else if (args[i] == "--heavy-p99-us" && i + 1 < args.size()) {
      if (!f64_flag(i, "--heavy-p99-us", &options.heavy_p99_bound_us)) {
        return usage();
      }
    } else if (args[i] == "--spot-every" && i + 1 < args.size()) {
      if (!u64_flag(i, "--spot-every", &u)) return usage();
      options.spot_check_every = static_cast<std::uint32_t>(u);
    } else if (args[i] == "--max-outbuf-bytes" && i + 1 < args.size()) {
      if (!u64_flag(i, "--max-outbuf-bytes", &u) || u == 0) return usage();
      options.max_outbuf_bytes = u;
    } else if (args[i] == "--report" && i + 1 < args.size()) {
      options.report_path = args[++i];
    } else if (args[i] == "--run-dir" && i + 1 < args.size()) {
      options.run_dir = args[++i];
    } else if (args[i] == "--keep-run-dir") {
      options.keep_run_dir = true;
    } else if (args[i] == "--fork-server") {
      options.server_argv = {"/proc/self/exe", "serve"};
    } else {
      std::cerr << "unknown option " << args[i] << "\n";
      return usage();
    }
  }
  auto report = loadgen::run_load(options);
  if (!report) {
    std::cerr << report.error().to_string() << "\n";
    return 1;
  }
  std::cout << report->to_json() << "\n" << std::flush;
  // The exit code IS the SLO verdict — CI gates on it directly.
  return report->slo.pass ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  // Global flags: accepted anywhere, consumed before dispatch.
  std::vector<std::string> all(argv + 1, argv + argc);
  std::optional<std::string> trace_path;
  for (std::size_t i = 0; i < all.size();) {
    std::optional<std::uint32_t> threads;
    if (all[i] == "--threads" && i + 1 < all.size()) {
      threads = parse_u32(all[i + 1]);
      if (!threads || *threads == 0) {
        std::cerr << "--threads expects a positive integer\n";
        return 2;
      }
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(i),
                all.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (all[i].rfind("--threads=", 0) == 0) {
      threads = parse_u32(std::string_view(all[i]).substr(10));
      if (!threads || *threads == 0) {
        std::cerr << "--threads expects a positive integer\n";
        return 2;
      }
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (all[i] == "--trace-json" && i + 1 < all.size()) {
      trace_path = all[i + 1];
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(i),
                all.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    } else if (all[i].rfind("--trace-json=", 0) == 0) {
      trace_path = all[i].substr(13);
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    } else if (all[i] == "--log-json") {
      set_log_format(LogFormat::kJson);
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    } else {
      ++i;
      continue;
    }
    par::set_default_threads(*threads);
  }
  if (trace_path && trace_path->empty()) {
    std::cerr << "--trace-json expects a file path\n";
    return 2;
  }
  if (trace_path) obs::Tracer::global().set_enabled(true);
  if (all.empty()) return usage();
  std::string command = all[0];
  std::vector<std::string> args(all.begin() + 1, all.end());
  int rc = -1;
  try {
    if (command == "generate") rc = cmd_generate(args);
    else if (command == "infer") rc = cmd_infer(args);
    else if (command == "explain") rc = cmd_explain(args);
    else if (command == "evaluate") rc = cmd_evaluate(args);
    else if (command == "abuse") rc = cmd_abuse(args);
    else if (command == "timeline") rc = cmd_timeline(args);
    else if (command == "churn") rc = cmd_churn(args);
    else if (command == "report") rc = cmd_report(args);
    else if (command == "dump") rc = cmd_dump(args);
    else if (command == "snapshot") rc = cmd_snapshot(args);
    else if (command == "catalog") rc = cmd_catalog(args);
    else if (command == "serve") rc = cmd_serve(args);
    else if (command == "query") rc = cmd_query(args);
    else if (command == "top") rc = cli::cmd_top(args);
    else if (command == "load") rc = cmd_load(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  }
  if (rc == -1) return usage();
  // Spans are flushed even when the command failed — a trace of the run up
  // to the failure is exactly what the flag is for.
  if (trace_path &&
      !obs::Tracer::global().write_chrome_trace(*trace_path)) {
    std::cerr << "warning: could not write trace to " << *trace_path << "\n";
  }
  return rc;
}
