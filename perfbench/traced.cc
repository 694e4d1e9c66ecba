// The traced run: one section per workload, each calling the layers'
// public functions in the order the workload's path uses them, with a
// span around every call. A section runs twice, untraced then traced; the
// wall-time difference is the tracing overhead, and the traced pass's
// self times plus the unattributed remainder add up to its wall time.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>

#include "abuse/asn_lists.h"
#include "asgraph/as2org.h"
#include "asgraph/as_graph.h"
#include "asgraph/as_rel.h"
#include "bgp/rib.h"
#include "catalog/catalog.h"
#include "geo/geodb.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "leasing/report.h"
#include "loadgen/worldcache.h"
#include "mrt/rib_file.h"
#include "obs/metrics.h"
#include "rpki/archive.h"
#include "serve/client.h"
#include "serve/engine_state.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "snapshot/snapshot.h"
#include "snapshot/writer.h"
#include "transfers/transfer_log.h"
#include "util/strings.h"
#include "whoisdb/alloc_tree.h"
#include "whoisdb/parse.h"
#include "workloads.h"

namespace pb {

namespace fs = std::filesystem;
using sublet::serve::EngineState;
using sublet::serve::QueryClient;
using sublet::serve::QueryEngine;

namespace {

constexpr std::size_t kHandleCalls = 20000;
constexpr std::size_t kRttCalls = 3000;
constexpr std::size_t kHistogramRecords = 1000000;
constexpr std::size_t kSweepFrames = 64;

using Values = std::map<std::string, std::pair<double, std::string>>;

struct Section {
  std::string workload;
  double untraced_s = 0;
  double traced_s = 0;
  double unattributed_s = 0;
  std::vector<std::pair<std::string, double>> self;
};

/// Run `body` untraced, then traced; the traced pass fills `values`.
template <typename Body>
Section measure(const std::string& workload, const std::string& spans_path,
                Body body) {
  Section s;
  s.workload = workload;
  {
    Tracer off(false);
    const auto t0 = Clock::now();
    body(off);
    s.untraced_s = since(t0);
  }
  Tracer on(true);
  const auto t0 = Clock::now();
  body(on);
  s.traced_s = since(t0);
  s.self = on.self_times();
  s.unattributed_s = s.traced_s - on.top_level_total();
  on.write_jsonl(spans_path, workload);
  return s;
}

std::vector<std::string> files_with_extension(const std::string& dir,
                                              const std::string& ext) {
  std::vector<std::string> out;
  if (!fs::is_directory(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ext) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

double ms(const Tracer& t, const std::string& name) {
  return t.total(name) * 1e3;
}

void batch_section(Tracer& t, const BatchWorld& w, const std::string& dir,
                   Values& v, Result& r) {
  namespace leasing = sublet::leasing;
  namespace whois = sublet::whois;
  const std::string& world = w.world;
  // Each layer's loader on its own files, one after another.
  std::uint64_t whois_bytes = 0, mrt_bytes = 0;
  for (whois::Rir rir : whois::kAllRirs) {
    const std::string path = world + "/whois/" +
                             sublet::to_lower(whois::rir_name(rir)) + ".db";
    if (!fs::exists(path)) continue;
    whois_bytes += file_size(path);
    // Results are dropped inside their span: freeing is part of the cost.
    auto span = t.span("whoisdb.parse");
    auto db = whois::load_whois_file(path, rir, nullptr, 1);
  }
  {
    std::vector<sublet::mrt::RibSnapshot> snapshots;
    for (const std::string& path :
         files_with_extension(world + "/bgp", ".mrt")) {
      mrt_bytes += file_size(path);
      auto span = t.span("mrt.decode");
      auto decoded = sublet::mrt::read_rib_file(path);
      if (decoded) snapshots.push_back(std::move(*decoded));
    }
    auto span = t.span("bgp.rib_merge");
    sublet::bgp::Rib rib;
    for (const auto& snapshot : snapshots) rib.add_snapshot(snapshot);
    rib.freeze();
    snapshots.clear();
  }
  {
    auto span = t.span("asgraph.load");
    sublet::asgraph::AsRelationships::load(world + "/asgraph/as-rel.txt");
    sublet::asgraph::As2Org::load(world + "/asgraph/as2org.txt");
  }
  {
    auto span = t.span("rpki.load");
    sublet::rpki::RpkiArchive::load_directory(world + "/rpki");
  }
  for (const std::string& path : files_with_extension(world + "/geo", ".csv")) {
    auto span = t.span("geo.load");
    sublet::geo::GeoDb::load_csv(path, fs::path(path).stem().string());
  }
  if (fs::exists(world + "/lists/transfers.txt")) {
    auto span = t.span("transfers.load");
    sublet::transfers::TransferLog::load(world + "/lists/transfers.txt");
  }
  {
    auto span = t.span("abuse.load");
    sublet::abuse::AsnSet::load_drop(world + "/lists/asn-drop.json");
    sublet::abuse::AsnSet::load_plain(world + "/lists/serial-hijackers.txt");
  }

  // The infer path: parallel load, trees, classify, CSV; then the
  // snapshot path: CSV read, encode, and what a server does to open it.
  std::optional<leasing::DatasetBundle> bundle;
  {
    auto span = t.span("leasing.load_dataset");
    bundle.emplace(leasing::load_dataset(world));
  }
  for (const whois::WhoisDb& db : bundle->whois) {
    auto span = t.span("whoisdb.alloc_tree");
    whois::AllocationTree::build(db);
  }
  sublet::asgraph::AsGraph graph(&bundle->as_rel, &bundle->as2org);
  leasing::Pipeline pipeline(bundle->rib, graph);
  std::vector<leasing::LeaseInference> results;
  for (const whois::WhoisDb& db : bundle->whois) {
    auto span = t.span("leasing.classify");
    auto part = pipeline.classify(db);
    results.insert(results.end(), part.begin(), part.end());
  }
  const std::string csv = dir + "/out.csv", snap_path = dir + "/out.snap";
  {
    auto span = t.span("leasing.csv_write");
    leasing::save_inferences_csv(csv, results);
  }
  if (fnv1a(read_file(csv)) != w.csv_digest) {
    r.fail("traced pipeline CSV differs from the reference");
  }
  std::optional<std::vector<leasing::LeaseInference>> reread;
  {
    auto span = t.span("leasing.csv_read");
    auto rows = leasing::load_inferences_csv(csv);
    if (rows) reread.emplace(std::move(*rows));
  }
  if (!reread) {
    r.fail("traced CSV read failed");
    return;
  }
  {
    auto span = t.span("snapshot.write");
    sublet::snapshot::write_snapshot_file(snap_path, *reread);
  }
  std::optional<sublet::snapshot::Snapshot> snap;
  {
    auto span = t.span("snapshot.open");
    auto opened = sublet::snapshot::Snapshot::open(snap_path);
    if (opened) snap.emplace(std::move(*opened));
  }
  if (!snap || fnv1a(read_file(snap_path)) != w.snap_digest) {
    r.fail("traced snapshot differs from the reference");
    return;
  }
  {
    auto span = t.span("snapshot.build_trie");
    if (!snap->build_trie()) r.fail("snapshot trie does not build");
  }
  {
    auto span = t.span("serve.engine_create");
    if (!QueryEngine::create(&*snap)) r.fail("engine does not build");
  }
  const std::size_t leaves = results.size();
  {
    // `infer` frees all of this before it exits.
    auto span = t.span("teardown");
    snap.reset();
    reread.reset();
    results = {};
    bundle.reset();
  }

  const double parse_s = t.total("whoisdb.parse");
  const double decode_s = t.total("mrt.decode");
  double serial_s = 0;
  for (const char* name : {"whoisdb.parse", "mrt.decode", "bgp.rib_merge",
                           "asgraph.load", "rpki.load", "geo.load",
                           "transfers.load", "abuse.load"}) {
    serial_s += t.total(name);
  }
  v["whoisdb.parse_ms"] = {parse_s * 1e3, "ms"};
  v["whoisdb.parse_mb_s"] = {whois_bytes / 1e6 / parse_s, "MB/s"};
  v["whoisdb.alloc_tree_ms"] = {ms(t, "whoisdb.alloc_tree"), "ms"};
  v["mrt.decode_ms"] = {decode_s * 1e3, "ms"};
  v["mrt.decode_mb_s"] = {mrt_bytes / 1e6 / decode_s, "MB/s"};
  v["bgp.rib_merge_ms"] = {ms(t, "bgp.rib_merge"), "ms"};
  v["asgraph.load_ms"] = {ms(t, "asgraph.load"), "ms"};
  v["rpki.load_ms"] = {ms(t, "rpki.load"), "ms"};
  v["geo.load_ms"] = {ms(t, "geo.load"), "ms"};
  v["transfers.load_ms"] = {ms(t, "transfers.load"), "ms"};
  v["abuse.load_ms"] = {ms(t, "abuse.load"), "ms"};
  v["leasing.load_dataset_ms"] = {ms(t, "leasing.load_dataset"), "ms"};
  v["leasing.load_parallel_speedup"] = {
      serial_s / t.total("leasing.load_dataset"), "x"};
  v["leasing.classify_ms"] = {ms(t, "leasing.classify"), "ms"};
  v["leasing.classify_leaves_s"] = {
      leaves / t.total("leasing.classify"), "1/s"};
  v["leasing.csv_write_ms"] = {ms(t, "leasing.csv_write"), "ms"};
  v["leasing.csv_read_ms"] = {ms(t, "leasing.csv_read"), "ms"};
  v["snapshot.write_ms"] = {ms(t, "snapshot.write"), "ms"};
  v["snapshot.bytes"] = {static_cast<double>(file_size(snap_path)), "B"};
  v["snapshot.open_ms"] = {ms(t, "snapshot.open"), "ms"};
  v["snapshot.build_trie_ms"] = {ms(t, "snapshot.build_trie"), "ms"};
  v["serve.engine_create_ms"] = {ms(t, "serve.engine_create"), "ms"};
}

/// In-process handlers on the point workload's own lines, then the same
/// lines over one connection, closed loop.
void point_section(Tracer& t, const QueryEngine& engine,
                   std::shared_ptr<const EngineState> state,
                   const PointPool& pool, std::uint16_t port,
                   std::uint64_t seed, Values& v, Result& r) {
  std::vector<std::uint32_t> exact_ids, lpm_ids;
  std::uint64_t rng = seed;
  while (exact_ids.size() < kHandleCalls || lpm_ids.size() < kHandleCalls) {
    const std::uint32_t id = pool.pick(rng);
    auto& ids = (id & 1) ? lpm_ids : exact_ids;
    if (ids.size() < kHandleCalls) ids.push_back(id);
  }
  sublet::serve::QueryServer server(std::move(state));
  std::vector<std::string> answers(kHandleCalls);
  std::uint64_t wrong = 0;
  for (const auto* ids : {&exact_ids, &lpm_ids}) {
    {
      auto span = t.span(ids == &exact_ids ? "serve.handle_exact"
                                           : "serve.handle_lpm");
      for (std::size_t i = 0; i < ids->size(); ++i) {
        answers[i] = server.handle_request(pool.lines[(*ids)[i]]);
      }
    }
    for (std::size_t i = 0; i < ids->size(); ++i) {
      wrong += fnv1a(answers[i]) != pool.expected[(*ids)[i]];
    }
  }
  std::vector<sublet::Prefix> queries;
  for (std::uint32_t id : lpm_ids) {
    const std::string& line = pool.lines[id];
    queries.push_back(*sublet::Prefix::parse(line.substr(line.find(' ') + 1)));
  }
  std::vector<std::uint32_t> records;
  {
    auto span = t.span("serve.engine_lpm");
    for (const sublet::Prefix& q : queries) {
      auto hit = engine.longest_match(q);
      records.push_back(hit ? hit->second : QueryEngine::kNoRecord);
    }
  }
  std::size_t json_bytes = 0;
  {
    auto span = t.span("serve.record_json");
    for (std::uint32_t idx : records) {
      if (idx != QueryEngine::kNoRecord) {
        json_bytes += engine.record_json(idx).size();
      }
    }
  }
  if (json_bytes == 0) r.fail("no LPM line matched a record");
  sublet::obs::MetricsRegistry registry;
  sublet::obs::Histogram& histogram = registry.histogram("perfbench_probe");
  {
    auto span = t.span("obs.histogram_record");
    for (std::size_t i = 0; i < kHistogramRecords; ++i) {
      histogram.record((i * 2654435761u) & 0xFFFFF);
    }
  }
  auto client = QueryClient::connect("127.0.0.1", port);
  Samples rtt;
  if (!client) {
    r.fail("traced point client could not connect");
  } else {
    auto span = t.span("serve.rtt");
    for (std::size_t i = 0; i < kRttCalls; ++i) {
      const std::uint32_t id = lpm_ids[i];
      const auto t0 = Clock::now();
      auto answer = client->request(pool.lines[id]);
      rtt.add(since(t0) * 1e6);
      wrong += !answer || fnv1a(*answer) != pool.expected[id];
    }
  }
  r.attempted += 2 * kHandleCalls + kRttCalls;
  r.failed += wrong;
  if (wrong) r.fail(std::to_string(wrong) + " wrong point answers");
  const double handle_lpm_us = t.total("serve.handle_lpm") * 1e6 / kHandleCalls;
  v["serve.handle_exact_us"] = {
      t.total("serve.handle_exact") * 1e6 / kHandleCalls, "us"};
  v["serve.handle_lpm_us"] = {handle_lpm_us, "us"};
  v["serve.engine_lpm_ns"] = {
      t.total("serve.engine_lpm") * 1e9 / queries.size(), "ns"};
  v["serve.record_json_ns"] = {
      t.total("serve.record_json") * 1e9 / records.size(), "ns"};
  v["obs.histogram_record_ns"] = {
      t.total("obs.histogram_record") * 1e9 / kHistogramRecords, "ns"};
  v["serve.rtt_us"] = {rtt.median(), "us"};
  v["serve.loop_us"] = {rtt.median() - handle_lpm_us, "us"};
}

void frames_section(Tracer& t, const QueryEngine& engine,
                    const std::vector<PreparedFrame>& frames, double hit_ratio,
                    std::uint16_t port, Values& v, Result& r) {
  namespace wire = sublet::serve::wire;
  std::vector<std::vector<std::uint32_t>> addrs(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const std::string& req = frames[f].request;
    for (std::size_t off = wire::kHeaderSize; off + 4 <= req.size(); off += 4) {
      addrs[f].push_back(wire::load_u32le(req.data() + off));
    }
  }
  std::vector<std::vector<std::uint32_t>> records(frames.size());
  std::size_t lookups = 0;
  {
    auto span = t.span("serve.engine_batch");
    for (std::size_t f = 0; f < frames.size(); ++f) {
      records[f].resize(addrs[f].size());
      engine.lookup_batch(addrs[f], records[f]);
      lookups += addrs[f].size();
    }
  }
  std::vector<std::vector<wire::Result>> results(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    std::string payload;
    encode_results(engine, records[f], payload);
    if (payload != frames[f].expected_payload) {
      r.fail("lookup_batch answer differs");
    }
    for (std::size_t off = 0; off < payload.size(); off += wire::kResultSize) {
      results[f].push_back(wire::decode_result(payload.data() + off));
    }
  }
  std::uint64_t checksum = 0;
  {
    auto span = t.span("serve.wire");
    std::string out;
    for (const auto& frame_results : results) {
      out.clear();
      wire::FrameHeader h;
      h.payload_len = static_cast<std::uint32_t>(frame_results.size() *
                                                 wire::kResultSize);
      wire::append_header(out, h);
      for (const wire::Result& res : frame_results) {
        wire::append_result(out, res);
      }
      for (std::size_t off = wire::kHeaderSize; off < out.size();
           off += wire::kResultSize) {
        checksum += wire::decode_result(out.data() + off).prefix_addr;
      }
    }
  }
  FrameLoadStats rtt;
  {
    auto span = t.span("serve.frame_rtt");
    rtt = run_frame_loop(port, frames, 0.3, 1, 1, checksum);
  }
  r.attempted += rtt.frames + rtt.failed;
  r.failed += rtt.failed + rtt.wrong;
  if (rtt.failed || rtt.wrong) r.fail("traced frames failed or differ");
  v["serve.engine_batch_ns"] = {
      t.total("serve.engine_batch") * 1e9 / lookups, "ns"};
  v["serve.wire_ns"] = {t.total("serve.wire") * 1e9 / lookups, "ns"};
  v["serve.frame_rtt_us"] = {rtt.frame_us.all().median(), "us"};
  v["serve.batch_hit_ratio"] = {hit_ratio, "ratio"};
}

/// sublet_catalog_materializations_total from a METRICS scrape.
double scrape_materializations(QueryClient& client) {
  auto text = client.request_multiline("METRICS");
  if (!text) return -1;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("sublet_catalog_materializations_total ", 0) == 0) {
      return std::stod(line.substr(line.find(' ') + 1));
    }
  }
  return 0;
}

void epochs_section(Tracer& t, const RunConfig& cfg,
                    const sublet::loadgen::SoakWorld& world,
                    const std::vector<sublet::leasing::LeaseInference>& next,
                    Values& v, Result& r) {
  const std::string dir = cfg.work + "/trace-epochs/catalog";
  if (!sublet::loadgen::clone_catalog(world, dir)) {
    r.fail("catalog clone failed");
    return;
  }
  auto opened = sublet::catalog::Catalog::open(dir);
  if (!opened) {
    r.fail("catalog: " + opened.error().to_string());
    return;
  }
  std::shared_ptr<sublet::catalog::Catalog> catalog = std::move(*opened);
  const std::vector<std::uint32_t> epochs = catalog->epochs();
  auto latest = catalog->epoch_at(0);
  if (!latest) {
    r.fail("latest epoch does not materialize");
    return;
  }
  std::uint64_t delta_bytes = 0;
  {
    auto inferences = next;
    auto span = t.span("catalog.append");
    auto entry = sublet::catalog::catalog_append(
        dir, world.pending.front().timestamp, std::move(inferences));
    if (entry) delta_bytes = entry->bytes;
  }
  if (delta_bytes == 0) r.fail("catalog append failed");
  {
    auto span = t.span("catalog.refresh");
    if (!catalog->refresh()) r.fail("catalog refresh failed");
  }
  {
    auto span = t.span("catalog.materialize");
    auto cold = sublet::catalog::Catalog::open(dir);
    if (!cold || !(*cold)->materialize(epochs[epochs.size() / 2])) {
      r.fail("cold historic epoch does not materialize");
    }
  }
  sublet::serve::QueryServer server(catalog, *latest, {});
  const auto& engine = (*latest)->engine();
  std::uint64_t rng = cfg.seed ^ 0x7472616365ull;
  std::vector<std::string> at_lines, history_lines;
  for (std::size_t i = 0; i < kHandleCalls / 4; ++i) {
    const std::string addr =
        dotted(address_in(engine,
                          static_cast<std::uint32_t>(next_random(rng) %
                                                     engine.snapshot().record_count()),
                          rng)) + "/32";
    at_lines.push_back("LPM " + addr + " AT " +
                       std::to_string(epochs[next_random(rng) % epochs.size()]));
    history_lines.push_back("HISTORY " + addr);
  }
  std::uint64_t errors = 0;
  {
    auto span = t.span("serve.handle_at");
    for (const std::string& line : at_lines) {
      errors += server.handle_request(line).rfind("{\"error\"", 0) == 0;
    }
  }
  {
    auto span = t.span("serve.handle_history");
    for (const std::string& line : history_lines) {
      errors += server.handle_request(line).rfind("{\"error\"", 0) == 0;
    }
  }
  constexpr std::size_t kStatsCalls = 200;
  {
    auto span = t.span("serve.handle_stats");
    for (std::size_t i = 0; i < kStatsCalls; ++i) {
      errors += server.handle_request("STATS").rfind("{\"error\"", 0) == 0;
    }
  }
  // AT requests over the wire against a freshly started catalog server:
  // how many epoch materializations each one costs from cold.
  const std::string served = cfg.work + "/trace-epochs/served";
  ServerProcess catalog_server;
  {
    auto span = t.span("serve.catalog_start");
    if (!sublet::loadgen::clone_catalog(world, served) ||
        !catalog_server.start(serve_argv(cfg, served, true),
                              cfg.work + "/trace-epochs")) {
      r.fail("catalog server did not start");
    }
  }
  double per_at = -1;
  auto client = QueryClient::connect("127.0.0.1", catalog_server.port());
  if (client) {
    auto span = t.span("serve.at_rtt");
    const double before = scrape_materializations(*client);
    for (const std::string& line : at_lines) {
      auto answer = client->request(line);
      errors += !answer || answer->rfind("{\"error\"", 0) == 0;
    }
    per_at = (scrape_materializations(*client) - before) / at_lines.size();
  }
  r.attempted += 3 * at_lines.size() + kStatsCalls;
  r.failed += errors;
  if (errors || per_at < 0) r.fail("traced epoch requests failed");
  v["catalog.append_ms"] = {ms(t, "catalog.append"), "ms"};
  v["catalog.delta_bytes"] = {static_cast<double>(delta_bytes), "B"};
  v["catalog.refresh_ms"] = {ms(t, "catalog.refresh"), "ms"};
  v["catalog.materialize_ms"] = {ms(t, "catalog.materialize"), "ms"};
  v["serve.handle_at_us"] = {
      t.total("serve.handle_at") * 1e6 / at_lines.size(), "us"};
  v["serve.handle_history_us"] = {
      t.total("serve.handle_history") * 1e6 / history_lines.size(), "us"};
  v["serve.handle_stats_us"] = {
      t.total("serve.handle_stats") * 1e6 / kStatsCalls, "us"};
  v["catalog.materializations_per_at"] = {per_at, "count"};
}

void print_table(const Section& s, Result& r) {
  r.note("section " + s.workload + ": traced wall " + fmt(s.traced_s * 1e3, 1) +
         " ms, untraced " + fmt(s.untraced_s * 1e3, 1) +
         " ms, tracing overhead " + fmt((s.traced_s - s.untraced_s) * 1e3, 1) +
         " ms (" + fmt(100 * (s.traced_s / s.untraced_s - 1), 1) + "%)");
  r.note("  layer                          self ms   share");
  auto row = [&](const std::string& name, double sec) {
    std::string padded = name;
    padded.resize(std::max<std::size_t>(padded.size(), 30), ' ');
    char buf[64];
    std::snprintf(buf, sizeof buf, "%10.1f  %5.1f%%", sec * 1e3,
                  100 * sec / s.traced_s);
    r.note("  " + padded + buf);
  };
  double sum = 0;
  for (const auto& [name, sec] : s.self) {
    row(name, sec);
    sum += sec;
  }
  row("(unattributed)", s.unattributed_s);
  row("total", sum + s.unattributed_s);
}

}  // namespace

Result run_traced(const RunConfig& cfg) {
  Result r;
  const std::string spans_path = cfg.work + "/spans-" + cfg.workload + "-" +
                                 std::to_string(cfg.seed) + ".jsonl";
  fs::remove(spans_path);
  const BatchWorld w = ensure_batch_world(cfg, false, nullptr);
  auto state = EngineState::load(w.ref_snap);
  sublet::loadgen::SoakWorldSpec spec;
  spec.seed = cfg.seed;
  spec.scale = kEpochScale;
  spec.epochs = kEpochs;
  spec.pending = kPending;
  auto world = sublet::loadgen::ensure_soak_world(spec, cfg.work + "/soak");
  if (!state || !world) {
    r.fail("traced run inputs are missing");
    return r;
  }
  auto next =
      sublet::leasing::load_inferences_csv(world->pending.front().csv_path);
  if (!next) {
    r.fail("pending epoch CSV does not load");
    return r;
  }
  const QueryEngine& engine = (*state)->engine();
  const PointPool pool = make_point_pool(engine, cfg.seed);
  double hit_ratio = 0;
  const auto frames =
      make_frames(engine, cfg.seed, kSweepFrames, 1024, &hit_ratio);
  const std::string dir = cfg.work + "/trace";
  fs::create_directories(dir);
  fs::create_directories(cfg.work + "/trace-epochs");
  ServerProcess snap_server;
  if (!snap_server.start(serve_argv(cfg, w.ref_snap, false), dir)) {
    r.fail("traced run servers did not start");
    return r;
  }

  settle();
  Values v;
  std::vector<Section> sections;
  sections.push_back(measure("batch-infer", spans_path, [&](Tracer& t) {
    batch_section(t, w, dir, v, r);
  }));
  sections.push_back(measure("serve-point", spans_path, [&](Tracer& t) {
    point_section(t, engine, *state, pool, snap_server.port(), cfg.seed, v, r);
  }));
  sections.push_back(measure("serve-batch", spans_path, [&](Tracer& t) {
    frames_section(t, engine, frames, hit_ratio, snap_server.port(), v, r);
  }));
  sections.push_back(measure("serve-epochs", spans_path, [&](Tracer& t) {
    epochs_section(t, cfg, *world, *next, v, r);
  }));
  snap_server.stop();

  double unattributed_ms = -1;
  for (const Section& s : sections) {
    print_table(s, r);
    if (s.workload == cfg.workload) unattributed_ms = s.unattributed_s * 1e3;
  }
  if (unattributed_ms < 0) r.fail("unknown workload " + cfg.workload);
  r.note("spans written to " + spans_path);
  for (const auto& [name, value] : v) r.add(name, value.first, value.second);
  r.add("unattributed_ms", unattributed_ms, "ms");
  return r;
}

}  // namespace pb
