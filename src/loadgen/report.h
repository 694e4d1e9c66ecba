// Machine-readable soak report + SLO contract (docs/ROBUSTNESS.md).
//
// The report splits into a *deterministic* section — a pure function of
// (seed, scenario, load shape), byte-identical across runs, which the
// determinism tests compare — and a *measured* section (latencies,
// errors, chaos outcomes) that depends on timing. The `slo` section is
// the contract: the run passes only when every bound holds, and the
// driver's exit code mirrors `slo.pass`.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace sublet::loadgen {

/// The verbs the driver replays — the server's full query surface.
enum class LoadVerb : std::uint8_t {
  kExact,       ///< text EXACT <prefix>
  kLpm,         ///< text LPM <addr>/32
  kMlpm,        ///< text MLPM <addr>...
  kLpmBatch,    ///< binary LPM_BATCH frames, pipelined
  kExactBatch,  ///< binary EXACT_BATCH frame
  kAt,          ///< text LPM ... AT <epoch-ts>
  kHistory,     ///< text HISTORY <prefix>
  kStats,       ///< text STATS
  kMetrics,     ///< text METRICS (multi-line scrape)
};
inline constexpr std::size_t kVerbCount = 9;

const char* verb_name(LoadVerb verb);

/// True for verbs held to the point-lookup p99 bound; the rest (full
/// scans, catalog walks, scrapes) get the heavy bound.
bool is_point_verb(LoadVerb verb);

struct VerbReport {
  std::uint64_t completed = 0;  ///< successful round trips
  std::uint64_t errors = 0;     ///< failed round trips (injected or not)
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct ChaosReport {
  std::uint64_t events_run = 0;
  std::uint64_t appends = 0;       ///< epochs published mid-run
  std::uint64_t reloads = 0;
  std::uint64_t fault_storms = 0;
  std::uint64_t kills = 0;         ///< killappend + killserver executed
  std::uint64_t churn_conns = 0;
  std::uint64_t slow_readers = 0;
  /// sublet_serve_conn_closed_total{reason="outbuf_overflow"} scraped
  /// after the run.
  std::uint64_t outbuf_overflows = 0;
};

/// One slow request lifted from the server's flight recorder (the
/// INSPECT scrape at shutdown). Embedded in the report only when the SLO
/// fails, so a red run carries its own where-did-the-time-go evidence.
struct SlowRequestEvidence {
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;
  std::string verb;
  std::string status;
  double read_us = 0.0;
  double parse_us = 0.0;
  double engine_us = 0.0;
  double write_us = 0.0;
  double total_us = 0.0;
  std::string detail;  ///< request text (slow log copies it, capped)
};

struct SloReport {
  double p99_bound_us = 0.0;        ///< point-lookup verbs
  double heavy_p99_bound_us = 0.0;  ///< MLPM / HISTORY / STATS / METRICS
  bool p99_ok = false;
  bool zero_wrong_answers = false;
  bool zero_uninjected_errors = false;
  bool pass = false;
};

struct LoadReport {
  // ---- deterministic (same seed + scenario => byte-identical JSON) ----
  std::uint64_t seed = 0;
  std::string scenario;  ///< canonical form
  unsigned workers = 0;
  std::uint64_t duration_ms = 0;
  double qps = 0.0;
  double zipf_alpha = 0.0;
  std::uint64_t world_seed = 0;
  double world_scale = 0.0;
  std::uint64_t records = 0;  ///< latest-epoch record count at start
  /// FNV-1a over every scheduled op's (verb, record, salt) in worker
  /// order — two runs with equal digests replayed the same request
  /// schedule.
  std::uint64_t schedule_digest = 0;
  std::array<std::uint64_t, kVerbCount> planned{};

  // ---- measured ----
  std::array<VerbReport, kVerbCount> verbs{};
  std::uint64_t total_requests = 0;
  std::uint64_t total_lookups = 0;  ///< batch verbs weighted by addresses
  std::uint64_t spot_checks = 0;
  std::uint64_t wrong_answers = 0;
  std::uint64_t injected_errors = 0;
  std::uint64_t uninjected_errors = 0;
  std::uint64_t elapsed_ms = 0;
  double achieved_qps = 0.0;
  double lookups_per_s = 0.0;
  ChaosReport chaos;
  SloReport slo;
  /// Worst requests the server's flight recorder held at shutdown,
  /// worst-first. Always collected; to_json() emits them only on a
  /// failed SLO.
  std::vector<SlowRequestEvidence> slow_requests;

  /// Just the deterministic section (the determinism tests compare this).
  std::string deterministic_json() const;
  /// The full report; embeds deterministic_json() verbatim under
  /// "deterministic".
  std::string to_json() const;
};

}  // namespace sublet::loadgen
