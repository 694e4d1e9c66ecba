// The four workloads, the traced layer sweep, and the inputs they share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "load.h"
#include "serve/query_engine.h"

namespace pb {

inline constexpr double kBatchScale = 2.0;
inline constexpr double kEpochScale = 1.0;
inline constexpr std::size_t kEpochs = 6;
inline constexpr std::size_t kPending = 2;
inline constexpr unsigned kShards = 2;

/// The seeded simnet world of the batch path, its reference inference CSV
/// and snapshot (produced in-process), and their digests.
struct BatchWorld {
  std::string world;
  std::string ref_csv;
  std::string ref_snap;
  std::uint64_t csv_digest = 0;
  std::uint64_t snap_digest = 0;
  std::size_t leaves = 0;
};

/// Build the world for `cfg.seed` under the work dir, or reuse a complete
/// one unless `fresh`. `build_s` receives the time spent building.
BatchWorld ensure_batch_world(const RunConfig& cfg, bool fresh,
                              double* build_s);

/// Text requests of the point workload: for every leaf an EXACT line and
/// an LPM line for one address inside it, with the FNV-1a digest of the
/// answer an in-process engine gives. Leaves are ranked by a seeded
/// permutation and drawn Zipf(1).
struct PointPool {
  std::vector<std::string> lines;
  std::vector<std::uint64_t> expected;
  std::vector<std::uint32_t> rank_to_leaf;
  std::uint32_t pick(std::uint64_t& rng) const;
};
PointPool make_point_pool(const sublet::serve::QueryEngine& engine,
                          std::uint64_t seed);

/// A host address inside record `idx`'s prefix, drawn from `rng`.
std::uint32_t address_in(const sublet::serve::QueryEngine& engine,
                         std::uint32_t idx, std::uint64_t& rng);
/// Dotted-quad text of a host-order address.
std::string dotted(std::uint32_t addr);

/// Zipf(1) rank in [0, n).
std::uint64_t zipf_rank(std::uint64_t& rng, std::uint64_t n);

/// LPM_BATCH frames: half the addresses inside uniformly chosen leaves,
/// half uniform over IPv4, each with the exact answer payload an
/// in-process engine gives.
std::vector<PreparedFrame> make_frames(const sublet::serve::QueryEngine& engine,
                                       std::uint64_t seed, std::size_t count,
                                       std::size_t per_frame,
                                       double* hit_ratio);

/// Encode the answer payload for `records` the way the server does.
void encode_results(const sublet::serve::QueryEngine& engine,
                    const std::vector<std::uint32_t>& records,
                    std::string& out);

/// `sublet serve` argv for a snapshot or (catalog = true) a catalog dir.
std::vector<std::string> serve_argv(const RunConfig& cfg,
                                    const std::string& path, bool catalog);

/// Start the server `starts` times (keeping the last one up) and return
/// the median start-to-first-answer time; `prepare` runs before each
/// start and is timed with it.
double timed_server_starts(ServerProcess& server,
                           const std::vector<std::string>& argv,
                           const std::string& dir, int starts,
                           const std::function<void()>& prepare,
                           Result& result);

/// The JSON metrics every workload reports (README.md maps them to each
/// workload's own metric names).
void add_common_metrics(Result& r, double setup_s, double p50_us,
                        double tail_us, double rate, double rss_mb);
/// A report line "  <name> = <value> <unit>".
void note_metric(Result& r, const std::string& name, double value,
                 const std::string& unit);
/// Add an open-loop phase's counts to `r`, failing it on any miss.
void count_text_load(Result& r, const TextLoadStats& s,
                     const std::string& phase);
std::string describe_load(TextLoadStats& s);
/// Step up the fixed rate ladder until a rung misses the p99 limit, fails
/// a request, or the generator falls behind; returns the last rate met.
double run_ladder(OpenLoopOptions options, double first_rate, double step_s,
                  const PickFn& pick, const CheckFn& check, Result& r);

Result run_batch_infer(const RunConfig& cfg);
Result run_serve_point(const RunConfig& cfg);
Result run_serve_batch(const RunConfig& cfg);
Result run_serve_epochs(const RunConfig& cfg);
/// Traced run: every layer's calls wrapped in spans, per-layer metrics,
/// and one reconciliation table per section.
Result run_traced(const RunConfig& cfg);

}  // namespace pb
