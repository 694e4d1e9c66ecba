// Soak harness checks (labels `soak` + `fault`): scenario grammar,
// schedule determinism (same seed + scenario => byte-identical
// deterministic report section), SLO report shape, and a short
// chaos-under-load run including the mid-append SIGKILL recovery path.
// Suites are named Soak* so the tsan preset picks them up by name.
#include <gtest/gtest.h>

#include <string>

#include "loadgen/loadgen.h"
#include "loadgen/report.h"
#include "loadgen/scenario.h"
#include "util/faultinject.h"

namespace sublet::loadgen {
namespace {

// A run small enough for sanitizer presets: ~1.4k records, ~1.5s.
LoadOptions tiny_run(std::uint64_t seed) {
  LoadOptions options;
  options.seed = seed;
  options.workers = 2;
  options.duration_ms = 1500;
  options.qps = 120.0;
  options.batch_size = 32;
  options.pipeline_depth = 2;
  options.world.scale = 0.02;
  options.world.epochs = 3;
  options.world.pending = 2;
  options.spot_check_every = 8;
  return options;
}

TEST(SoakScenario, ParsesSortsAndCanonicalizes) {
  auto events = parse_scenario(
      " churn@9000:25 ;append@1000; faults@5000:serve.read=EIO:3 ");
  ASSERT_TRUE(events.has_value()) << events.error().to_string();
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].kind, ChaosKind::kAppend);
  EXPECT_EQ((*events)[0].at_ms, 1000u);
  EXPECT_EQ((*events)[1].kind, ChaosKind::kFaults);
  EXPECT_EQ((*events)[1].arg, "serve.read=EIO:3");  // ':' kept verbatim
  EXPECT_EQ((*events)[2].kind, ChaosKind::kChurn);
  EXPECT_EQ(canonical_scenario(*events),
            "append@1000;faults@5000:serve.read=EIO:3;churn@9000:25");
}

TEST(SoakScenario, EmptyIsValidAndErrorsAreTyped) {
  auto empty = parse_scenario("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(parse_scenario("explode@1000").has_value());
  EXPECT_FALSE(parse_scenario("append@soon").has_value());
  EXPECT_FALSE(parse_scenario("append").has_value());
}

TEST(SoakSchedule, SameSeedSameScenarioIsByteIdentical) {
  LoadOptions options = tiny_run(101);
  options.scenario = "reload@400;churn@800:5";
  auto first = run_load(options);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  auto second = run_load(options);
  ASSERT_TRUE(second.has_value()) << second.error().to_string();
  // The timing-independent section replays byte-for-byte; the measured
  // section (latencies, chaos outcomes) legitimately differs.
  EXPECT_EQ(first->deterministic_json(), second->deterministic_json());
  EXPECT_EQ(first->schedule_digest, second->schedule_digest);
  EXPECT_EQ(first->planned, second->planned);
}

TEST(SoakSchedule, DifferentSeedDifferentSchedule) {
  auto a = run_load(tiny_run(7));
  ASSERT_TRUE(a.has_value()) << a.error().to_string();
  auto b = run_load(tiny_run(8));
  ASSERT_TRUE(b.has_value()) << b.error().to_string();
  EXPECT_NE(a->schedule_digest, b->schedule_digest);
}

TEST(SoakReport, JsonShapeCarriesTheContract) {
  auto report = run_load(tiny_run(55));
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  const std::string json = report->to_json();
  for (const char* key :
       {"\"deterministic\"", "\"schedule_digest\"", "\"planned\"",
        "\"verbs\"", "\"lpm_batch\"", "\"total_requests\"",
        "\"spot_checks\"", "\"wrong_answers\"", "\"injected_errors\"",
        "\"uninjected_errors\"", "\"chaos\"", "\"outbuf_overflows\"",
        "\"slo\"", "\"p99_bound_us\"", "\"zero_wrong_answers\"",
        "\"zero_uninjected_errors\"", "\"pass\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The deterministic section embeds verbatim at the front of the report.
  EXPECT_NE(json.find(report->deterministic_json()), std::string::npos);
  EXPECT_GT(report->total_requests, 0u);
  EXPECT_GT(report->spot_checks, 0u);
  EXPECT_EQ(report->wrong_answers, 0u);
  EXPECT_EQ(report->uninjected_errors, 0u);
  EXPECT_TRUE(report->slo.pass);
}

TEST(SoakSlo, ImpossibleLatencyBoundFailsTheRun) {
  LoadOptions options = tiny_run(77);
  options.p99_bound_us = 0.001;  // nothing real completes this fast
  options.heavy_p99_bound_us = 0.001;
  auto report = run_load(options);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  EXPECT_FALSE(report->slo.p99_ok);
  EXPECT_FALSE(report->slo.pass);  // a violated SLO is a report, not an Error
}

TEST(SoakSlo, BadScenarioIsAHarnessErrorNotAReport) {
  LoadOptions options = tiny_run(78);
  options.scenario = "meteor@1000";
  EXPECT_FALSE(run_load(options).has_value());
}

TEST(SoakChaos, KillAppendMidRunRecoversAndPasses) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  LoadOptions options = tiny_run(91);
  options.duration_ms = 2500;
  options.scenario = "killappend@600;append@1600";
  auto report = run_load(options);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  // A failure prints the whole report (chaos outcomes, per-verb latencies,
  // SLO verdicts), so it tells a recovery fault from a slow run; the
  // in-process server logs to stderr, which ctest keeps with the failure.
  SCOPED_TRACE("run_load report: " + report->to_json());
  EXPECT_EQ(report->chaos.kills, 1u);
  EXPECT_EQ(report->chaos.appends, 2u);  // the retried + the scheduled one
  EXPECT_EQ(report->wrong_answers, 0u);
  EXPECT_EQ(report->uninjected_errors, 0u);
  EXPECT_TRUE(report->slo.pass);
}

}  // namespace
}  // namespace sublet::loadgen
