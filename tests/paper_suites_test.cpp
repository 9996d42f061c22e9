// Paper suites (bench/paper.cpp): every figure, table and extension study
// is a registered `xlp bench` suite tagged "full", runs at a reduced
// XLP_BENCH_SCALE, parks its table rows in a payload and its headline
// numbers in finite counters, and emits the same deterministic document
// on a second run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "suites.hpp"

using namespace xlp;

namespace {

const std::vector<std::string>& figure_suites() {
  static const std::vector<std::string> names = {
      "fig05_latency_vs_c",   "fig06_parsec_8x8",
      "fig08_synthetic",      "fig09_power",
      "fig10_static_breakdown", "table2_worst_case",
      "fig11_bandwidth",      "fig12_optimal",
      "app_specific",         "ablation_generators",
      "routing_comparison",   "virtual_vs_physical",
      "bandwidth_utilization", "optimizer_comparison",
      "worst_case_objective", "arbiter_ablation"};
  return names;
}

obs::Provenance pinned_provenance() {
  obs::Provenance p;
  p.git_sha = "0000000000000000000000000000000000000000";
  p.compiler = "testcc 1.0";
  p.flags = "-O2";
  p.hostname = "testhost";
  p.seed = 42;
  return p;
}

bench::RunnerOptions suite_options(const std::string& suite) {
  bench::RunnerOptions options;
  options.warmup = 0;
  options.repeats = 1;
  options.filter = "^" + suite + "/";
  options.out_dir.clear();
  options.deterministic = true;
  options.provenance = pinned_provenance();
  return options;
}

class PaperSuiteTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    setenv("XLP_BENCH_SCALE", "0.02", 1);
    setenv("XLP_THREADS", "1", 1);
    bench::Registry::global().clear();
    bench::register_paper_suites();
  }
};

TEST_P(PaperSuiteTest, RunsToPayloadAndFiniteCounters) {
  const std::string& suite = GetParam();
  const bench::Runner runner(suite_options(suite));
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].suite, suite);
  ASSERT_FALSE(reports[0].results.empty());
  for (const auto& result : reports[0].results) {
    SCOPED_TRACE(result.name);
    EXPECT_EQ(result.tags, "full");
    ASSERT_TRUE(result.payload.is_object());
    EXPECT_GT(result.payload.size(), 0u);
    for (const auto& [name, value] : result.counters)
      EXPECT_TRUE(std::isfinite(value)) << name;
  }

  // Payloads and counters must not depend on wall time: a second
  // deterministic run serializes to the same bytes.
  const auto again = runner.run();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(runner.suite_to_json(reports[0]).dump(),
            runner.suite_to_json(again[0]).dump());
}

INSTANTIATE_TEST_SUITE_P(
    Figures, PaperSuiteTest, ::testing::ValuesIn(figure_suites()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(PaperSuites, EveryFigureIsRegisteredUnderTagFull) {
  bench::Registry::global().clear();
  bench::register_all_suites();
  for (const std::string& suite : figure_suites()) {
    SCOPED_TRACE(suite);
    int found = 0;
    for (const auto& spec : bench::Registry::global().specs()) {
      if (spec.suite != suite) continue;
      ++found;
      EXPECT_EQ(spec.tags, "full") << spec.name;
    }
    EXPECT_GT(found, 0);
  }
  // fig07 keeps its smoke point beside the paper-size runs.
  bool fig07_smoke = false;
  for (const auto& spec : bench::Registry::global().specs())
    if (spec.suite == "fig07_runtime" && spec.tags == "smoke")
      fig07_smoke = true;
  EXPECT_TRUE(fig07_smoke);
}

}  // namespace
