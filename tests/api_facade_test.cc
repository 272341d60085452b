// The embeddable facade (api/pcal.h) must be a veneer, not a second
// engine: run() has to match a hand-assembled Simulator run bit for
// bit, run_grid() has to match pcalsweep's row shape at any worker
// count, and validate() has to report every problem structurally
// instead of throwing at the first.
#include "api/pcal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/run_assembly.h"
#include "util/error.h"

namespace pcal {
namespace {

using api::ConfigIssue;
using api::RunConfig;

RunConfig small_config() {
  RunConfig rc;
  rc.set("cache_size", "8192")
      .set("banks", "4")
      .set("workload", "uniform")
      .set("accesses", "20000");
  return rc;
}

const char kSpec[] =
    "[sweep]\n"
    "workload = uniform, streaming\n"
    "banks = 2, 4\n"
    "[grid]\n"
    "accesses = 20000\n";

TEST(RunConfigTest, KnowsTheSharedVocabulary) {
  EXPECT_TRUE(RunConfig::knows("cache_size"));
  EXPECT_TRUE(RunConfig::knows("llc_ways_per_core"));
  EXPECT_TRUE(RunConfig::knows("core3_workload"));
  EXPECT_FALSE(RunConfig::knows("no_such_knob"));
}

TEST(RunConfigTest, ValidateAcceptsCleanConfig) {
  EXPECT_TRUE(small_config().validate().empty());
}

TEST(RunConfigTest, ValidateReportsEveryEntryProblem) {
  RunConfig rc;
  rc.set("no_such_knob", "1").set("banks", "three").set("cache_size", "8k");
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].key, "no_such_knob");
  EXPECT_EQ(issues[0].value, "1");
  EXPECT_EQ(issues[1].key, "banks");
  EXPECT_NE(issues[1].reason.find("three"), std::string::npos);
  EXPECT_NE(api::describe(issues).find("no_such_knob"), std::string::npos);
}

TEST(RunConfigTest, ValidateChecksTheAssembledWhole) {
  RunConfig rc;
  rc.set("cores", "2");  // needs llc_size > 0 -- only assemble() knows
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "");
  EXPECT_NE(issues[0].reason.find("llc_size"), std::string::npos);
}

TEST(RunConfigTest, ValidateResolvesWorkloads) {
  RunConfig rc = small_config();
  rc.set("workload", "no_such_workload");
  std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "workload");

  RunConfig mc;
  mc.set("cores", "2").set("llc_size", "65536").set("cache_size", "8192");
  mc.set("core1_workload", "also_not_a_workload");
  issues = mc.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "core1_workload");
}

TEST(RunConfigTest, ValidateRefusesWorkloadsOfMissingCores) {
  // A core<k>_workload for k >= cores would be dropped by the run.
  RunConfig mc;
  mc.set("cores", "2").set("llc_size", "65536").set("cache_size", "8192");
  mc.set("core1_workload", "sha").set("core5_workload", "sha");
  std::vector<ConfigIssue> issues = mc.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "core5_workload");
  EXPECT_EQ(issues[0].value, "sha");
  EXPECT_NE(issues[0].reason.find("no such core"), std::string::npos);
  mc.set("accesses", "2000");
  EXPECT_THROW(api::run(mc), ConfigError);

  // A single-stream config has no cores to name.
  RunConfig single = small_config();
  single.set("core0_workload", "sha");
  issues = single.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "core0_workload");
  EXPECT_THROW(api::run(single), ConfigError);
}

TEST(RunConfigTest, ValidateBoundsTheClock) {
  // A latency past the bound would wrap the 64-bit clock; every
  // latency-like key and `accesses` are refused by name.
  RunConfig rc = small_config();
  rc.set("miss_latency", "18446744073709551615")
      .set("l2_hit_latency", std::to_string(kMaxLatencyCycles + 1))
      .set("port_cycles", "4611686018427387904")
      .set("accesses", std::to_string(kMaxAccesses + 1));
  std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 4u);
  EXPECT_EQ(issues[0].key, "miss_latency");
  EXPECT_EQ(issues[1].key, "l2_hit_latency");
  EXPECT_EQ(issues[2].key, "port_cycles");
  EXPECT_EQ(issues[3].key, "accesses");
  EXPECT_NE(issues[0].reason.find("2^63"), std::string::npos);

  // At the bound itself the key is accepted.
  RunConfig edge = small_config();
  edge.set("miss_latency", std::to_string(kMaxLatencyCycles));
  EXPECT_TRUE(edge.validate().empty());

  // In-bound keys whose product could still pass 2^63 — every access
  // stalling the bandwidth-bound fill of a huge line — are caught on
  // the assembled whole.
  RunConfig whole;
  whole.set("cache_size", "2048M").set("line_size", "1024M").set("ways", "1")
      .set("banks", "1").set("bandwidth", "1")
      .set("accesses", std::to_string(kMaxAccesses));
  issues = whole.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "");
  EXPECT_NE(issues[0].reason.find("2^63"), std::string::npos);
}

TEST(RunConfigTest, EnergyPresetAndFieldsAssembleInAnyOrder) {
  // The preset applies before every energy_* field, whichever was set
  // first, so a field is never silently reset by a later preset.
  RunAssembly preset_first, field_first;
  preset_first.set("energy", "st45");
  preset_first.set("energy_gated_leak", "0.1");
  field_first.set("energy_gated_leak", "0.1");
  field_first.set("energy", "st45");
  const EnergyParams a = preset_first.assemble().config.energy_params;
  const EnergyParams b = field_first.assemble().config.energy_params;
  const auto fields = [](const EnergyParams& p) {
    return std::vector<double>{
        p.drowsy_leak_fraction, p.gated_leak_fraction,
        p.sleep_area_leak_overhead, p.control_leak_uw_per_unit,
        p.gate_transition_fixed_pj, p.drowsy_transition_fraction,
        p.drowsy_transition_fixed_pj,
        static_cast<double>(p.drowsy_wake_cycles),
        static_cast<double>(p.gated_wake_cycles)};
  };
  EXPECT_EQ(fields(a), fields(b));
  EXPECT_EQ(a.gated_leak_fraction, 0.1);
  EXPECT_EQ(a.control_leak_uw_per_unit,
            EnergyParams::st45().control_leak_uw_per_unit);
  // Unset, every run prices with the paper preset.
  EXPECT_EQ(fields(RunAssembly().assemble().config.energy_params),
            fields(EnergyParams::paper()));
  RunConfig bad = small_config();
  bad.set("energy", "legacy");
  ASSERT_EQ(bad.validate().size(), 1u);
  EXPECT_EQ(bad.validate()[0].key, "energy");
}

TEST(ApiRunTest, MatchesHandAssembledSimulatorRun) {
  const RunConfig rc = small_config();
  const api::RunOutput out = api::run(rc);

  RunAssembly asmb;
  for (const auto& [key, value] : rc.entries()) asmb.set(key, value);
  const RunAssembly::Assembled assembled = asmb.assemble();
  const auto source = make_workload_factory(
      asmb.workload(), asmb.accesses(), asmb.footprint_bytes())();
  Simulator sim(assembled.config);
  const SimResult direct = sim.run(*source, &api::shared_aging().lut());

  EXPECT_EQ(out.result.accesses, direct.accesses);
  EXPECT_EQ(out.result.total_cycles, direct.total_cycles);
  EXPECT_EQ(out.result.cache_stats.hits, direct.cache_stats.hits);
  EXPECT_EQ(out.result.cache_stats.misses, direct.cache_stats.misses);
  EXPECT_EQ(out.result.energy.partitioned.total_pj(),
            direct.energy.partitioned.total_pj());
  EXPECT_EQ(out.result.lifetime_years(), direct.lifetime_years());
  EXPECT_TRUE(out.cores.empty());
}

TEST(ApiRunTest, DefaultsToUniformWorkload) {
  RunConfig with_default;
  with_default.set("cache_size", "8192").set("banks", "4").set("accesses",
                                                               "20000");
  const api::RunOutput a = api::run(with_default);
  const api::RunOutput b = api::run(small_config());
  EXPECT_EQ(a.result.workload, b.result.workload);
  EXPECT_EQ(a.result.total_cycles, b.result.total_cycles);
  EXPECT_EQ(a.result.cache_stats.hits, b.result.cache_stats.hits);
}

TEST(ApiRunTest, MultiCoreRunsPartitionedLlc) {
  RunConfig rc;
  rc.set("cores", "2")
      .set("llc_size", "65536")
      .set("llc_ways_per_core", "4")
      .set("cache_size", "8192")
      .set("banks", "4")
      .set("workload", "uniform")
      .set("accesses", "20000");
  const api::RunOutput out = api::run(rc);
  ASSERT_EQ(out.cores.size(), 2u);
  EXPECT_EQ(out.cores[0].llc_way_mask & out.cores[1].llc_way_mask, 0u);
  EXPECT_EQ(out.cores[0].accesses + out.cores[1].accesses,
            out.result.accesses);
}

TEST(ApiRunTest, ThrowsOnInvalidConfig) {
  RunConfig rc;
  rc.set("banks", "x");
  EXPECT_THROW(api::run(rc), Error);
}

TEST(ApiGridTest, WorkerCountDoesNotChangeResults) {
  api::GridOptions one;
  one.workers = 1;
  api::GridOptions eight;
  eight.workers = 8;
  const api::GridRun a = api::run_grid_text(kSpec, one, "par");
  const api::GridRun b = api::run_grid_text(kSpec, eight, "par");
  ASSERT_EQ(a.outcomes.size(), 4u);
  ASSERT_EQ(b.outcomes.size(), 4u);
  EXPECT_EQ(a.failed_jobs(), 0u);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i)
    EXPECT_EQ(a.result_row(i), b.result_row(i)) << "job " << i;
  EXPECT_EQ(a.table, b.table);
}

TEST(ApiGridTest, ResultRowsCarryBenchShapeAndLabels) {
  const api::GridRun run = api::run_grid_text(kSpec, {}, "par");
  ASSERT_EQ(run.jobs.size(), 4u);
  const std::string row = run.result_row(0);
  EXPECT_EQ(row.find("{\"job\": 0, \"workload\": \"uniform\""), 0u);
  EXPECT_NE(row.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(row.find("\"energy_pj\": "), std::string::npos);
  ASSERT_FALSE(run.outcomes.empty());
  EXPECT_EQ(run.outcomes[0].label, "workload=uniform banks=2");
  EXPECT_EQ(run.outcomes[3].label, "workload=streaming banks=4");
}

TEST(ApiGridTest, ObserverFactoryAttachesPerJob) {
  std::vector<std::atomic<int>> fired(4);
  for (auto& f : fired) f = 0;
  api::GridOptions options;
  options.workers = 2;
  options.make_observer = [&fired](std::size_t i) -> IntervalObserver {
    return [&fired, i](const IntervalSnapshot&) { ++fired[i]; };
  };
  const api::GridRun run = api::run_grid_text(kSpec, options, "obs");
  ASSERT_EQ(run.outcomes.size(), fired.size());
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_GT(fired[i].load(), 0) << "job " << i;
}

TEST(ApiGridTest, ThrowsOnMalformedSpec) {
  EXPECT_THROW(api::run_grid_text("[sweep]\nbanks = oops\n"), Error);
}

}  // namespace
}  // namespace pcal
