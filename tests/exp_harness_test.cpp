// The experiment harness itself: app builders (Tables I & II), run result
// accessors, and report printing.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/table.hpp"
#include "paper_scenario.hpp"
#include "workload/apps.hpp"

namespace pcs {
namespace {

using namespace pcs::workload;

using scenario::RunResult;
using test::run_paper_scenario;
using util::GB;

TEST(Apps, SyntheticCpuInterpolation) {
  // Exact at the measured points.
  EXPECT_DOUBLE_EQ(synthetic_cpu_seconds(3.0 * GB), 4.4);
  EXPECT_DOUBLE_EQ(synthetic_cpu_seconds(20.0 * GB), 28.0);
  EXPECT_DOUBLE_EQ(synthetic_cpu_seconds(100.0 * GB), 155.0);
  // Linear between 50 and 75 GB.
  EXPECT_NEAR(synthetic_cpu_seconds(62.5 * GB), (75.0 + 110.0) / 2.0, 1e-9);
  // Proportional below 3 GB; extrapolated above 100 GB.
  EXPECT_NEAR(synthetic_cpu_seconds(1.5 * GB), 2.2, 1e-9);
  EXPECT_GT(synthetic_cpu_seconds(120.0 * GB), 155.0);
}

TEST(Apps, SyntheticWorkflowShape) {
  wf::Workflow workflow;
  build_synthetic(workflow, "x:", 5.0 * GB, 10.0);
  EXPECT_EQ(workflow.task_count(), 3u);
  // Chain via files: task2 reads what task1 wrote.
  EXPECT_TRUE(workflow.parents_of("x:task2").count("x:task1"));
  EXPECT_TRUE(workflow.parents_of("x:task3").count("x:task2"));
  auto ext = workflow.external_inputs();
  ASSERT_EQ(ext.size(), 1u);
  EXPECT_EQ(ext[0].name, "x:file1");
  EXPECT_DOUBLE_EQ(ext[0].size, 5.0 * GB);
  EXPECT_DOUBLE_EQ(workflow.task("x:task1").flops, 10.0 * 1e9);
  EXPECT_THROW(build_synthetic(workflow, "y:", -1.0, 1.0), std::invalid_argument);
}

TEST(Apps, NighresWorkflowMovesTableTwoBytes) {
  wf::Workflow workflow;
  build_nighres(workflow);
  workflow.validate();
  const auto& steps = nighres_table();
  ASSERT_EQ(workflow.task_count(), steps.size());
  for (const NighresStep& step : steps) {
    EXPECT_NEAR(workflow.task(step.name).input_bytes(), step.input_bytes, 1.0) << step.name;
    EXPECT_NEAR(workflow.task(step.name).output_bytes(), step.output_bytes, 1.0) << step.name;
  }
  // Sequential chain.
  EXPECT_TRUE(workflow.parents_of("tissue_classification").count("skull_stripping"));
  EXPECT_TRUE(workflow.parents_of("cortical_reconstruction").count("region_extraction"));
}

TEST(Runners, InstancePrefix) {
  EXPECT_EQ(instance_prefix(0), "a0:");
  EXPECT_EQ(instance_prefix(17), "a17:");
}

TEST(Runners, RunResultHelpers) {
  RunResult result = run_paper_scenario(
      "wrench_cache",
      {{"workload.input_size", "3 GB"}, {"workload.instances", 2}, {"probe_period", 10}});

  EXPECT_EQ(result.tasks.size(), 6u);  // 2 instances x 3 tasks
  EXPECT_GT(result.read_time(0, 1), 0.0);
  EXPECT_GT(result.write_time(1, 3), 0.0);
  EXPECT_THROW((void)result.task("nope"), std::runtime_error);
  EXPECT_GT(result.mean_instance_read_time(), 0.0);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.wall_seconds, 0.0);
  ASSERT_FALSE(result.profile.empty());
  // snapshot_at picks the nearest sample.
  const cache::CacheSnapshot& snap = result.snapshot_at(result.makespan);
  EXPECT_NEAR(snap.time, result.makespan, 10.0);
  // final_state captured for the cached local run.
  EXPECT_GT(result.final_state.cached, 0.0);
  EXPECT_GT(result.final_inactive_blocks + result.final_active_blocks, 0u);
}

TEST(Runners, CachelessRunHasNoProfile) {
  // The probe is requested, but there is no memory to probe.
  RunResult result =
      run_paper_scenario("wrench", {{"workload.input_size", "3 GB"}, {"probe_period", 5}});
  EXPECT_TRUE(result.profile.empty());
  EXPECT_THROW((void)result.snapshot_at(0.0), std::runtime_error);
}

TEST(Report, TablePrinterAlignsAndCsv) {
  metrics::TablePrinter table({"col", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer-name", "2.5"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(table.to_csv(), "col,value\na,1\nlonger-name,2.5\n");
  EXPECT_THROW(table.add_row({"only-one-cell"}), std::invalid_argument);
  EXPECT_THROW(metrics::TablePrinter({}), std::invalid_argument);
}

TEST(Report, Formatting) {
  EXPECT_EQ(metrics::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(metrics::fmt(3.0, 0), "3");
  EXPECT_EQ(metrics::fmt_bytes(20.0 * GB), "20.00 GB");
}

}  // namespace
}  // namespace pcs
