#include <gtest/gtest.h>

#include "drone/trajectory.h"
#include "sim/pipeline.h"

namespace rfly::sim {
namespace {

std::vector<core::TagPlacement> aisle_tags(int n, double aisle_y) {
  std::vector<core::TagPlacement> tags;
  for (int i = 0; i < n; ++i) {
    core::TagPlacement t;
    t.config.epc = core::make_epc(static_cast<std::uint32_t>(i));
    t.position = {8.0 + 6.0 * static_cast<double>(i), aisle_y, 0.0};
    tags.push_back(t);
  }
  return tags;
}

TEST(Pipeline, EmptyFlightPlanIsTypedError) {
  core::ScanMissionConfig cfg;
  channel::Environment env;
  core::InventoryDatabase db;
  auto tags = aisle_tags(1, 10.0);
  const std::vector<Vec3> plan;  // nothing to fly

  const auto run = run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 1);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kEmptyFlightPlan);
}

TEST(Pipeline, EmptyPopulationIsTypedError) {
  core::ScanMissionConfig cfg;
  channel::Environment env;
  core::InventoryDatabase db;
  std::vector<core::TagPlacement> tags;  // nothing to scan
  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {10.0, 12.2, 1.2}, 60);

  const auto run = run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 1);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kEmptyPopulation);
}

TEST(Pipeline, FullyClippedGridIsTypedError) {
  core::ScanMissionConfig cfg;
  cfg.grid_margin_to_path_m = cfg.search_halfwidth_m + 1.0;  // clips everything
  channel::Environment env;
  core::InventoryDatabase db;
  auto tags = aisle_tags(1, 10.0);
  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {10.0, 12.2, 1.2}, 60);

  const auto run = run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 1);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDegenerateGrid);
}

TEST(Pipeline, StageTraceCoversEveryStageInOrder) {
  core::ScanMissionConfig cfg;
  channel::Environment env;
  core::InventoryDatabase db;
  auto tags = aisle_tags(2, 10.0);
  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {20.0, 12.3, 1.2}, 80);

  const auto run = run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 7);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->trace.size(), kStageCount);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    EXPECT_EQ(run->trace[i].stage, static_cast<Stage>(i));
    EXPECT_GE(run->trace[i].seconds, 0.0);
  }
  // Whole-mission stages run once; per-tag stages once per tag reaching them.
  EXPECT_EQ(run->trace[static_cast<std::size_t>(Stage::kPlan)].invocations, 1u);
  EXPECT_EQ(run->trace[static_cast<std::size_t>(Stage::kFly)].invocations, 1u);
  EXPECT_EQ(run->trace[static_cast<std::size_t>(Stage::kInventory)].invocations, 2u);
  EXPECT_EQ(run->trace[static_cast<std::size_t>(Stage::kReport)].invocations, 2u);
  EXPECT_GE(run->total_seconds, 0.0);
}

TEST(Pipeline, UndiscoveredTagCarriesTypedStatus) {
  core::ScanMissionConfig cfg;
  channel::Environment env;
  core::InventoryDatabase db;
  auto tags = aisle_tags(1, 10.0);
  tags.push_back({{}, {200.0, 200.0, 0.0}});  // unreachable
  tags.back().config.epc = core::make_epc(99);
  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {10.0, 12.2, 1.2}, 60);

  const auto run = run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 2);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->report.items.size(), 2u);
  EXPECT_TRUE(run->report.items[0].localized);
  EXPECT_TRUE(run->report.items[0].status.is_ok());
  EXPECT_FALSE(run->report.items[1].discovered);
  EXPECT_EQ(run->report.items[1].status.code(), StatusCode::kUndecodablePopulation);
}

TEST(Pipeline, StageNamesAreStable) {
  EXPECT_STREQ(stage_name(Stage::kPlan), "plan");
  EXPECT_STREQ(stage_name(Stage::kFly), "fly");
  EXPECT_STREQ(stage_name(Stage::kInventory), "inventory");
  EXPECT_STREQ(stage_name(Stage::kMeasure), "measure");
  EXPECT_STREQ(stage_name(Stage::kDisentangle), "disentangle");
  EXPECT_STREQ(stage_name(Stage::kLocalize), "localize");
  EXPECT_STREQ(stage_name(Stage::kReport), "report");
}

TEST(Pipeline, RunScenarioRejectsInvalidScenario) {
  auto scenario = *preset("building");
  scenario.tags.clear();
  const auto run = run_scenario(scenario);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kEmptyPopulation);
}

}  // namespace
}  // namespace rfly::sim
