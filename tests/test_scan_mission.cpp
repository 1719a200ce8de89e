#include <gtest/gtest.h>

#include <cmath>

#include "core/scan_mission.h"
#include "drone/trajectory.h"
#include "sim/pipeline.h"

namespace rfly::core {
namespace {

std::vector<TagPlacement> aisle_tags(int n, double aisle_y) {
  std::vector<TagPlacement> tags;
  for (int i = 0; i < n; ++i) {
    TagPlacement t;
    t.config.epc = make_epc(static_cast<std::uint32_t>(i));
    t.position = {8.0 + 6.0 * static_cast<double>(i), aisle_y, 0.0};
    tags.push_back(t);
  }
  return tags;
}

TEST(ScanMission, DiscoversAndLocalizesOpenFloorTags) {
  ScanMissionConfig cfg;
  channel::Environment env;
  InventoryDatabase db;
  auto tags = aisle_tags(3, 10.0);
  db.add(tags[0].config.epc, "alpha");
  db.add(tags[1].config.epc, "beta");
  db.add(tags[2].config.epc, "gamma");

  const auto plan = drone::linear_trajectory({4.0, 12.0, 1.2}, {24.0, 12.3, 1.2}, 120);
  const auto run =
      sim::run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 1);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const ScanReport& report = run->report;

  EXPECT_EQ(report.discovered, 3u);
  EXPECT_EQ(report.localized, 3u);
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.items[0].description, "alpha");
  for (std::size_t i = 0; i < tags.size(); ++i) {
    const auto& item = report.items[i];
    ASSERT_TRUE(item.localized);
    const double err = std::hypot(item.estimate.x - tags[i].position.x,
                                  item.estimate.y - tags[i].position.y);
    EXPECT_LT(err, 0.5) << "tag " << i;
  }
}

TEST(ScanMission, OutOfRangeTagIsReportedNotLocalized) {
  ScanMissionConfig cfg;
  channel::Environment env;
  InventoryDatabase db;
  auto tags = aisle_tags(1, 10.0);
  tags.push_back({{}, {200.0, 200.0, 0.0}});  // unreachable
  tags.back().config.epc = make_epc(99);

  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {10.0, 12.2, 1.2}, 60);
  const auto run =
      sim::run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 2);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const ScanReport& report = run->report;
  EXPECT_EQ(report.discovered, 1u);
  EXPECT_FALSE(report.items[1].discovered);
  EXPECT_FALSE(report.items[1].localized);
}

TEST(ScanMission, UnknownEpcHasEmptyDescription) {
  ScanMissionConfig cfg;
  channel::Environment env;
  InventoryDatabase db;  // empty
  auto tags = aisle_tags(1, 10.0);
  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {10.0, 12.2, 1.2}, 60);
  const auto run =
      sim::run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 3);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const ScanReport& report = run->report;
  ASSERT_EQ(report.items.size(), 1u);
  EXPECT_TRUE(report.items[0].description.empty());
  EXPECT_TRUE(report.items[0].discovered);
}

TEST(ScanMission, SideFlagFlipsSearchWindow) {
  ScanMissionConfig below;
  ScanMissionConfig above = below;
  above.tags_below_path = false;
  channel::Environment env;
  InventoryDatabase db;

  // Tag ABOVE the path: only the above-configured mission localizes well.
  std::vector<TagPlacement> tags{{{}, {10.0, 14.0, 0.0}}};
  tags[0].config.epc = make_epc(5);
  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {14.0, 12.2, 1.2}, 60);

  const auto wrong_run =
      sim::run_mission_pipeline(below, env, {0.0, 0.0, 2.0}, plan, tags, db, 4);
  ASSERT_TRUE(wrong_run.ok()) << wrong_run.status().to_string();
  const ScanReport& wrong = wrong_run->report;
  const auto right_run =
      sim::run_mission_pipeline(above, env, {0.0, 0.0, 2.0}, plan, tags, db, 4);
  ASSERT_TRUE(right_run.ok()) << right_run.status().to_string();
  const ScanReport& right = right_run->report;

  ASSERT_TRUE(right.items[0].localized);
  const double err_right = std::hypot(right.items[0].estimate.x - 10.0,
                                      right.items[0].estimate.y - 14.0);
  EXPECT_LT(err_right, 0.5);
  if (wrong.items[0].localized) {
    const double err_wrong = std::hypot(wrong.items[0].estimate.x - 10.0,
                                        wrong.items[0].estimate.y - 14.0);
    EXPECT_GT(err_wrong, err_right);
  }
}

TEST(ScanMission, DeterministicGivenSeed) {
  ScanMissionConfig cfg;
  channel::Environment env;
  InventoryDatabase db;
  auto tags_a = aisle_tags(2, 10.0);
  auto tags_b = aisle_tags(2, 10.0);
  const auto plan = drone::linear_trajectory({6.0, 12.0, 1.2}, {20.0, 12.3, 1.2}, 80);
  const auto a_run =
      sim::run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags_a, db, 7);
  ASSERT_TRUE(a_run.ok()) << a_run.status().to_string();
  const ScanReport& a = a_run->report;
  const auto b_run =
      sim::run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags_b, db, 7);
  ASSERT_TRUE(b_run.ok()) << b_run.status().to_string();
  const ScanReport& b = b_run->report;
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.items[i].estimate.x, b.items[i].estimate.x);
    EXPECT_DOUBLE_EQ(a.items[i].estimate.y, b.items[i].estimate.y);
  }
}

}  // namespace
}  // namespace rfly::core
