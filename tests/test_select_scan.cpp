// Select-scoped scan missions: filter the inventory to tags whose EPC
// matches a mask (e.g. one SGTIN company prefix) before flying the survey.
#include <gtest/gtest.h>

#include "core/scan_mission.h"
#include "drone/trajectory.h"
#include "gen2/sgtin.h"
#include "sim/pipeline.h"

namespace rfly::core {
namespace {

gen2::Epc company_epc(std::uint64_t company, std::uint64_t serial) {
  gen2::Sgtin96 s;
  s.partition = 5;
  s.company_prefix = company;
  s.item_reference = 7;
  s.serial = serial;
  return *gen2::sgtin96_encode(s);
}

/// Mask matching the SGTIN-96 header + filter + partition + company prefix
/// (bits 0..37 for partition 5).
gen2::Bits company_mask(const gen2::Epc& epc) {
  gen2::Bits mask;
  for (std::size_t bit = 0; bit < 38; ++bit) {
    mask.push_back((epc[bit / 8] >> (7 - bit % 8)) & 1u);
  }
  return mask;
}

TEST(SelectScan, OnlyMatchingCompanyIsInventoried) {
  ScanMissionConfig cfg;
  const auto wanted_epc = company_epc(0x0000AA, 1);
  cfg.use_select = true;
  cfg.select.pointer = 0;
  cfg.select.mask = company_mask(wanted_epc);

  channel::Environment env;
  InventoryDatabase db;
  std::vector<TagPlacement> tags;
  // Two tags of the wanted company, one of another, side by side.
  for (std::uint64_t serial : {1ull, 2ull}) {
    TagPlacement t;
    t.config.epc = company_epc(0x0000AA, serial);
    t.position = {8.0 + 4.0 * static_cast<double>(serial), 10.0, 0.0};
    db.add(t.config.epc, "ours");
    tags.push_back(t);
  }
  TagPlacement other;
  other.config.epc = company_epc(0x0000BB, 9);
  other.position = {10.0, 10.0, 0.0};
  db.add(other.config.epc, "theirs");
  tags.push_back(other);

  const auto plan =
      drone::linear_trajectory({6.0, 12.0, 1.2}, {18.0, 12.3, 1.2}, 100);
  const auto run =
      sim::run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 5);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const ScanReport& report = run->report;

  EXPECT_TRUE(report.items[0].discovered);
  EXPECT_TRUE(report.items[1].discovered);
  EXPECT_FALSE(report.items[2].discovered) << "wrong-company tag must stay quiet";
  EXPECT_EQ(report.discovered, 2u);
}

TEST(SelectScan, NoSelectReadsEveryone) {
  ScanMissionConfig cfg;  // use_select = false
  channel::Environment env;
  InventoryDatabase db;
  std::vector<TagPlacement> tags;
  for (std::uint64_t serial : {1ull, 2ull}) {
    TagPlacement t;
    t.config.epc = company_epc(0x0000AA, serial);
    t.position = {8.0 + 4.0 * static_cast<double>(serial), 10.0, 0.0};
    tags.push_back(t);
  }
  TagPlacement other;
  other.config.epc = company_epc(0x0000BB, 9);
  other.position = {10.0, 10.0, 0.0};
  tags.push_back(other);

  const auto plan =
      drone::linear_trajectory({6.0, 12.0, 1.2}, {18.0, 12.3, 1.2}, 100);
  const auto run =
      sim::run_mission_pipeline(cfg, env, {0.0, 0.0, 2.0}, plan, tags, db, 6);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const ScanReport& report = run->report;
  EXPECT_EQ(report.discovered, 3u);
}

}  // namespace
}  // namespace rfly::core
