// Scheduler-behaviour tests: migration toward a stronger idle cluster
// (§3.4), backlog dispatch order (longest-running splits first), ranking
// integration with the forecaster, and the master's resource-state
// machine under failures of idle clients.
#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "util/strings.hpp"

namespace gridsat::core {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

TEST(SchedulerTest, MigratesFromWeakRemoteHostToStrongCluster) {
  // Host 0: slow, alone at a far site — gets the problem first (it is the
  // first to register). Hosts 1..4: a fast idle cluster. The paper's
  // migration rule should move the whole problem rather than split it.
  std::vector<sim::HostSpec> hosts;
  sim::HostSpec weak;
  weak.name = "weak";
  weak.site = "far";
  weak.speed = 1000.0;
  weak.memory_bytes = 16 * kMiB;
  hosts.push_back(weak);
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec strong;
    strong.name = "strong" + std::to_string(i);
    strong.site = "cluster";
    strong.speed = 9000.0;
    strong.memory_bytes = 32 * kMiB;
    hosts.push_back(strong);
  }
  GridSatConfig config;
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  config.migration_rank_factor = 2.0;
  config.migration_min_idle_at_site = 3;
  const auto f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "far", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GE(result.migrations, 1u);
}

TEST(SchedulerTest, NoMigrationBetweenEqualHosts) {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = "one";
    spec.speed = 4000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  GridSatConfig config;
  config.split_timeout_s = 3.0;
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(8), "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.migrations, 0u);
}

TEST(SchedulerTest, FreeHostIsRelaunchedWhenBacklogNeedsIt) {
  // Kill an idle client early; later, when the busy clients ask for
  // splits and no idle client exists, the master must restart a client
  // on the free host rather than starve the backlog (§3.3: "In case the
  // master needs more resources, it tries to restart clients on free
  // resources").
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 3; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = "one";
    spec.speed = 3000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  GridSatConfig config;
  config.split_timeout_s = 20.0;
  config.overall_timeout_s = 200000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(8), "one", hosts, config);
  // Host 2 will be idle at t=5 (the problem lives on host 0 and no split
  // is due before t=20).
  campaign.schedule_client_failure(2, 5.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  // Host 2 was revived and participated: three active clients at peak.
  EXPECT_EQ(result.max_active_clients, 3u);
}

TEST(SchedulerTest, PeakClientCountNeverExceedsPool) {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 5; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = "one";
    spec.speed = 3000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  GridSatConfig config;
  config.split_timeout_s = 1.0;  // split storm
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(8), "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_LE(result.max_active_clients, 5u);
  EXPECT_GE(result.total_splits, 4u);
}

TEST(SchedulerTest, SingleHostDegeneratesToSequential) {
  std::vector<sim::HostSpec> hosts(1);
  hosts[0].name = "solo";
  hosts[0].site = "one";
  hosts[0].speed = 5000.0;
  hosts[0].memory_bytes = 64 * kMiB;
  GridSatConfig config;
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 1e9;
  config.min_client_memory = 1 * kMiB;
  const auto f = gen::random_ksat(60, 255, 3, 3);
  Campaign campaign(f, "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_NE(result.status, CampaignStatus::kTimeout);
  EXPECT_EQ(result.total_splits, 0u);  // nobody to split with
  EXPECT_EQ(result.max_active_clients, 1u);
}

TEST(SchedulerTest, NoUsableHostsTimesOut) {
  std::vector<sim::HostSpec> hosts(2);
  hosts[0].name = "tiny0";
  hosts[0].site = "one";
  hosts[0].memory_bytes = 16 * 1024;  // below the floor
  hosts[1] = hosts[0];
  hosts[1].name = "tiny1";
  GridSatConfig config;
  config.overall_timeout_s = 50.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(5), "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kTimeout);
  EXPECT_EQ(result.max_active_clients, 0u);
}

}  // namespace
}  // namespace gridsat::core
