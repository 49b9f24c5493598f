// Timeline recorder tests: sampling cadence, the rise-and-collapse shape
// of client utilization (§4.1), and rendering.
#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/timeline.hpp"
#include "gen/pigeonhole.hpp"
#include "util/strings.hpp"

namespace gridsat::core {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

std::vector<sim::HostSpec> hosts4() {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = "one";
    spec.speed = 3000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  return hosts;
}

TEST(TimelineTest, RecordsUtilizationRiseAndFall) {
  GridSatConfig config;
  config.split_timeout_s = 3.0;
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(8), "one", hosts4(), config);
  TimelineRecorder recorder(campaign, 5.0);
  recorder.arm();
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);

  const auto& samples = recorder.samples();
  ASSERT_GT(samples.size(), 3u);
  // Time strictly increases; counts never exceed the pool.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(samples[i].t, samples[i - 1].t);
    }
    EXPECT_LE(samples[i].busy + samples[i].idle + samples[i].reserved +
                  samples[i].launching + samples[i].free_hosts +
                  samples[i].dead,
              4u);
  }
  // The §4.1 shape: one client first, more later.
  EXPECT_GE(recorder.peak_busy(), 2u);
  EXPECT_LE(samples.front().busy, 1u);
  // Work accumulates monotonically.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].total_work, samples[i - 1].total_work);
  }
}

TEST(TimelineTest, RenderProducesRows) {
  GridSatConfig config;
  config.split_timeout_s = 3.0;
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(7), "one", hosts4(), config);
  TimelineRecorder recorder(campaign, 5.0);
  recorder.arm();
  (void)campaign.run();
  const std::string chart = recorder.render(8);
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_NE(chart.find("busy clients"), std::string::npos);
}

TEST(TimelineTest, EmptyBeforeRun) {
  GridSatConfig config;
  Campaign campaign(gen::pigeonhole_unsat(5), "one", hosts4(), config);
  TimelineRecorder recorder(campaign, 5.0);
  EXPECT_TRUE(recorder.samples().empty());
  EXPECT_EQ(recorder.peak_busy(), 0u);
  EXPECT_EQ(recorder.render(), "(no samples)\n");
}

}  // namespace
}  // namespace gridsat::core
