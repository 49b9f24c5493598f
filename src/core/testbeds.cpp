#include "core/testbeds.hpp"

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace gridsat::core::testbeds {

namespace {

// Memory scale: 128 MB of 2003 RAM maps to 1 MiB of simulated clause-DB
// capacity (see EXPERIMENTS.md) so that the paper's memory-pressure
// dynamics reproduce at affordable instance sizes.
constexpr std::size_t kMiB = 1024 * 1024;

sim::HostSpec make_host(const std::string& name, const std::string& site,
                        double speed, std::size_t memory, double base_load,
                        double jitter, std::uint64_t seed) {
  sim::HostSpec spec;
  spec.name = name;
  spec.site = site;
  spec.speed = speed;
  spec.memory_bytes = memory;
  spec.base_load = base_load;
  spec.load_jitter = jitter;
  spec.seed = seed;
  return spec;
}

}  // namespace

std::vector<sim::HostSpec> grads34(std::uint64_t seed) {
  std::vector<sim::HostSpec> hosts;
  std::uint64_t s = seed;
  // UTK cluster A: the best hardware configuration (8 nodes).
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(make_host("utk-a" + std::to_string(i), "utk", 8000.0,
                              4 * kMiB, 0.15, 0.08, ++s));
  }
  // UTK cluster B (6 nodes).
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(make_host("utk-b" + std::to_string(i), "utk", 6500.0,
                              3 * kMiB, 0.20, 0.10, ++s));
  }
  // UIUC cluster A (6 nodes).
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(make_host("uiuc-a" + std::to_string(i), "uiuc", 5000.0,
                              3 * kMiB, 0.20, 0.10, ++s));
  }
  // UIUC cluster B: 250 MHz Pentium IIs with 128 MB (6 nodes) — slow and
  // memory-starved; removed from consideration in the second set.
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(make_host("uiuc-pii" + std::to_string(i), "uiuc", 1500.0,
                              1 * kMiB, 0.25, 0.12, ++s));
  }
  // UCSD desktops (8), moderately loaded.
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(make_host("ucsd-d" + std::to_string(i), "ucsd",
                              3200.0 + 200.0 * i, 2 * kMiB, 0.30, 0.15, ++s));
  }
  return hosts;
}

std::vector<sim::HostSpec> grads27_ucsb(std::uint64_t seed) {
  std::vector<sim::HostSpec> hosts;
  std::uint64_t s = seed + 1000;
  // One 16-node UIUC cluster.
  for (int i = 0; i < 16; ++i) {
    hosts.push_back(make_host("uiuc-c" + std::to_string(i), "uiuc", 5500.0,
                              3 * kMiB, 0.20, 0.10, ++s));
  }
  // 3 UCSD desktops.
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(make_host("ucsd-d" + std::to_string(i), "ucsd", 3600.0,
                              2 * kMiB, 0.30, 0.15, ++s));
  }
  // 8 UCSB desktops.
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(make_host("ucsb-d" + std::to_string(i), "ucsb",
                              4000.0 + 150.0 * i, 2 * kMiB, 0.25, 0.12, ++s));
  }
  return hosts;
}

std::vector<sim::HostSpec> blue_horizon(std::size_t nodes,
                                        std::uint64_t seed) {
  std::vector<sim::HostSpec> hosts;
  std::uint64_t s = seed + 5000;
  for (std::size_t i = 0; i < nodes; ++i) {
    // 8 CPUs x 375 MHz Power3 per node, 4 GB — modelled as one client
    // with the node's aggregate throughput; dedicated while the batch
    // job runs.
    hosts.push_back(make_host("bh" + std::to_string(i), "sdsc", 20000.0,
                              32 * kMiB, 0.0, 0.0, ++s));
  }
  return hosts;
}

std::vector<sim::HostSpec> synthetic_grid(std::size_t n, std::size_t sites,
                                          std::uint64_t seed) {
  if (sites == 0) sites = 1;
  std::vector<sim::HostSpec> hosts;
  hosts.reserve(n);
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t site = i % sites;
    std::string site_name = "grid" + std::to_string(site);
    // Speed/memory/load spread mirrors the grads machines: a 1500..8000
    // work-unit range, 1..4 MiB simulated clause budgets, light-to-
    // moderate background load.
    const double speed = rng.uniform(1500.0, 8000.0);
    const std::size_t memory = (1 + rng.below(4)) * kMiB;
    const double base_load = rng.uniform(0.10, 0.35);
    const double jitter = rng.uniform(0.05, 0.15);
    hosts.push_back(make_host(util::indexed_name("g", i), site_name, speed,
                              memory, base_load, jitter, seed + 1 + i));
  }
  return hosts;
}

WanGrid wan_grid(std::size_t hosts_per_site, std::uint64_t seed) {
  WanGrid grid;
  const char* sites[] = {"wan-east", "wan-west", "wan-eu", "wan-apac"};
  util::Xoshiro256 rng(seed ^ 0xd1b54a32d192ed03ULL);
  std::size_t n = 0;
  for (const char* site : sites) {
    for (std::size_t i = 0; i < hosts_per_site; ++i) {
      const double speed = rng.uniform(2500.0, 7000.0);
      const std::size_t memory = (2 + rng.below(3)) * kMiB;
      const double base_load = rng.uniform(0.10, 0.30);
      const double jitter = rng.uniform(0.05, 0.12);
      grid.hosts.push_back(make_host(util::indexed_name("w", n), site, speed,
                                     memory, base_load, jitter,
                                     seed + 100 + n));
      ++n;
    }
  }
  // Bytes-per-second figures follow the Network convention (see
  // sim/network.hpp): the inter-site default is 30 ms / 2 MB/s.
  constexpr double kMB = 1024.0 * 1024.0;
  grid.links = {
      // Fat national backbone.
      {"wan-east", "wan-west", {0.015, 4.0 * kMB}},
      // Transatlantic / transpacific, mid-grade.
      {"wan-east", "wan-eu", {0.040, 1.5 * kMB}},
      {"wan-west", "wan-apac", {0.060, 1.0 * kMB}},
      // The asymmetric pair: eu<->apac trombones through a congested
      // exchange — 180 ms where the two east-hop legs sum to 100 ms.
      {"wan-eu", "wan-apac", {0.180, 0.4 * kMB}},
      // east-apac and west-eu are left to the inter-site default.
  };
  return grid;
}

void apply_wan_links(const WanGrid& grid, sim::Network& network) {
  for (const WanGrid::Link& link : grid.links) {
    network.set_link(link.site_a, link.site_b, link.spec);
  }
}

sim::HostSpec fastest_dedicated() {
  sim::HostSpec spec = grads34().front();
  spec.name = "utk-a0-dedicated";
  spec.base_load = 0.0;
  spec.load_jitter = 0.0;
  return spec;
}

}  // namespace gridsat::core::testbeds
