// Reproduces Table 2 of the paper: the nine "remaining problems" rerun on
// the trimmed testbed (27 machines: UIUC cluster + UCSD + UCSB desktops,
// slow PIIs removed), clause-share length 3, with a 100-node Blue Horizon
// batch job submitted at launch (~33 h mean queue wait, 12 h cap; the run
// terminates when the job expires; the job is cancelled if the problem is
// solved first).
//
// Scaling: the full paper protocol spans ~45 virtual hours per unsolved
// row and 100 8-way nodes. By default this bench runs the same protocol
// at --scale=0.3 of the wall-clock constants and 10 batch nodes, and
// reports times re-inflated to paper scale; pass --scale=1 --bh-nodes=100
// for the unscaled protocol (hours of CPU). EXPERIMENTS.md discusses why
// the shape is preserved.
//
// For the par32-1-c analog the paper also reports a Blue-Horizon-alone
// control run and the processor-hours the grid saved; this bench repeats
// that comparison.
#include <cstdio>
#include <string>

#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "gen/circuit_families.hpp"
#include "gen/suite.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

using namespace gridsat;  // NOLINT

namespace {

struct Table2Outcome {
  core::GridSatResult result;
  double scale;

  [[nodiscard]] double paper_scale_seconds() const {
    return result.seconds / scale;
  }
};

core::GridSatConfig table2_config(double scale, std::size_t sub_masters = 0) {
  core::GridSatConfig config;
  config.solver.reduce_base = 1u << 30;  // 2003-era DB policy
  config.share_max_len = 3;              // second experiment set (§4)
  config.split_timeout_s = 100.0 * scale;
  config.overall_timeout_s = 1e12;  // the batch job bounds the run
  config.min_client_memory = 1 << 20;
  config.sub_masters = sub_masters;  // 0 = flat master
  return config;
}

core::BatchOptions make_batch(double scale, std::size_t nodes,
                              std::uint64_t seed) {
  core::BatchOptions batch;
  batch.spec.name = "bluehorizon";
  batch.spec.mean_queue_wait_s = 33.0 * 3600.0 * scale;
  batch.spec.seed = seed;
  batch.node_hosts = core::testbeds::blue_horizon(nodes, seed);
  batch.max_duration_s = 12.0 * 3600.0 * scale;
  batch.terminate_on_expiry = true;
  return batch;
}

Table2Outcome run_row(const gen::suite::SuiteInstance& row, double scale,
                      std::size_t bh_nodes, std::uint64_t seed,
                      bool grid_hosts_present, double duration_factor = 1.0,
                      std::size_t sub_masters = 0) {
  const cnf::CnfFormula formula = row.make();
  std::vector<sim::HostSpec> hosts;
  if (grid_hosts_present) hosts = core::testbeds::grads27_ucsb();
  core::Campaign campaign(formula, core::testbeds::kMasterSite, hosts,
                          table2_config(scale, sub_masters));
  core::BatchOptions batch = make_batch(scale, bh_nodes, seed);
  batch.max_duration_s *= duration_factor;  // the BH-alone control resubmits
                                            // until the instance completes
  campaign.set_batch(std::move(batch));
  Table2Outcome outcome{campaign.run(), scale};
  return outcome;
}

std::string outcome_cell(const Table2Outcome& outcome) {
  const auto& r = outcome.result;
  if (r.status == core::CampaignStatus::kSat ||
      r.status == core::CampaignStatus::kUnsat) {
    if (r.batch_started && r.batch_run_s > 0) {
      // The par32 pattern: part on the grid, part on Blue Horizon.
      return util::format_duration((r.seconds - r.batch_run_s) /
                                   outcome.scale) +
             " + (" + util::format_duration(r.batch_run_s / outcome.scale) +
             " on BH)";
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.0f", outcome.paper_scale_seconds());
    return buf;
  }
  return "X";
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_f64("scale", 0.3, "wall-clock scale vs the paper protocol");
  flags.define_i64("bh-nodes", 10, "Blue Horizon nodes granted to the job");
  flags.define_i64("seed", 2003, "batch queue + node seed");
  flags.define_str("row", "", "only rows whose paper name contains this");
  flags.define_bool("quick", false,
                    "CI smoke: tiny clock scale, one suite row, no controls");
  flags.define_str("topology", "flat",
                   "grid-host master topology: flat | hier | both");
  flags.define_str("json", "", "write JSON-Lines rows to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_table2").c_str(), stderr);
    return 2;
  }
  const bool quick = flags.boolean("quick");
  const double scale = quick ? 0.02 : flags.f64("scale");
  const auto bh_nodes =
      quick ? std::size_t{4} : static_cast<std::size_t>(flags.i64("bh-nodes"));
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));
  // Quick mode runs one row the paper solved on the grid alone.
  std::string filter = flags.str("row");
  if (quick && filter.empty()) filter = "glassybp";
  const std::string& topo = flags.str("topology");
  std::vector<const char*> topologies;
  if (topo == "flat" || topo == "both") topologies.push_back("flat");
  if (topo == "hier" || topo == "both") topologies.push_back("hier");
  if (topologies.empty()) {
    std::fprintf(stderr, "unknown --topology=%s (flat | hier | both)\n",
                 topo.c_str());
    return 2;
  }
  // grads27_ucsb spans three sites (uiuc / ucsd / ucsb); the hierarchical
  // topology puts a sub-master at each. The Blue Horizon site joins after
  // campaign setup, so its reports route to the root in both topologies.
  const auto subs_for = [](const std::string& topology) {
    return topology == "hier" ? std::size_t{3} : std::size_t{0};
  };
  std::string json_rows;

  std::printf("Table 2 reproduction: trimmed testbed (27 hosts) + Blue "
              "Horizon batch job\n");
  std::printf("(share len 3, %zu BH nodes, clock scale %.2f; times "
              "re-inflated to paper scale; paper values in parentheses)\n\n",
              bh_nodes, scale);
  std::printf("%-32s %-6s %-8s %-28s %s\n", "File name", "Topo", "Status",
              "GridSAT", "Notes");
  std::printf("%s\n", std::string(100, '-').c_str());

  for (const auto& row : gen::suite::table2()) {
    if (!filter.empty() &&
        row.paper_name.find(filter) == std::string::npos) {
      continue;
    }
    for (const char* topology : topologies) {
      const std::size_t subs = subs_for(topology);
      const Table2Outcome outcome = run_row(row, scale, bh_nodes, seed, true,
                                            /*duration_factor=*/1.0, subs);
      const auto& r = outcome.result;
      std::string notes;
      if (r.batch_cancelled && !r.batch_started) {
        notes = "solved before BH job started; job cancelled";
      } else if (r.batch_started &&
                 r.status != core::CampaignStatus::kTimeout) {
        notes = "BH nodes joined after " +
                util::format_duration(r.batch_queue_wait_s / scale) +
                " in queue";
      } else if (r.status == core::CampaignStatus::kTimeout) {
        notes = "not solved by BH job end";
      }
      std::string paper;
      if (row.paper_gridsat_s == gen::suite::kNotSolved) {
        paper = "X";
      } else if (row.paper_name == "par32-1-c.cnf") {
        paper = "33hrs+(8hrs on BH)";
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", row.paper_gridsat_s);
        paper = buf;  // the paper prints raw seconds for these rows
      }
      char status_col[16];
      std::snprintf(status_col, sizeof status_col, "%s%s",
                    to_string(row.paper_status), row.open_problem ? "*" : "");
      std::printf("%-32s %-6s %-8s %-28s (%s)  %s\n", row.paper_name.c_str(),
                  topology, status_col, outcome_cell(outcome).c_str(),
                  paper.c_str(), notes.c_str());
      std::fflush(stdout);
      util::JsonWriter json;
      json.begin_object()
          .field("bench", "table2")
          .field("row", row.paper_name)
          .field("topology", topology)
          .field("sub_masters", static_cast<std::uint64_t>(subs))
          .field("scale", scale)
          .field("status", core::to_string(r.status))
          .field("virtual_seconds", r.seconds)
          .field("splits", r.total_splits)
          .field("messages", r.messages)
          .field("root_messages", r.root_messages_handled)
          .field("sub_messages", r.sub_messages_handled)
          .field("inter_site_messages", r.inter_site_messages)
          .field("inter_site_bytes", r.inter_site_bytes)
          .field("site_relay_batches", r.site_relay_batches)
          .field("brokered_splits", r.brokered_splits)
          .end_object();
      json_rows += json.str();
      json_rows += '\n';
    }
  }

  // The BH-alone control and the WAN wire ablation exercise the batch and
  // wire layers, not the master topology; skip both in the CI smoke.
  if (quick) {
    const std::string& quick_path = flags.str("json");
    if (!quick_path.empty()) {
      std::FILE* out = std::fopen(quick_path.c_str(),
                                  flags.boolean("append") ? "a" : "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", quick_path.c_str());
        return 1;
      }
      std::fputs(json_rows.c_str(), out);
      std::fclose(out);
      std::printf("\nwrote %s\n", quick_path.c_str());
    }
    return 0;
  }

  // --- The Blue-Horizon-alone control for the par32 analog --------------
  std::printf("\n--- par32-1-c.cnf control: Blue Horizon alone (no grid "
              "hosts) ---\n");
  const auto& par32 = gen::suite::by_name("par32-1-c.cnf");
  const Table2Outcome with_grid = run_row(par32, scale, bh_nodes, seed, true);
  // The paper re-launched on Blue Horizon alone and let it run to the
  // answer (~12 h); emulate the resubmission by lifting the job cap.
  const Table2Outcome bh_alone =
      run_row(par32, scale, bh_nodes, seed, false, /*duration_factor=*/8.0);
  std::printf("grid + BH : %s\n", outcome_cell(with_grid).c_str());
  std::printf("BH alone  : %s\n", outcome_cell(bh_alone).c_str());
  if (with_grid.result.batch_started && bh_alone.result.batch_started &&
      with_grid.result.status != core::CampaignStatus::kTimeout &&
      bh_alone.result.status != core::CampaignStatus::kTimeout) {
    const double bh_hours_with_grid =
        with_grid.result.batch_run_s / scale / 3600.0;
    const double bh_hours_alone = bh_alone.result.batch_run_s / scale / 3600.0;
    const double cpus_per_node = 8.0;
    const double saved = (bh_hours_alone - bh_hours_with_grid) *
                         cpus_per_node * static_cast<double>(bh_nodes) *
                         (100.0 / static_cast<double>(bh_nodes));
    std::printf("grid saved ~%.0f Blue Horizon processor-hours at paper "
                "scale (paper: (12-8)h x 8 cpus x 100 nodes = 3200)\n",
                saved);
  }

  // --- Bandwidth-constrained row -----------------------------------------
  // The paper's subproblem transfers run to "100s of MBytes" over the
  // wide area; the scaled suite rows are too small to stress that. This
  // row uses a large unrolled-circuit analog (24-bit adder equivalence
  // miter, ~17 KB problem-clause block) and throttles every link — the
  // inter-site WAN hard, the intra-site LAN to a congested shared
  // segment (bench_pingpong's slow-WAN precedent: at the default
  // 12 MB/s intra rate the payloads are free) — so the wire format
  // (base-ref caching + bounded split payloads + incremental
  // checkpoints, DESIGN.md §4e) decides how long the campaign waits on
  // the network. Warm hosts skip the problem block and get a bounded
  // learned block on every repeat ship.
  std::printf("\n--- bandwidth-constrained row: adder_miter(24) over a slow "
              "WAN (1 s latency, 4 KB/s inter-site; 32 KB/s intra) ---\n");
  std::printf("%-8s %-10s %-9s %-12s %s\n", "verdict", "seconds", "splits",
              "msg bytes", "base-refs");
  std::printf("%s\n", std::string(52, '-').c_str());
  core::Campaign campaign(gen::adder_miter(24, false, 7),
                          core::testbeds::kMasterSite,
                          core::testbeds::grads27_ucsb(),
                          table2_config(scale));
  sim::LinkSpec slow;
  slow.latency_s = 1.0;
  slow.bandwidth_bps = 4.0 * 1024;
  campaign.network().set_inter_site(slow);
  sim::LinkSpec lan;
  lan.latency_s = 0.1;
  lan.bandwidth_bps = 32.0 * 1024;
  campaign.network().set_intra_site(lan);
  const core::GridSatResult r = campaign.run();
  std::printf("%-8s %-10.0f %-9llu %-12s %llu\n", to_string(r.status),
              r.seconds, static_cast<unsigned long long>(r.total_splits),
              util::format_bytes(static_cast<double>(r.bytes_transferred))
                  .c_str(),
              static_cast<unsigned long long>(r.base_ref_transfers));
  util::JsonWriter json;
  json.begin_object()
      .field("bench", "table2_wan")
      .field("instance", "adder_miter-24")
      .field("status", core::to_string(r.status))
      .field("seconds", r.seconds)
      .field("splits", r.total_splits)
      .field("bytes_transferred", r.bytes_transferred)
      .field("base_ref_transfers", r.base_ref_transfers)
      .field("base_ref_bytes_saved", r.base_ref_bytes_saved)
      .field("base_ref_payload_bytes", r.base_ref_payload_bytes)
      .end_object();
  json_rows += json.str();
  json_rows += '\n';

  const std::string& path = flags.str("json");
  if (!path.empty()) {
    std::FILE* out =
        std::fopen(path.c_str(), flags.boolean("append") ? "a" : "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fputs(json_rows.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
}
