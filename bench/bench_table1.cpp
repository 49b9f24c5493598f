// Reproduces Table 1 of the paper: all 42 SAT2002-analog instances run
// through (a) the sequential zChaff-analog on the fastest dedicated host
// (18000 s cap, host memory as the DB limit, no emergency reductions —
// 2003 semantics) and (b) GridSAT on the simulated 34-host GrADS testbed
// (share length 10, split timeout 100 s, 6000 s cap for the solvable set
// and 12000 s for the challenging set). Prints the measured table with
// the paper's numbers alongside.
//
//   ./bench_table1                 # full table (several minutes)
//   ./bench_table1 --row=pipe      # rows whose paper name contains "pipe"
//   ./bench_table1 --scale=0.5     # halve every timeout (quicker, rougher)
//   ./bench_table1 --seq-only      # only the zChaff column
#include <cstdio>
#include <string>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/sequential.hpp"
#include "core/testbeds.hpp"
#include "gen/suite.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace gridsat;  // NOLINT

namespace {

solver::SolverConfig era_solver_config() {
  solver::SolverConfig config;
  // 2003-era database policy: no size-triggered reduction; memory is the
  // only limiter (DESIGN.md, Ablation notes).
  config.reduce_base = 1u << 30;
  return config;
}

struct RowResult {
  std::string seq_cell = "-";
  std::string grid_cell = "-";
  std::string speedup = "-";
  std::size_t max_clients = 0;
  std::string measured_status = "-";
  bool status_matches = true;
};

std::string paper_cell(double seconds) {
  if (seconds == gen::suite::kTimeOut) return "TIME_OUT";
  if (seconds == gen::suite::kMemOut) return "MEM_OUT";
  if (seconds == gen::suite::kNotSolved) return "X";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", seconds);
  return buf;
}

bool status_agrees(gen::suite::PaperStatus paper, const std::string& ours) {
  using gen::suite::PaperStatus;
  if (paper == PaperStatus::kUnknown) return true;  // open problem
  if (ours == "-" || ours == "TIME_OUT" || ours == "MEM_OUT") return true;
  return (paper == PaperStatus::kSat) == (ours == "SAT");
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_str("row", "", "only rows whose paper name contains this");
  flags.define_f64("scale", 1.0, "multiply all time caps by this factor");
  flags.define_bool("seq-only", false, "run only the sequential comparator");
  flags.define_bool("grid-only", false, "run only GridSAT");
  flags.define_str("json", "", "also append one JSON object per row to this file");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_table1").c_str(), stderr);
    return 2;
  }
  const double scale = flags.f64("scale");
  const std::string filter = flags.str("row");

  std::printf("Table 1 reproduction: GridSAT vs zChaff-analog on the "
              "simulated GrADS-34 testbed\n");
  std::printf("(share len 10, split timeout 100 s, caps x%.2f; paper values "
              "in parentheses)\n\n", scale);
  std::printf("%-32s %-7s %-18s %-20s %-16s %s\n", "File name", "Status",
              "zChaff (s)", "GridSAT (s)", "Speed-Up", "Max clients");
  std::printf("%s\n", std::string(118, '-').c_str());

  const char* section_names[] = {
      "Problems solved by zChaff and GridSAT",
      "Problems solved by GridSAT only",
      "Remaining problems",
  };
  int last_section = -1;

  for (const auto& row : gen::suite::table1()) {
    if (!filter.empty() &&
        row.paper_name.find(filter) == std::string::npos) {
      continue;
    }
    if (static_cast<int>(row.section) != last_section) {
      last_section = static_cast<int>(row.section);
      std::printf("--- %s ---\n", section_names[last_section]);
    }

    const cnf::CnfFormula formula = row.make();
    RowResult result;
    core::RowReport report;
    report.paper_name = row.paper_name;
    report.analog = row.analog;
    report.paper_status = to_string(row.paper_status);
    double seq_seconds = -1.0;
    double grid_seconds = -1.0;

    if (!flags.boolean("grid-only")) {
      core::SequentialOptions options;
      options.host = core::testbeds::fastest_dedicated();
      options.timeout_s = 18000.0 * scale;
      options.solver = era_solver_config();
      options.solver.allow_memory_squeeze = false;
      const core::SequentialResult seq = core::run_sequential(formula, options);
      report.sequential = seq;
      result.seq_cell = render_time_cell(seq);
      if (!seq.timed_out && seq.status != solver::SolveStatus::kMemOut) {
        seq_seconds = seq.seconds;
        result.measured_status = to_string(seq.status);
      }
    }

    if (!flags.boolean("seq-only")) {
      core::GridSatConfig config;
      config.solver = era_solver_config();
      config.share_max_len = 10;
      config.split_timeout_s = 100.0;
      config.overall_timeout_s =
          (row.section == gen::suite::Table1Section::kSolvedByBoth ? 6000.0
                                                                   : 12000.0) *
          scale;
      config.min_client_memory = 1 << 20;
      core::Campaign campaign(formula, core::testbeds::kMasterSite,
                              core::testbeds::grads34(), config);
      core::GridSatResult grid = campaign.run();
      grid.model.clear();  // keep the JSON row compact
      report.gridsat = grid;
      result.grid_cell = render_time_cell(grid);
      result.max_clients = grid.max_active_clients;
      if (grid.status == core::CampaignStatus::kSat ||
          grid.status == core::CampaignStatus::kUnsat) {
        grid_seconds = grid.seconds;
        result.measured_status = to_string(grid.status) == std::string("SAT")
                                     ? "SAT"
                                     : "UNSAT";
      }
    }

    if (seq_seconds > 0 && grid_seconds > 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", seq_seconds / grid_seconds);
      result.speedup = buf;
    }
    result.status_matches =
        status_agrees(row.paper_status, result.measured_status);

    char status_col[16];
    std::snprintf(status_col, sizeof status_col, "%s%s",
                  to_string(row.paper_status), row.open_problem ? "*" : "");
    std::printf("%-32s %-7s %-8s (%8s) %-9s (%8s) %-6s %9s (%d)%s\n",
                row.paper_name.c_str(), status_col, result.seq_cell.c_str(),
                paper_cell(row.paper_zchaff_s).c_str(),
                result.grid_cell.c_str(),
                paper_cell(row.paper_gridsat_s).c_str(),
                result.speedup.c_str(),
                (std::to_string(result.max_clients)).c_str(),
                row.paper_max_clients,
                result.status_matches ? "" : "   << STATUS MISMATCH");
    std::fflush(stdout);
    if (!flags.str("json").empty()) {
      std::FILE* out = std::fopen(flags.str("json").c_str(), "a");
      if (out != nullptr) {
        std::fputs(core::to_json(report).c_str(), out);
        std::fputc('\n', out);
        std::fclose(out);
      }
    }
  }
  return 0;
}
