// Ablation A (DESIGN.md): the effect of the clause-sharing filter.
// The paper caps shared clauses by LENGTH (10 in the first experiment
// set, 3 in the second) and notes "the exact effect of sharing clauses
// is not yet known" (§3.2).
//
// Two modes:
//
//  * --mode=threads (default): the thread-parallel solver on one
//    XOR-parity instance, comparing share-filter configurations at a
//    fixed thread count:
//        off     no sharing               (len=0, lbd=0)
//        len     the paper's length cap   (len=--len-cap, lbd=0)
//        lbd     LBD-only quality filter  (len=0, lbd=--lbd-cap)
//        hybrid  short OR low-LBD         (len=--len-cap, lbd=--lbd-cap)
//    Reports median wall time over --reps repeats plus the exchange
//    counters; the claim under test is that the LBD filter ships FEWER
//    clauses than the length cap at equal-or-better wall time (clause
//    quality, not volume, is what helps — HordeSat's observation).
//    With --json=FILE it emits one JSON-Lines row per configuration;
//    --append adds to the file bench_scaling started (BENCH_parallel.json,
//    see ROADMAP.md).
//  * --mode=sim: the original virtual-time campaign sweep of the length
//    cap on the GrADS-34 testbed. The default sim row (a hard random
//    UNSAT) is one where sharing *hurts* — imported clauses steer every
//    client into the same part of the search space — while the XOR-parity
//    rows need sharing to crack at all: exactly the instance-dependence
//    behind the paper's remark.
//
//   ./bench_sharing_ablation
//   ./bench_sharing_ablation --quick --json=BENCH_parallel.json --append
//   ./bench_sharing_ablation --mode=sim --instance=dp10u09.cnf --lens=0,3,10
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "gen/suite.hpp"
#include "solver/parallel.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

using namespace gridsat;  // NOLINT

namespace {

struct FilterConfig {
  const char* name;
  std::size_t max_len;
  std::uint32_t max_lbd;
};

int run_threads_mode(const util::Flags& flags) {
  const bool quick = flags.boolean("quick");
  std::string instance = flags.str("instance");
  if (instance.empty()) instance = quick ? "urquhart-14" : "urquhart-18";
  const int reps = quick ? 1 : std::max(1, static_cast<int>(flags.i64("reps")));
  const auto threads = static_cast<std::size_t>(flags.i64("threads"));

  cnf::CnfFormula f;
  try {
    f = bench::resolve_instance(instance);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot resolve %s: %s\n", instance.c_str(), e.what());
    return 2;
  }

  std::printf("Share-filter ablation on %s (%zu threads, reps=%d, median)\n\n",
              instance.c_str(), threads, reps);
  std::printf("%-8s %-5s %-5s %-8s %12s %11s %10s %9s %10s\n", "filter",
              "len", "lbd", "verdict", "wall_ms", "work", "published",
              "deduped", "imported");
  std::printf("%s\n", std::string(88, '-').c_str());

  const auto len_cap = static_cast<std::size_t>(flags.i64("len-cap"));
  const auto lbd_cap = static_cast<std::uint32_t>(flags.i64("lbd-cap"));
  const FilterConfig filters[] = {
      {"off", 0, 0},
      {"len", len_cap, 0},
      {"lbd", 0, lbd_cap},
      {"hybrid", len_cap, lbd_cap},
  };
  std::string json_rows;
  for (const FilterConfig& fc : filters) {
    solver::ParallelOptions options;
    options.num_threads = threads;
    options.share_max_len = fc.max_len;
    options.share_max_lbd = fc.max_lbd;
    const bench::ParallelRun run = bench::run_parallel_median(f, options, reps);
    const solver::ParallelStats& s = run.result.stats;
    std::printf("%-8s %-5zu %-5u %-8s %12.1f %11llu %10llu %9llu %10llu\n",
                fc.name, fc.max_len, fc.max_lbd,
                to_string(run.result.status), run.wall_ms,
                static_cast<unsigned long long>(s.total_work),
                static_cast<unsigned long long>(s.clauses_published),
                static_cast<unsigned long long>(s.clauses_deduped),
                static_cast<unsigned long long>(s.clauses_imported));
    std::fflush(stdout);
    util::JsonWriter json;
    json.begin_object()
        .field("bench", "bench_sharing_ablation")
        .field("instance", instance)
        .field("threads", static_cast<std::int64_t>(threads))
        .field("reps", static_cast<std::int64_t>(reps))
        .field("filter", fc.name)
        .field("share_max_len", static_cast<std::int64_t>(fc.max_len))
        .field("share_max_lbd", static_cast<std::int64_t>(fc.max_lbd))
        .field("status", solver::to_string(run.result.status))
        .field("wall_ms", run.wall_ms)
        .field("total_work", s.total_work)
        .field("splits", s.splits)
        .field("clauses_published", s.clauses_published)
        .field("clauses_deduped", s.clauses_deduped)
        .field("clauses_imported", s.clauses_imported)
        .field("shard_lock_contention", s.shard_lock_contention)
        .end_object();
    json_rows += json.str();
    json_rows += '\n';
  }

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
    std::printf("\n%s %s\n", flags.boolean("append") ? "appended to" : "wrote",
                path.c_str());
  }
  return 0;
}

int run_sim_mode(const util::Flags& flags) {
  std::string instance = flags.str("instance");
  if (instance.empty()) instance = "dp10u09.cnf";  // the historical default
  const auto& row = gen::suite::by_name(instance);
  const cnf::CnfFormula formula = row.make();
  std::printf("Clause-sharing ablation on %s (%s)\n", row.paper_name.c_str(),
              row.analog.c_str());
  std::printf("%-10s %-10s %-12s %-14s %-14s %-12s %s\n", "share_len",
              "verdict", "seconds", "total work", "clauses", "batches",
              "bytes on wire");
  std::printf("%s\n", std::string(92, '-').c_str());

  for (const auto& token : util::split(flags.str("lens"), ',')) {
    long long len = 0;
    if (!util::parse_i64(token, len) || len < 0) continue;
    core::GridSatConfig config;
    config.solver.reduce_base = 1u << 30;
    config.share_max_len = static_cast<std::size_t>(len);
    config.split_timeout_s = 100.0;
    config.overall_timeout_s = 12000.0;
    config.min_client_memory = 1 << 20;
    core::Campaign campaign(formula, core::testbeds::kMasterSite,
                            core::testbeds::grads34(), config);
    const core::GridSatResult result = campaign.run();
    std::printf("%-10lld %-10s %-12.0f %-14llu %-14llu %-12llu %s\n", len,
                to_string(result.status), result.seconds,
                static_cast<unsigned long long>(result.total_work),
                static_cast<unsigned long long>(result.clauses_shared),
                static_cast<unsigned long long>(result.clause_batches_shared),
                util::format_bytes(
                    static_cast<double>(result.bytes_transferred))
                    .c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_str("mode", "threads", "threads | sim");
  // threads mode
  flags.define_str("instance", "",
                   "instance name (threads default urquhart-18; sim expects "
                   "a suite paper file name)");
  flags.define_i64("threads", 4, "thread count (threads mode)");
  flags.define_i64("reps", 3, "repeats per config; wall = median");
  flags.define_i64("len-cap", 10, "length cap of the len / hybrid configs");
  flags.define_i64("lbd-cap", 3, "LBD cap of the lbd / hybrid configs");
  flags.define_bool("quick", false, "smaller instance, 1 rep (CI smoke)");
  flags.define_str("json", "", "write JSON-Lines rows to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  // sim mode
  flags.define_str("lens", "0,1,3,10,20,50",
                   "comma-separated share-length caps to sweep (sim)");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_sharing_ablation").c_str(), stderr);
    return 2;
  }
  if (flags.str("mode") == "sim") {
    // sim mode keeps its historical default row.
    return run_sim_mode(flags);
  }
  return run_threads_mode(flags);
}
