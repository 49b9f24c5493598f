// Checkpointing cost/benefit (paper §3.4): light checkpoints are cheap
// ("does not require a lot of disk space") while heavy ones ship the
// learned clauses ("about .5 Gigabytes per client" at paper scale). This
// bench runs the same campaign under none/light/heavy checkpointing and
// reports the wire bytes spent on checkpoints and the runtime overhead;
// a second pass kills a busy client mid-run and shows what each mode
// recovers.
//
// Heavy checkpoints ship incremental chains (one full snapshot, then
// deltas) at two intervals; a separate warm-transfer table on a
// large-formula instance (--warm-instance) isolates the repeat-ship drop
// that base-ref caching buys. With --json=FILE it appends
// "bench":"checkpoint" JSON-Lines rows (see ROADMAP.md) that include an
// encode/decode ns-per-clause micro-measurement of the v2 checkpoint
// codec.
//
//   ./bench_checkpoint
//   ./bench_checkpoint --instance=urquhart-16 --json=BENCH_parallel.json --append
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/testbeds.hpp"
#include "gen/suite.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

using namespace gridsat;  // NOLINT

namespace {

struct Run {
  core::GridSatResult result;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_msgs = 0;
  std::uint64_t subproblem_bytes = 0;
  std::uint64_t subproblem_msgs = 0;
};

Run run_campaign(const cnf::CnfFormula& f, core::CheckpointMode mode,
                 double interval_s, bool recover,
                 double kill_at, double split_timeout_s = 100.0,
                 double overall_timeout_s = 12000.0) {
  core::GridSatConfig config;
  config.solver.reduce_base = 1u << 30;
  config.share_max_len = 10;
  config.split_timeout_s = split_timeout_s;
  config.overall_timeout_s = overall_timeout_s;
  config.min_client_memory = 1 << 20;
  config.checkpoint = mode;
  config.checkpoint_interval_s = interval_s;
  config.recover_from_checkpoints = recover;
  core::Campaign campaign(f, core::testbeds::kMasterSite,
                          core::testbeds::grads34(), config);
  campaign.bus().enable_trace();
  if (kill_at > 0) campaign.schedule_client_failure(0, kill_at);
  Run run;
  run.result = campaign.run();
  for (const auto& record : campaign.bus().trace()) {
    if (record.kind == "CHECKPOINT") {
      ++run.checkpoint_msgs;
      run.checkpoint_bytes += record.bytes;
    } else if (record.kind == "SUBPROBLEM" || record.kind == "BASE_SHIP") {
      // BASE_SHIP counts against the subproblem budget: a renegotiated
      // base is part of delivering that subproblem to the host.
      ++run.subproblem_msgs;
      run.subproblem_bytes += record.bytes;
    }
  }
  return run;
}

const char* mode_name(core::CheckpointMode mode) {
  switch (mode) {
    case core::CheckpointMode::kNone: return "none";
    case core::CheckpointMode::kLight: return "light";
    case core::CheckpointMode::kHeavy: return "heavy";
  }
  return "?";
}

/// Encode/decode cost of the v2 checkpoint codec, measured on a heavy
/// snapshot whose learned-clause block is the whole problem formula (a
/// fair stand-in for a mid-campaign clause database).
struct CodecTiming {
  double encode_ns_per_clause = 0.0;
  double decode_ns_per_clause = 0.0;
  std::size_t bytes = 0;
  std::size_t clauses = 0;
};

CodecTiming time_codec(const cnf::CnfFormula& f) {
  core::Checkpoint cp;
  cp.heavy = true;
  cp.incarnation = 1;
  cp.epoch = 1;
  cp.units = {{cnf::Lit(1, false), false}};
  cp.learned = cnf::ClauseBlock(f.clauses());

  CodecTiming timing;
  timing.clauses = cp.learned.size();
  if (timing.clauses == 0) return timing;

  constexpr int kReps = 50;
  static volatile std::size_t sink = 0;
  std::vector<std::uint8_t> bytes;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    bytes = cp.to_bytes();
    sink = sink + bytes.size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    const core::Checkpoint back = core::Checkpoint::from_bytes(bytes);
    sink = sink + back.learned.size();
  }
  const auto t2 = std::chrono::steady_clock::now();

  const double denom = static_cast<double>(kReps) *
                       static_cast<double>(timing.clauses);
  timing.encode_ns_per_clause =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / denom;
  timing.decode_ns_per_clause =
      std::chrono::duration<double, std::nano>(t2 - t1).count() / denom;
  timing.bytes = bytes.size();
  return timing;
}

std::string json_row(const std::string& instance, const char* mode,
                     double interval_s, const Run& run,
                     const CodecTiming& timing) {
  const core::GridSatResult& r = run.result;
  util::JsonWriter json;
  json.begin_object()
      .field("bench", "checkpoint")
      .field("instance", instance)
      .field("mode", mode)
      .field("checkpoint_interval_s", interval_s)
      .field("status", core::to_string(r.status))
      .field("seconds", r.seconds)
      .field("checkpoint_msgs", run.checkpoint_msgs)
      .field("checkpoint_bytes", run.checkpoint_bytes)
      .field("subproblem_msgs", run.subproblem_msgs)
      .field("subproblem_bytes", run.subproblem_bytes)
      .field("checkpoints_full", r.checkpoints_full)
      .field("checkpoints_delta", r.checkpoints_delta)
      .field("base_ref_transfers", r.base_ref_transfers)
      .field("base_ref_bytes_saved", r.base_ref_bytes_saved)
      .field("base_ref_payload_bytes", r.base_ref_payload_bytes)
      .field("ship_learned_trimmed", r.ship_learned_trimmed)
      .field("base_renegotiations", r.base_renegotiations)
      .field("encode_ns_per_clause", timing.encode_ns_per_clause)
      .field("decode_ns_per_clause", timing.decode_ns_per_clause)
      .end_object();
  return json.str() + '\n';
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_str("instance", "homer12.cnf", "suite row to solve");
  flags.define_str("warm-instance", "adder-miter-24",
                   "large-formula instance for the warm-transfer table "
                   "(empty = skip)");
  flags.define_str("json", "", "write JSON-Lines rows to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_checkpoint").c_str(), stderr);
    return 2;
  }
  const std::string instance = flags.str("instance");
  const cnf::CnfFormula f = bench::resolve_instance(instance);

  const CodecTiming timing = time_codec(f);
  std::printf("Checkpointing overhead on %s\n", instance.c_str());
  std::printf(
      "v2 codec: %.0f ns/clause encode, %.0f ns/clause decode "
      "(%zu clauses, %s per snapshot)\n\n",
      timing.encode_ns_per_clause, timing.decode_ns_per_clause,
      timing.clauses,
      util::format_bytes(static_cast<double>(timing.bytes)).c_str());

  std::string json_rows;
  std::printf("%-8s %-9s %-10s %-10s %-12s %-14s %s\n", "mode", "interval",
              "verdict", "seconds", "ckpt msgs", "ckpt bytes", "overhead");
  std::printf("%s\n", std::string(81, '-').c_str());
  double baseline = 0.0;
  // Heavy is the interesting axis: at a paper-faithful frequent-checkpoint
  // interval a full snapshot per tick would compound, while delta chains
  // stay flat.
  struct Row { core::CheckpointMode mode; double interval_s; };
  for (const Row row : {Row{core::CheckpointMode::kNone, 60.0},
                        Row{core::CheckpointMode::kLight, 60.0},
                        Row{core::CheckpointMode::kHeavy, 60.0},
                        Row{core::CheckpointMode::kHeavy, 15.0}}) {
    const Run run =
        run_campaign(f, row.mode, row.interval_s, false, 0.0);
    if (row.mode == core::CheckpointMode::kNone) baseline = run.result.seconds;
    char overhead[24] = "-";
    if (baseline > 0) {
      std::snprintf(overhead, sizeof overhead, "%+.1f%%",
                    100.0 * (run.result.seconds - baseline) / baseline);
    }
    std::printf(
        "%-8s %-9.0f %-10s %-10.0f %-12llu %-14s %s  (subproblem: "
        "%llu msgs, %s; %llu base-refs saved %s)\n",
        mode_name(row.mode), row.interval_s,
        to_string(run.result.status), run.result.seconds,
        static_cast<unsigned long long>(run.checkpoint_msgs),
        util::format_bytes(static_cast<double>(run.checkpoint_bytes)).c_str(),
        overhead, static_cast<unsigned long long>(run.subproblem_msgs),
        util::format_bytes(static_cast<double>(run.subproblem_bytes)).c_str(),
        static_cast<unsigned long long>(run.result.base_ref_transfers),
        util::format_bytes(static_cast<double>(run.result.base_ref_bytes_saved))
            .c_str());
    std::fflush(stdout);
    json_rows +=
        json_row(instance, mode_name(row.mode), row.interval_s, run, timing);
  }

  // --- Warm-host repeat transfers --------------------------------------
  // The drop the base-ref cache buys on repeat ships needs a formula
  // whose problem-clause block is not trivially small next to a learned
  // DB; the 24-bit adder miter (~17 KB block) is the large-formula analog
  // (see bench_common.hpp). A warm ship carries a fingerprint plus the
  // budgeted learned block instead of the problem block. The 30 s split
  // timeout makes repeat ships plentiful and keeps the run inside the
  // campaign cap.
  const std::string warm_instance = flags.str("warm-instance");
  if (!warm_instance.empty()) {
    const cnf::CnfFormula wf = bench::resolve_instance(warm_instance);
    std::printf("\nWarm-host repeat transfers on %s:\n", warm_instance.c_str());
    std::printf("%-10s %-10s %-9s %-14s %-12s %s\n", "verdict", "seconds",
                "splits", "subprob bytes", "warm ships", "warm drop");
    std::printf("%s\n", std::string(71, '-').c_str());
    const Run run = run_campaign(wf, core::CheckpointMode::kNone, 60.0, false,
                                 0.0, /*split_timeout_s=*/30.0,
                                 /*overall_timeout_s=*/50000.0);
    const core::GridSatResult& r = run.result;
    // What the warm ships would have cost with the problem block, over
    // what they shipped.
    const std::uint64_t shipped =
        std::max<std::uint64_t>(1, r.base_ref_payload_bytes);
    const double warm_drop =
        static_cast<double>(shipped + r.base_ref_bytes_saved) /
        static_cast<double>(shipped);
    std::printf("%-10s %-10.0f %-9llu %-14s %-12llu %.2fx\n",
                to_string(r.status), r.seconds,
                static_cast<unsigned long long>(r.total_splits),
                util::format_bytes(static_cast<double>(run.subproblem_bytes))
                    .c_str(),
                static_cast<unsigned long long>(r.base_ref_transfers),
                warm_drop);
    std::fflush(stdout);
    json_rows +=
        json_row(warm_instance, "warm-ship", 0.0, run, CodecTiming{});
  }

  std::printf("\nWith the root client killed at t=120 s (recovery on):\n");
  std::printf("%-8s %-10s %-10s %-12s\n", "mode", "verdict", "seconds",
              "recoveries");
  std::printf("%s\n", std::string(46, '-').c_str());
  for (const auto mode :
       {core::CheckpointMode::kNone, core::CheckpointMode::kLight,
        core::CheckpointMode::kHeavy}) {
    const Run run = run_campaign(f, mode, 60.0, true, 120.0);
    std::printf("%-8s %-10s %-10.0f %llu\n", mode_name(mode),
                to_string(run.result.status), run.result.seconds,
                static_cast<unsigned long long>(
                    run.result.checkpoint_recoveries));
    std::fflush(stdout);
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
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
}
