#include "core/fuzz.hpp"

#include <sstream>

#include "core/campaign.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "util/strings.hpp"

namespace gridsat::core::fuzz {

namespace {

/// splitmix64: every scenario dimension draws from its own deterministic
/// stream position, so adding a knob never reshuffles older scenarios'
/// unrelated choices more than necessary.
struct Rng {
  std::uint64_t state;

  std::uint64_t next() noexcept {
    std::uint64_t x = (state += 0x9e3779b97f4a7c15ull);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + next() % (hi - lo + 1);
  }
  double real(double lo, double hi) noexcept {
    return lo + (hi - lo) * (static_cast<double>(next() >> 11) * 0x1.0p-53);
  }
  bool chance(std::uint64_t one_in) noexcept { return next() % one_in == 0; }
};

cnf::CnfFormula pick_instance(Rng& rng, std::string& tag) {
  // A mix straddling SAT/UNSAT so both oracle arms run: pigeonholes and
  // XOR chains are UNSAT, planted k-SAT is SAT, threshold k-SAT is either.
  switch (rng.range(0, 5)) {
    case 0: {
      const int n = static_cast<int>(rng.range(5, 7));
      tag = "php-" + std::to_string(n);
      return gen::pigeonhole_unsat(n);
    }
    case 1: {
      const int n = static_cast<int>(rng.range(7, 10));
      const auto s = rng.range(1, 64);
      tag = "urq-" + std::to_string(n) + "/" + std::to_string(s);
      return gen::urquhart_like(n, s);
    }
    case 2: {
      const auto s = rng.range(1, 1u << 20);
      tag = "planted-" + std::to_string(s);
      return gen::random_ksat_planted(50, 210, 3, s);
    }
    default: {
      const auto s = rng.range(1, 1u << 20);
      tag = "rand3-" + std::to_string(s);
      // 4.26 clauses/var: near the phase transition, verdict unknown.
      return gen::random_ksat(24, 102, 3, s);
    }
  }
}

}  // namespace

ScenarioOutcome run_scenario(std::uint64_t seed, obs::Tracer* tracer) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull};
  ScenarioOutcome outcome;
  outcome.seed = seed;

  const cnf::CnfFormula formula = pick_instance(rng, outcome.instance);

  constexpr std::size_t kMiB = 1024 * 1024;
  const std::size_t num_hosts = rng.range(2, 5);
  outcome.hosts = num_hosts;
  std::vector<sim::HostSpec> hosts;
  for (std::size_t i = 0; i < num_hosts; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("f", i);
    spec.site = (i % 2 == 0) ? "east" : "west";
    spec.speed = rng.real(2000.0, 6000.0);
    spec.memory_bytes = rng.range(24, 64) * kMiB;
    spec.seed = seed * 131 + i;
    hosts.push_back(spec);
  }

  GridSatConfig config;
  config.solver.log_proof = true;
  config.split_timeout_s = rng.real(1.0, 5.0);
  config.client_quantum_s = rng.real(0.25, 1.0);
  config.share_max_len = rng.chance(4) ? 0 : rng.range(3, 10);
  config.min_client_memory = 1 * kMiB;
  config.overall_timeout_s = 1e5;
  // Lowering the rank factor makes migrations common enough to fuzz.
  config.migration_rank_factor = rng.real(1.0, 2.0);
  config.migration_min_idle_at_site = rng.range(1, 2);
  switch (rng.range(0, 2)) {
    case 0:
      config.checkpoint = CheckpointMode::kNone;
      break;
    case 1:
      config.checkpoint = CheckpointMode::kLight;
      break;
    default:
      config.checkpoint = CheckpointMode::kHeavy;
      config.checkpoint_interval_s = rng.real(1.0, 5.0);
      break;
  }
  config.recover_from_checkpoints = !rng.chance(4);
  // Wire-transfer dimensions (DESIGN.md §4e): checkpoint chains interleave
  // with kills/recoveries so the proof oracle sweeps chain restores and
  // renegotiated base ships; a chain cap of 0 keeps the full-only
  // checkpoint path covered.
  config.checkpoint_chain_max = rng.range(0, 8);
  // Bounded split payloads: trimming the shipped learned block must never
  // change a verdict (dropped clauses are consequences), including at
  // budgets small enough to drop everything.
  config.split_learned_budget_bytes =
      rng.chance(3) ? 0 : static_cast<std::size_t>(rng.range(64, 4096));
  // Retired-knob draws, kept: every seed keeps instance, hosts, kills, mode.
  rng.chance(4);
  for (int i = 0; i < 3; ++i) rng.chance(3);
  // Heuristic-diversification dimensions (DESIGN.md §4i). These are the
  // axes diversified_config() spreads racers across, and they must be
  // verdict-neutral on their own, so they also fuzz in plain split mode:
  // random decisions in particular were a dead knob (never exercised by
  // any test) until the portfolio work made them load-bearing.
  if (rng.chance(3)) {
    config.solver.random_decision_freq = rng.real(0.01, 0.2);
  }
  switch (rng.range(0, 3)) {
    case 0:
      config.solver.restart_policy = solver::RestartPolicy::kGeometric;
      break;
    case 1:
      config.solver.restart_policy = solver::RestartPolicy::kLinear;
      break;
    default:
      break;  // kLuby, the reference policy
  }
  if (rng.chance(3)) {
    config.solver.polarity_init = rng.chance(2)
                                      ? solver::PolarityInit::kTrue
                                      : solver::PolarityInit::kFalse;
  }
  // Racing modes (the §4i tentpole): a third of scenarios race —
  // portfolio replicates the root across registrants, hybrid multicasts
  // every split child to a cohort. Both must pass the same oracle: race
  // duplicates may land in the proof log, the stitcher prunes them.
  switch (rng.range(0, 5)) {
    case 4:
      config.parallel_mode = solver::ParallelMode::kPortfolio;
      break;
    case 5:
      config.parallel_mode = solver::ParallelMode::kHybrid;
      config.race_width = rng.range(2, 3);
      break;
    default:
      break;  // kSplit, the paper's protocol
  }

  // Hierarchical-master dimensions (DESIGN.md §4j), drawn from a forked
  // stream so adding them never reshuffles older scenarios' choices. The
  // knob is drawn regardless of mode — racing scenarios must stay flat
  // even when sub_masters is set, and that no-op path deserves fuzzing
  // too.
  Rng hier_rng{seed * 0x6c62272e07bb0142ull + 0x27d4eb2f165667c5ull};
  if (!hier_rng.chance(2)) {
    config.sub_masters = hier_rng.range(1, 2);  // "east" / "east"+"west"
    config.site_relay_interval = hier_rng.real(0.1, 0.5);
    config.inter_site_lbd_cap =
        hier_rng.chance(4) ? 0 : hier_rng.range(3, 8);
  }

  Campaign campaign(formula, "east", hosts, config);
  if (tracer != nullptr) campaign.set_tracer(tracer);

  outcome.sub_masters = campaign.num_sub_masters();
  if (outcome.sub_masters > 0) {
    // Sub-master kills land in the summary-forwarding window (the first
    // relay cadences, while reports and digests are in flight), so
    // bounce/re-home interleaves with live protocol traffic.
    outcome.sub_master_kills = hier_rng.range(0, 2);
    for (std::size_t i = 0; i < outcome.sub_master_kills; ++i) {
      const char* site = hier_rng.chance(2) ? "east" : "west";
      campaign.schedule_sub_master_failure(site, hier_rng.real(0.5, 15.0));
    }
  }

  if (rng.chance(4)) {
    outcome.batch = true;
    BatchOptions batch;
    batch.spec.mean_queue_wait_s = rng.real(10.0, 100.0);
    batch.spec.seed = seed * 17 + 3;
    batch.max_duration_s = 1e5;
    const std::size_t nodes = rng.range(1, 3);
    for (std::size_t i = 0; i < nodes; ++i) {
      sim::HostSpec node;
      node.name = "bh" + std::to_string(i);
      node.site = "sdsc";
      node.speed = rng.real(4000.0, 9000.0);
      node.memory_bytes = 64 * kMiB;
      node.seed = seed * 257 + i;
      batch.node_hosts.push_back(node);
    }
    campaign.set_batch(std::move(batch));
  }

  outcome.failures = rng.range(0, 3);
  for (std::size_t i = 0; i < outcome.failures; ++i) {
    // Early kills land while clients are still busy; most campaigns in
    // the instance pool finish within tens of virtual seconds.
    campaign.schedule_client_failure(rng.range(0, num_hosts - 1),
                                     rng.real(1.0, 20.0));
  }

  outcome.mode = config.parallel_mode;

  const GridSatResult result = campaign.run();
  outcome.status = result.status;
  outcome.virtual_seconds = result.seconds;
  outcome.splits = result.total_splits;
  outcome.migrations = result.migrations;
  outcome.recoveries = result.checkpoint_recoveries;
  outcome.races_cancelled = result.races_cancelled;
  outcome.sub_master_rehomes = result.sub_master_rehomes;
  outcome.sub_master_bounces = result.sub_master_bounces;
  outcome.brokered_splits = result.brokered_splits;
  outcome.proof = result.proof;
  if (result.proof) outcome.proof_steps = result.proof->size();

  switch (result.status) {
    case CampaignStatus::kSat:
      if (!cnf::is_model(formula, result.model)) {
        outcome.failure = "SAT verdict with a model that does not satisfy "
                          "the formula";
      }
      break;
    case CampaignStatus::kUnsat: {
      if (!result.proof) {
        outcome.failure = "UNSAT verdict without a recorded proof";
        break;
      }
      if (!result.proof_stitched) {
        outcome.failure = "UNSAT verdict but the split-tree stitch failed: " +
                          result.proof_error;
        break;
      }
      const solver::ProofCheckResult check = campaign.certify();
      if (!check.valid) {
        outcome.failure =
            "UNSAT verdict with a refutation that does not certify: " +
            check.message + " (step " + std::to_string(check.failed_step) +
            " of " + std::to_string(check.steps_checked) + ")";
      }
      break;
    }
    case CampaignStatus::kError:
      // Only an injected kill (or the mem-out it provokes) may abort the
      // run; an ERROR in a failure-free scenario is a protocol bug.
      if (outcome.failures == 0) {
        outcome.failure = "ERROR verdict in a scenario with no injected "
                          "client failures";
      }
      break;
    case CampaignStatus::kTimeout:
      break;  // honest under the virtual cap
  }
  return outcome;
}

std::string describe(const ScenarioOutcome& o) {
  std::ostringstream out;
  out << "seed " << o.seed << ": " << o.instance << ", " << o.hosts
      << " hosts, " << o.failures << " kills" << (o.batch ? ", batch" : "");
  if (o.mode != solver::ParallelMode::kSplit) {
    out << ", " << solver::to_string(o.mode);
  }
  if (o.sub_masters > 0) {
    out << ", " << o.sub_masters << " sub-masters";
    if (o.sub_master_kills > 0) {
      out << " (" << o.sub_master_kills << " killed, " << o.sub_master_rehomes
          << " rehomed, " << o.sub_master_bounces << " bounces)";
    }
  }
  out << " -> " << to_string(o.status) << " in " << o.virtual_seconds
      << " vs (" << o.splits << " splits, " << o.migrations << " migrations, "
      << o.recoveries << " recoveries";
  if (o.races_cancelled > 0) out << ", " << o.races_cancelled << " cancelled";
  if (o.brokered_splits > 0) out << ", " << o.brokered_splits << " brokered";
  if (o.proof_steps > 0) out << ", " << o.proof_steps << " proof steps";
  out << ")";
  if (!o.ok()) out << "  ORACLE FAILURE: " << o.failure;
  return out.str();
}

}  // namespace gridsat::core::fuzz
