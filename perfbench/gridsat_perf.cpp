// gridsat_perf: one run of one repository-benchmark workload.
//
//   gridsat_perf --workload=local|grid-split|grid-share --seed=N
//                --seconds=S --trace=0|1 [--spans=PATH]
//
// Every layer is timed from outside: the benchmark wraps each call into a
// module's public API in a span (layer, name, start, end, parent) and reads
// the counters those calls already return. A workload is a closed loop run
// from this one process: one operation at a time, each started only after
// the previous one ended. It runs in rounds; round 0 draws its inputs from
// the seed itself and round r > 0 from a seed derived from (seed, r).
//
// --trace=0 runs as many rounds as the nominal round length fits in
// --seconds (a count fixed by --seconds, not by the speed of the build) and
// prints the end-to-end metrics with the program's tracer detached.
// --trace=1 runs a fixed number of rounds untraced, repeats them with an
// obs::Tracer and obs::MetricRegistry attached, probes the wire codec,
// exports and analyzes the traces, and prints the per-layer metrics. Counts
// are totals over those rounds; times are medians per round.
//
// Both modes print a report and then one JSON object as the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}, where
// "metrics" maps every metric the run set to its value. Every operation
// (solve, campaign, certification) and every check is counted in
// "attempted"; each failure is printed with its reason and counted in
// "failed".
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cnf/dimacs.hpp"
#include "cnf/formula.hpp"
#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "gen/circuit_families.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/cdcl.hpp"
#include "solver/parallel.hpp"
#include "solver/subproblem.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

using namespace gridsat;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

unsigned long long ull(std::uint64_t v) { return v; }

std::size_t next_pow2(std::uint64_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Input seed of round `round`: the workload seed itself for round 0.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  if (round == 0) return seed;
  return util::SplitMix64(seed ^ (0xd1b54a32d192ed03ULL * round)).next();
}

// --- spans -----------------------------------------------------------------
// The benchmark's own spans around its calls into each layer, kept in memory
// and written as JSON Lines when the run ends. A layer's self time is its
// spans' durations minus the parts their child spans cover.
class Spans {
 public:
  template <class F>
  double time(const char* layer, std::string name, F&& fn) {
    const std::size_t id = spans_.size();
    const long parent =
        stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back(Span{layer, std::move(name), now(), 0.0, parent});
    stack_.push_back(id);
    fn();
    stack_.pop_back();
    spans_[id].end = now();
    return spans_[id].end - spans_[id].start;
  }

  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end - spans_[i].start - covered[i];
    }
    return self;
  }

  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"parent\":%ld,\"layer\":\"%s\","
                   "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   i, s.parent, s.layer, s.name.c_str(), s.start, s.end);
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* layer;
    std::string name;
    double start;
    double end;
    long parent;
  };
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// --- instances -------------------------------------------------------------
struct LocalInstance {
  const char* name;
  std::function<cnf::CnfFormula()> make;
  solver::SolveStatus expected;
};

/// Five families, SAT and UNSAT: each stresses the solver differently (a BCP
/// change can help pigeonhole without helping the parity chains).
const std::vector<LocalInstance>& local_instances() {
  using solver::SolveStatus;
  static const std::vector<LocalInstance> instances = {
      {"urquhart-16", [] { return gen::urquhart_like(16, 1); },
       SolveStatus::kUnsat},
      {"pigeonhole-7", [] { return gen::pigeonhole_unsat(7); },
       SolveStatus::kUnsat},
      // Clause ratio 4.26 (the k=3 phase transition), generator seed 5: a
      // satisfiable draw.
      {"random3sat-v175-s5", [] { return gen::random_ksat(175, 745, 3, 5); },
       SolveStatus::kSat},
      {"adder-miter-32", [] { return gen::adder_miter(32, false, 7); },
       SolveStatus::kUnsat},
      {"mult-comm-6", [] { return gen::mult_comm_miter(6); },
       SolveStatus::kUnsat},
  };
  return instances;
}

// --- the run ---------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

class Bench {
 public:
  explicit Bench(Options options) : opt(std::move(options)) {}

  /// One operation or check; a failure is printed with its reason.
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("FAIL  %s\n", what.c_str());
    }
    return ok;
  }

  /// A counter that proves an enabled feature ran; zero is a failed check.
  void expect_fired(const char* counter, double value) {
    check(value > 0.0,
          std::string("feature never fired: ") + counter + " reads 0");
  }

  template <class T>
  void expect_same(const std::string& what, const T& a, const T& b) {
    check(a == b, "determinism mismatch: " + what);
  }

  void set(const std::string& name, double value) { metrics_[name] = value; }

  /// Runs `n` rounds. `setup` builds round 0's inputs; it takes
  /// milliseconds, so one sample is mostly noise, and the machine's speed
  /// drifts over seconds: set-up runs `setup_reps` times before every round,
  /// so its samples span the run, and "setup_s" is their median.
  void rounds(std::size_t n, std::size_t setup_reps,
              const std::function<void()>& setup,
              const std::function<void(std::size_t)>& round) {
    std::vector<double> setup_s;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < setup_reps; ++k) {
        setup_s.push_back(spans.time("bench", "setup", setup));
      }
      spans.time("bench", "round " + std::to_string(r), [&] { round(r); });
    }
    set("setup_s", median(setup_s));
    std::sort(setup_s.begin(), setup_s.end());
    std::printf("set-up: %zu samples, quartiles %.6f %.6f %.6f s\n",
                setup_s.size(), setup_s[setup_s.size() / 4],
                setup_s[setup_s.size() / 2], setup_s[3 * setup_s.size() / 4]);
  }

  /// Rounds of an untraced run: as many rounds of nominal length `round_s`
  /// as fit in --seconds after a fixed cost of `fixed_s`. The count depends
  /// on --seconds alone, never on how fast rounds ran, so runs of two builds
  /// with the same seed and --seconds solve the same inputs.
  [[nodiscard]] std::size_t untraced_rounds(double round_s,
                                            double fixed_s = 0.0) const {
    return static_cast<std::size_t>(
        std::max(1.0, std::floor((opt.seconds - fixed_s) / round_s)));
  }

  /// Print the final JSON line: every metric this run set, by name. run.py
  /// picks the mode's metrics, with their units, from BENCHMARK.json.
  int finish() {
    if (opt.trace) {
      for (const auto& [layer, s] : spans.self_seconds()) {
        set("layer." + layer + ".self_s", s);
      }
      if (!opt.spans_path.empty()) {
        check(spans.write(opt.spans_path),
              "cannot write spans to " + opt.spans_path);
      }
    }
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    const char* sep = "";
    for (const auto& [name, value] : metrics_) {
      if (!std::isfinite(value)) {
        std::fprintf(stderr, "internal error: %s is not finite\n",
                     name.c_str());
        return 1;
      }
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", sep, name.c_str(),
                    value);
      json += buf;
      sep = ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  const Options opt;
  Spans spans;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
};

/// Satisfiability-preserving scramble: a seeded variable renaming, polarity
/// flip, clause order and literal order.
cnf::CnfFormula scramble(const cnf::CnfFormula& f, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const cnf::Var n = f.num_vars();
  std::vector<cnf::Var> rename(n + 1);
  for (cnf::Var v = 0; v <= n; ++v) rename[v] = v;
  for (cnf::Var v = n; v > 1; --v) {
    std::swap(rename[v], rename[1 + rng.below(v)]);
  }
  std::vector<bool> flip(n + 1);
  for (cnf::Var v = 1; v <= n; ++v) flip[v] = rng.below(2) == 1;
  std::vector<std::size_t> order(f.num_clauses());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  cnf::CnfFormula out(n);
  for (const std::size_t i : order) {
    cnf::Clause c;
    c.reserve(f.clause(i).size());
    for (const cnf::Lit l : f.clause(i)) {
      c.emplace_back(rename[l.var()], l.negated() != flip[l.var()]);
    }
    for (std::size_t k = c.size(); k > 1; --k) {
      std::swap(c[k - 1], c[rng.below(k)]);
    }
    out.add_clause(std::move(c));
  }
  return out;
}

/// Generation plus the DIMACS round trip every workload starts from.
cnf::CnfFormula generate_via_dimacs(
    Bench& b, const std::string& name,
    const std::function<cnf::CnfFormula()>& make, double* parse_s = nullptr,
    double* dimacs_mb = nullptr) {
  cnf::CnfFormula generated;
  b.spans.time("gen", "generate " + name, [&] { generated = make(); });
  std::string text;
  b.spans.time("cnf", "to_dimacs " + name,
               [&] { text = cnf::to_dimacs_string(generated); });
  cnf::CnfFormula parsed;
  const double s = b.spans.time("cnf", "parse_dimacs " + name, [&] {
    parsed = cnf::parse_dimacs_string(text);
  });
  if (parse_s != nullptr) *parse_s += s;
  if (dimacs_mb != nullptr) *dimacs_mb += text.size() / 1e6;
  return parsed;
}

struct TraceTotals {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  double export_s = 0.0;
  double analyze_s = 0.0;
};

/// Export one tracer as a Chrome trace and analyze it; both are timed.
void export_and_analyze(Bench& b, const obs::Tracer& tracer,
                        const std::string& what,
                        const std::string& metrics_text, TraceTotals& totals) {
  totals.events += tracer.total_emitted();
  for (std::uint32_t w = 0; w < tracer.num_workers(); ++w) {
    totals.dropped += tracer.dropped(w);
  }
  std::string json;
  totals.export_s += b.spans.time("obs", "chrome_trace_json " + what, [&] {
    json = obs::chrome_trace_json(tracer);
  });
  obs::AnalyzeReport report;
  totals.analyze_s += b.spans.time("obs", "analyze_trace " + what, [&] {
    report = obs::analyze_trace(json, metrics_text);
  });
  b.check(report.ok,
          "analyze_trace rejected the " + what + " trace: " + report.error);
}

void report_trace(Bench& b, const TraceTotals& t, double traced_s,
                  double untraced_s) {
  b.set("obs.trace_overhead", ratio(traced_s, untraced_s) - 1.0);
  b.set("obs.trace_events", t.events);
  b.set("obs.tracer_dropped", t.dropped);
  b.check(t.dropped == 0, "the tracer dropped events");
  b.set("obs.export_s", t.export_s);
  b.set("obs.analyze_s", t.analyze_s);
}

// --- local: the solver core and the thread-level sharing pool --------------
std::size_t four_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

struct SolveCounts {
  solver::SolveStatus status = solver::SolveStatus::kUnknown;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t work = 0;
  bool operator==(const SolveCounts&) const = default;
};

void add_parallel(solver::ParallelStats& sum, const solver::ParallelStats& s) {
  sum.splits += s.splits;
  sum.clauses_published += s.clauses_published;
  sum.clauses_deduped += s.clauses_deduped;
  sum.clauses_imported += s.clauses_imported;
  sum.clauses_imported_used += s.clauses_imported_used;
  sum.shard_lock_contention += s.shard_lock_contention;
  sum.total_work += s.total_work;
}

struct LocalRound {
  double init_s = 0.0;              ///< CdclSolver construction, summed
  std::vector<double> search_s;     ///< per instance, 1 thread
  std::vector<double> search_4t_s;  ///< per instance, 4 threads
  std::vector<SolveCounts> counts;  ///< per instance, 1 thread
  std::size_t peak_db_bytes = 0;
  solver::ParallelStats par;  ///< summed over instances
  TraceTotals trace;
};

/// Instance `i` of round `round`, scrambled from the round's seed.
cnf::CnfFormula local_formula(Bench& b, std::size_t round, std::size_t i,
                              double* parse_s = nullptr,
                              double* dimacs_mb = nullptr) {
  const LocalInstance& inst = local_instances()[i];
  const std::uint64_t seed = round_seed(b.opt.seed, round) * 1000003ULL + i;
  return generate_via_dimacs(
      b, inst.name, [&] { return scramble(inst.make(), seed); }, parse_s,
      dimacs_mb);
}

/// Solve every instance at 1 thread, then at 4 threads. `expected` is null
/// untraced; traced, it holds the untraced round's 1-thread counts, which
/// also size the tracer rings so no event is overwritten.
LocalRound local_round(Bench& b, const std::vector<cnf::CnfFormula>& formulas,
                       const std::vector<SolveCounts>* expected) {
  const auto& instances = local_instances();
  LocalRound c;
  for (std::size_t i = 0; i < formulas.size(); ++i) {
    const std::string name = instances[i].name;
    std::unique_ptr<solver::CdclSolver> s;
    c.init_s += b.spans.time("solver", "construct " + name, [&] {
      s = std::make_unique<solver::CdclSolver>(formulas[i]);
    });
    std::unique_ptr<obs::Tracer> tracer;
    if (expected != nullptr) {
      const SolveCounts& e = (*expected)[i];
      tracer = std::make_unique<obs::Tracer>(
          next_pow2(e.conflicts + e.decisions / 4096 + 4096));
      tracer->set_enabled(true);
      s->set_tracer(tracer.get(), tracer->register_worker("solve:" + name));
    }
    solver::SolveStatus status = solver::SolveStatus::kUnknown;
    c.search_s.push_back(b.spans.time("solver", "solve " + name,
                                      [&] { status = s->solve(); }));
    const solver::SolverStats& st = s->stats();
    c.counts.push_back(SolveCounts{status, st.decisions, st.propagations,
                                   st.conflicts, st.work});
    c.peak_db_bytes = std::max(c.peak_db_bytes, st.peak_db_bytes);
    if (b.check(status == instances[i].expected,
                "1-thread verdict on " + name + " is wrong") &&
        status == solver::SolveStatus::kSat) {
      b.check(cnf::is_model(formulas[i], s->model()),
              "1-thread model on " + name + " does not satisfy the formula");
    }
    if (tracer) export_and_analyze(b, *tracer, "solve:" + name, "", c.trace);
  }
  for (std::size_t i = 0; i < formulas.size(); ++i) {
    const std::string name = instances[i].name;
    solver::ParallelOptions po;
    po.num_threads = four_threads();
    obs::MetricRegistry registry;
    std::unique_ptr<obs::Tracer> tracer;
    if (expected != nullptr) {
      // Four workers search at most a few times the 1-thread tree between
      // them, and the pool adds publish/import events: eight times the
      // 1-thread event count per lane leaves no lane short.
      tracer = std::make_unique<obs::Tracer>(
          next_pow2(8 * (*expected)[i].conflicts + 65536));
      tracer->set_enabled(true);
      po.tracer = tracer.get();
      po.metrics = &registry;
    }
    solver::ParallelResult r;
    c.search_4t_s.push_back(
        b.spans.time("parallel", "parallel_solve " + name, [&] {
          solver::ParallelSolver ps(formulas[i], po);
          r = ps.solve();
        }));
    add_parallel(c.par, r.stats);
    if (b.check(r.status == c.counts[i].status,
                "4-thread verdict on " + name +
                    " differs from the 1-thread one") &&
        r.status == solver::SolveStatus::kSat) {
      b.check(cnf::is_model(formulas[i], r.model),
              "4-thread model on " + name + " does not satisfy the formula");
    }
    if (tracer) {
      export_and_analyze(b, *tracer, "parallel:" + name, "", c.trace);
    }
  }
  return c;
}

// Host seconds of one untraced round (1- and 4-thread solves of the five
// instances plus set-up) on a 4-vCPU x86-64 VM; it sizes the round count.
constexpr double kLocalRoundSeconds = 1.05;
constexpr std::size_t kLocalTracedRounds = 3;
constexpr std::size_t kLocalSetupReps = 4;

void run_local(Bench& b) {
  const auto& instances = local_instances();
  std::vector<double> parse_s;
  double dimacs_mb = 0.0;
  std::vector<cnf::CnfFormula> round0;
  const auto setup = [&] {
    double parse = 0.0;
    dimacs_mb = 0.0;
    round0.clear();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      round0.push_back(local_formula(b, 0, i, &parse, &dimacs_mb));
      b.spans.time("solver", std::string("construct ") + instances[i].name,
                   [&] { const solver::CdclSolver s(round0.back()); });
    }
    parse_s.push_back(parse);
  };
  // Later rounds' inputs are made when needed, not kept: memory must not
  // grow with the number of rounds.
  const auto inputs = [&](std::size_t r) {
    if (r == 0) return round0;
    std::vector<cnf::CnfFormula> fs;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      fs.push_back(local_formula(b, r, i));
    }
    return fs;
  };
  std::vector<LocalRound> rounds;
  const std::size_t n_rounds = b.opt.trace
                                  ? kLocalTracedRounds
                                  : b.untraced_rounds(kLocalRoundSeconds);
  b.rounds(n_rounds, kLocalSetupReps, setup, [&](std::size_t r) {
    rounds.push_back(local_round(b, inputs(r), nullptr));
  });
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::uint64_t seed = b.opt.seed * 1000003ULL + i;
    b.check(round0[i] == scramble(instances[i].make(), seed),
            std::string("DIMACS round trip changed ") + instances[i].name);
  }

  // Rounds solve different scrambles of the five instances, so times and
  // the virtual time are means over rounds, the expected cost of solving
  // the set once; counts are totals.
  const double n = static_cast<double>(rounds.size());
  std::vector<double> search(instances.size(), 0.0);
  double solve_4t = 0.0, init = 0.0;
  std::uint64_t work = 0, props = 0, conflicts = 0, decisions = 0;
  std::size_t peak_db = 0;
  solver::ParallelStats par;
  for (const LocalRound& c : rounds) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      search[i] += c.search_s[i];
      solve_4t += c.search_4t_s[i];
      work += c.counts[i].work;
      props += c.counts[i].propagations;
      conflicts += c.counts[i].conflicts;
      decisions += c.counts[i].decisions;
    }
    init += c.init_s;
    peak_db = std::max(peak_db, c.peak_db_bytes);
    add_parallel(par, c.par);
  }
  double solve = 0.0;
  for (const double s : search) solve += s / n;
  solve_4t /= n;
  b.expect_fired("sharing.imported", par.clauses_imported);
  std::printf("%-20s %12s %12s   (round 0)\n", "instance", "1-thread s",
              "conflicts");
  for (std::size_t i = 0; i < instances.size(); ++i) {
    std::printf("%-20s %12.3f %12llu\n", instances[i].name,
                rounds[0].search_s[i], ull(rounds[0].counts[i].conflicts));
  }
  std::printf("local: %zu rounds, 1-thread %.3f s, 4-thread %.3f s "
              "(%zu threads)\n",
              rounds.size(), solve, solve_4t, four_threads());

  if (!b.opt.trace) {
    b.set("solve_s", solve);
    b.set("total_s", solve + solve_4t);
    // The sequential comparator's convention (core::run_sequential): the
    // 1-thread search work charged at the dedicated fastest host's speed.
    b.set("virtual_s", work / n / core::testbeds::fastest_dedicated().speed);
    b.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  double traced_solve = 0.0;
  TraceTotals trace;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    LocalRound t;
    b.spans.time("bench", "traced round " + std::to_string(r),
                 [&] { t = local_round(b, inputs(r), &rounds[r].counts); });
    for (const double s : t.search_s) traced_solve += s / n;
    b.expect_same("1-thread solver counts of round " + std::to_string(r) +
                      ", untraced vs traced",
                  t.counts, rounds[r].counts);
    trace.events += t.trace.events;
    trace.dropped += t.trace.dropped;
    trace.export_s += t.trace.export_s;
    trace.analyze_s += t.trace.analyze_s;
  }
  report_trace(b, trace, traced_solve, solve);

  b.set("cnf.parse_s", median(parse_s));
  b.set("cnf.dimacs_mb", dimacs_mb);
  b.set("solver.init_s", init / n);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    b.set(std::string("solver.search_s.") + instances[i].name, search[i] / n);
  }
  b.set("solver.props_per_s", ratio(props, solve * n));
  b.set("solver.propagations", props);
  b.set("solver.conflicts", conflicts);
  b.set("solver.decisions", decisions);
  b.set("solver.db_mb", peak_db / 1e6);
  b.set("parallel.solve_4t_s", solve_4t);
  b.set("parallel.speedup_4t", ratio(solve, solve_4t));
  b.set("parallel.work_ratio", ratio(par.total_work, work));
  b.set("parallel.splits", par.splits);
  b.set("sharing.published", par.clauses_published);
  b.set("sharing.deduped", par.clauses_deduped);
  b.set("sharing.imported", par.clauses_imported);
  b.set("sharing.use_ratio",
        ratio(par.clauses_imported_used, par.clauses_imported));
  b.set("sharing.lock_contention", par.shard_lock_contention);
  std::printf("sharing.use_ratio base: %llu used of %llu imported\n",
              ull(par.clauses_imported_used), ull(par.clauses_imported));
}

// --- grid-split / grid-share: the campaign layer ---------------------------
struct GridSpec {
  const char* instance;
  std::function<cnf::CnfFormula()> make;
  std::size_t clients;
  std::size_t sub_masters;  ///< 0 = the paper's flat master
  std::size_t share_max_len;
  bool log_proof;
  /// Host seconds of one untraced round, and of the one certification, on
  /// a 4-vCPU x86-64 VM; they size the round count.
  double round_s;
  double certify_s;
};

/// Set-ups before every grid round: each takes well under a millisecond.
constexpr std::size_t kGridSetupReps = 200;

/// The machines of synthetic_grid(clients, 8, 2003) -- sites, speeds,
/// memories and base loads stay fixed, like the paper's testbed -- with each
/// host's background-load trace drawn from `seed`. At seed 2003 this is
/// exactly synthetic_grid(clients, 8, 2003).
std::vector<sim::HostSpec> testbed(std::size_t clients, std::uint64_t seed) {
  std::vector<sim::HostSpec> hosts =
      core::testbeds::synthetic_grid(clients, 8, 2003);
  for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i].seed = seed + 1 + i;
  return hosts;
}

/// The configuration of bench_simcore's table2_scale rows.
core::GridSatConfig grid_config(const GridSpec& g, bool log_proof) {
  core::GridSatConfig config;
  config.solver.reduce_base = 1u << 30;
  config.solver.log_proof = log_proof;
  config.share_max_len = g.share_max_len;
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 50000.0;
  config.min_client_memory = 1 << 20;
  config.sub_masters = g.sub_masters;
  return config;
}

struct CampaignRun {
  core::GridSatResult result;
  double init_s = 0.0;
  double run_s = 0.0;
  double certify_s = 0.0;
  std::size_t certify_steps = 0;
  std::uint64_t events = 0;
  TraceTotals trace;
  std::vector<obs::MetricRegistry::Sample> snapshot;
};

/// The facts of a virtual history that must repeat for one seed.
struct History {
  double virtual_s;
  std::uint64_t splits;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t events;
  bool operator==(const History&) const = default;
};

History history_of(const CampaignRun& r) {
  return History{r.result.seconds, r.result.total_splits, r.result.messages,
                 r.result.bytes_transferred, r.events};
}

enum class Proof { kOff, kLog, kLogAndCertify };

CampaignRun run_campaign(Bench& b, const GridSpec& g,
                         const cnf::CnfFormula& f, std::uint64_t seed,
                         Proof proof, bool traced) {
  CampaignRun out;
  std::unique_ptr<core::Campaign> campaign;
  out.init_s = b.spans.time("core", "construct campaign", [&] {
    campaign = std::make_unique<core::Campaign>(
        f, "grid0", testbed(g.clients, seed),
        grid_config(g, proof != Proof::kOff));
  });
  // Manual clock: the engine stamps virtual time. One lane per host.
  obs::Tracer tracer(1u << 15, obs::Tracer::Clock::kManual);
  obs::MetricRegistry registry;
  if (traced) {
    tracer.set_enabled(true);
    campaign->set_tracer(&tracer);
    campaign->set_metrics(&registry);
  }
  out.run_s = b.spans.time("core", "campaign run",
                           [&] { out.result = campaign->run(); });
  out.events = campaign->engine().events_fired();
  b.check(out.result.status == core::CampaignStatus::kUnsat,
          std::string("campaign on ") + g.instance + " ended " +
              core::to_string(out.result.status) + ", expected UNSAT");
  if (proof == Proof::kLogAndCertify) {
    solver::ProofCheckResult cert;
    out.certify_s = b.spans.time("proof", "certify",
                                 [&] { cert = campaign->certify(); });
    out.certify_steps = cert.steps_checked;
    b.check(cert.valid, "certification is not valid: " + cert.message);
  } else {
    out.result.proof.reset();  // memory must not grow with the rounds run
  }
  if (traced) {
    out.snapshot = registry.snapshot();
    registry.snapshot_to(tracer, tracer.register_worker("sampler"));
    std::string metrics_text;
    for (const auto& s : out.snapshot) {
      metrics_text += s.name + " " + std::to_string(s.value) + "\n";
    }
    export_and_analyze(b, tracer, "campaign", metrics_text, out.trace);
  }
  return out;
}

/// Split children from CdclSolver::split() on the workload's instance, timed
/// through the payload codec and rehydration into a fresh solver. Child k
/// splits off after k slices of search, so the payloads range from an empty
/// learned-clause block to a grown one, as a campaign's splits do.
void wire_probe(Bench& b, const GridSpec& g, const cnf::CnfFormula& f) {
  constexpr std::size_t kChildren = 16;
  constexpr std::uint64_t kSliceWork = 50'000;
  constexpr int kReps = 15;
  const solver::SolverConfig config = grid_config(g, false).solver;
  std::vector<solver::Subproblem> children;
  b.spans.time("solver", "split donors", [&] {
    for (std::size_t k = 1; k <= kChildren; ++k) {
      solver::CdclSolver donor(f, config);
      if (donor.solve(k * kSliceWork) == solver::SolveStatus::kUnknown &&
          donor.can_split()) {
        children.push_back(donor.split());
      }
    }
  });
  if (!b.check(!children.empty(), "wire probe: no donor could split")) return;
  std::vector<double> size_us, encode_us, decode_us, rehydrate_us;
  double bytes = 0.0;
  for (const solver::Subproblem& sp : children) {
    std::vector<double> sz, en, de, re;
    std::vector<std::uint8_t> wire;
    for (int rep = 0; rep < kReps; ++rep) {
      std::size_t n = 0;
      solver::Subproblem back;
      sz.push_back(1e6 * b.spans.time("wire", "wire_size",
                                      [&] { n = sp.wire_size(); }));
      en.push_back(1e6 * b.spans.time("wire", "to_bytes",
                                      [&] { wire = sp.to_bytes(); }));
      de.push_back(1e6 * b.spans.time("wire", "from_bytes", [&] {
        back = solver::Subproblem::from_bytes(wire);
      }));
      re.push_back(1e6 * b.spans.time("solver", "rehydrate", [&] {
        const solver::CdclSolver s(back, config);
      }));
      if (rep == 0) {
        b.check(n == wire.size(), "wire_size disagrees with to_bytes");
        b.check(back.to_bytes() == wire,
                "the subproblem codec does not round-trip");
      }
    }
    size_us.push_back(median(sz));
    encode_us.push_back(median(en));
    decode_us.push_back(median(de));
    rehydrate_us.push_back(median(re));
    bytes += wire.size();
  }
  const double per_sp = bytes / children.size();
  b.set("wire.size_us", median(size_us));
  b.set("wire.encode_us", median(encode_us));
  b.set("wire.decode_us", median(decode_us));
  b.set("wire.bytes_per_sp", per_sp);
  b.set("solver.rehydrate_us", median(rehydrate_us));
  std::printf("wire probe: %zu split children, %.0f bytes per payload "
              "(median us: size %.1f, encode %.1f, decode %.1f, "
              "rehydrate %.1f)\n",
              children.size(), per_sp, median(size_us), median(encode_us),
              median(decode_us), median(rehydrate_us));
}

/// At seed 2003 the testbed is bench_simcore's; its committed table2_scale
/// row (pigeonhole-9, flat master, 100 clients) must come out unchanged.
void replay_table2_row(Bench& b) {
  const GridSpec row{"pigeonhole-9", [] { return gen::pigeonhole_unsat(9); },
                     100, 0, 3, false, 0.0, 0.0};
  const CampaignRun r =
      run_campaign(b, row, row.make(), 2003, Proof::kOff, false);
  b.check(std::fabs(r.result.seconds - 1079.75) < 0.05 &&
              r.result.total_splits == 2582 && r.result.messages == 16957,
          "seed 2003 does not reproduce the committed table2_scale row "
          "(1079.75 virtual s, 2582 splits, 16957 messages)");
  std::printf("table2_scale row replay: %.2f virtual s, %llu splits, "
              "%llu messages\n",
              r.result.seconds, ull(r.result.total_splits),
              ull(r.result.messages));
}

void run_grid(Bench& b, const GridSpec& g) {
  cnf::CnfFormula formula;
  const auto setup = [&] {
    formula = generate_via_dimacs(b, g.instance, g.make);
    b.spans.time("core", "construct campaign", [&] {
      const core::Campaign campaign(formula, "grid0",
                                    testbed(g.clients, b.opt.seed),
                                    grid_config(g, g.log_proof));
    });
  };

  // Certification is one long call, so it runs once, on round 0's proof;
  // the campaign itself repeats every round.
  const Proof logged = g.log_proof ? Proof::kLog : Proof::kOff;
  std::vector<CampaignRun> runs;
  const std::size_t n_rounds =
      b.opt.trace ? 1 : b.untraced_rounds(g.round_s, g.certify_s);
  b.rounds(n_rounds, kGridSetupReps, setup, [&](std::size_t r) {
    const Proof proof =
        g.log_proof && r == 0 ? Proof::kLogAndCertify : logged;
    runs.push_back(run_campaign(b, g, formula, round_seed(b.opt.seed, r),
                                proof, false));
  });
  b.check(formula == g.make(),
          std::string("DIMACS round trip changed ") + g.instance);
  std::vector<double> run_s, virt;
  core::GridSatResult sum;
  for (const CampaignRun& r : runs) {
    run_s.push_back(r.run_s);
    virt.push_back(r.result.seconds);
    sum.total_splits += r.result.total_splits;
    sum.base_ref_transfers += r.result.base_ref_transfers;
    sum.site_relay_batches += r.result.site_relay_batches;
    sum.inter_site_digests += r.result.inter_site_digests;
    sum.clauses_imported += r.result.clauses_imported;
    sum.clauses_imported_used += r.result.clauses_imported_used;
  }
  const CampaignRun& first = runs.front();
  const core::GridSatResult& res = first.result;
  std::printf("%s: %zu rounds; round 0: %s, %.2f virtual s, %llu splits, "
              "%llu messages, %.3f s run, %.3f s certify\n",
              b.opt.workload.c_str(), runs.size(),
              core::to_string(res.status), res.seconds,
              ull(res.total_splits), ull(res.messages), first.run_s,
              first.certify_s);
  b.expect_fired("campaign.splits", sum.total_splits);
  if (g.sub_masters == 0) {
    b.expect_fired("campaign.base_ref_transfers", sum.base_ref_transfers);
  } else {
    b.expect_fired("campaign.relay_batches", sum.site_relay_batches);
    b.expect_fired("campaign.digests", sum.inter_site_digests);
    b.expect_fired("campaign.imports", sum.clauses_imported);
    b.expect_fired("campaign.imports_used", sum.clauses_imported_used);
  }

  if (!b.opt.trace) {
    b.set("solve_s", median(run_s));
    b.set("total_s", median(run_s) + first.certify_s);
    b.set("virtual_s", median(virt));
    b.set("peak_rss_mb", peak_rss_mb());
    if (g.sub_masters == 0 && b.opt.seed == 2003) replay_table2_row(b);
    return;
  }

  CampaignRun traced;
  b.spans.time("bench", "traced round 0", [&] {
    traced = run_campaign(b, g, formula, b.opt.seed, logged, true);
  });
  b.expect_same("virtual history, untraced vs traced", history_of(traced),
                history_of(first));
  const auto gauge = [&](const std::string& name) {
    for (const auto& s : traced.snapshot) {
      if (s.name == name) return s.value;
    }
    return -1.0;
  };
  b.check(gauge("campaign.splits") == res.total_splits &&
              gauge("campaign.messages") == res.messages,
          "the metric snapshot disagrees with the campaign result");
  report_trace(b, traced.trace, traced.run_s, first.run_s);
  b.spans.time("bench", "wire probe", [&] { wire_probe(b, g, formula); });
  if (g.log_proof) {
    CampaignRun plain;
    b.spans.time("bench", "round 0 without proof logging", [&] {
      plain = run_campaign(b, g, formula, b.opt.seed, Proof::kOff, false);
    });
    b.expect_same("virtual history, proof logging on vs off",
                  history_of(plain), history_of(first));
    b.set("proof.certify_s", first.certify_s);
    b.set("proof.steps", res.proof ? res.proof->size() : 0);
    b.set("proof.steps_per_s", ratio(first.certify_steps, first.certify_s));
    b.set("proof.logging_overhead", ratio(first.run_s, plain.run_s) - 1.0);
  }

  b.set("campaign.init_s", first.init_s);
  b.set("campaign.splits", res.total_splits);
  b.set("campaign.messages", res.messages);
  b.set("campaign.root_messages", res.root_messages_handled);
  b.set("campaign.sub_messages", res.sub_messages_handled);
  b.set("campaign.wire_mb", res.bytes_transferred / 1e6);
  b.set("campaign.inter_site_mb", res.inter_site_bytes / 1e6);
  b.set("campaign.max_active", res.max_active_clients);
  b.set("campaign.work", res.total_work);
  b.set("campaign.base_ref_transfers", res.base_ref_transfers);
  b.set("campaign.wall_ms_per_split",
        ratio(1e3 * first.run_s, res.total_splits));
  b.set("campaign.clauses_shared", res.clauses_shared);
  b.set("campaign.imports", res.clauses_imported);
  b.set("campaign.import_use_ratio",
        ratio(res.clauses_imported_used, res.clauses_imported));
  std::printf("campaign.import_use_ratio base: %llu used of %llu imported\n",
              ull(res.clauses_imported_used), ull(res.clauses_imported));
  b.set("campaign.relay_batches", res.site_relay_batches);
  b.set("campaign.digests", res.inter_site_digests);
  b.set("campaign.brokered_splits", res.brokered_splits);
  b.set("sim.events", first.events);
  b.set("sim.events_per_s", ratio(first.events, first.run_s));
  b.set("sim.virtual_per_wall", ratio(res.seconds, first.run_s));
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_str("workload", "", "local | grid-split | grid-share");
  flags.define_i64("seed", 1,
                   "workload seed: the same seed gives the same inputs");
  flags.define_f64("seconds", 10.0, "measurement budget of the closed loop");
  flags.define_i64("trace", 0, "0 = end-to-end metrics, 1 = per-layer");
  flags.define_str("spans", "",
                   "with --trace=1, write the benchmark's spans here");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("gridsat_perf").c_str(), stderr);
    return 2;
  }
  Options opt;
  opt.workload = flags.str("workload");
  opt.seed = static_cast<std::uint64_t>(flags.i64("seed"));
  opt.seconds = flags.f64("seconds");
  opt.trace = flags.i64("trace") != 0;
  opt.spans_path = flags.str("spans");
  Bench b(opt);
  if (opt.workload == "local") {
    run_local(b);
  } else if (opt.workload == "grid-split") {
    // Ship-heavy: splits, payload transfers and the flat master's handlers.
    run_grid(b, GridSpec{"pigeonhole-8",
                         [] { return gen::pigeonhole_unsat(8); }, 100, 0, 3,
                         false, 2.5, 0.0});
  } else if (opt.workload == "grid-share") {
    // Relay-heavy: hierarchical masters, clause relay and digests, proofs.
    run_grid(b, GridSpec{"urquhart-15",
                         [] { return gen::urquhart_like(15, 1); }, 64, 8, 10,
                         true, 0.75, 10.0});
  } else {
    std::fprintf(stderr, "unknown --workload=%s\n", opt.workload.c_str());
    return 2;
  }
  return b.finish();
}
