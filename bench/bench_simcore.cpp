// Simulation-kernel scale-out bench (DESIGN.md §4g): measures the event
// core that has to sustain 1000+ simulated hosts.
//
// Three measurement modes, all emitted as "bench":"simcore" JSON-Lines
// rows (committed to BENCH_parallel.json):
//
//  * queue_micro — classic hold-model queue-operation throughput
//    (steady-state pop-min + push at a fixed pending population) for the
//    pre-PR kernel (std::priority_queue + std::function, embedded below
//    as LegacyEngine), the 4-ary index heap, and the calendar queue.
//
//  * hostload — a campaign-shaped messaging workload at N hosts
//    (per-host quantum loops, cancel-heavy watchdog re-arming, reports
//    to the master, clause-share relays fanned out to every other host)
//    run end to end on both systems: the pre-PR stack (LegacyEngine +
//    the string-record LegacyBus it shipped with, relaying one send per
//    recipient) and the new kernel with the POD MessageBus and batched
//    deliveries. Both simulate the identical virtual history, so the
//    speedup is a pure wall-clock ratio.
//    The acceptance row: >= 5x events/s at 1000 hosts.
//
//  * table2_scale — Table-2-style campaign rows on the synthetic grid at
//    100 and 1000 clients: verdict, virtual seconds, wall time, and the
//    kernel events/s the full protocol stack achieves.
//
//   ./bench_simcore
//   ./bench_simcore --quick --json=/tmp/BENCH_parallel.json
//   ./bench_simcore --json=BENCH_parallel.json --append
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/message_bus.hpp"
#include "sim/names.hpp"
#include "sim/network.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace gridsat;  // NOLINT

namespace {

// --- the pre-PR kernel, frozen for comparison --------------------------
// A faithful copy of the engine this PR replaced: one std::function per
// event in an ever-growing dense handler table, a std::priority_queue of
// (time, id), lazy cancellation via tombstones. Kept here so the speedup
// row compares kernels on the same hardware forever, not against a
// number measured on some past machine.
class LegacyEngine {
 public:
  using EventId = std::uint64_t;

  EventId schedule_at(double at, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{at < now_ ? now_ : at, id});
    handlers_.resize(id + 1);
    handlers_[id] = std::move(fn);
    ++live_events_;
    return id;
  }

  EventId schedule_in(double delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  void cancel(EventId id) {
    if (id < handlers_.size() && handlers_[id]) {
      handlers_[id] = nullptr;
      --live_events_;
    }
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_events_; }
  [[nodiscard]] std::uint64_t events_fired() const noexcept {
    return events_fired_;
  }

  bool step() {
    while (!queue_.empty()) {
      const Event ev = queue_.top();
      queue_.pop();
      auto& handler = handlers_[ev.id];
      if (!handler) continue;  // cancelled tombstone
      now_ = ev.at;
      auto fn = std::move(handler);
      handler = nullptr;
      --live_events_;
      ++events_fired_;
      fn();
      return true;
    }
    return false;
  }

  void run_until(double deadline) {
    while (!queue_.empty()) {
      const Event ev = queue_.top();
      if (!handlers_[ev.id]) {
        queue_.pop();
        continue;
      }
      if (ev.at > deadline) break;
      step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run() {
    while (step()) {
    }
  }

 private:
  struct Event {
    double at;
    EventId id;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  double now_ = 0.0;
  EventId next_id_ = 0;
  std::uint64_t events_fired_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::function<void()>> handlers_;
  std::size_t live_events_ = 0;
};

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Padding that brings handler captures to 32 bytes — the size class of
/// real campaign handlers (object pointer + indices + a shared_ptr),
/// over std::function's inline buffer but inside sim::Callback's.
struct Pad {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

// --- hold model: steady-state queue-operation throughput ---------------
template <class Engine>
struct Hold {
  Engine& engine;
  util::Xoshiro256 rng{13};
  std::uint64_t budget;

  void arm() {
    engine.schedule_in(rng.uniform() * 100.0, [this, pad = Pad{}] {
      (void)pad;
      if (budget > 0) {
        --budget;
        arm();
      }
    });
  }
};

template <class Engine>
double queue_ops_per_sec(std::size_t population, std::uint64_t events) {
  Engine engine;
  Hold<Engine> hold{engine, util::Xoshiro256{13}, events};
  for (std::size_t i = 0; i < population; ++i) hold.arm();
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  const double wall = wall_seconds_since(start);
  return static_cast<double>(engine.events_fired()) / wall;
}

/// sim::SimEngine with a queue kind chosen at construction, adapted to
/// the default-constructible shape the templates expect.
template <sim::QueueKind Kind>
struct KernelEngine : sim::SimEngine {
  KernelEngine() : sim::SimEngine(Kind) {}
};

// --- the pre-PR message layer, frozen alongside the engine -------------
// String-keyed network and string-record bus: the header carried five
// std::strings (built per send — the campaign concatenated
// "client:" + name on every message), the record was copied whether or
// not tracing was on, and a fan-out scheduled one engine event per
// recipient. All of that is what §4g replaced.
struct LegacyNetwork {
  sim::LinkSpec intra_site{0.0005, 12.0 * 1024 * 1024};
  sim::LinkSpec inter_site{0.030, 2.0 * 1024 * 1024};
  std::map<std::pair<std::string, std::string>, sim::LinkSpec> overrides;

  [[nodiscard]] double transfer_time(std::size_t bytes,
                                     const std::string& site_a,
                                     const std::string& site_b,
                                     bool same_host = false) const {
    if (same_host) return 1e-6;
    const auto it = overrides.find(site_a <= site_b
                                       ? std::make_pair(site_a, site_b)
                                       : std::make_pair(site_b, site_a));
    const sim::LinkSpec link = it != overrides.end()
                                   ? it->second
                                   : (site_a == site_b ? intra_site
                                                       : inter_site);
    return link.latency_s + static_cast<double>(bytes) / link.bandwidth_bps;
  }
};

struct LegacyRecord {
  double sent_at = 0.0;
  double delivered_at = 0.0;
  std::string from;
  std::string from_site;
  std::string to;
  std::string to_site;
  std::string kind;
  std::size_t bytes = 0;
};

struct LegacyBus {
  LegacyEngine& engine;
  LegacyNetwork& network;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;

  double send(const LegacyRecord& header, std::function<void()> handler) {
    const double delay =
        network.transfer_time(header.bytes, header.from_site, header.to_site,
                              /*same_host=*/header.from == header.to);
    LegacyRecord record = header;  // copied even with tracing off (pre-PR)
    record.sent_at = engine.now();
    record.delivered_at = engine.now() + delay;
    ++messages_sent;
    bytes_sent += header.bytes;
    engine.schedule_in(delay, std::move(handler));
    return delay;
  }
};

// --- hostload: campaign-shaped messaging workload at N hosts -----------
// Every host runs a ~1 s quantum loop: re-arm a 30 s watchdog (the
// split-timeout idiom — cancel + reschedule on every tick) and report to
// the master over the bus. Every kShareEvery-th quantum the report is a
// CLAUSES share; on its delivery the master relays the batch to every
// other host, exactly like Campaign::on_client_clauses (§3.2 "shares
// clauses globally as soon as they are generated"). The legacy side
// relays the pre-PR way — a per-recipient send loop with per-send string
// headers — while the new side folds the fan-out into a DeliveryBatch.
// The rng is drawn in firing order, which both systems reproduce
// exactly, so legacy and new simulate the same virtual history —
// identical message counts, identical delivery times — and wall time is
// the only difference.
constexpr std::uint64_t kShareEvery = 64;
constexpr std::size_t kHostSites = 16;
constexpr std::size_t kReportBytes = 96;
constexpr std::size_t kClauseBatchBytes = 2048;
struct HostLoadResult {
  std::uint64_t kernel_events = 0;
  std::uint64_t logical_events = 0;  ///< quanta + messages delivered
  std::uint64_t messages = 0;
  double wall_s = 0.0;

  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(logical_events) / wall_s : 0.0;
  }
};

struct LegacyHostLoad {
  std::size_t n;
  double horizon;
  util::Xoshiro256 rng;
  LegacyEngine engine;
  LegacyNetwork network;
  LegacyBus bus{engine, network};
  std::vector<std::string> name;
  std::vector<std::string> site;
  std::vector<std::uint64_t> watchdog;
  std::vector<std::uint64_t> quantum_no;
  std::uint64_t ticks = 0;
  std::uint64_t reports = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t watchdog_fires = 0;

  LegacyHostLoad(std::size_t n, double horizon, std::uint64_t seed)
      : n(n), horizon(horizon), rng(seed), watchdog(n, ~std::uint64_t{0}),
        quantum_no(n, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      name.push_back(util::indexed_name("g", i));
      site.push_back("site" + std::to_string(i % kHostSites));
    }
  }

  /// Mirror of the pre-PR Campaign::send: the caller passes strings,
  /// the header is built from copies of them, and LegacyBus::send
  /// copies the record once more.
  void send_msg(const std::string& from, const std::string& from_site,
                const std::string& to, const std::string& to_site,
                const std::string& kind, std::size_t bytes,
                std::function<void()> handler) {
    LegacyRecord h;
    h.from = from;
    h.from_site = from_site;
    h.to = to;
    h.to_site = to_site;
    h.kind = kind;
    h.bytes = bytes;
    bus.send(h, std::move(handler));
  }

  HostLoadResult run() {
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(rng.uniform(), [this, i, pad = Pad{}] {
        (void)pad;
        tick(i);
      });
    }
    const auto start = std::chrono::steady_clock::now();
    engine.run_until(horizon);
    HostLoadResult r;
    r.wall_s = wall_seconds_since(start);
    r.kernel_events = engine.events_fired();
    r.logical_events = ticks + reports + deliveries + watchdog_fires;
    r.messages = bus.messages_sent;
    return r;
  }

  void tick(std::size_t i) {
    ++ticks;
    if (engine.now() >= horizon) return;
    engine.cancel(watchdog[i]);
    watchdog[i] = engine.schedule_in(30.0, [this, pad = Pad{}] {
      (void)pad;
      ++watchdog_fires;
    });
    // Pre-PR send path: "client:" + name concatenated per message.
    if (++quantum_no[i] % kShareEvery == 0) {
      send_msg("client:" + name[i], site[i], "master", "site0", "CLAUSES",
               kClauseBatchBytes, [this, i, pad = Pad{}] {
                 (void)pad;
                 ++reports;
                 relay(i);
               });
    } else {
      send_msg("client:" + name[i], site[i], "master", "site0", "REPORT",
               kReportBytes, [this, pad = Pad{}] {
                 (void)pad;
                 ++reports;
               });
    }
    engine.schedule_in(0.8 + 0.4 * rng.uniform(), [this, i, pad = Pad{}] {
      (void)pad;
      tick(i);
    });
  }

  /// The pre-PR clause relay: one bus send per recipient, each with its
  /// own freshly concatenated string header.
  void relay(std::size_t from) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == from) continue;
      send_msg("master", "site0", "client:" + name[j], site[j], "CLAUSES",
               kClauseBatchBytes, [this, pad = Pad{}] {
                 (void)pad;
                 ++deliveries;
               });
    }
  }
};

struct KernelHostLoad {
  std::size_t n;
  double horizon;
  util::Xoshiro256 rng;
  sim::SimEngine engine;
  sim::NameTable names;
  sim::Network network{names};
  sim::MessageBus bus{engine, network};
  std::uint32_t master;
  std::uint32_t master_site;
  std::uint32_t report_kind;
  std::uint32_t clauses_kind;
  std::vector<std::uint32_t> endpoint;
  std::vector<std::uint32_t> site;
  std::vector<sim::EventId> watchdog;
  std::vector<std::uint64_t> quantum_no;
  std::uint64_t ticks = 0;
  std::uint64_t reports = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t watchdog_fires = 0;

  KernelHostLoad(sim::QueueKind kind, std::size_t n, double horizon,
                 std::uint64_t seed)
      : n(n), horizon(horizon), rng(seed), engine(kind),
        watchdog(n, sim::kNoEvent), quantum_no(n, 0) {
    master = names.intern("master");
    master_site = names.intern("site0");
    report_kind = names.intern("REPORT");
    clauses_kind = names.intern("CLAUSES");
    for (std::size_t i = 0; i < n; ++i) {
      // Interned once at registration, as the campaign does.
      endpoint.push_back(names.intern("client:g" + std::to_string(i)));
      site.push_back(names.intern("site" + std::to_string(i % kHostSites)));
    }
  }

  HostLoadResult run() {
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(rng.uniform(), [this, i, pad = Pad{}] {
        (void)pad;
        tick(i);
      });
    }
    const auto start = std::chrono::steady_clock::now();
    engine.run_until(horizon);
    HostLoadResult r;
    r.wall_s = wall_seconds_since(start);
    r.kernel_events = engine.events_fired();
    r.logical_events = ticks + reports + deliveries + watchdog_fires;
    r.messages = bus.messages_sent();
    return r;
  }

  void tick(std::size_t i) {
    ++ticks;
    if (engine.now() >= horizon) return;
    engine.cancel(watchdog[i]);
    watchdog[i] = engine.schedule_in(30.0, [this, pad = Pad{}] {
      (void)pad;
      ++watchdog_fires;
    });
    sim::MessageHeader h;  // POD send path: ids only
    h.from = endpoint[i];
    h.from_site = site[i];
    h.to = master;
    h.to_site = master_site;
    h.bytes = kReportBytes;
    if (++quantum_no[i] % kShareEvery == 0) {
      h.kind = clauses_kind;
      h.bytes = kClauseBatchBytes;
      bus.send(h, [this, i, pad = Pad{}] {
        (void)pad;
        ++reports;
        relay(i);
      });
    } else {
      h.kind = report_kind;
      bus.send(h, [this, pad = Pad{}] {
        (void)pad;
        ++reports;
      });
    }
    engine.schedule_in(0.8 + 0.4 * rng.uniform(), [this, i, pad = Pad{}] {
      (void)pad;
      tick(i);
    });
  }

  /// The §4g clause relay: the whole fan-out rides one DeliveryBatch —
  /// O(sites) engine events instead of one per recipient.
  void relay(std::size_t from) {
    sim::DeliveryBatch batch(bus, master, master_site, clauses_kind,
                             kClauseBatchBytes);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == from) continue;
      batch.add(endpoint[j], site[j], [this, pad = Pad{}] {
        (void)pad;
        ++deliveries;
      });
    }
    batch.flush();
  }
};

// --- table2_scale: the full protocol stack on the synthetic grid -------
struct ScaleRow {
  core::GridSatResult result;
  std::uint64_t kernel_events = 0;
  double wall_s = 0.0;
};

ScaleRow run_scale_row(const cnf::CnfFormula& formula, std::size_t n_hosts,
                       std::size_t sub_masters, std::uint64_t seed) {
  core::GridSatConfig config;
  config.solver.reduce_base = 1u << 30;
  config.share_max_len = 3;  // the Table-2 experiment set's setting
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 50000.0;
  config.min_client_memory = 1 << 20;
  config.sub_masters = sub_masters;  // 0 = flat master
  core::Campaign campaign(formula, "grid0",
                          core::testbeds::synthetic_grid(n_hosts, 8, seed),
                          config);
  const auto start = std::chrono::steady_clock::now();
  ScaleRow row;
  row.result = campaign.run();
  row.wall_s = wall_seconds_since(start);
  row.kernel_events = campaign.engine().events_fired();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_bool("quick", false, "CI smoke: shorter horizons, small sweep");
  flags.define_str("mode", "all",
                   "all | queue_micro | hostload | table2_scale");
  flags.define_str("instance", "pigeonhole-9",
                   "instance for the table2_scale rows");
  flags.define_str("topology", "both",
                   "table2_scale master topology: flat | hier | both");
  flags.define_i64("seed", 2003, "workload/testbed seed");
  flags.define_str("json", "", "write JSON-Lines rows to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_simcore").c_str(), stderr);
    return 2;
  }
  const bool quick = flags.boolean("quick");
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));
  const std::string& mode = flags.str("mode");
  const auto mode_on = [&mode](const char* name) {
    return mode == "all" || mode == name;
  };
  std::string json_rows;

  // --- queue-operation micro ------------------------------------------
  if (mode_on("queue_micro")) {
    std::printf("Queue-op micro (hold model): ops/s at fixed population\n");
    std::printf("%-12s %-14s %-14s %-14s\n", "population", "legacy",
                "quadheap", "calendar");
    std::vector<std::size_t> populations = {1024, 16384, 131072};
    if (quick) populations = {1024, 16384};
    for (const std::size_t population : populations) {
      const std::uint64_t events = quick ? 200000 : 1000000;
      const double legacy = queue_ops_per_sec<LegacyEngine>(population, events);
      const double quad =
          queue_ops_per_sec<KernelEngine<sim::QueueKind::kQuadHeap>>(population,
                                                                     events);
      const double calendar =
          queue_ops_per_sec<KernelEngine<sim::QueueKind::kCalendar>>(population,
                                                                     events);
      std::printf("%-12zu %-14.3e %-14.3e %-14.3e\n", population, legacy, quad,
                  calendar);
      std::fflush(stdout);
      for (const auto& [kernel, ops] :
           {std::pair<const char*, double>{"legacy", legacy},
            {"quadheap", quad},
            {"calendar", calendar}}) {
        util::JsonWriter json;
        json.begin_object()
            .field("bench", "simcore")
            .field("mode", "queue_micro")
            .field("kernel", kernel)
            .field("population", static_cast<std::uint64_t>(population))
            .field("ops_per_sec", ops)
            .end_object();
        json_rows += json.str();
        json_rows += '\n';
      }
    }

  }

  // --- hostload: events/s at N hosts ----------------------------------
  if (mode_on("hostload")) {
    const double horizon = quick ? 120.0 : 600.0;
    std::printf("\nHostload: campaign-shaped workload, horizon %.0f virtual s\n",
                horizon);
    std::printf("%-8s %-10s %-14s %-14s %-12s %-12s\n", "hosts", "kernel",
                "events/s", "virt-s/wall-s", "messages", "vs legacy");
    for (const std::size_t n_hosts : {std::size_t{100}, std::size_t{1000}}) {
      const HostLoadResult legacy =
          LegacyHostLoad(n_hosts, horizon, seed).run();
      const HostLoadResult calendar =
          KernelHostLoad(sim::QueueKind::kCalendar, n_hosts, horizon, seed)
              .run();
      const HostLoadResult quad =
          KernelHostLoad(sim::QueueKind::kQuadHeap, n_hosts, horizon, seed)
              .run();
      // Same seed, same virtual history: every system must deliver the
      // same messages and fire the same logical events. (Kernel event
      // counts legitimately differ — batching folds a broadcast into a
      // handful of group events.)
      if (legacy.logical_events != calendar.logical_events ||
          legacy.logical_events != quad.logical_events ||
          legacy.messages != calendar.messages ||
          legacy.messages != quad.messages) {
        std::fprintf(
            stderr,
            "workload divergence: logical events %llu/%llu/%llu, "
            "messages %llu/%llu/%llu (legacy/calendar/quadheap)\n",
            static_cast<unsigned long long>(legacy.logical_events),
            static_cast<unsigned long long>(calendar.logical_events),
            static_cast<unsigned long long>(quad.logical_events),
            static_cast<unsigned long long>(legacy.messages),
            static_cast<unsigned long long>(calendar.messages),
            static_cast<unsigned long long>(quad.messages));
        return 1;
      }
      const auto emit = [&](const char* kernel, const HostLoadResult& r) {
        const double speedup =
            legacy.wall_s > 0 && r.wall_s > 0 ? legacy.wall_s / r.wall_s : 0.0;
        std::printf("%-8zu %-10s %-14.3e %-14.1f %-12llu %-12.2f\n", n_hosts,
                    kernel, r.events_per_sec(), horizon / r.wall_s,
                    static_cast<unsigned long long>(r.messages), speedup);
        util::JsonWriter json;
        json.begin_object()
            .field("bench", "simcore")
            .field("mode", "hostload")
            .field("kernel", kernel)
            .field("hosts", static_cast<std::uint64_t>(n_hosts))
            .field("horizon_virtual_s", horizon)
            .field("logical_events", r.logical_events)
            .field("kernel_events", r.kernel_events)
            .field("messages", r.messages)
            .field("events_per_sec", r.events_per_sec())
            .field("virtual_s_per_wall_s", horizon / r.wall_s)
            .field("speedup_vs_legacy", speedup)
            .end_object();
        json_rows += json.str();
        json_rows += '\n';
      };
      emit("legacy", legacy);
      emit("calendar", calendar);
      emit("quadheap", quad);
      std::fflush(stdout);
    }

  }

  // --- table2_scale: full campaigns at 100 and 1000 clients ------------
  if (mode_on("table2_scale")) {
    const std::string instance =
        quick ? std::string("pigeonhole-8") : flags.str("instance");
    const cnf::CnfFormula formula = bench::resolve_instance(instance);
    const std::string& topo = flags.str("topology");
    std::vector<const char*> topologies;
    if (topo == "flat" || topo == "both") topologies.push_back("flat");
    if (topo == "hier" || topo == "both") topologies.push_back("hier");
    if (topologies.empty()) {
      std::fprintf(stderr, "unknown --topology=%s (flat | hier | both)\n",
                   topo.c_str());
      return 2;
    }
    std::printf("\nTable-2-style scale rows: %s on the synthetic grid\n",
                instance.c_str());
    std::printf("%-8s %-6s %-10s %-12s %-10s %-12s %-10s %-12s %-10s\n",
                "clients", "topo", "verdict", "virtual s", "wall s",
                "root msgs", "sub msgs", "x-site KiB", "splits");
    std::vector<std::size_t> scales = {100, 1000};
    if (quick) scales = {100};
    for (const std::size_t n_hosts : scales) {
      for (const char* topology : topologies) {
        // The synthetic grid spreads n_hosts over 8 sites; the
        // hierarchical topology gives every site its own sub-master.
        const std::size_t subs =
            std::string(topology) == "hier" ? std::size_t{8} : std::size_t{0};
        const ScaleRow row = run_scale_row(formula, n_hosts, subs, seed);
        const double eps =
            row.wall_s > 0 ? static_cast<double>(row.kernel_events) / row.wall_s
                           : 0.0;
        const core::GridSatResult& r = row.result;
        std::printf(
            "%-8zu %-6s %-10s %-12.1f %-10.2f %-12llu %-10llu %-12.1f "
            "%-10llu\n",
            n_hosts, topology, core::to_string(r.status), r.seconds, row.wall_s,
            static_cast<unsigned long long>(r.root_messages_handled),
            static_cast<unsigned long long>(r.sub_messages_handled),
            static_cast<double>(r.inter_site_bytes) / 1024.0,
            static_cast<unsigned long long>(r.total_splits));
        std::fflush(stdout);
        util::JsonWriter json;
        json.begin_object()
            .field("bench", "simcore")
            .field("mode", "table2_scale")
            .field("instance", instance)
            .field("topology", topology)
            .field("sub_masters", static_cast<std::uint64_t>(subs))
            .field("clients", static_cast<std::uint64_t>(n_hosts))
            .field("status", core::to_string(r.status))
            .field("virtual_seconds", r.seconds)
            .field("wall_seconds", row.wall_s)
            .field("kernel_events", row.kernel_events)
            .field("events_per_sec", eps)
            .field("max_active_clients",
                   static_cast<std::uint64_t>(r.max_active_clients))
            .field("splits", r.total_splits)
            .field("messages", r.messages)
            .field("root_messages", r.root_messages_handled)
            .field("sub_messages", r.sub_messages_handled)
            .field("inter_site_messages", r.inter_site_messages)
            .field("inter_site_bytes", r.inter_site_bytes)
            .field("site_relay_batches", r.site_relay_batches)
            .field("inter_site_digests", r.inter_site_digests)
            .field("brokered_splits", r.brokered_splits)
            .end_object();
        json_rows += json.str();
        json_rows += '\n';
      }
    }
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
