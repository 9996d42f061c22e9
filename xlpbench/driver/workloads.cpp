// The three in-process workloads: the default `xlp run` flow on 8x8, a busy
// 16x16 simulation, and the 64-router C sweep. Each calls the same public
// functions as the CLI subcommand it stands for (tools/xlp_cli.cpp).

#include <functional>
#include <optional>
#include <string>

#include "common.hpp"
#include "core/c_sweep.hpp"
#include "core/drivers.hpp"
#include "core/objective.hpp"
#include "latency/model.hpp"
#include "obs/canonical.hpp"
#include "obs/profiler.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats_json.hpp"
#include "spans.hpp"
#include "topo/builders.hpp"
#include "traffic/matrix.hpp"
#include "traffic/patterns.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xlpbench {

using xlp::obs::Json;

namespace {

/// Profiler scopes folded into per-layer metrics, by scope name.
struct ProfileTotals {
  std::map<std::string, double> seconds;
  void add_snapshot() {
    const xlp::obs::ProfileReport report = xlp::obs::Profiler::snapshot();
    for (const auto& e : report.entries()) seconds[e.name] += e.inclusive_seconds;
    xlp::obs::Profiler::reset();
  }
  [[nodiscard]] double ms(const std::string& name, double per) const {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second * 1e3 / per;
  }
};

/// Turns on span recording and the program's own profiler for the traced
/// iterations of a --trace 1 run, and off again for the untraced ones.
void set_tracing(bool on) {
  SpanRecorder::global().set_enabled(on);
  if (on) {
    xlp::obs::Profiler::reset();
    xlp::obs::Profiler::enable();
  } else {
    xlp::obs::Profiler::disable();
  }
}

/// Alternates `plain` (untraced) and `traced` iterations for `seconds`, at
/// least one of each, and returns trace.overhead_ratio: the median traced
/// wall time over the median untraced one, minus 1.
double alternate_traced(double seconds, const std::function<void()>& plain,
                        const std::function<void()>& traced,
                        ProfileTotals& profile, long* traced_runs) {
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  const auto start = Clock::now();
  while (plain_s.empty() || traced_s.empty() ||
         seconds_since(start) < seconds) {
    if (traced_s.size() < plain_s.size()) {
      set_tracing(true);
      traced_s.push_back(timed(traced));
      set_tracing(false);
      profile.add_snapshot();
    } else {
      plain_s.push_back(timed(plain));
    }
  }
  *traced_runs = static_cast<long>(traced_s.size());
  return median(traced_s) / median(plain_s) - 1.0;
}

/// Span totals per traced iteration, in ms; 0 for a name never recorded.
double span_ms(const std::map<std::string, SpanRecorder::Totals>& totals,
               const std::string& name, double per) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.inclusive_s * 1e3 / per;
}

/// Observes SA acceptance through the annealer's public cooling-step hook.
struct AcceptanceTally {
  long moves = 0;
  long accepted = 0;
  xlp::core::SaObserver observer() {
    return [this](const xlp::core::SaCoolingStep& step) {
      moves += step.window_moves;
      accepted += step.window_accepted;
    };
  }
};

/// The core-layer metrics of a traced run. `solve_ms` and the profiler
/// totals are per traced unit (`per` units were traced); `moves` is the SA
/// move count of one unit.
void core_layers(Outcome& out, const ProfileTotals& profile, double per,
                 double solve_ms, long moves, long evaluations,
                 const AcceptanceTally& tally, double placement_latency) {
  out.set("core.solve_dcsa_ms", solve_ms, "ms");
  out.set("core.sa_moves_per_s", static_cast<double>(moves) / (solve_ms * 1e-3),
          "1/s");
  out.set("core.sa_evaluate_ms", profile.ms("sa.evaluate", per), "ms");
  out.set("core.dnc_initial_ms", profile.ms("dnc.initial", per), "ms");
  out.set("core.evaluations", static_cast<double>(evaluations), "count");
  out.set("core.sa_acceptance_ratio",
          static_cast<double>(tally.accepted) / static_cast<double>(tally.moves),
          "ratio");
  out.set("core.placement_latency_cycles", placement_latency, "cycles");
  out.set("route.fw_ms",
          profile.ms("route.fw_rows", per) + profile.ms("route.fw_cols", per),
          "ms");
}

/// The sim-layer per-layer metrics of a traced run.
void sim_layers(Outcome& out, const ProfileTotals& profile,
                const std::map<std::string, SpanRecorder::Totals>& spans,
                double traced, const xlp::sim::SimStats& stats,
                long simulated_cycles, int routers) {
  const double run_ms = span_ms(spans, "sim.run", traced);
  out.set("sim.construct_ms", span_ms(spans, "sim.construct", traced), "ms");
  out.set("sim.run_ms", run_ms, "ms");
  out.set("sim.host_ns_per_router_cycle",
          run_ms * 1e6 / (static_cast<double>(simulated_cycles) * routers),
          "ns");
  out.set("sim.sw_alloc_ms", profile.ms("sim.sw_alloc", traced), "ms");
  out.set("sim.route_vc_alloc_ms", profile.ms("sim.route_vc_alloc", traced),
          "ms");
  out.set("sim.traverse_ms", profile.ms("sim.traverse", traced), "ms");
  out.set("sim.inject_ms", profile.ms("sim.inject", traced), "ms");
  out.set("sim.crossbar_traversals",
          static_cast<double>(stats.activity.crossbar_traversals), "count");
  out.set("sim.buffer_writes", static_cast<double>(stats.activity.buffer_writes),
          "count");
  out.set("sim.packets_finished", static_cast<double>(stats.packets_finished),
          "count");
  out.set("sim.flit_hops_per_s",
          static_cast<double>(stats.activity.crossbar_traversals) /
              (run_ms * 1e-3),
          "1/s");
  out.set("sim.contention_cycles_per_hop", stats.avg_contention_per_hop,
          "cycles");
  out.set("sim.pkt_latency_avg_cycles", stats.avg_latency, "cycles");
  out.set("sim.pkt_latency_p99_cycles", stats.p99_latency, "cycles");
}

/// Golden form of a simulation: the digest of its full stats document.
std::string stats_digest(const xlp::sim::SimStats& stats) {
  return xlp::obs::fnv1a64_hex(xlp::sim::stats_to_json(stats).dump());
}

bool drained(const xlp::sim::SimStats& stats) {
  return stats.drained && stats.status == xlp::runctl::RunStatus::kCompleted;
}

/// A golden record is only written for a simulation that drained.
void require_drained(const xlp::sim::SimStats& stats, const char* what) {
  if (!drained(stats))
    throw xlp::Error(xlp::ErrorCode::kState,
                     std::string(what) + ": simulation did not drain");
}

/// Counts an undrained simulation as a failed operation.
void check_drained(Outcome& out, const xlp::sim::SimStats& stats,
                   const char* what) {
  if (!drained(stats)) out.fail(std::string(what) + ": simulation did not drain");
}

}  // namespace

Outcome run_8x8_ur(const Options& opt) {
  using namespace xlp;
  constexpr int kN = 8;
  constexpr int kC = 4;
  constexpr long kMoves = 10000;
  constexpr long kCycles = 10000;
  constexpr double kLoad = 0.02;
  Rng master(static_cast<std::uint64_t>(opt.variant));
  const std::uint64_t solve_seed = master();
  const std::uint64_t sim_seed = master();

  Outcome out;
  // Set-up: the traffic matrix and the row objective, as `xlp run` builds
  // them before it solves. It takes microseconds, so each sample times a
  // batch of 100.
  std::optional<traffic::TrafficMatrix> demand;
  std::optional<core::RowObjective> objective;
  std::vector<double> setups;
  const auto sample_setup = [&] {
    constexpr int kBatch = 100;
    setups.push_back(timed([&] {
      for (int k = 0; k < kBatch; ++k) {
        demand.emplace(traffic::TrafficMatrix::from_pattern(
            traffic::Pattern::kUniformRandom, kN, kLoad));
        objective.emplace(kN, route::HopWeights{});
      }
    }) / kBatch);
  };
  sample_setup();

  sim::SimConfig config;
  config.measure_cycles = kCycles;
  config.seed = sim_seed;
  const long simulated_cycles = config.warmup_cycles + config.measure_cycles;

  AcceptanceTally tally;
  core::PlacementResult result;
  sim::SimStats stats;
  std::vector<double> sim_run_times;
  const auto iteration = [&] {
    core::SaParams params = core::SaParams{}.with_moves(kMoves);
    if (SpanRecorder::global().enabled()) params.observer = tally.observer();
    Rng rng(solve_seed);
    {
      const Span span("core.solve_dcsa");
      result = core::solve_dcsa(*objective, kC, params, rng);
    }
    std::optional<topo::ExpressMesh> design;
    {
      const Span span("topo.make_design");
      design.emplace(topo::make_design(result.placement, kC));
    }
    std::optional<sim::Network> network;
    {
      const Span span("route.network_build");
      network.emplace(*design, route::HopWeights{});
    }
    std::optional<sim::Simulator> simulator;
    {
      const Span span("sim.construct");
      simulator.emplace(*network, *demand, config);
    }
    const Span span("sim.run");
    sim_run_times.push_back(timed([&] { stats = simulator->run(); }));
  };
  const auto observed = [&] {
    return Json::object()
        .set("placement", result.placement.to_string())
        .set("value", exact(result.value))
        .set("stats_digest", stats_digest(stats));
  };

  if (opt.emit_golden) {
    iteration();
    require_drained(stats, "run_8x8_ur");
    out.golden_record = observed();
    return out;
  }

  const auto checked = [&] {
    iteration();
    ++out.attempted;
    check_drained(out, stats, "run_8x8_ur");
    check_golden(out, opt, observed(), "run_8x8_ur");
  };

  if (!opt.trace) {
    const std::vector<double> walls =
        repeat_for(opt.seconds, 3, checked, sample_setup);
    out.set("wall_s", floor_time(walls), "s");
    out.set("setup_s", floor_time(setups), "s");
    out.set("throughput_per_s",
            static_cast<double>(simulated_cycles) / floor_time(sim_run_times),
            "1/s");
    out.detail.set("wall_samples_s", samples(walls));
    out.detail.set("setup_samples_s", samples(setups));
    return out;
  }

  zero_layers(out);
  SpanRecorder::global().clear();
  // One traced set-up, so traffic.matrix_ms has its span.
  set_tracing(true);
  {
    const Span span("traffic.matrix");
    demand.emplace(traffic::TrafficMatrix::from_pattern(
        traffic::Pattern::kUniformRandom, kN, kLoad));
  }
  set_tracing(false);
  ProfileTotals profile;
  long traced = 0;
  const double overhead =
      alternate_traced(opt.seconds, checked, checked, profile, &traced);
  const auto spans = SpanRecorder::global().totals();
  const double per = static_cast<double>(traced);
  out.set("traffic.matrix_ms", span_ms(spans, "traffic.matrix", 1.0), "ms");
  core_layers(out, profile, per, span_ms(spans, "core.solve_dcsa", per), kMoves,
              result.evaluations, tally, result.value);
  out.set("route.network_build_ms", span_ms(spans, "route.network_build", per),
          "ms");
  sim_layers(out, profile, spans, per, stats, simulated_cycles, kN * kN);
  out.set("trace.overhead_ratio", overhead, "ratio");
  out.detail.set("spans", SpanRecorder::global().to_json());
  return out;
}

Outcome sim_16x16_ur_hot(const Options& opt) {
  using namespace xlp;
  constexpr int kN = 16;
  constexpr int kC = 4;
  constexpr long kMoves = 10000;
  constexpr long kCycles = 5000;
  constexpr double kLoad = 0.08;
  // One fixed design (the `xlp` default seed); the workload seed drives the
  // simulator's traffic, so every seed simulates the same network.
  constexpr std::uint64_t kSolveSeed = 1;
  Rng master(static_cast<std::uint64_t>(opt.variant));
  const std::uint64_t sim_seed = master();

  Outcome out;
  // Set-up: traffic matrix, the one-off D&C_SA P̄(16,4) solve, its 2D
  // design and the simulator's network (routing tables included).
  AcceptanceTally tally;
  std::optional<traffic::TrafficMatrix> demand;
  core::PlacementResult placement;
  std::optional<topo::ExpressMesh> design;
  std::optional<sim::Network> network;
  const auto setup = [&] {
    {
      const Span span("traffic.matrix");
      demand.emplace(traffic::TrafficMatrix::from_pattern(
          traffic::Pattern::kUniformRandom, kN, kLoad));
    }
    {
      const Span span("core.solve_dcsa");
      const core::RowObjective objective(kN, route::HopWeights{});
      core::SaParams params = core::SaParams{}.with_moves(kMoves);
      if (SpanRecorder::global().enabled()) params.observer = tally.observer();
      Rng rng(kSolveSeed);
      placement = core::solve_dcsa(objective, kC, params, rng);
    }
    {
      const Span span("topo.make_design");
      design.emplace(topo::make_design(placement.placement, kC));
    }
    const Span span("route.network_build");
    network.emplace(*design, route::HopWeights{});
  };

  sim::SimConfig config;
  config.measure_cycles = kCycles;
  config.seed = sim_seed;
  const long simulated_cycles = config.warmup_cycles + config.measure_cycles;

  sim::SimStats stats;
  std::vector<double> sim_run_times;
  const auto iteration = [&] {
    std::optional<sim::Simulator> simulator;
    {
      const Span span("sim.construct");
      simulator.emplace(*network, *demand, config);
    }
    const Span span("sim.run");
    sim_run_times.push_back(timed([&] { stats = simulator->run(); }));
  };
  const auto observed = [&] {
    return Json::object()
        .set("placement", placement.placement.to_string())
        .set("stats_digest", stats_digest(stats));
  };

  if (opt.emit_golden) {
    setup();
    iteration();
    require_drained(stats, "sim_16x16_ur_hot");
    out.golden_record = observed();
    return out;
  }

  const auto checked = [&] {
    iteration();
    ++out.attempted;
    check_drained(out, stats, "sim_16x16_ur_hot");
    check_golden(out, opt, observed(), "sim_16x16_ur_hot");
  };

  if (!opt.trace) {
    std::vector<double> setups{timed(setup)};
    const std::vector<double> walls = repeat_for(
        opt.seconds, 3, checked, [&] { setups.push_back(timed(setup)); });
    out.set("wall_s", floor_time(walls), "s");
    out.set("setup_s", floor_time(setups), "s");
    out.set("throughput_per_s",
            static_cast<double>(simulated_cycles) / floor_time(sim_run_times),
            "1/s");
    out.detail.set("wall_samples_s", samples(walls));
    out.detail.set("setup_samples_s", samples(setups));
    return out;
  }

  zero_layers(out);
  SpanRecorder::global().clear();
  set_tracing(true);
  setup();
  set_tracing(false);
  ProfileTotals setup_profile;
  setup_profile.add_snapshot();

  ProfileTotals profile;
  long traced = 0;
  const double overhead =
      alternate_traced(opt.seconds, checked, checked, profile, &traced);
  // Set-up spans ran once; sim.construct and sim.run once per iteration.
  const auto spans = SpanRecorder::global().totals();
  out.set("traffic.matrix_ms", span_ms(spans, "traffic.matrix", 1.0), "ms");
  core_layers(out, setup_profile, 1.0, span_ms(spans, "core.solve_dcsa", 1.0),
              kMoves, placement.evaluations, tally, placement.value);
  out.set("route.network_build_ms", span_ms(spans, "route.network_build", 1.0),
          "ms");
  sim_layers(out, profile, spans, static_cast<double>(traced), stats,
             simulated_cycles, kN * kN);
  out.set("trace.overhead_ratio", overhead, "ratio");
  out.detail.set("spans", SpanRecorder::global().to_json());
  return out;
}

namespace {

/// The limits core::sweep_link_limits visits: valid limits that divide the
/// base flit width (its feasible_limits() is file-local, so the replay
/// re-derives it from the same public rule).
std::vector<int> feasible_limits(int n, int base_flit_bits) {
  std::vector<int> limits;
  for (const int limit : xlp::topo::valid_link_limits(n))
    if (base_flit_bits % limit == 0) limits.push_back(limit);
  return limits;
}

/// Golden form of a sweep: every point's C, a digest of its placement and
/// its exact total latency.
Json sweep_record(const std::vector<xlp::core::SweepPoint>& points) {
  Json list = Json::array();
  for (const auto& p : points)
    list.push(Json::object()
                  .set("c", p.link_limit)
                  .set("placement_fnv", xlp::obs::fnv1a64_hex(
                                            p.placement.placement.to_string()))
                  .set("total", exact(p.breakdown.total())));
  return Json::object().set("points", std::move(list));
}

}  // namespace

Outcome sweep_64(const Options& opt) {
  using namespace xlp;
  constexpr int kN = 64;
  constexpr long kMoves = 10000;
  Rng master(static_cast<std::uint64_t>(opt.variant));
  const std::uint64_t sweep_seed = master();

  Outcome out;
  // `xlp sweep --n 64 --threads 1`: zero-load objective, 10,000 moves per
  // feasible C, one pool worker.
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(kMoves);
  options.latency = latency::LatencyParams::zero_load();
  options.threads = 1;

  // Set-up: the plain 64x64 mesh's analytic latency, the reference every
  // sweep point must beat.
  double mesh_total = 0.0;
  const auto setup = [&] {
    mesh_total = core::evaluate_design(topo::make_design(topo::RowTopology(kN),
                                                         1),
                                       options.latency, std::nullopt)
                     .total();
  };

  std::vector<core::SweepPoint> points;
  const auto iteration = [&] {
    Rng rng(sweep_seed);
    points = core::sweep_link_limits(kN, options, rng);
  };

  if (opt.emit_golden) {
    iteration();
    out.golden_record = sweep_record(points);
    return out;
  }

  std::vector<double> setups{timed(setup)};

  const auto checked = [&] {
    iteration();
    ++out.attempted;
    if (points.size() != feasible_limits(kN, options.base_flit_bits).size())
      out.fail("sweep_64: wrong number of sweep points");
    if (!points.empty() &&
        !(points[core::best_point(points)].breakdown.total() < mesh_total))
      out.fail("sweep_64: no sweep point beats the plain mesh");
    check_golden(out, opt, sweep_record(points), "sweep_64");
  };

  if (!opt.trace) {
    const std::vector<double> walls = repeat_for(
        opt.seconds, 3, checked, [&] { setups.push_back(timed(setup)); });
    out.set("wall_s", floor_time(walls), "s");
    out.set("setup_s", floor_time(setups), "s");
    out.set("throughput_per_s",
            static_cast<double>(kMoves * static_cast<long>(points.size())) /
                floor_time(walls),
            "1/s");
    out.detail.set("wall_samples_s", samples(walls));
    out.detail.set("setup_samples_s", samples(setups));
    out.detail.set("mesh_total_cycles", mesh_total);
    return out;
  }

  // Traced: replay the sweep cell by cell from its public parts, with a span
  // around each call, and prove the replay equals sweep_link_limits.
  zero_layers(out);
  SpanRecorder::global().clear();
  AcceptanceTally tally;
  long evaluations = 0;
  std::vector<core::SweepPoint> replayed;
  const auto replay = [&] {
    const Span sweep_span("core.sweep");
    Rng rng(sweep_seed);
    const std::vector<int> limits = feasible_limits(kN, options.base_flit_bits);
    std::vector<Rng> streams;
    for (std::size_t i = 0; i < limits.size(); ++i)
      streams.push_back(rng.fork(static_cast<std::uint64_t>(i)));
    replayed.assign(limits.size(), core::SweepPoint{});
    evaluations = 0;
    for (std::size_t i = 0; i < limits.size(); ++i) {
      const core::RowObjective objective(kN, options.latency.hop);
      core::SaParams params = options.sa;
      params.observer = tally.observer();
      core::SweepPoint& p = replayed[i];
      p.link_limit = limits[i];
      {
        const Span span("core.solve_dcsa");
        p.placement = core::solve_dcsa(objective, limits[i], params, streams[i],
                                       options.dnc);
      }
      evaluations += p.placement.evaluations;
      {
        const Span span("topo.make_design");
        p.design = topo::make_design(p.placement.placement, limits[i],
                                     options.base_flit_bits);
      }
      std::optional<latency::MeshLatencyModel> model;
      {
        const Span span("latency.model_build");
        model.emplace(p.design, options.latency);
      }
      const Span span("latency.average");
      p.breakdown = model->average();
    }
  };

  // sweep_link_limits runs untraced, the replay traced; every replay must
  // reproduce the points of the sweep_link_limits call before it.
  const auto checked_replay = [&] {
    replay();
    ++out.attempted;
    if (sweep_record(replayed).dump() != sweep_record(points).dump())
      out.fail("sweep_64: the traced replay differs from sweep_link_limits");
  };
  ProfileTotals profile;
  long traced = 0;
  const double overhead = alternate_traced(opt.seconds, checked, checked_replay,
                                           profile, &traced);
  const auto spans = SpanRecorder::global().totals();
  const double per = static_cast<double>(traced);
  core_layers(out, profile, per, span_ms(spans, "core.solve_dcsa", per),
              kMoves * static_cast<long>(replayed.size()), evaluations, tally,
              replayed[core::best_point(replayed)].breakdown.total());
  out.set("latency.model_build_ms", span_ms(spans, "latency.model_build", per),
          "ms");
  out.set("latency.average_ms", span_ms(spans, "latency.average", per), "ms");
  out.set("trace.overhead_ratio", overhead, "ratio");
  out.detail.set("spans", SpanRecorder::global().to_json());
  return out;
}

}  // namespace xlpbench
