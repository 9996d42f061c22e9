// The paper's evaluation as registered suites: one suite per figure, table
// or extension study, named after the experiment and tagged "full". Run one
// with `xlp bench --filter '^fig08_synthetic/' --repeats 1 --warmup 0`;
// XLP_BENCH_SCALE shrinks SA budgets and simulated cycles. Table rows land
// in each benchmark's payload and the headline numbers (reductions,
// averages) in its counters; EXPERIMENTS.md holds the values the paper
// reports for comparison.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/app_specific.hpp"
#include "core/baselines.hpp"
#include "core/branch_bound.hpp"
#include "core/c_sweep.hpp"
#include "core/drivers.hpp"
#include "core/naive_sa.hpp"
#include "exp/scenarios.hpp"
#include "harness.hpp"
#include "latency/model.hpp"
#include "power/area.hpp"
#include "power/model.hpp"
#include "sim/throughput.hpp"
#include "suites.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "util/numeric.hpp"
#include "util/stopwatch.hpp"

namespace xlp::bench {

namespace {

using obs::Json;

void add_figure(const char* suite, std::string name, BenchFn fn) {
  register_bench(suite, std::move(name), "full", std::move(fn));
}

std::string size_name(int n) {
  return std::to_string(n) + "x" + std::to_string(n);
}

// One benchmark per network size 4x4, 8x8, 16x16.
void add_sizes(const char* suite, void (*body)(int, BenchRun&)) {
  for (const int n : {4, 8, 16})
    add_figure(suite, size_name(n), [body, n](BenchRun& run) { body(n, run); });
}

// One benchmark per problem P(n,C), named pN_C.
void add_problems(const char* suite,
                  std::initializer_list<std::pair<int, int>> problems,
                  void (*body)(int, int, BenchRun&)) {
  for (const auto& problem : problems) {
    const int n = problem.first, limit = problem.second;
    add_figure(suite, "p" + std::to_string(n) + "_" + std::to_string(limit),
               [body, n, limit](BenchRun& run) { body(n, limit, run); });
  }
}

std::string problem_label(int n, int limit) {
  return "P(" + std::to_string(n) + "," + std::to_string(limit) + ")";
}

// The design D&C_SA ships for an n x n network: the best point of the full
// general-purpose sweep, seed 42 — the design every figure after Fig. 5
// compares against Mesh and HFB.
core::SweepPoint dcsa_design(int n) {
  auto solved = exp::solve_general_purpose(n, core::Solver::kDcsa, 42);
  return std::move(solved.points[solved.best]);
}

// Fig. 5: average packet latency vs the link limit C for D&C_SA, the
// OnlySA ablation and the fixed Mesh/HFB points, with D&C_SA's head (L_D)
// and serialization (L_S) decomposition.
void fig05_size(int n, BenchRun& run) {
  core::SweepOptions options = exp::default_sweep_options(n);
  Rng dcsa_rng(1001 + n);
  const auto dcsa = core::sweep_link_limits(n, options, dcsa_rng);

  options.solver = core::Solver::kOnlySa;
  Rng only_rng(2002 + n);
  const auto only = core::sweep_link_limits(n, options, only_rng);

  const auto fixed = exp::fixed_designs(n);
  const double mesh_total =
      core::evaluate_design(fixed[0].design, options.latency,
                            options.report_traffic)
          .total();
  const double hfb_total =
      core::evaluate_design(fixed[1].design, options.latency,
                            options.report_traffic)
          .total();

  Json points = Json::array();
  for (std::size_t i = 0; i < dcsa.size(); ++i) {
    points.push(Json::object()
                    .set("c", dcsa[i].link_limit)
                    .set("dcsa_total", dcsa[i].breakdown.total())
                    .set("onlysa_total", only[i].breakdown.total())
                    .set("dcsa_head", dcsa[i].breakdown.head)
                    .set("serialization", dcsa[i].breakdown.serialization)
                    .set("placement",
                         dcsa[i].placement.placement.to_string()));
  }
  const auto& best = dcsa[core::best_point(dcsa)];
  const auto& best_only = only[core::best_point(only)];
  run.set_counter("best_c", best.link_limit);
  run.set_counter("best_total", best.breakdown.total());
  run.set_counter("reduction_vs_mesh_pct",
                  -percent_change(best.breakdown.total(), mesh_total));
  run.set_counter("reduction_vs_hfb_pct",
                  -percent_change(best.breakdown.total(), hfb_total));
  run.set_counter("onlysa_gap_pct",
                  percent_change(best_only.breakdown.total(),
                                 best.breakdown.total()));
  run.set_payload(Json::object()
                      .set("n", n)
                      .set("mesh_total", mesh_total)
                      .set("hfb_total", hfb_total)
                      .set("hfb_c", fixed[1].design.link_limit())
                      .set("best_placement",
                           best.placement.placement.to_string())
                      .set("points", std::move(points)));
}

// Fig. 6: simulated average packet latency of Mesh, HFB and D&C_SA on 8x8
// for each PARSEC benchmark at its own load.
void fig06(BenchRun& run) {
  const auto best = dcsa_design(8);
  const auto fixed = exp::fixed_designs(8);

  Json rows = Json::array();
  double mesh_sum = 0, hfb_sum = 0, dcsa_sum = 0;
  for (const auto& model : traffic::parsec_models()) {
    const auto demand = model.traffic_matrix(8);
    const auto config = exp::default_sim_config(7);
    const auto mesh = exp::simulate_design(fixed[0].design, demand, config);
    const auto hfb = exp::simulate_design(fixed[1].design, demand, config);
    const auto dcsa = exp::simulate_design(best.design, demand, config);
    exp::warn_if_undrained(mesh, "fig06 mesh/" + model.name);
    exp::warn_if_undrained(hfb, "fig06 hfb/" + model.name);
    exp::warn_if_undrained(dcsa, "fig06 dcsa/" + model.name);
    mesh_sum += mesh.avg_latency;
    hfb_sum += hfb.avg_latency;
    dcsa_sum += dcsa.avg_latency;
    rows.push(Json::object()
                  .set("benchmark", model.name)
                  .set("mesh", mesh.avg_latency)
                  .set("hfb", hfb.avg_latency)
                  .set("dcsa", dcsa.avg_latency)
                  .set("vs_mesh_pct",
                       -percent_change(dcsa.avg_latency, mesh.avg_latency))
                  .set("vs_hfb_pct",
                       -percent_change(dcsa.avg_latency, hfb.avg_latency)));
  }
  const double k = traffic::parsec_models().size();
  run.set_counter("mesh_avg", mesh_sum / k);
  run.set_counter("hfb_avg", hfb_sum / k);
  run.set_counter("dcsa_avg", dcsa_sum / k);
  run.set_counter("reduction_vs_mesh_pct", -percent_change(dcsa_sum, mesh_sum));
  run.set_counter("reduction_vs_hfb_pct", -percent_change(dcsa_sum, hfb_sum));
  run.set_payload(Json::object()
                      .set("dcsa_c", best.link_limit)
                      .set("dcsa_placement",
                           best.placement.placement.to_string())
                      .set("benchmarks", std::move(rows)));
}

double design_latency(const topo::RowTopology& row, int limit, int n) {
  const auto design = topo::make_design(row, limit);
  return core::evaluate_design(design,
                               latency::LatencyParams::parsec_typical(),
                               traffic::parsec_average_matrix(n))
      .total();
}

// One Fig. 7 series: latency of D&C_SA vs OnlySA at equal evaluation
// budgets, normalized to the initializer cost I(n,4). The whole series is
// the benchmark's payload; the timed quantity is the full experiment.
void fig07_series(int n, const std::vector<double>& budgets, double scale,
                  int seeds, BenchRun& run) {
  constexpr int kLimit = 4;
  const core::RowObjective objective(n, route::HopWeights{});
  const core::PlacementResult dnc = core::solve_dnc_only(objective, kLimit);
  const double unit = static_cast<double>(dnc.evaluations);

  Json points = Json::array();
  for (const double budget_units : budgets) {
    const long budget_evals =
        std::max<long>(1, static_cast<long>(budget_units * unit * scale));
    const long dcsa_moves =
        std::max<long>(0, budget_evals - dnc.evaluations);
    const long only_moves = budget_evals;

    double dcsa_sum = 0.0, only_sum = 0.0;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng r1(static_cast<std::uint64_t>(seed * 17 + n));
      Rng r2(static_cast<std::uint64_t>(seed * 31 + n + 1));
      const auto dcsa = core::solve_dcsa(
          objective, kLimit,
          exp::paper_sa_params().with_moves(std::max<long>(1, dcsa_moves)),
          r1);
      const auto only = core::solve_only_sa(
          objective, kLimit, exp::paper_sa_params().with_moves(only_moves),
          r2);
      dcsa_sum += design_latency(dcsa.placement, kLimit, n);
      only_sum += design_latency(only.placement, kLimit, n);
    }
    points.push(Json::object()
                    .set("runtime_units", budget_units)
                    .set("budget_evals", budget_evals)
                    .set("dcsa_latency", dcsa_sum / seeds)
                    .set("onlysa_latency", only_sum / seeds));
  }
  run.set_counter("unit_evals", unit);
  run.set_payload(Json::object()
                      .set("figure", "fig07")
                      .set("n", n)
                      .set("unit_evals", static_cast<long>(unit))
                      .set("points", std::move(points)));
}

void register_fig07() {
  register_bench("fig07_runtime", "smoke_8x8", "smoke", [](BenchRun& run) {
    fig07_series(8, {1.0, 5.0, 30.0}, 0.05, 1, run);
  });
  const std::vector<double> full = {1.0,   2.0,   5.0,   10.0,
                                    30.0, 100.0, 300.0, 1000.0};
  for (const int n : {8, 16}) {
    add_figure("fig07_runtime", size_name(n), [n, full](BenchRun& run) {
      fig07_series(n, full, exp::bench_scale(), 3, run);
    });
  }
}

// Fig. 8: (a) average packet latency at a low load and (b) saturation
// throughput for uniform random, transpose and bit-reverse traffic on 8x8.
void fig08(BenchRun& run) {
  const auto best = dcsa_design(8);
  const auto fixed = exp::fixed_designs(8);

  const sim::Network mesh_net(fixed[0].design, route::HopWeights{});
  const sim::Network hfb_net(fixed[1].design, route::HopWeights{});
  const sim::Network dcsa_net(best.design, route::HopWeights{});

  const std::vector<std::pair<std::string, traffic::Pattern>> patterns = {
      {"UR", traffic::Pattern::kUniformRandom},
      {"TP", traffic::Pattern::kTranspose},
      {"BR", traffic::Pattern::kBitReverse}};

  sim::SimConfig low_cfg = exp::default_sim_config(3);
  sim::SimConfig sat_cfg = exp::default_sim_config(4);
  sat_cfg.warmup_cycles = std::max<long>(150, sat_cfg.warmup_cycles / 4);
  sat_cfg.measure_cycles = std::max<long>(800, sat_cfg.measure_cycles / 5);
  sat_cfg.drain_cycles = std::max<long>(800, sat_cfg.drain_cycles / 10);
  constexpr double kLowLoad = 0.02;  // packets/node/cycle, PARSEC-like

  const char* designs[3] = {"mesh", "hfb", "dcsa"};
  Json rows = Json::array();
  double lat[3] = {0, 0, 0};
  double thr[3] = {0, 0, 0};
  for (const auto& [name, pattern] : patterns) {
    const auto shape = traffic::TrafficMatrix::from_pattern(pattern, 8, 1.0);
    const sim::Network* nets[3] = {&mesh_net, &hfb_net, &dcsa_net};
    Json row = Json::object().set("pattern", name);
    for (int i = 0; i < 3; ++i) {
      const double row_lat =
          sim::simulate_at_load(*nets[i], shape, kLowLoad, low_cfg)
              .avg_latency;
      const double row_thr =
          sim::find_saturation(*nets[i], shape, sat_cfg, 0.04, 0.5)
              .saturation_throughput;
      row.set(std::string(designs[i]) + "_latency", row_lat);
      row.set(std::string(designs[i]) + "_throughput", row_thr);
      lat[i] += row_lat;
      thr[i] += row_thr;
    }
    rows.push(std::move(row));
  }
  const double k = static_cast<double>(patterns.size());
  for (int i = 0; i < 3; ++i) {
    run.set_counter(std::string(designs[i]) + "_latency_avg", lat[i] / k);
    run.set_counter(std::string(designs[i]) + "_throughput_avg", thr[i] / k);
  }
  run.set_counter("latency_cut_vs_mesh_pct", -percent_change(lat[2], lat[0]));
  run.set_counter("latency_cut_vs_hfb_pct", -percent_change(lat[2], lat[1]));
  run.set_counter("throughput_gain_vs_hfb_pct",
                  percent_change(thr[2], thr[1]));
  run.set_counter("throughput_share_of_mesh_pct", 100.0 * thr[2] / thr[0]);
  run.set_payload(Json::object()
                      .set("low_load", kLowLoad)
                      .set("patterns", std::move(rows)));
}

// Fig. 9: router power per PARSEC benchmark on 8x8, static and dynamic,
// normalized to the Mesh total as in the paper's plot.
void fig09(BenchRun& run) {
  const auto best = dcsa_design(8);
  const auto fixed = exp::fixed_designs(8);

  Json rows = Json::array();
  double totals[3] = {0, 0, 0};
  double dynamics[3] = {0, 0, 0};
  double statics[3] = {0, 0, 0};
  for (const auto& model : traffic::parsec_models()) {
    const auto demand = model.traffic_matrix(8);
    const auto config = exp::default_sim_config(11);

    const topo::ExpressMesh* designs[3] = {&fixed[0].design, &fixed[1].design,
                                           &best.design};
    power::PowerReport reports[3];
    for (int i = 0; i < 3; ++i) {
      const auto stats = exp::simulate_design(*designs[i], demand, config);
      reports[i] = power::evaluate_power(*designs[i], stats.activity,
                                         config.buffer_bits_per_router);
      totals[i] += reports[i].total();
      dynamics[i] += reports[i].dynamic_total();
      statics[i] += reports[i].static_total();
    }
    const double mesh_total = reports[0].total();
    rows.push(Json::object()
                  .set("benchmark", model.name)
                  .set("mesh_static", reports[0].static_total() / mesh_total)
                  .set("mesh_dynamic", reports[0].dynamic_total() / mesh_total)
                  .set("hfb_static", reports[1].static_total() / mesh_total)
                  .set("hfb_dynamic", reports[1].dynamic_total() / mesh_total)
                  .set("dcsa_static", reports[2].static_total() / mesh_total)
                  .set("dcsa_dynamic",
                       reports[2].dynamic_total() / mesh_total));
  }
  run.set_counter("total_cut_vs_mesh_pct",
                  -percent_change(totals[2], totals[0]));
  run.set_counter("total_cut_vs_hfb_pct",
                  -percent_change(totals[2], totals[1]));
  run.set_counter("dynamic_cut_vs_mesh_pct",
                  -percent_change(dynamics[2], dynamics[0]));
  run.set_counter("dynamic_cut_vs_hfb_pct",
                  -percent_change(dynamics[2], dynamics[1]));
  run.set_counter("static_share_of_mesh_pct",
                  100.0 * statics[0] / totals[0]);
  run.set_payload(Json::object().set("benchmarks", std::move(rows)));
}

// Fig. 10: router static power split into buffer, crossbar and others on
// 8x8. Static power does not depend on the workload (Section 4.6), so no
// simulation runs.
void fig10(BenchRun& run) {
  const auto best = dcsa_design(8);
  const auto fixed = exp::fixed_designs(8);
  const long buffer_budget = sim::SimConfig{}.buffer_bits_per_router;

  // Zero activity: only static terms are relevant here.
  auto zero_activity = [](int flit_bits) {
    sim::ActivityCounters a;
    a.measured_cycles = 1;
    a.flit_bits = flit_bits;
    return a;
  };

  const std::vector<std::pair<std::string, const topo::ExpressMesh*>> schemes =
      {{"Mesh", &fixed[0].design},
       {"HFB", &fixed[1].design},
       {"D&C_SA", &best.design}};
  Json rows = Json::array();
  for (const auto& [name, design] : schemes) {
    const auto report = power::evaluate_power(
        *design, zero_activity(design->flit_bits()), buffer_budget);
    const auto area = power::evaluate_area(*design, buffer_budget);
    rows.push(Json::object()
                  .set("scheme", name)
                  .set("buffer_w", report.static_buffer_w)
                  .set("crossbar_w", report.static_crossbar_w)
                  .set("others_w", report.static_other_w)
                  .set("static_w", report.static_total())
                  .set("avg_ports", design->average_router_ports())
                  .set("table_overhead_pct",
                       100.0 * area.table_overhead_fraction()));
  }
  run.set_payload(Json::object().set("schemes", std::move(rows)));
}

// Table 2: maximum zero-load packet latency between any two routers. Mesh
// and HFB are analytic; D&C_SA is the design of the full sweep chosen by
// *average* latency (the paper's flow), reported by its worst case.
void table2_size(int n, BenchRun& run) {
  const auto params = latency::LatencyParams::zero_load();
  const auto fixed = exp::fixed_designs(n);
  const double mesh =
      latency::MeshLatencyModel(fixed[0].design, params).worst_case();
  const double hfb =
      latency::MeshLatencyModel(fixed[1].design, params).worst_case();
  const auto best = dcsa_design(n);
  const double dcsa =
      latency::MeshLatencyModel(best.design, params).worst_case();
  run.set_payload(Json::object()
                      .set("n", n)
                      .set("mesh_worst", mesh)
                      .set("hfb_worst", hfb)
                      .set("dcsa_worst", dcsa));
}

// Fig. 11: the bisection-bandwidth budget on 8x8 at 1.0 GHz. 2 KGb/s is
// 128-bit baseline flits, 8 KGb/s is 512-bit flits: a mesh gains only
// serialization from extra bandwidth, good express placement converts it
// into latency.
void fig11(BenchRun& run) {
  struct BandwidthCase {
    const char* label;
    int base_flit_bits;
  };
  constexpr int n = 8;
  const BandwidthCase cases[] = {{"2KGb/s", 128}, {"4KGb/s", 256},
                                 {"8KGb/s", 512}};

  Json budgets = Json::array();
  double mesh_first = 0.0, mesh_last = 0.0;
  double dcsa_first = 0.0, dcsa_last = 0.0;
  for (const auto& bw : cases) {
    core::SweepOptions options = exp::default_sweep_options(n);
    options.base_flit_bits = bw.base_flit_bits;
    Rng rng(17);
    const auto points = core::sweep_link_limits(n, options, rng);

    const auto mesh = topo::make_mesh(n, bw.base_flit_bits);
    const auto hfb = topo::make_hfb(n, bw.base_flit_bits);
    const double mesh_total =
        core::evaluate_design(mesh, options.latency, options.report_traffic)
            .total();
    const double hfb_total =
        core::evaluate_design(hfb, options.latency, options.report_traffic)
            .total();

    Json sweep = Json::array();
    for (const auto& p : points)
      sweep.push(Json::object()
                     .set("c", p.link_limit)
                     .set("dcsa_total", p.breakdown.total())
                     .set("dcsa_head", p.breakdown.head)
                     .set("serialization", p.breakdown.serialization));
    const auto& best = points[core::best_point(points)];
    budgets.push(Json::object()
                     .set("budget", bw.label)
                     .set("base_flit_bits", bw.base_flit_bits)
                     .set("mesh_total", mesh_total)
                     .set("hfb_total", hfb_total)
                     .set("best_c", best.link_limit)
                     .set("best_total", best.breakdown.total())
                     .set("points", std::move(sweep)));
    if (bw.base_flit_bits == 128) {
      mesh_first = mesh_total;
      dcsa_first = best.breakdown.total();
    }
    if (bw.base_flit_bits == 512) {
      mesh_last = mesh_total;
      dcsa_last = best.breakdown.total();
    }
  }
  run.set_counter("mesh_improvement_pct",
                  -percent_change(mesh_last, mesh_first));
  run.set_counter("dcsa_improvement_pct",
                  -percent_change(dcsa_last, dcsa_first));
  run.set_payload(Json::object().set("budgets", std::move(budgets)));
}

// Fig. 12: D&C_SA against the exhaustive branch-and-bound optimum on one
// verifiable problem P(n,C). The paper's runtime ratio is exact_ns /
// dcsa_ns; both are wall times, so --deterministic zeroes them.
void fig12_problem(int n, int limit, BenchRun& run) {
  const core::RowObjective obj(n, route::HopWeights{});

  Stopwatch bb_timer;
  const long evals_before_bb = obj.evaluations();
  core::BranchAndBound bb(obj, limit);
  const core::ExactResult exact = bb.solve();
  const double bb_seconds = bb_timer.seconds();
  const long bb_evals = obj.evaluations() - evals_before_bb;

  Rng rng(static_cast<std::uint64_t>(n * 100 + limit));
  const core::PlacementResult dcsa =
      core::solve_dcsa(obj, limit, exp::paper_sa_params(), rng);

  run.set_time_ns("exact_ns", bb_seconds * 1e9);
  run.set_time_ns("dcsa_ns", dcsa.seconds * 1e9);
  run.set_payload(
      Json::object()
          .set("problem", problem_label(n, limit))
          .set("optimal", exact.value)
          .set("dcsa", dcsa.value)
          .set("gap_pct", percent_change(dcsa.value, exact.value))
          .set("evals_ratio", static_cast<double>(bb_evals) /
                                  static_cast<double>(dcsa.evaluations)));
}

// Section 5.6.4: application-specific placement. Each row and column is
// optimized for the workload's own traffic matrix and compared with the
// best general-purpose design on that workload. The synthetic PARSEC
// stand-ins are closer to uniform than measured coherence traffic (see
// EXPERIMENTS.md), so the same flow also runs on strongly skewed patterns.
void app_specific(BenchRun& run) {
  constexpr int n = 8;
  const double scale = exp::bench_scale();
  core::SweepOptions options;
  options.sa = exp::paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(2000 * scale)));
  options.latency = latency::LatencyParams::parsec_typical();

  // General-purpose design (uniform objective), reused for all workloads.
  Rng gp_rng(42);
  core::SweepOptions gp_options = options;
  gp_options.sa = exp::paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(10000 * scale)));
  const auto gp_points = core::sweep_link_limits(n, gp_options, gp_rng);

  // Best general-purpose point on `demand` against the app-specific design.
  const auto compare = [&](const std::string& workload,
                           const traffic::TrafficMatrix& demand, Rng& rng,
                           double& reduction_sum) {
    double gp_best = 0.0;
    bool first = true;
    for (const auto& p : gp_points) {
      const double value =
          core::evaluate_design(p.design, options.latency, demand).total();
      if (first || value < gp_best) gp_best = value;
      first = false;
    }
    const auto app = core::solve_app_specific(demand, options, rng);
    const double reduction = -percent_change(app.breakdown.total(), gp_best);
    reduction_sum += reduction;
    return Json::object()
        .set("workload", workload)
        .set("general_purpose", gp_best)
        .set("app_specific", app.breakdown.total())
        .set("extra_cut_pct", reduction)
        .set("c_app", app.link_limit);
  };

  Json parsec = Json::array();
  double parsec_total = 0.0;
  for (const auto& model : traffic::parsec_models()) {
    Rng rng(static_cast<std::uint64_t>(std::hash<std::string>{}(model.name)));
    parsec.push(compare(model.name, model.traffic_matrix(n), rng,
                        parsec_total));
  }

  Json skewed = Json::array();
  double skew_total = 0.0;
  int skew_count = 0;
  for (const auto pattern :
       {traffic::Pattern::kTranspose, traffic::Pattern::kBitReverse,
        traffic::Pattern::kHotspot, traffic::Pattern::kNeighbor}) {
    Rng rng(static_cast<std::uint64_t>(17 + static_cast<int>(pattern)));
    skewed.push(compare(traffic::to_string(pattern),
                        traffic::TrafficMatrix::from_pattern(pattern, n, 0.02),
                        rng, skew_total));
    ++skew_count;
  }
  run.set_counter("avg_extra_cut_pct",
                  parsec_total / traffic::parsec_models().size());
  run.set_counter("skewed_avg_extra_cut_pct", skew_total / skew_count);
  run.set_payload(Json::object()
                      .set("parsec", std::move(parsec))
                      .set("skewed", std::move(skewed)));
}

// Ablation of Section 4.4's two ingredients at equal move budgets: the
// candidate generator (connection-matrix moves, always valid, against
// naive add/delete/stretch/shorten link moves that waste budget on
// infeasible candidates) and the initial solution (D&C, random, plain row).
// The objective is the average row head latency, lower is better.
void ablation_problem(int n, int limit, BenchRun& run) {
  const double scale = exp::bench_scale();
  const long moves = std::max<long>(200, static_cast<long>(10000 * scale));
  const core::SaParams params = exp::paper_sa_params().with_moves(moves);
  constexpr int kSeeds = 5;
  const core::RowObjective obj(n, route::HopWeights{});

  double matrix_dc = 0.0, matrix_rand = 0.0, naive_plain = 0.0;
  double invalid_share = 0.0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng r1(seed), r2(seed + 50), r3(seed + 100);
    matrix_dc += core::solve_dcsa(obj, limit, params, r1).value;
    matrix_rand += core::solve_only_sa(obj, limit, params, r2).value;
    const auto naive = core::anneal_naive_links(topo::RowTopology(n), obj,
                                                limit, params, r3);
    naive_plain += naive.best_value;
    invalid_share += static_cast<double>(naive.invalid_moves) /
                     static_cast<double>(params.total_moves);
  }

  const auto row = [](const char* generator, const char* initial,
                      double objective, double invalid_pct) {
    return Json::object()
        .set("generator", generator)
        .set("initial", initial)
        .set("objective", objective)
        .set("invalid_pct", invalid_pct);
  };
  run.set_payload(
      Json::object()
          .set("problem", problem_label(n, limit))
          .set("moves", moves)
          .set("seeds", kSeeds)
          .set("rows", Json::array()
                           .push(row("connection-matrix", "D&C",
                                     matrix_dc / kSeeds, 0.0))
                           .push(row("connection-matrix", "random",
                                     matrix_rand / kSeeds, 0.0))
                           .push(row("naive link moves", "plain row",
                                     naive_plain / kSeeds,
                                     100.0 * invalid_share / kSeeds))));
}

// Section 4.2's routing claims behind assuming dimension-order routing:
// at PARSEC loads contention per hop stays under one cycle and XY vs a
// non-DOR scheme differs by under 1%; the non-DOR scheme (O1TURN: random
// XY/YX per packet on disjoint VC classes) only pays off near saturation
// on adversarial patterns.
void routing_comparison(BenchRun& run) {
  const auto mesh = topo::make_mesh(8);
  const sim::Network net(mesh, route::HopWeights{});

  Json parsec = Json::array();
  double diff_sum = 0.0;
  double worst_contention = 0.0;
  for (const auto& model : traffic::parsec_models()) {
    const auto demand = model.traffic_matrix(8);
    sim::SimConfig xy_cfg = exp::default_sim_config(3);
    sim::SimConfig o1_cfg = xy_cfg;
    o1_cfg.routing = sim::RoutingMode::kO1Turn;

    const auto xy = exp::simulate_design(mesh, demand, xy_cfg);
    const auto o1 = exp::simulate_design(mesh, demand, o1_cfg);
    exp::warn_if_undrained(xy, "routing_comparison xy/" + model.name);
    exp::warn_if_undrained(o1, "routing_comparison o1turn/" + model.name);
    const double diff = percent_change(o1.avg_latency, xy.avg_latency);
    diff_sum += std::abs(diff);
    worst_contention = std::max(worst_contention, xy.avg_contention_per_hop);
    parsec.push(Json::object()
                    .set("benchmark", model.name)
                    .set("xy_latency", xy.avg_latency)
                    .set("o1turn_latency", o1.avg_latency)
                    .set("diff_pct", diff)
                    .set("xy_contention_per_hop", xy.avg_contention_per_hop));
  }
  run.set_counter("mean_abs_diff_pct",
                  diff_sum / traffic::parsec_models().size());
  run.set_counter("worst_contention_per_hop", worst_contention);

  sim::SimConfig sat_cfg = exp::default_sim_config(4);
  sat_cfg.warmup_cycles = 200;
  sat_cfg.measure_cycles = 1200;
  sat_cfg.drain_cycles = 1200;
  sim::SimConfig sat_o1 = sat_cfg;
  sat_o1.routing = sim::RoutingMode::kO1Turn;

  Json saturation = Json::array();
  for (const auto pattern :
       {traffic::Pattern::kUniformRandom, traffic::Pattern::kTranspose}) {
    const auto shape = traffic::TrafficMatrix::from_pattern(pattern, 8, 1.0);
    const double xy_thr =
        find_saturation(net, shape, sat_cfg, 0.04, 0.5).saturation_throughput;
    const double o1_thr =
        find_saturation(net, shape, sat_o1, 0.04, 0.5).saturation_throughput;
    saturation.push(Json::object()
                        .set("pattern", traffic::to_string(pattern))
                        .set("xy", xy_thr)
                        .set("o1turn", o1_thr));
  }
  run.set_payload(Json::object()
                      .set("parsec", std::move(parsec))
                      .set("saturation", std::move(saturation)));
}

// Section 2.1 (after Chen et al. [6]): virtual express channels (an
// idealized upper bound — every straight-through flit skips the front
// pipeline stages) against physical express links. Physical bypass should
// win on long-haul zero-load latency and on dynamic power, since VEC still
// buffers and switches every flit at every router.
void virtual_vs_physical(BenchRun& run) {
  const auto best = dcsa_design(8);
  const auto mesh = topo::make_mesh(8);
  const auto hfb = topo::make_hfb(8);

  Json rows = Json::array();
  double sums[4] = {0, 0, 0, 0};
  double power_vec = 0.0, power_phys = 0.0;
  for (const auto& model : traffic::parsec_models()) {
    const auto demand = model.traffic_matrix(8);
    sim::SimConfig plain = exp::default_sim_config(21);
    sim::SimConfig vec = plain;
    vec.virtual_express_bypass = true;

    const auto mesh_stats = exp::simulate_design(mesh, demand, plain);
    const auto vec_stats = exp::simulate_design(mesh, demand, vec);
    const auto hfb_stats = exp::simulate_design(hfb, demand, plain);
    const auto dcsa_stats = exp::simulate_design(best.design, demand, plain);
    exp::warn_if_undrained(mesh_stats, "virtual_vs_physical mesh/" +
                                           model.name);
    exp::warn_if_undrained(vec_stats, "virtual_vs_physical vec/" +
                                          model.name);
    exp::warn_if_undrained(hfb_stats, "virtual_vs_physical hfb/" +
                                          model.name);
    exp::warn_if_undrained(dcsa_stats, "virtual_vs_physical dcsa/" +
                                           model.name);

    power_vec += power::evaluate_power(mesh, vec_stats.activity,
                                       plain.buffer_bits_per_router)
                     .total();
    power_phys += power::evaluate_power(best.design, dcsa_stats.activity,
                                        plain.buffer_bits_per_router)
                      .total();

    const double values[4] = {mesh_stats.avg_latency, vec_stats.avg_latency,
                              hfb_stats.avg_latency, dcsa_stats.avg_latency};
    for (int i = 0; i < 4; ++i) sums[i] += values[i];
    rows.push(Json::object()
                  .set("benchmark", model.name)
                  .set("mesh", values[0])
                  .set("mesh_vec", values[1])
                  .set("hfb", values[2])
                  .set("dcsa", values[3]));
  }
  const double k = traffic::parsec_models().size();
  run.set_counter("mesh_avg", sums[0] / k);
  run.set_counter("mesh_vec_avg", sums[1] / k);
  run.set_counter("hfb_avg", sums[2] / k);
  run.set_counter("dcsa_avg", sums[3] / k);
  run.set_counter("vec_latency_cut_pct", -percent_change(sums[1], sums[0]));
  run.set_counter("dcsa_latency_cut_pct", -percent_change(sums[3], sums[0]));
  run.set_counter("vec_power_w", power_vec / k);
  run.set_counter("dcsa_power_w", power_phys / k);
  run.set_counter("dcsa_power_cut_pct",
                  -percent_change(power_phys, power_vec));

  // Long-haul (0,0)->(7,7) zero-load latency: the structural advantage of
  // physical bypass (whole routers removed, not just pipeline stages).
  const sim::Network mesh_net(mesh, route::HopWeights{});
  const sim::Network phys_net(best.design, route::HopWeights{});
  sim::SimConfig zl;
  zl.warmup_cycles = 100;
  zl.measure_cycles = 1000;
  sim::SimConfig zl_vec = zl;
  zl_vec.virtual_express_bypass = true;
  const traffic::TrafficMatrix idle(8);
  auto one = [&](const sim::Network& net, const sim::SimConfig& cfg) {
    sim::Simulator s(net, idle, cfg);
    s.schedule_packet(0, 63, 512, 150);
    (void)s.run();
    return s.packet_latency(0);
  };
  run.set_counter("long_haul_mesh", static_cast<double>(one(mesh_net, zl)));
  run.set_counter("long_haul_vec",
                  static_cast<double>(one(mesh_net, zl_vec)));
  run.set_counter("long_haul_dcsa", static_cast<double>(one(phys_net, zl)));
  run.set_payload(Json::object().set("benchmarks", std::move(rows)));
}

// The bandwidth-utilization mechanism behind Fig. 8(b) (Section 5.4): at
// high uniform-random load, every vertical cross-section's provisioned
// capacity, measured use and utilization. The HFB saturates its
// quadrant-boundary cut while its intra-quadrant links idle.
Json cut_report(const char* name, const topo::ExpressMesh& design,
                double load, BenchRun& run, const std::string& key) {
  const sim::Network net(design, route::HopWeights{});
  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 3000;
  config.drain_cycles = 1000;  // saturated runs will not drain; that's fine
  const auto shape = traffic::TrafficMatrix::from_pattern(
      traffic::Pattern::kUniformRandom, design.side(), 1.0);
  const auto stats = sim::simulate_at_load(net, shape, load, config);

  Json cuts = Json::array();
  for (int cut = 0; cut < design.side() - 1; ++cut) {
    const auto right = exp::vertical_cut_use(net, stats, cut, true);
    cuts.push(Json::object()
                  .set("cut", std::to_string(cut) + "-" +
                                  std::to_string(cut + 1))
                  .set("channels", right.channels)
                  .set("capacity_bits_per_cycle",
                       right.capacity_bits_per_cycle)
                  .set("used_bits_per_cycle", right.used_bits_per_cycle)
                  .set("utilization_pct", 100.0 * right.utilization()));
  }
  const auto middle =
      exp::vertical_cut_use(net, stats, design.side() / 2 - 1, true);
  run.set_counter(key + "_accepted", stats.throughput_packets_per_node_cycle);
  run.set_counter(key + "_middle_cut_pct", 100.0 * middle.utilization());
  return Json::object()
      .set("design", name)
      .set("c", design.link_limit())
      .set("flit_bits", design.flit_bits())
      .set("load", load)
      .set("cuts", std::move(cuts));
}

void bandwidth_utilization(BenchRun& run) {
  const auto best = dcsa_design(8);
  Json designs = Json::array();
  designs.push(cut_report("Mesh", topo::make_mesh(8), 0.22, run, "mesh"));
  designs.push(cut_report("HFB", topo::make_hfb(8), 0.12, run, "hfb"));
  designs.push(cut_report("D&C_SA", best.design, 0.22, run, "dcsa"));
  run.set_payload(Json::object().set("designs", std::move(designs)));
}

// Extension: D&C_SA against generic optimizers at an equal evaluation
// budget — greedy long-range link insertion (Ogras & Marculescu [21]
// style), hill climbing with restarts, a genetic algorithm over connection
// matrices, OnlySA and the D&C initializer alone — plus the exact optimum
// where branch-and-bound is feasible (n <= 8; null otherwise).
void optimizer_problem(int n, int limit, BenchRun& run) {
  const long budget = std::max<long>(
      500, static_cast<long>(10000 * exp::bench_scale()));
  constexpr int kSeeds = 3;
  const core::RowObjective obj(n, route::HopWeights{});
  const core::SaParams sa = core::SaParams{}.with_moves(budget);

  Json exact;
  if (n <= 8) {
    core::BranchAndBound bb(obj, limit);
    exact = bb.solve().value;
  }

  double dcsa = 0, only = 0, hill = 0, ga = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng r1(seed), r2(seed + 10), r3(seed + 20), r4(seed + 30);
    dcsa += core::solve_dcsa(obj, limit, sa, r1).value;
    only += core::solve_only_sa(obj, limit, sa, r2).value;
    hill += core::solve_hill_climb(obj, limit, budget, r3).value;
    core::GaParams ga_params;
    ga_params.max_evaluations = budget;
    ga += core::solve_ga(obj, limit, ga_params, r4).value;
  }
  const auto greedy = core::solve_greedy_insertion(obj, limit);
  const auto dnc = core::solve_dnc_only(obj, limit);

  run.set_payload(Json::object()
                      .set("problem", problem_label(n, limit))
                      .set("budget", budget)
                      .set("seeds", kSeeds)
                      .set("exact", std::move(exact))
                      .set("dcsa", dcsa / kSeeds)
                      .set("onlysa", only / kSeeds)
                      .set("hill_climb", hill / kSeeds)
                      .set("ga", ga / kSeeds)
                      .set("greedy", greedy.value)
                      .set("dnc_only", dnc.value));
}

// Design-choice ablation: the paper optimizes the *average* pairwise
// latency and reports the worst case only as an outcome (Table 2). D&C_SA
// re-runs on 8x8 with the blended objective (1-w)*average + w*worst; w=0
// is the paper's objective.
void worst_case_objective(BenchRun& run) {
  const long moves = std::max<long>(
      500, static_cast<long>(10000 * exp::bench_scale()));
  const auto latency_params = latency::LatencyParams::zero_load();

  Json rows = Json::array();
  for (const double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    core::RowObjective objective(8, route::HopWeights{});
    objective.set_worst_case_weight(w);
    Rng rng(static_cast<std::uint64_t>(100 + w * 100));
    const auto result = core::solve_dcsa(
        objective, 4, core::SaParams{}.with_moves(moves), rng);
    const auto design = topo::make_design(result.placement, 4);
    const latency::MeshLatencyModel model(design, latency_params);
    rows.push(Json::object()
                  .set("w", w)
                  .set("avg", model.average().total())
                  .set("worst", model.worst_case())
                  .set("placement", result.placement.to_string()));
  }
  run.set_payload(Json::object().set("moves", moves).set("rows",
                                                          std::move(rows)));
}

// Router-microarchitecture ablation: round-robin vs oldest-first switch
// allocation on the optimized 8x8 design under uniform random load. The
// placement study holds the router constant; this shows the tail moves
// near saturation while the topology ordering does not.
void arbiter_ablation(BenchRun& run) {
  const auto best = dcsa_design(8);
  const sim::Network net(best.design, route::HopWeights{});
  const auto shape = traffic::TrafficMatrix::from_pattern(
      traffic::Pattern::kUniformRandom, 8, 1.0);

  Json rows = Json::array();
  for (const double load : {0.05, 0.12, 0.18}) {
    for (const auto arbiter :
         {sim::Arbiter::kRoundRobin, sim::Arbiter::kOldestFirst}) {
      sim::SimConfig config = exp::default_sim_config(5);
      config.arbiter = arbiter;
      const auto stats = sim::simulate_at_load(net, shape, load, config);
      rows.push(Json::object()
                    .set("load", load)
                    .set("arbiter", arbiter == sim::Arbiter::kRoundRobin
                                        ? "round-robin"
                                        : "oldest-first")
                    .set("avg", stats.avg_latency)
                    .set("p50", stats.p50_latency)
                    .set("p95", stats.p95_latency)
                    .set("p99", stats.p99_latency)
                    .set("max", stats.max_latency));
    }
  }
  run.set_payload(Json::object().set("rows", std::move(rows)));
}

}  // namespace

void register_paper_suites() {
  add_sizes("fig05_latency_vs_c", fig05_size);
  add_figure("fig06_parsec_8x8", "8x8", fig06);
  register_fig07();
  add_figure("fig08_synthetic", "8x8", fig08);
  add_figure("fig09_power", "8x8", fig09);
  add_figure("fig10_static_breakdown", "8x8", fig10);
  add_sizes("table2_worst_case", table2_size);
  add_figure("fig11_bandwidth", "8x8", fig11);
  add_problems("fig12_optimal", {{4, 2}, {8, 2}, {8, 3}, {8, 4}, {16, 2}},
               fig12_problem);
  add_figure("app_specific", "8x8", app_specific);
  add_problems("ablation_generators", {{8, 4}, {16, 4}}, ablation_problem);
  add_figure("routing_comparison", "8x8", routing_comparison);
  add_figure("virtual_vs_physical", "8x8", virtual_vs_physical);
  add_figure("bandwidth_utilization", "8x8", bandwidth_utilization);
  add_problems("optimizer_comparison", {{8, 4}, {16, 4}, {16, 8}, {32, 4}},
               optimizer_problem);
  add_figure("worst_case_objective", "8x8", worst_case_objective);
  add_figure("arbiter_ablation", "8x8", arbiter_ablation);
}

}  // namespace xlp::bench
