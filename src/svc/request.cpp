#include "svc/request.hpp"

#include <algorithm>

#include "core/branch_bound.hpp"
#include "core/drivers.hpp"
#include "core/objective.hpp"
#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "obs/canonical.hpp"
#include "runctl/control.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "traffic/patterns.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace xlp::svc {

namespace {

[[noreturn]] void bad_request(const std::string& message) {
  throw Error(ErrorCode::kParse, message);
}

sim::RoutingMode routing_mode(const std::string& routing) {
  if (routing == "xy") return sim::RoutingMode::kXY;
  if (routing == "yx") return sim::RoutingMode::kYX;
  if (routing == "o1turn") return sim::RoutingMode::kO1Turn;
  bad_request("routing must be xy, yx or o1turn");
}

/// Throws xlp::Error(kState) for a run a RunControl stopped early, so a
/// partial result never becomes a (cacheable) payload.
void require_completed(runctl::RunStatus status, const char* phase) {
  if (status != runctl::RunStatus::kCompleted)
    throw Error(ErrorCode::kState, std::string(phase) +
                                       " stopped early (" +
                                       runctl::to_string(status) + ")");
}

/// "lo-hi" of one link, as a `links` entry spells it.
std::string link_text(const topo::RowLink& link) {
  return std::to_string(link.lo) + "-" + std::to_string(link.hi);
}

obs::Json execute_solve(const Request& request, runctl::RunControl* control) {
  core::SaParams hooks;
  hooks.control = control;
  const core::PlacementResult result = solve(request, hooks);
  require_completed(result.status, "solve");
  return obs::Json::object()
      .set("kind", "solve")
      .set("placement", result.placement.to_string())
      .set("value", result.value)
      .set("evaluations", static_cast<long>(result.evaluations))
      .set("method", result.method);
}

obs::Json execute_evaluate(const Request& request) {
  const topo::ExpressMesh design = design_of(request);
  latency::LatencyParams params = latency::LatencyParams::zero_load();
  params.contention_per_hop = request.contention_per_hop;
  const latency::MeshLatencyModel model(design, params);
  const latency::LatencyBreakdown breakdown =
      model.weighted_average(demand_of(request).rates());
  return obs::Json::object()
      .set("kind", "evaluate")
      .set("total", breakdown.total())
      .set("head", breakdown.head)
      .set("serialization", breakdown.serialization)
      .set("worst_case", model.worst_case())
      .set("avg_hops", model.average_hops())
      .set("flit_bits", design.flit_bits());
}

obs::Json execute_simulate(const Request& request,
                           runctl::RunControl* control) {
  sim::SimConfig base;
  base.control = control;
  const sim::SimStats stats = simulate(request, base);
  require_completed(stats.status, "simulate");
  return obs::Json::object()
      .set("kind", "simulate")
      .set("packets_offered", stats.packets_offered)
      .set("packets_finished", stats.packets_finished)
      .set("avg_latency", stats.avg_latency)
      .set("p50_latency", stats.p50_latency)
      .set("p95_latency", stats.p95_latency)
      .set("p99_latency", stats.p99_latency)
      .set("max_latency", stats.max_latency)
      .set("throughput", stats.throughput_packets_per_node_cycle)
      .set("avg_hops", stats.avg_hops)
      .set("drained", stats.drained);
}

}  // namespace

topo::ExpressMesh design_of(const Request& request) {
  const topo::RowTopology row(request.n, topo::parse_links(request.links));
  return topo::make_design(row, request.link_limit, request.base_flit_bits);
}

traffic::TrafficMatrix demand_of(const Request& request) {
  return traffic::resolve_workload(request.workload, request.n,
                                   request.load);
}

core::PlacementResult solve(const Request& request,
                            const core::SaParams& hooks) {
  const core::RowObjective objective(request.n, route::HopWeights{});
  runctl::RunControl local;
  runctl::RunControl* control =
      hooks.control != nullptr ? hooks.control : &local;

  if (request.method == "dcsa" || request.method == "onlysa") {
    const core::SaParams schedule =
        core::SaParams{}.with_moves(request.moves);
    core::SaParams params = hooks;
    params.initial_temperature = schedule.initial_temperature;
    params.total_moves = schedule.total_moves;
    params.cool_scale = schedule.cool_scale;
    params.moves_per_cool = schedule.moves_per_cool;
    params.control = control;
    Rng rng(request.seed);
    return request.method == "dcsa"
               ? core::solve_dcsa(objective, request.link_limit, params, rng)
               : core::solve_only_sa(objective, request.link_limit, params,
                                     rng);
  }
  if (request.method == "dnc") {
    core::DncOptions dnc;
    dnc.control = control;
    return core::solve_dnc_only(objective, request.link_limit, dnc);
  }
  if (request.method == "exact") {
    core::BranchAndBound bb(objective, request.link_limit, control);
    const auto exact = bb.solve();
    core::PlacementResult result;
    result.placement = exact.placement;
    result.value = exact.value;
    result.evaluations = objective.evaluations();
    result.method = "exact";
    result.status = exact.status;
    return result;
  }
  bad_request("method must be dcsa, onlysa, dnc or exact");
}

sim::SimStats simulate(const Request& request, sim::SimConfig base) {
  base.measure_cycles = request.cycles;
  base.vcs_per_port = request.vcs;
  base.seed = request.seed;
  base.routing = routing_mode(request.routing);
  return exp::simulate_design(design_of(request), demand_of(request), base);
}

const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kSolve: return "solve";
    case RequestKind::kEvaluate: return "evaluate";
    case RequestKind::kSimulate: return "simulate";
    case RequestKind::kStats: return "stats";
  }
  return "unknown";
}

obs::Json Request::to_json() const {
  obs::Json doc = obs::Json::object()
                      .set("schema", kRequestSchema)
                      .set("kind", svc::to_string(kind));
  // A stats request names no work: every stats request is the same
  // request, {"schema","kind"} only.
  if (kind == RequestKind::kStats) return doc;
  doc.set("n", n);
  if (height > 0 && height != n) doc.set("height", height);
  doc.set("c", link_limit).set("b", base_flit_bits);
  if (kind == RequestKind::kSolve) {
    doc.set("method", method);
    if (method == "dcsa" || method == "onlysa") doc.set("moves", moves);
  } else {
    doc.set("links", links)
        .set("workload", workload)
        .set("load", load);
    if (kind == RequestKind::kSimulate)
      doc.set("cycles", cycles).set("routing", routing).set("vcs", vcs);
    else
      doc.set("contention", contention_per_hop);
  }
  // The seed only matters where randomness does: annealing and the
  // simulator's packet sampling. Evaluate is fully analytic.
  if (kind != RequestKind::kEvaluate)
    doc.set("seed", static_cast<long>(seed));
  return doc;
}

std::string Request::id() const {
  return obs::fnv1a64_hex(obs::canonical_json(to_json()));
}

void Request::validate() const {
  if (kind == RequestKind::kStats) return;  // carries no parameters
  if (n < 2 || n > 256) bad_request("n must be in [2, 256]");
  if (height != 0 && height != n)
    bad_request("rectangular requests are not served yet (height must be "
                "0 or equal to n)");
  if (link_limit < 1) bad_request("c must be at least 1");
  if (base_flit_bits < 1 || base_flit_bits % link_limit != 0)
    bad_request("c must divide the base flit width b");
  if (kind == RequestKind::kSolve) {
    if (method != "dcsa" && method != "onlysa" && method != "dnc" &&
        method != "exact")
      bad_request("method must be dcsa, onlysa, dnc or exact");
    if (moves < 0) bad_request("moves must be non-negative");
  } else {
    if (!traffic::is_known_workload(workload))
      bad_request("unknown workload '" + workload + "'");
    if (const auto pattern = traffic::pattern_from_string(workload);
        pattern && (*pattern == traffic::Pattern::kBitReverse ||
                    *pattern == traffic::Pattern::kBitComplement ||
                    *pattern == traffic::Pattern::kShuffle) &&
        !is_power_of_two(static_cast<std::uint64_t>(n) * n))
      bad_request("workload '" + workload +
                  "' needs a power-of-two node count (n * n)");
    if (load <= 0.0 || load > 1.0) bad_request("load must be in (0, 1]");
    // The whole design point is checked here, so a request the design
    // builders would refuse fails as a parse error, never at execution.
    const std::vector<topo::RowLink> parsed = topo::parse_links(links);
    for (const topo::RowLink& link : parsed) {
      if (std::min(link.lo, link.hi) < 0 || std::max(link.lo, link.hi) >= n)
        bad_request("links entry '" + link_text(link) +
                    "' is out of range for n = " + std::to_string(n));
      if (!link.is_express())
        bad_request("links entry '" + link_text(link) +
                    "' must have hi >= lo + 2 (local links are implicit)");
    }
    if (const int cut = topo::RowTopology(n, parsed).max_cut_count();
        cut > link_limit)
      bad_request("links put " + std::to_string(cut) +
                  " links across one cross-section, more than c = " +
                  std::to_string(link_limit));
    if (kind == RequestKind::kSimulate) {
      if (cycles < 1) bad_request("cycles must be positive");
      routing_mode(routing);  // throws for an unknown name
      if (vcs < 1 || vcs > 16) bad_request("vcs must be in [1, 16]");
      if (routing == "o1turn" && vcs < 2)
        bad_request("o1turn routing needs at least 2 vcs");
    }
    if (contention_per_hop < 0.0)
      bad_request("contention must be non-negative");
  }
}

Request Request::from_json(const obs::Json& doc) {
  if (!doc.is_object()) bad_request("request must be a JSON object");
  Request request;
  bool saw_kind = false;
  for (const auto& [key, value] : doc.members()) {
    try {
      if (key == "schema") {
        if (!value.is_string() || value.as_string() != kRequestSchema)
          bad_request("schema must be \"" + std::string(kRequestSchema) +
                      "\"");
      } else if (key == "kind") {
        const std::string& kind = value.as_string();
        saw_kind = true;
        if (kind == "solve") request.kind = RequestKind::kSolve;
        else if (kind == "evaluate") request.kind = RequestKind::kEvaluate;
        else if (kind == "simulate") request.kind = RequestKind::kSimulate;
        else if (kind == "stats") request.kind = RequestKind::kStats;
        else bad_request("kind must be solve, evaluate, simulate or stats");
      } else if (key == "n") {
        request.n = static_cast<int>(value.as_long());
      } else if (key == "height") {
        request.height = static_cast<int>(value.as_long());
      } else if (key == "c") {
        request.link_limit = static_cast<int>(value.as_long());
      } else if (key == "b") {
        request.base_flit_bits = static_cast<int>(value.as_long());
      } else if (key == "method") {
        request.method = value.as_string();
      } else if (key == "moves") {
        request.moves = value.as_long();
      } else if (key == "links") {
        request.links = value.as_string();
      } else if (key == "workload") {
        request.workload = value.as_string();
      } else if (key == "load") {
        request.load = value.as_number();
      } else if (key == "cycles") {
        request.cycles = value.as_long();
      } else if (key == "routing") {
        request.routing = value.as_string();
      } else if (key == "vcs") {
        request.vcs = static_cast<int>(value.as_long());
      } else if (key == "contention") {
        request.contention_per_hop = value.as_number();
      } else if (key == "seed") {
        request.seed = static_cast<std::uint64_t>(value.as_long());
      } else {
        bad_request("unknown request field '" + key + "'");
      }
    } catch (const PreconditionError&) {
      bad_request("request field '" + key + "' has the wrong type");
    }
  }
  if (!saw_kind) bad_request("request is missing 'kind'");
  request.validate();
  return request;
}

obs::Json execute_request(const Request& request,
                          runctl::RunControl* control) {
  request.validate();
  switch (request.kind) {
    case RequestKind::kSolve: return execute_solve(request, control);
    case RequestKind::kEvaluate: return execute_evaluate(request);
    case RequestKind::kSimulate: return execute_simulate(request, control);
    case RequestKind::kStats:
      // Stats requests are introspection, answered by the Server from
      // memory; they never reach the executor.
      throw Error(ErrorCode::kState,
                  "stats requests are answered by the server, not executed");
  }
  throw Error(ErrorCode::kInternal, "unhandled request kind");
}

}  // namespace xlp::svc
