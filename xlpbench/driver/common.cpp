#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace xlpbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double floor_time(const std::vector<double>& samples) {
  return quantile(samples, 0.1);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

xlp::obs::Json samples(const std::vector<double>& values) {
  xlp::obs::Json list = xlp::obs::Json::array();
  for (const double v : values) list.push(v);
  return list;
}

std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void check_golden(Outcome& out, const Options& opt,
                  const xlp::obs::Json& observed, const std::string& what) {
  if (opt.golden == nullptr) {
    out.fail(what + ": no golden record for variant " +
             std::to_string(opt.variant));
    return;
  }
  if (observed.dump() != opt.golden->dump())
    out.fail(what + ": output differs from the golden record of variant " +
             std::to_string(opt.variant) + ": " + observed.dump());
}

/// Every per-layer metric, zero until a workload exercises its layer, so a
/// traced run of any workload reports the full list.
void zero_layers(Outcome& out) {
  for (const char* name :
       {"core.solve_dcsa_ms", "core.sa_evaluate_ms", "core.dnc_initial_ms",
        "latency.model_build_ms", "latency.average_ms", "route.network_build_ms",
        "route.fw_ms", "traffic.matrix_ms", "sim.construct_ms", "sim.run_ms",
        "sim.sw_alloc_ms", "sim.route_vc_alloc_ms", "sim.traverse_ms",
        "sim.inject_ms", "svc.execute_ms", "svc.ledger_append_ms"})
    out.set(name, 0.0, "ms");
  for (const char* name :
       {"core.evaluations", "sim.crossbar_traversals", "sim.buffer_writes",
        "sim.packets_finished", "svc.executed", "svc.client_retries"})
    out.set(name, 0.0, "count");
  out.set("svc.ledger_bytes", 0.0, "bytes");
  for (const char* name :
       {"svc.parse_id_us", "svc.cache_get_us", "svc.queue_wait_p50_us",
        "svc.execute_p50_us", "svc.end_to_end_p50_us"})
    out.set(name, 0.0, "us");
  out.set("svc.rtt_p50_ms", 0.0, "ms");
  out.set("svc.ledger_rtt_p50_ms", 0.0, "ms");
  out.set("svc.rtt_p99_ms", 0.0, "ms");
  out.set("core.sa_moves_per_s", 0.0, "1/s");
  out.set("sim.flit_hops_per_s", 0.0, "1/s");
  out.set("core.sa_acceptance_ratio", 0.0, "ratio");
  out.set("svc.cache_hit_ratio", 0.0, "ratio");
  out.set("core.placement_latency_cycles", 0.0, "cycles");
  out.set("sim.contention_cycles_per_hop", 0.0, "cycles");
  out.set("sim.pkt_latency_avg_cycles", 0.0, "cycles");
  out.set("sim.pkt_latency_p99_cycles", 0.0, "cycles");
  out.set("sim.host_ns_per_router_cycle", 0.0, "ns");
}

std::vector<double> repeat_for(double seconds, int min_runs,
                               const std::function<void()>& iteration,
                               const std::function<void()>& between) {
  std::vector<double> walls;
  double measured = 0.0;
  while (static_cast<int>(walls.size()) < min_runs || measured < seconds) {
    walls.push_back(timed(iteration));
    measured += walls.back();
    if (between) between();
  }
  return walls;
}

}  // namespace xlpbench
