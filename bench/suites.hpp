#pragma once

namespace xlp::bench {

/// Registers every benchmark suite with Registry::global(). Registration
/// is explicit — `xlp bench` calls it from main() — so nothing depends on
/// static-initializer order or on the linker keeping unreferenced objects
/// alive.
///
/// Suites (suites.cpp):
///   micro_core     — optimizer/routing kernels (ns/op), including the
///                    service request hash and cache lookup
///   sim            — flit simulator throughput (cycles/sec, packets/sec)
///   svc            — batch server served-requests/sec at 0% / 90%
///                    duplicates, plus the sweep-resubmit cache speedup
///   scalability    — sweep cost/benefit vs network size, thread scaling
///   fault_campaign — Monte Carlo fault-resilience campaign
///
/// Paper suites (paper.cpp, tagged "full" except fig07's smoke point), one
/// per figure, table or extension study; table rows in the payload,
/// headline numbers as counters:
///   fig05_latency_vs_c, fig06_parsec_8x8, fig07_runtime, fig08_synthetic,
///   fig09_power, fig10_static_breakdown, table2_worst_case,
///   fig11_bandwidth, fig12_optimal, app_specific (Section 5.6.4),
///   ablation_generators, routing_comparison, virtual_vs_physical,
///   bandwidth_utilization, optimizer_comparison, worst_case_objective,
///   arbiter_ablation
void register_all_suites();

/// Registers the paper suites; called by register_all_suites().
void register_paper_suites();

}  // namespace xlp::bench
