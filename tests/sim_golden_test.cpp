// Golden corpus of the cycle-accurate simulator: each scenario pins the
// obs::fnv1a64_hex digest of stats_to_json() for one fixed Simulator run.
// The corpus spans every synthetic permutation family plus UR and one
// PARSEC workload; Mesh, HFB and a D&C_SA design; both switch arbiters;
// XY, YX and O1TURN routing; virtual-express bypass; a trace-driven
// schedule_packet burst; and mid-run fault schedules under both policies
// (drop-retransmit scenarios must actually purge flits). Any change to the
// simulator's cycle loop, allocation order or rng call sequence that moves
// a single statistic fails here, so hot-path rewrites are held to
// byte-identical output.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>

#include "fault/model.hpp"
#include "obs/canonical.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats_json.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "util/rng.hpp"

namespace xlp::sim {
namespace {

enum class Design { kMesh, kHfb, kDcsa };
enum class Fault { kNone, kLink, kLinkRecover, kPort };

struct Scenario {
  const char* name;
  Design design;
  const char* workload;  // pattern or PARSEC model name
  double load;
  Arbiter arbiter;
  RoutingMode routing;
  bool vec;
  int burst;  // trace-driven packets scheduled on top of the matrix
  Fault fault;
  FaultPolicy policy;
  const char* digest;
};

constexpr auto kRr = Arbiter::kRoundRobin;
constexpr auto kOldest = Arbiter::kOldestFirst;
constexpr auto kXy = RoutingMode::kXY;
constexpr auto kYx = RoutingMode::kYX;
constexpr auto kO1 = RoutingMode::kO1Turn;
constexpr auto kDrain = FaultPolicy::kDrainThenSwap;
constexpr auto kDrop = FaultPolicy::kDropRetransmit;
constexpr auto kMesh = Design::kMesh;
constexpr auto kHfb = Design::kHfb;
constexpr auto kDcsa = Design::kDcsa;
constexpr auto kNone = Fault::kNone;
constexpr auto kLink = Fault::kLink;
constexpr auto kLinkRecover = Fault::kLinkRecover;
constexpr auto kPort = Fault::kPort;
constexpr const char* kUr = "uniform_random";

/// The D&C_SA placement `xlp solve --n 8 --c 4 --moves 10000 --seed 1`
/// returns, fixed here so the corpus does not follow optimizer changes.
topo::ExpressMesh dcsa_design() {
  const topo::RowTopology row(
      8, {{0, 2}, {0, 3}, {1, 3}, {3, 5}, {3, 6}, {3, 7}, {5, 7}});
  return topo::make_design(row, 4);
}

topo::ExpressMesh make(Design d) {
  switch (d) {
    case Design::kMesh: return topo::make_mesh(8);
    case Design::kHfb: return topo::make_hfb(8);
    case Design::kDcsa: return dcsa_design();
  }
  return topo::make_mesh(8);
}

SimStats run_scenario(const Scenario& s) {
  const topo::ExpressMesh design = make(s.design);
  const Network network(design, route::HopWeights{});
  const traffic::TrafficMatrix demand =
      traffic::resolve_workload(s.workload, design.side(), s.load);
  SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 2000;
  config.drain_cycles = 4000;
  config.seed = 7;
  config.arbiter = s.arbiter;
  config.routing = s.routing;
  config.virtual_express_bypass = s.vec;
  if (s.fault != Fault::kNone) {
    config.faults.policy = s.policy;
    fault::FaultSet faults;
    if (s.fault == Fault::kPort) {
      faults.add(fault::PortFault{27, 3});
      faults.add(fault::PortFault{36, 2});
    } else {
      Rng rng(3);
      faults = fault::sample_k_links(design, 2, rng);
    }
    const long recover = s.fault == Fault::kLinkRecover ? 1400 : -1;
    config.faults.events.push_back({700, std::move(faults), recover});
  }
  Simulator sim(network, demand, config);
  const int nodes = network.node_count();
  for (int i = 0; i < s.burst; ++i) {
    const int src = (i * 5) % nodes;
    int dst = (i * 11 + 27) % nodes;
    if (dst == src) dst = (dst + 1) % nodes;
    sim.schedule_packet(src, dst, i % 3 == 0 ? 1024 : 512,
                        config.warmup_cycles + 300 + i / 16);
  }
  return sim.run();
}

// name, design, workload, load, arbiter, routing, vec, burst, fault,
// policy, digest.
const Scenario kScenarios[] = {
    {"mesh_ur_rr", kMesh, kUr, 0.02, kRr, kXy, false, 0, kNone, kDrop,
     "927a5b4122fe52f8"},
    {"mesh_ur_oldest_hot", kMesh, kUr, 0.06, kOldest, kXy, false, 0, kNone,
     kDrop, "62577141bcb5289f"},
    {"mesh_transpose_yx", kMesh, "transpose", 0.04, kRr, kYx, false, 0,
     kNone, kDrop, "f8143202f0ceee76"},
    {"mesh_bitrev_o1turn", kMesh, "bit_reverse", 0.04, kRr, kO1, false, 0,
     kNone, kDrop, "fee82240d0b03f47"},
    {"mesh_bitcomp_oldest", kMesh, "bit_complement", 0.03, kOldest, kXy,
     false, 0, kNone, kDrop, "793b9bb651e3441c"},
    {"mesh_shuffle_vec", kMesh, "shuffle", 0.04, kRr, kXy, true, 0, kNone,
     kDrop, "b6c405769acd808a"},
    {"hfb_ur_rr", kHfb, kUr, 0.02, kRr, kXy, false, 0, kNone, kDrop,
     "16561b3eea40bfe1"},
    {"hfb_ur_oldest_hot", kHfb, kUr, 0.05, kOldest, kXy, false, 0, kNone,
     kDrop, "fe9b499eb174e709"},
    {"hfb_transpose_o1turn", kHfb, "transpose", 0.03, kRr, kO1, false, 0,
     kNone, kDrop, "d12cca8acffb8bdb"},
    {"hfb_bitrev_vec_yx", kHfb, "bit_reverse", 0.03, kRr, kYx, true, 0,
     kNone, kDrop, "0492b0d8a04bef13"},
    {"hfb_shuffle_oldest_o1turn", kHfb, "shuffle", 0.03, kOldest, kO1, false,
     0, kNone, kDrop, "85c298f5e9fcb96f"},
    {"dcsa_ur_rr", kDcsa, kUr, 0.02, kRr, kXy, false, 0, kNone, kDrop,
     "1a0bbf240c212b6c"},
    {"dcsa_ur_hot", kDcsa, kUr, 0.08, kRr, kXy, false, 0, kNone, kDrop,
     "e85a22237d674e1b"},
    {"dcsa_ur_oldest_vec", kDcsa, kUr, 0.05, kOldest, kXy, true, 0, kNone,
     kDrop, "0e4bd961ebd2aee0"},
    {"dcsa_bitcomp_yx", kDcsa, "bit_complement", 0.03, kRr, kYx, false, 0,
     kNone, kDrop, "79f803aeafb46763"},
    {"dcsa_parsec_canneal", kDcsa, "canneal", 0.0, kRr, kXy, false, 0, kNone,
     kDrop, "3e4b8770eaf9a757"},
    {"dcsa_parsec_o1turn_vec", kDcsa, "canneal", 0.0, kOldest, kO1, true, 0,
     kNone, kDrop, "34ed461ef2eb66c6"},
    {"dcsa_burst_idle", kDcsa, kUr, 0.0, kRr, kXy, false, 192, kNone, kDrop,
     "37113709eb95679b"},
    {"mesh_burst_over_ur", kMesh, kUr, 0.02, kOldest, kO1, false, 192, kNone,
     kDrop, "c3fceb180201ddb9"},
    {"hfb_fault_drop", kHfb, kUr, 0.05, kRr, kXy, false, 0, kLink, kDrop,
     "9d8fc6751e6f9589"},
    {"hfb_fault_drain", kHfb, kUr, 0.05, kRr, kXy, false, 0, kLink, kDrain,
     "519b2c2b0de8fced"},
    {"dcsa_fault_drop_recover_o1turn", kDcsa, kUr, 0.05, kOldest, kO1, false,
     0, kLinkRecover, kDrop, "99af3a9697dce2aa"},
    {"dcsa_fault_drain_recover_vec", kDcsa, "transpose", 0.04, kRr, kXy, true,
     0, kLinkRecover, kDrain, "9be52564b51f2760"},
    {"mesh_port_fault_drop", kMesh, kUr, 0.04, kRr, kXy, false, 0, kPort,
     kDrop, "898928918f850d2b"},
};

// gtest prints a failing parameter through this instead of its raw bytes.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class SimGolden : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimGolden, StatsDigestIsPinned) {
  const Scenario& s = GetParam();
  const SimStats stats = run_scenario(s);
  EXPECT_GT(stats.packets_finished, 0);
  if (s.fault == Fault::kLink || s.fault == Fault::kLinkRecover) {
    EXPECT_GE(stats.reroutes, 1);
    // The purge path is the one the idle-router bookkeeping must survive.
    if (s.policy == kDrop) {
      EXPECT_GT(stats.packets_dropped, 0);
    }
  }
  EXPECT_EQ(obs::fnv1a64_hex(stats_to_json(stats).dump()), s.digest)
      << s.name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SimGolden, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace xlp::sim
