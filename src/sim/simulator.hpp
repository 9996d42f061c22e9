#pragma once

#include <deque>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/model.hpp"
#include "route/mesh_routing.hpp"

#include "sim/config.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/stats.hpp"
#include "traffic/matrix.hpp"
#include "util/rng.hpp"

namespace xlp::sim {

/// Flit-level, cycle-based wormhole NoC simulator — the stand-in for
/// gem5+GARNET (see DESIGN.md "Substitutions").
///
/// Model summary:
///  * canonical 3-stage routers: buffer write at cycle t, route compute /
///    VC allocation, switch allocation from t+2; a granted flit reaches the
///    next router at grant + 1 + link_length (pipelined repeated wires,
///    1 flit/cycle bandwidth regardless of length);
///  * per-port virtual channels with credit-based flow control; the total
///    buffer bits per router are equal across topologies (Section 4.6), so
///    narrow-flit designs get proportionally deeper VCs;
///  * table-driven deadlock-free DOR routing from route::MeshRouting — the
///    simulator routes exactly what the optimizer optimized;
///  * Bernoulli injection per node from a TrafficMatrix, packet sizes drawn
///    from the configured PacketMix.
///
/// At zero load the end-to-end latency reproduces the analytic model
/// exactly: (hops+1)*3 + distance + flits, measured creation -> tail eject.
class Simulator {
 public:
  Simulator(const Network& network, const traffic::TrafficMatrix& demand,
            const SimConfig& config);
  // The VC buffers point into their router's flit slab.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs warmup + measurement + drain and returns the statistics.
  [[nodiscard]] SimStats run();

  /// Trace-driven injection: queues one packet for creation at the given
  /// cycle, in addition to any stochastic matrix traffic. Must be called
  /// before run(). Useful for replaying traces and for exact zero-load
  /// latency measurements.
  void schedule_packet(int src, int dst, int bits, long create_cycle);

  /// Latency (creation to tail ejection) of the packet with the given id,
  /// valid after run(); -1 if it never drained.
  [[nodiscard]] long packet_latency(long packet_id) const;

  /// Flits currently held in `router`'s input buffers (the idle-skip
  /// counter; finalize() checks it against the buffers themselves).
  [[nodiscard]] long buffered_flits(int router) const;

 private:
  /// Fixed-capacity FIFO over one VC's slice of its router's flit slab.
  /// Credits bound a VC to its depth, so the slice never grows.
  class FlitRing {
   public:
    void bind(Flit* slots, int capacity) noexcept {
      slots_ = slots;
      capacity_ = capacity;
    }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] int size() const noexcept { return count_; }
    [[nodiscard]] const Flit& front() const noexcept { return slots_[head_]; }
    void push_back(const Flit& f) noexcept {
      slots_[wrap(head_ + count_)] = f;
      ++count_;
    }
    void pop_front() noexcept {
      head_ = wrap(head_ + 1);
      --count_;
    }

   private:
    [[nodiscard]] int wrap(int i) const noexcept {
      return i < capacity_ ? i : i - capacity_;
    }
    Flit* slots_ = nullptr;
    int capacity_ = 0;
    int head_ = 0;
    int count_ = 0;
  };

  struct InVc {
    FlitRing buffer;
    bool owned = false;   // reserved by an upstream (or NI) packet
    bool active = false;  // route + output VC assigned
    bool bypass = false;  // straight-through virtual-express traversal
    int out_port = -1;
    int out_vc = -1;
    long owner = -1;      // packet holding the reservation (fault purge
                          // must release owned-but-empty VCs)
  };

  struct RouterState {
    std::vector<Flit> slab;                   // [port][vc][slot] storage
    std::vector<std::vector<InVc>> in;        // [port][vc]
    std::vector<std::vector<int>> credits;    // [port][vc] for downstream
    std::vector<int> rr;                      // per-output round-robin ptr
    int vc_depth = 2;
    long buffered = 0;  // flits across all input buffers; 0 = idle router
  };

  /// A switch request gathered by arbitrate(): input slot idx = port*V+vc,
  /// the output it wants, the packet of its front flit and the cycle that
  /// flit became eligible.
  struct Candidate {
    int idx;
    int port;
    int vc;
    int out_port;
    long packet;
    long ready;
  };

  struct NodeState {
    std::deque<Flit> source_queue;  // flits of queued packets, in order
    int active_vc = -1;             // port-0 VC owned by the packet being sent
    long active_packet = -1;        // the packet mid-injection on active_vc
    double rate = 0.0;              // packets/cycle offered by this node
    std::vector<double> dest_cdf;   // cumulative over destinations
    std::vector<int> dest_node;
  };

  long create_packet(int src, int dst, int bits);
  void generate_traffic(int node);
  /// Routing table new packets will travel under: the pending rerouted
  /// tables while a drain-then-swap is in progress, the live ones otherwise.
  [[nodiscard]] const route::MeshRouting& admission_routing() const noexcept {
    return pending_routing_ ? *pending_routing_ : *routing_;
  }
  /// Picks a routing orientation for a src->dst packet per the configured
  /// mode; with the fault system engaged, restricted to orientations that
  /// still reach dst. Returns false when no surviving orientation exists.
  [[nodiscard]] bool choose_orientation(const route::MeshRouting& routing,
                                        int src, int dst, bool* y_first);
  /// Output port at `router` toward `dst` under the live routing tables.
  [[nodiscard]] int output_port(int router, int dst, bool y_first) const;
  /// Applies every fault edge scheduled at the current cycle.
  void process_fault_edges();
  /// Reroutes around the active fault set and swaps tables (immediately
  /// under kDropRetransmit; kDrainThenSwap defers via pending_routing_).
  void apply_fault_epoch();
  /// Swaps the live tables for `pending_routing_`, purging and
  /// retransmitting in-flight victims under kDropRetransmit.
  void perform_swap();
  /// True while some node holds a claimed NI VC (a packet mid-injection);
  /// drain-then-swap must wait for these even at zero in-network flits.
  [[nodiscard]] bool injection_in_progress() const;
  /// Removes every flit of `victims` (by packet id) from the source queues,
  /// NI pipelines, router buffers and channels, restoring credits.
  void purge_packets(const std::vector<char>& victims);
  /// VC index range [lo, hi) available to a packet with the given
  /// orientation: the full range under pure DOR, a half under O1TURN.
  [[nodiscard]] std::pair<int, int> vc_class(bool y_first) const;
  void inject(int node);
  void allocate(int router);
  void arbitrate(int router);
  void deliver_channel_arrivals();
  void deliver_credits();
  [[nodiscard]] bool in_measurement_window() const noexcept {
    return cycle_ >= config_.warmup_cycles &&
           cycle_ < config_.warmup_cycles + config_.measure_cycles;
  }
  [[nodiscard]] int pick_packet_bits();
  [[nodiscard]] SimStats finalize() const;
  /// Appends one sample per telemetry series to config_.series for the
  /// window ending at the current cycle.
  void record_series();
  /// Emits the `sim.channel_utilization` heatmap for a finished run.
  void emit_channel_heatmap(const SimStats& stats) const;

  const Network& net_;
  SimConfig config_;
  Rng rng_;

  // Fault-injection state. With an empty schedule: faults_enabled_ is
  // false, routing_ stays &net_.routing() and none of the machinery below
  // runs, so behavior is identical to a fault-free simulator.
  bool faults_enabled_ = false;
  const route::MeshRouting* routing_;
  std::optional<route::MeshRouting> degraded_routing_;
  std::optional<route::MeshRouting> pending_routing_;  // drain-then-swap
  // (cycle, is_recovery, event index); recoveries sort before activations
  // at the same cycle so a replacement fault set takes over atomically.
  std::vector<std::tuple<long, int, std::size_t>> fault_edges_;
  std::size_t next_fault_edge_ = 0;
  std::vector<char> event_active_;
  fault::FaultSet active_faults_;
  std::vector<std::pair<int, int>> pending_unreachable_xy_;
  std::vector<std::pair<int, int>> pending_unreachable_yx_;
  std::vector<char> channel_dead_;   // [channel] under the live tables
  std::vector<int> extra_pipeline_;  // [router] port-degradation cycles
  bool draining_for_swap_ = false;
  long in_network_flits_ = 0;  // NI pipelines + router buffers + channels
  long last_ejection_cycle_ = -1;
  long reroutes_ = 0;
  long packets_dropped_ = 0;
  long packets_retransmitted_ = 0;
  long packets_lost_ = 0;
  long packets_unroutable_ = 0;

  long cycle_ = 0;
  std::vector<Packet> packets_;
  std::vector<RouterState> routers_;
  std::vector<NodeState> nodes_;
  std::vector<std::vector<int>> ni_credits_;  // [node][vc] for port-0 VCs

  // Flits on the wires, (channel, flit), bucketed by arrival cycle modulo
  // the wheel size (longest channel + 2). A channel carries at most one
  // flit per cycle into its own input port, so the order in which one
  // cycle's arrivals are written is immaterial.
  std::vector<std::vector<std::pair<int, Flit>>> arrival_wheel_;
  // Pending channel credit returns in cycle order: (cycle, channel, vc).
  std::deque<std::tuple<long, int, int>> credit_returns_;
  // Pending NI credit returns: (cycle, node, vc).
  std::deque<std::tuple<long, int, int>> ni_credit_returns_;
  // Flits in flight from an NI into its router: (arrival cycle, node, flit).
  std::deque<std::tuple<long, int, Flit>> ni_arrivals_;
  // Measured packets created but not yet fully ejected.
  long outstanding_measured_ = 0;
  // Lifetime packet ejections, for the packets-in-flight series.
  long ejected_total_ = 0;

  // Lifetime flit counters for the series recorder. Maintained
  // unconditionally: an increment on an already-hot line is cheaper than a
  // branch, and it keeps the recording-disabled path down to the single
  // `if (recording)` in run().
  long injected_flits_total_ = 0;
  long ejected_flits_total_ = 0;
  long grants_total_ = 0;
  // Series-window baselines, reset by record_series().
  long window_injected_ = 0;
  long window_ejected_ = 0;
  long window_grants_ = 0;
  long window_flit_cycles_ = 0;  // sum of in-network flits per cycle
  // Trace-driven injections: (create cycle, src, dst, bits), kept sorted.
  std::vector<std::tuple<long, int, int, int>> scheduled_;
  std::size_t next_scheduled_ = 0;

  // Scratch for arbitrate(): this router's eligible requests in input-slot
  // order, and one grant per input port per cycle.
  std::vector<Candidate> candidates_;
  std::vector<char> input_port_used_;

  // Measurement accumulators.
  long contention_cycles_ = 0;
  long grants_measured_ = 0;
  ActivityCounters activity_;
  std::vector<long> channel_flits_measured_;
  std::vector<double> mix_cdf_;
  std::vector<int> mix_bits_;
};

}  // namespace xlp::sim
