#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "fault/reroute.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "route/deadlock.hpp"
#include "runctl/control.hpp"
#include "util/check.hpp"
#include "util/numeric.hpp"

namespace xlp::sim {

Simulator::Simulator(const Network& network,
                     const traffic::TrafficMatrix& demand,
                     const SimConfig& config)
    : net_(network), config_(config), rng_(config.seed) {
  XLP_REQUIRE(demand.width() == net_.width() &&
                  demand.height() == net_.height(),
              "traffic matrix dimensions do not match the network");
  XLP_REQUIRE(config_.vcs_per_port >= 1, "need at least one VC per port");
  XLP_REQUIRE(config_.routing != RoutingMode::kO1Turn ||
                  config_.vcs_per_port >= 2,
              "O1TURN needs at least two VCs per port (one per "
              "orientation class)");
  XLP_REQUIRE(config_.pipeline_stages >= 1, "pipeline needs >= 1 stage");

  const int nodes = net_.node_count();
  const int vcs = config_.vcs_per_port;

  routers_.resize(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) {
    auto& router = routers_[static_cast<std::size_t>(r)];
    const int ports = net_.port_count(r);
    router.vc_depth = config_.vc_depth_flits(ports, net_.flit_bits());
    router.in.assign(static_cast<std::size_t>(ports),
                     std::vector<InVc>(static_cast<std::size_t>(vcs)));
    router.slab.resize(static_cast<std::size_t>(ports) *
                       static_cast<std::size_t>(vcs) *
                       static_cast<std::size_t>(router.vc_depth));
    Flit* slots = router.slab.data();
    for (auto& port : router.in) {
      for (InVc& q : port) {
        q.buffer.bind(slots, router.vc_depth);
        slots += router.vc_depth;
      }
    }
    router.credits.assign(static_cast<std::size_t>(ports),
                          std::vector<int>(static_cast<std::size_t>(vcs), 0));
    router.rr.assign(static_cast<std::size_t>(ports), 0);
    input_port_used_.resize(
        std::max(input_port_used_.size(), static_cast<std::size_t>(ports)));
  }
  // Output credits reflect the *downstream* router's buffer depth.
  for (int r = 0; r < nodes; ++r) {
    auto& router = routers_[static_cast<std::size_t>(r)];
    for (int p = 1; p < net_.port_count(r); ++p) {
      const int peer = net_.port(r, p).peer_router;
      const int depth = routers_[static_cast<std::size_t>(peer)].vc_depth;
      for (int v = 0; v < vcs; ++v)
        router.credits[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(v)] = depth;
    }
  }
  ni_credits_.resize(static_cast<std::size_t>(nodes));
  for (int node = 0; node < nodes; ++node)
    ni_credits_[static_cast<std::size_t>(node)].assign(
        static_cast<std::size_t>(vcs),
        routers_[static_cast<std::size_t>(node)].vc_depth);

  int longest = 0;
  for (const auto& channel : net_.channels())
    longest = std::max(longest, channel.length);
  arrival_wheel_.resize(static_cast<std::size_t>(longest) + 2);
  channel_flits_measured_.assign(net_.channels().size(), 0);

  // Per-node destination distributions.
  nodes_.resize(static_cast<std::size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    auto& st = nodes_[static_cast<std::size_t>(node)];
    st.rate = demand.node_rate(node);
    XLP_REQUIRE(st.rate <= 1.0,
                "per-node injection above one packet per cycle is not "
                "representable by Bernoulli injection");
    if (st.rate <= 0.0) continue;
    double cum = 0.0;
    for (int dst = 0; dst < nodes; ++dst) {
      const double r = demand.rate(node, dst);
      if (r <= 0.0) continue;
      cum += r / st.rate;
      st.dest_cdf.push_back(cum);
      st.dest_node.push_back(dst);
    }
    XLP_CHECK(!st.dest_cdf.empty(), "positive rate needs destinations");
    st.dest_cdf.back() = 1.0;  // guard against rounding
  }

  // Packet-size mix CDF.
  double cum = 0.0;
  for (const auto& pc : config_.mix.classes()) {
    cum += pc.fraction;
    mix_cdf_.push_back(cum);
    mix_bits_.push_back(pc.bits);
  }
  mix_cdf_.back() = 1.0;

  activity_.flit_bits = net_.flit_bits();

  // Fault machinery. With an empty schedule everything below stays inert:
  // routing_ aliases the network's pristine tables and extra_pipeline_ is
  // all zero, so the fault-free fast path is bit-identical to before.
  routing_ = &net_.routing();
  faults_enabled_ = !config_.faults.empty();
  extra_pipeline_.assign(static_cast<std::size_t>(nodes), 0);
  channel_dead_.assign(net_.channels().size(), 0);
  if (faults_enabled_) {
    XLP_REQUIRE(config_.faults.max_retries >= 0,
                "max_retries must be non-negative");
    const auto& events = config_.faults.events;
    event_active_.assign(events.size(), 0);
    for (std::size_t e = 0; e < events.size(); ++e) {
      const FaultEvent& ev = events[e];
      XLP_REQUIRE(ev.cycle >= 0, "fault cycle must be non-negative");
      XLP_REQUIRE(ev.recover_cycle < 0 || ev.recover_cycle > ev.cycle,
                  "recovery must come after the fault");
      for (const fault::LinkFault& lf : ev.faults.link_faults()) {
        const bool is_row = lf.id.dim == fault::Dim::kRow;
        const int span = is_row ? net_.width() : net_.height();
        const int count = is_row ? net_.height() : net_.width();
        XLP_REQUIRE(lf.id.index < count && lf.id.link.hi < span,
                    "link fault outside the mesh");
      }
      for (const fault::PortFault& pf : ev.faults.port_faults())
        XLP_REQUIRE(pf.router < nodes, "port fault outside the mesh");
      // Order 1 = activation, 0 = recovery; at equal cycles recoveries
      // apply first so a replacement fault set takes over atomically.
      fault_edges_.emplace_back(ev.cycle, 1, e);
      if (ev.recover_cycle >= 0)
        fault_edges_.emplace_back(ev.recover_cycle, 0, e);
    }
    std::sort(fault_edges_.begin(), fault_edges_.end());
  }
}

int Simulator::pick_packet_bits() {
  const double u = rng_.uniform01();
  for (std::size_t k = 0; k < mix_cdf_.size(); ++k)
    if (u <= mix_cdf_[k]) return mix_bits_[k];
  return mix_bits_.back();
}

std::pair<int, int> Simulator::vc_class(bool y_first) const {
  if (config_.routing != RoutingMode::kO1Turn)
    return {0, config_.vcs_per_port};
  const int half = config_.vcs_per_port / 2;
  return y_first ? std::pair{half, config_.vcs_per_port}
                 : std::pair{0, half};
}

bool Simulator::choose_orientation(const route::MeshRouting& routing,
                                   int src, int dst, bool* y_first) {
  switch (config_.routing) {
    case RoutingMode::kXY: *y_first = false; break;
    case RoutingMode::kYX: *y_first = true; break;
    case RoutingMode::kO1Turn: {
      if (!faults_enabled_) {
        *y_first = rng_.bernoulli(0.5);
        return true;
      }
      // A degraded network may have severed one orientation class; O1TURN
      // traffic survives on the other.
      const bool xy_ok =
          routing.reachable(src, dst, route::Orientation::kXYFirst);
      const bool yx_ok =
          routing.reachable(src, dst, route::Orientation::kYXFirst);
      if (!xy_ok && !yx_ok) return false;
      *y_first = (xy_ok && yx_ok) ? rng_.bernoulli(0.5) : yx_ok;
      return true;
    }
  }
  if (!faults_enabled_) return true;
  return routing.reachable(src, dst,
                           *y_first ? route::Orientation::kYXFirst
                                    : route::Orientation::kXYFirst);
}

long Simulator::create_packet(int src, int dst, int bits) {
  bool y_first = false;
  if (!choose_orientation(admission_routing(), src, dst, &y_first)) {
    ++packets_unroutable_;
    return -1;
  }

  Packet pk;
  pk.id = static_cast<long>(packets_.size());
  pk.src = src;
  pk.dst = dst;
  pk.bits = bits;
  pk.flits = latency::PacketMix::flits_for(bits, net_.flit_bits());
  pk.created = cycle_;
  pk.measured = in_measurement_window();
  pk.y_first = y_first;
  if (pk.measured) ++outstanding_measured_;
  packets_.push_back(pk);

  auto& queue = nodes_[static_cast<std::size_t>(src)].source_queue;
  for (int s = 0; s < pk.flits; ++s) {
    Flit f;
    f.packet = pk.id;
    f.is_head = s == 0;
    f.is_tail = s == pk.flits - 1;
    f.dst = dst;
    f.y_first = y_first;
    queue.push_back(f);
  }
  return pk.id;
}

void Simulator::schedule_packet(int src, int dst, int bits,
                                long create_cycle) {
  XLP_REQUIRE(src >= 0 && src < net_.node_count() && dst >= 0 &&
                  dst < net_.node_count() && src != dst,
              "bad trace packet endpoints");
  XLP_REQUIRE(cycle_ == 0, "schedule_packet must be called before run()");
  scheduled_.emplace_back(create_cycle, src, dst, bits);
}

long Simulator::packet_latency(long packet_id) const {
  XLP_REQUIRE(packet_id >= 0 &&
                  packet_id < static_cast<long>(packets_.size()),
              "unknown packet id");
  const Packet& pk = packets_[static_cast<std::size_t>(packet_id)];
  return pk.ejected < 0 ? -1 : pk.ejected - pk.created;
}

long Simulator::buffered_flits(int router) const {
  XLP_REQUIRE(router >= 0 && router < net_.node_count(), "unknown router");
  return routers_[static_cast<std::size_t>(router)].buffered;
}

void Simulator::generate_traffic(int node) {
  auto& st = nodes_[static_cast<std::size_t>(node)];
  if (st.rate <= 0.0 || !rng_.bernoulli(st.rate)) return;

  const double u = rng_.uniform01();
  const auto it = std::lower_bound(st.dest_cdf.begin(), st.dest_cdf.end(), u);
  const int dst =
      st.dest_node[static_cast<std::size_t>(it - st.dest_cdf.begin())];
  create_packet(node, dst, pick_packet_bits());
}

void Simulator::inject(int node) {
  auto& st = nodes_[static_cast<std::size_t>(node)];
  // Graceful reconfiguration gates new packets while the network drains on
  // the old tables (sources keep queueing). A packet already mid-injection
  // keeps sending: its head holds VC claims along an old-table path, so the
  // tail must follow and release them before the tables may swap.
  if (draining_for_swap_ && st.active_vc < 0) return;
  if (st.source_queue.empty()) return;
  Flit& f = st.source_queue.front();

  if (f.is_head && st.active_vc < 0) {
    // NI-side VC allocation on the router's local input port, restricted
    // to the packet's orientation class.
    auto& port0 = routers_[static_cast<std::size_t>(node)].in[0];
    const auto [vc_lo, vc_hi] = vc_class(f.y_first);
    for (int v = vc_lo; v < vc_hi; ++v) {
      if (!port0[static_cast<std::size_t>(v)].owned) {
        port0[static_cast<std::size_t>(v)].owned = true;
        port0[static_cast<std::size_t>(v)].owner = f.packet;
        st.active_vc = v;
        st.active_packet = f.packet;
        break;
      }
    }
    if (st.active_vc < 0) return;  // all local VCs of this class busy
  }
  if (st.active_vc < 0) return;
  auto& credit =
      ni_credits_[static_cast<std::size_t>(node)]
                 [static_cast<std::size_t>(st.active_vc)];
  if (credit <= 0) return;

  Flit sent = f;
  sent.vc = st.active_vc;
  st.source_queue.pop_front();
  --credit;

  // NI-to-router wiring is length 0: the flit is written into the router's
  // local input buffer next cycle (the arrival handler stamps ready_cycle).
  ni_arrivals_.push_back({cycle_ + 1, node, sent});
  ++in_network_flits_;
  ++injected_flits_total_;

  if (sent.is_head) packets_[sent.packet].injected = cycle_ + 1;
  if (sent.is_tail) {
    st.active_vc = -1;
    st.active_packet = -1;
  }
}

void Simulator::deliver_channel_arrivals() {
  // NI arrivals.
  while (!ni_arrivals_.empty() &&
         std::get<0>(ni_arrivals_.front()) <= cycle_) {
    auto [when, node, f] = ni_arrivals_.front();
    ni_arrivals_.pop_front();
    XLP_CHECK(when == cycle_, "missed an NI arrival");
    f.ready_cycle = cycle_ + (config_.pipeline_stages - 1) +
                    extra_pipeline_[static_cast<std::size_t>(node)];
    RouterState& rs = routers_[static_cast<std::size_t>(node)];
    auto& vc = rs.in[0][static_cast<std::size_t>(f.vc)];
    XLP_CHECK(static_cast<int>(vc.buffer.size()) < rs.vc_depth,
              "credit protocol violated: NI overflow");
    vc.buffer.push_back(f);
    ++rs.buffered;
    if (in_measurement_window()) ++activity_.buffer_writes;
  }
  // Channel arrivals: this cycle's wheel bucket holds exactly the flits
  // whose link traversal ends now.
  auto& due = arrival_wheel_[static_cast<std::size_t>(
      cycle_ % static_cast<long>(arrival_wheel_.size()))];
  for (auto& [ch, f] : due) {
    const auto& channel = net_.channels()[static_cast<std::size_t>(ch)];
    f.ready_cycle =
        cycle_ + (config_.pipeline_stages - 1) +
        extra_pipeline_[static_cast<std::size_t>(channel.dst_router)];
    RouterState& rs = routers_[static_cast<std::size_t>(channel.dst_router)];
    auto& vc = rs.in[static_cast<std::size_t>(channel.dst_port)]
                    [static_cast<std::size_t>(f.vc)];
    XLP_CHECK(static_cast<int>(vc.buffer.size()) < rs.vc_depth,
              "credit protocol violated: input buffer overflow");
    vc.buffer.push_back(f);
    ++rs.buffered;
    if (in_measurement_window()) ++activity_.buffer_writes;
  }
  due.clear();
}

void Simulator::deliver_credits() {
  while (!credit_returns_.empty() &&
         std::get<0>(credit_returns_.front()) <= cycle_) {
    auto [when, ch, vc] = credit_returns_.front();
    credit_returns_.pop_front();
    const auto& channel = net_.channels()[static_cast<std::size_t>(ch)];
    ++routers_[static_cast<std::size_t>(channel.src_router)]
          .credits[static_cast<std::size_t>(channel.src_port)]
                  [static_cast<std::size_t>(vc)];
  }
  while (!ni_credit_returns_.empty() &&
         std::get<0>(ni_credit_returns_.front()) <= cycle_) {
    auto [when, node, vc] = ni_credit_returns_.front();
    ni_credit_returns_.pop_front();
    ++ni_credits_[static_cast<std::size_t>(node)]
                 [static_cast<std::size_t>(vc)];
  }
}

int Simulator::output_port(int router, int dst, bool y_first) const {
  if (router == dst) return 0;
  const int next = routing_->next_hop(router, dst,
                                      y_first ? route::Orientation::kYXFirst
                                              : route::Orientation::kXYFirst);
  const int p = net_.port_to(router, next);
  XLP_CHECK(p >= 1, "routing selected a node that is not a neighbor");
  return p;
}

void Simulator::allocate(int router) {
  auto& rs = routers_[static_cast<std::size_t>(router)];
  if (rs.buffered == 0) return;  // only buffered head flits allocate
  const int ports = net_.port_count(router);
  for (int p = 0; p < ports; ++p) {
    for (int v = 0; v < config_.vcs_per_port; ++v) {
      InVc& q = rs.in[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)];
      if (q.active || q.buffer.empty() || !q.buffer.front().is_head) continue;
      const Flit& head = q.buffer.front();
      // Route computation against the live (possibly rerouted) tables.
      const int out_port = output_port(router, head.dst, head.y_first);
      if (out_port == 0) {  // ejection needs no downstream VC
        q.out_port = 0;
        q.out_vc = 0;
        q.active = true;
        continue;
      }
      // VC allocation on the downstream input port, within the packet's
      // orientation class.
      const auto& port = net_.port(router, out_port);
      auto& peer_vcs = routers_[static_cast<std::size_t>(port.peer_router)]
                           .in[static_cast<std::size_t>(port.peer_port)];
      const auto [vc_lo, vc_hi] = vc_class(head.y_first);
      for (int u = vc_lo; u < vc_hi; ++u) {
        if (!peer_vcs[static_cast<std::size_t>(u)].owned) {
          peer_vcs[static_cast<std::size_t>(u)].owned = true;
          peer_vcs[static_cast<std::size_t>(u)].owner = head.packet;
          q.out_port = out_port;
          q.out_vc = u;
          q.active = true;
          // Virtual-express bypass: a straight-through packet (arrived via a
          // neighbor port and continues in the same dimension and
          // direction) skips the front pipeline stages at this router.
          if (config_.virtual_express_bypass && p != 0) {
            const auto& in_port = net_.port(router, p);
            q.bypass = port.dx == -in_port.dx && port.dy == -in_port.dy;
          }
          break;
        }
      }
    }
  }
}

void Simulator::arbitrate(int router) {
  auto& rs = routers_[static_cast<std::size_t>(router)];
  if (rs.buffered == 0) return;
  const int ports = net_.port_count(router);
  const int vcs = config_.vcs_per_port;

  // Gather every request that can win this cycle, in input-slot order.
  // Within a cycle only a grant changes eligibility: it marks its whole
  // input port used and spends a credit of the output it was granted on,
  // which has already been arbitrated. So one pass serves every output.
  candidates_.clear();
  for (int p = 0; p < ports; ++p) {
    const auto& port = rs.in[static_cast<std::size_t>(p)];
    for (int v = 0; v < vcs; ++v) {
      const InVc& q = port[static_cast<std::size_t>(v)];
      if (!q.active || q.buffer.empty()) continue;
      const Flit& front = q.buffer.front();
      const long ready = q.bypass
                             ? front.ready_cycle - (config_.pipeline_stages - 1)
                             : front.ready_cycle;
      if (ready > cycle_) continue;
      if (q.out_port != 0 &&
          rs.credits[static_cast<std::size_t>(q.out_port)]
                    [static_cast<std::size_t>(q.out_vc)] <= 0)
        continue;
      candidates_.push_back({p * vcs + v, p, v, q.out_port, front.packet,
                             ready});
    }
  }
  if (candidates_.empty()) return;

  auto& used = input_port_used_;
  std::fill(used.begin(), used.begin() + ports, 0);
  const int count = static_cast<int>(candidates_.size());
  for (int out = 0; out < ports; ++out) {
    int& rr = rs.rr[static_cast<std::size_t>(out)];

    // Select a winner in round-robin order, starting at the first slot
    // after the pointer and wrapping: the first eligible request, or the
    // one with the oldest packet under age-based arbitration (ties go to
    // the earlier slot in that order).
    int start = 0;
    while (start < count &&
           candidates_[static_cast<std::size_t>(start)].idx <= rr)
      ++start;
    const Candidate* chosen = nullptr;
    long chosen_age = std::numeric_limits<long>::max();
    for (int k = 0; k < count; ++k) {
      const int i = start + k < count ? start + k : start + k - count;
      const Candidate& c = candidates_[static_cast<std::size_t>(i)];
      if (c.out_port != out || used[static_cast<std::size_t>(c.port)])
        continue;
      if (config_.arbiter == Arbiter::kRoundRobin) {
        chosen = &c;
        break;
      }
      const long age = packets_[static_cast<std::size_t>(c.packet)].created;
      if (age < chosen_age) {
        chosen_age = age;
        chosen = &c;
      }
    }
    if (chosen == nullptr) continue;
    {
      const int p = chosen->port;
      const int v = chosen->vc;
      InVc& q =
          rs.in[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)];
      const long effective_ready = chosen->ready;

      // Grant: switch traversal this cycle, link traversal next.
      Flit f = q.buffer.front();
      q.buffer.pop_front();
      --rs.buffered;
      used[static_cast<std::size_t>(p)] = 1;
      rr = chosen->idx;
      ++grants_total_;

      const bool window = in_measurement_window();
      if (window) {
        ++activity_.buffer_reads;
        ++activity_.crossbar_traversals;
        contention_cycles_ += cycle_ - effective_ready;
        ++grants_measured_;
      }

      // Return the freed buffer slot upstream.
      if (p == 0) {
        ni_credit_returns_.push_back({cycle_ + 1, router, v});
      } else {
        credit_returns_.push_back(
            {cycle_ + 1, net_.port(router, p).in_channel, v});
      }

      if (out == 0) {
        --in_network_flits_;
        ++ejected_flits_total_;
        Packet& pk = packets_[f.packet];
        if (f.is_head) pk.head_ejected = cycle_ + 1;
        if (f.is_tail) {
          pk.ejected = cycle_ + 1;
          ++ejected_total_;
          last_ejection_cycle_ = cycle_ + 1;
          if (pk.measured) --outstanding_measured_;
        }
      } else {
        const auto& port = net_.port(router, out);
        if (faults_enabled_)
          XLP_CHECK(!channel_dead_[static_cast<std::size_t>(
                        port.out_channel)],
                    "granted a flit onto a dead channel");
        f.vc = q.out_vc;
        if (f.is_head) ++packets_[f.packet].hops;
        const long arrival = cycle_ + 1 + port.length;
        arrival_wheel_[static_cast<std::size_t>(
                           arrival % static_cast<long>(arrival_wheel_.size()))]
            .push_back({port.out_channel, f});
        --rs.credits[static_cast<std::size_t>(out)]
                    [static_cast<std::size_t>(q.out_vc)];
        if (window) {
          activity_.link_flit_units += port.length;
          ++channel_flits_measured_[static_cast<std::size_t>(
              port.out_channel)];
        }
      }

      if (f.is_tail) {
        q.active = false;
        q.owned = false;
        q.bypass = false;
        q.out_port = -1;
        q.out_vc = -1;
        q.owner = -1;
      }
    }
  }
}

SimStats Simulator::run() {
  const long measure_end = config_.warmup_cycles + config_.measure_cycles;
  const long hard_end = measure_end + config_.drain_cycles;
  const int nodes = net_.node_count();
  const bool recording =
      config_.series != nullptr && config_.series_interval_cycles > 0;

  std::sort(scheduled_.begin(), scheduled_.end());
  const obs::ProfileScope run_scope("sim.run");
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  for (cycle_ = 0; cycle_ < hard_end; ++cycle_) {
    if (cycle_ >= measure_end && outstanding_measured_ == 0 &&
        next_scheduled_ >= scheduled_.size())
      break;
    if (config_.control != nullptr && config_.control->stop_requested()) {
      status = config_.control->status();
      break;
    }
    // Single branch on the disabled path (bench/micro_core sim_run_8x8
    // gates this at <1% overhead); everything else happens inside.
    if (recording) {
      window_flit_cycles_ += in_network_flits_;
      if (cycle_ > 0 && cycle_ % config_.series_interval_cycles == 0)
        record_series();
    }
    if (faults_enabled_) {
      process_fault_edges();
      if (draining_for_swap_ && in_network_flits_ == 0 &&
          !injection_in_progress())
        perform_swap();
    }
    {
      // Link/credit traversal: flits and credits finishing their wires.
      const obs::ProfileScope phase("sim.traverse");
      deliver_channel_arrivals();
      deliver_credits();
    }
    {
      const obs::ProfileScope phase("sim.inject");
      while (next_scheduled_ < scheduled_.size() &&
             std::get<0>(scheduled_[next_scheduled_]) <= cycle_) {
        const auto [when, src, dst, bits] = scheduled_[next_scheduled_++];
        create_packet(src, dst, bits);
      }
      for (int node = 0; node < nodes; ++node) {
        generate_traffic(node);
        inject(node);
      }
    }
    {
      // Route computation + VC allocation for every head flit.
      const obs::ProfileScope phase("sim.route_vc_alloc");
      for (int r = 0; r < nodes; ++r) allocate(r);
    }
    {
      // Switch allocation + the grant's crossbar/link traversal.
      const obs::ProfileScope phase("sim.sw_alloc");
      for (int r = 0; r < nodes; ++r) arbitrate(r);
    }
  }
  if (status == runctl::RunStatus::kCompleted) {
    activity_.measured_cycles = config_.measure_cycles;
  } else {
    // Stopped mid-run: normalize rate statistics over the part of the
    // measurement window that actually elapsed (at least one cycle so the
    // divisions below stay well-defined).
    activity_.measured_cycles = std::max<long>(
        1, std::min(config_.measure_cycles, cycle_ - config_.warmup_cycles));
  }
  SimStats stats = finalize();
  stats.status = status;
  if (config_.trace != nullptr && config_.trace->enabled()) {
    emit_channel_heatmap(stats);
    config_.trace->emit(
        "sim.done",
        obs::Json::object()
            .set("cycles", cycle_)
            .set("packets_offered", stats.packets_offered)
            .set("packets_finished", stats.packets_finished)
            .set("avg_latency", stats.avg_latency)
            .set("drained", stats.drained)
            .set("status", runctl::to_string(status)));
  }
  return stats;
}

void Simulator::process_fault_edges() {
  bool changed = false;
  while (next_fault_edge_ < fault_edges_.size() &&
         std::get<0>(fault_edges_[next_fault_edge_]) <= cycle_) {
    const auto [when, order, ev] = fault_edges_[next_fault_edge_++];
    const bool is_recovery = order == 0;
    event_active_[ev] = is_recovery ? 0 : 1;
    changed = true;
    if (config_.trace != nullptr && config_.trace->enabled())
      config_.trace->emit(
          is_recovery ? "fault.recovered" : "fault.injected",
          obs::Json::object()
              .set("cycle", cycle_)
              .set("faults", config_.faults.events[ev].faults.to_string())
              .set("policy", config_.faults.policy ==
                                     FaultPolicy::kDrainThenSwap
                                 ? "drain_then_swap"
                                 : "drop_retransmit"));
  }
  if (!changed) return;
  active_faults_ = {};
  for (std::size_t e = 0; e < event_active_.size(); ++e) {
    if (!event_active_[e]) continue;
    for (const fault::LinkFault& lf :
         config_.faults.events[e].faults.link_faults())
      active_faults_.add(lf);
    for (const fault::PortFault& pf :
         config_.faults.events[e].faults.port_faults())
      active_faults_.add(pf);
  }
  apply_fault_epoch();
}

void Simulator::apply_fault_epoch() {
  fault::RerouteResult rr =
      fault::reroute(net_.mesh(), active_faults_, net_.hop_weights());
  XLP_CHECK(rr.deadlock_free(),
            "rerouted tables are not deadlock-free: " +
                route::describe_channels(rr.cycle_witness));
  pending_routing_ = std::move(rr.routing);
  pending_unreachable_xy_ = std::move(rr.unreachable_xy);
  pending_unreachable_yx_ = std::move(rr.unreachable_yx);
  if (config_.faults.policy == FaultPolicy::kDrainThenSwap &&
      (in_network_flits_ > 0 || injection_in_progress())) {
    draining_for_swap_ = true;
    return;
  }
  perform_swap();
}

bool Simulator::injection_in_progress() const {
  // A node with a claimed NI VC is mid-packet: flits already routed by the
  // old tables are (or will be) holding VCs downstream, so a table swap
  // must wait for its tail even when no flit is currently in the network.
  for (const NodeState& st : nodes_)
    if (st.active_vc >= 0) return true;
  return false;
}

void Simulator::perform_swap() {
  draining_for_swap_ = false;

  // Dead directed channels under the new fault set.
  const int w = net_.width();
  std::vector<char> dead(net_.channels().size(), 0);
  for (std::size_t ch = 0; ch < net_.channels().size(); ++ch) {
    const auto& channel = net_.channels()[ch];
    const int sx = channel.src_router % w, sy = channel.src_router / w;
    const int dx = channel.dst_router % w, dy = channel.dst_router / w;
    dead[ch] = sy == dy
                   ? active_faults_.kills(fault::Dim::kRow, sy, sx, dx)
                   : active_faults_.kills(fault::Dim::kCol, sx, sy, dy);
  }

  // Victim selection (kDropRetransmit): every in-flight packet whose route
  // under the OLD tables crosses a newly dead channel. Conservative — a
  // worm that already cleared the channel is purged and retransmitted too.
  std::vector<long> victim_ids;
  if (config_.faults.policy == FaultPolicy::kDropRetransmit) {
    std::vector<char> victim(packets_.size(), 0);
    for (const Packet& pk : packets_) {
      if (pk.injected < 0 || pk.ejected >= 0 || pk.dropped) continue;
      const std::vector<int> path =
          routing_->path(pk.src, pk.dst,
                         pk.y_first ? route::Orientation::kYXFirst
                                    : route::Orientation::kXYFirst);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const int p = net_.port_to(path[i], path[i + 1]);
        XLP_CHECK(p >= 1, "old route left the topology");
        const int ch = net_.port(path[i], p).out_channel;
        if (dead[static_cast<std::size_t>(ch)]) {
          victim[static_cast<std::size_t>(pk.id)] = 1;
          victim_ids.push_back(pk.id);
          break;
        }
      }
    }
    if (!victim_ids.empty()) purge_packets(victim);
  }

  // The swap itself. in_network_flits_ == 0 here under kDrainThenSwap.
  degraded_routing_ = std::move(*pending_routing_);
  pending_routing_.reset();
  routing_ = &*degraded_routing_;
  channel_dead_ = std::move(dead);
  for (int r = 0; r < net_.node_count(); ++r)
    extra_pipeline_[static_cast<std::size_t>(r)] =
        active_faults_.extra_pipeline_cycles(r);

  // Queued-but-uninjected packets chose their orientation under the old
  // tables; re-check it. A severed orientation flips to the surviving one
  // under O1TURN (no rng draw, to keep the stream stable) or loses the
  // packet under pure DOR.
  for (auto& st : nodes_) {
    if (st.source_queue.empty()) continue;
    std::deque<Flit> kept;
    for (Flit& f : st.source_queue) {
      Packet& pk = packets_[static_cast<std::size_t>(f.packet)];
      if (pk.dropped) continue;
      if (pk.injected >= 0) {  // mid-injection: orientation is committed
        kept.push_back(f);
        continue;
      }
      if (f.is_head &&
          !routing_->reachable(pk.src, pk.dst,
                               pk.y_first ? route::Orientation::kYXFirst
                                          : route::Orientation::kXYFirst)) {
        const bool other_ok =
            config_.routing == RoutingMode::kO1Turn &&
            routing_->reachable(pk.src, pk.dst,
                                pk.y_first ? route::Orientation::kXYFirst
                                           : route::Orientation::kYXFirst);
        if (other_ok) {
          pk.y_first = !pk.y_first;
        } else {
          pk.dropped = true;
          ++packets_lost_;
          if (pk.measured) --outstanding_measured_;
          continue;
        }
      }
      f.y_first = pk.y_first;
      kept.push_back(f);
    }
    st.source_queue = std::move(kept);
  }

  // Retransmissions ride the new tables and keep the original creation
  // timestamp, so measured latency includes the fault penalty.
  long retransmitted_now = 0;
  for (const long id : victim_ids) {
    Packet& old = packets_[static_cast<std::size_t>(id)];
    if (old.retries >= config_.faults.max_retries) {
      ++packets_lost_;
      continue;
    }
    bool y_first = false;
    if (!choose_orientation(*routing_, old.src, old.dst, &y_first)) {
      ++packets_lost_;
      continue;
    }
    Packet pk;
    pk.id = static_cast<long>(packets_.size());
    pk.src = old.src;
    pk.dst = old.dst;
    pk.bits = old.bits;
    pk.flits = old.flits;
    pk.created = old.created;
    pk.measured = old.measured;
    pk.y_first = y_first;
    pk.retries = old.retries + 1;
    old.superseded = true;
    if (pk.measured) ++outstanding_measured_;
    packets_.push_back(pk);
    auto& queue = nodes_[static_cast<std::size_t>(pk.src)].source_queue;
    for (int s = 0; s < pk.flits; ++s) {
      Flit f;
      f.packet = pk.id;
      f.is_head = s == 0;
      f.is_tail = s == pk.flits - 1;
      f.dst = pk.dst;
      f.y_first = y_first;
      queue.push_back(f);
    }
    ++packets_retransmitted_;
    ++retransmitted_now;
  }

  ++reroutes_;
  if (config_.trace != nullptr && config_.trace->enabled())
    config_.trace->emit(
        "fault.rerouted",
        obs::Json::object()
            .set("cycle", cycle_)
            .set("faults", active_faults_.to_string())
            .set("unreachable_xy",
                 static_cast<long>(pending_unreachable_xy_.size()))
            .set("unreachable_yx",
                 static_cast<long>(pending_unreachable_yx_.size()))
            .set("packets_dropped", static_cast<long>(victim_ids.size()))
            .set("packets_retransmitted", retransmitted_now));
}

void Simulator::purge_packets(const std::vector<char>& victim) {
  const int nodes = net_.node_count();
  const auto is_victim = [&victim](long id) {
    return id >= 0 && id < static_cast<long>(victim.size()) &&
           victim[static_cast<std::size_t>(id)] != 0;
  };

  // Source queues and the NI-side packet claim.
  for (auto& st : nodes_) {
    if (!st.source_queue.empty()) {
      std::deque<Flit> kept;
      for (const Flit& f : st.source_queue)
        if (!is_victim(f.packet)) kept.push_back(f);
      st.source_queue = std::move(kept);
    }
    if (is_victim(st.active_packet)) {
      st.active_vc = -1;
      st.active_packet = -1;
    }
  }

  // Flits in flight from an NI into its router: the NI credit was consumed
  // at injection; restore it directly.
  {
    std::deque<std::tuple<long, int, Flit>> kept;
    for (auto& entry : ni_arrivals_) {
      const Flit& f = std::get<2>(entry);
      if (is_victim(f.packet)) {
        ++ni_credits_[static_cast<std::size_t>(std::get<1>(entry))]
                     [static_cast<std::size_t>(f.vc)];
        --in_network_flits_;
      } else {
        kept.push_back(std::move(entry));
      }
    }
    ni_arrivals_ = std::move(kept);
  }

  // Flits on the wire: the upstream credit was decremented at grant time
  // and the flit will never occupy the downstream buffer; restore directly.
  for (auto& bucket : arrival_wheel_) {
    std::erase_if(bucket, [&](const std::pair<int, Flit>& entry) {
      if (!is_victim(entry.second.packet)) return false;
      const auto& channel =
          net_.channels()[static_cast<std::size_t>(entry.first)];
      ++routers_[static_cast<std::size_t>(channel.src_router)]
            .credits[static_cast<std::size_t>(channel.src_port)]
                    [static_cast<std::size_t>(entry.second.vc)];
      --in_network_flits_;
      return true;
    });
  }

  // Router input buffers: freed slots return upstream over the normal
  // credit path (one cycle), and any VC reservation a victim held is
  // released — including owned-but-empty VCs claimed via allocation.
  for (int r = 0; r < nodes; ++r) {
    auto& rs = routers_[static_cast<std::size_t>(r)];
    for (int p = 0; p < net_.port_count(r); ++p) {
      for (int v = 0; v < config_.vcs_per_port; ++v) {
        InVc& q =
            rs.in[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)];
        // Rotate the ring once, re-queueing the survivors in order.
        for (int held = q.buffer.size(); held > 0; --held) {
          const Flit f = q.buffer.front();
          q.buffer.pop_front();
          if (!is_victim(f.packet)) {
            q.buffer.push_back(f);
            continue;
          }
          if (p == 0) {
            ni_credit_returns_.push_back({cycle_ + 1, r, v});
          } else {
            credit_returns_.push_back(
                {cycle_ + 1, net_.port(r, p).in_channel, v});
          }
          --in_network_flits_;
          --rs.buffered;
        }
        if (q.owned && is_victim(q.owner)) {
          q.owned = false;
          q.active = false;
          q.bypass = false;
          q.out_port = -1;
          q.out_vc = -1;
          q.owner = -1;
        }
      }
    }
  }

  for (std::size_t id = 0; id < victim.size(); ++id) {
    if (!victim[id]) continue;
    Packet& pk = packets_[id];
    pk.dropped = true;
    ++packets_dropped_;
    if (pk.measured) --outstanding_measured_;
  }
}

void Simulator::record_series() {
  obs::SeriesRecorder& rec = *config_.series;
  const double x = static_cast<double>(cycle_);
  rec.append("sim.injected_flits", x,
             static_cast<double>(injected_flits_total_ - window_injected_));
  rec.append("sim.ejected_flits", x,
             static_cast<double>(ejected_flits_total_ - window_ejected_));
  rec.append("sim.in_network_flits", x,
             static_cast<double>(in_network_flits_));
  // Network-wide, all phases, source-queue backlog included: the
  // saturation curve the in-network flit count alone cannot show.
  rec.append("sim.packets_in_flight", x,
             static_cast<double>(static_cast<long>(packets_.size()) -
                                 ejected_total_));

  // Occupancy scan is O(routers x ports x vcs) but runs only once per
  // series window, never per cycle.
  long active_routers = 0;
  long occupied_vcs = 0;
  long total_vcs = 0;
  for (const RouterState& rs : routers_) {
    bool active = false;
    for (const auto& port : rs.in) {
      for (const InVc& vc : port) {
        ++total_vcs;
        if (!vc.buffer.empty()) {
          active = true;
          ++occupied_vcs;
        }
      }
    }
    if (active) ++active_routers;
  }
  rec.append("sim.active_routers", x, static_cast<double>(active_routers));
  rec.append("sim.vc_occupancy", x,
             total_vcs > 0 ? static_cast<double>(occupied_vcs) /
                                 static_cast<double>(total_vcs)
                           : 0.0);

  // Fraction of flit-cycles in the window that did not advance: a flit
  // sitting in the network for a cycle either won a switch grant or
  // stalled (pipeline latency counts as stall here, so zero-load runs
  // report the pipeline floor, not 0).
  const long grants = grants_total_ - window_grants_;
  const double stalled =
      window_flit_cycles_ > 0
          ? 1.0 - static_cast<double>(grants) /
                      static_cast<double>(window_flit_cycles_)
          : 0.0;
  rec.append("sim.stall_fraction", x, std::clamp(stalled, 0.0, 1.0));

  window_injected_ = injected_flits_total_;
  window_ejected_ = ejected_flits_total_;
  window_grants_ = grants_total_;
  window_flit_cycles_ = 0;
}

void Simulator::emit_channel_heatmap(const SimStats& stats) const {
  obs::Json channels = obs::Json::array();
  const double cycles = std::max<double>(
      1.0, static_cast<double>(stats.activity.measured_cycles));
  for (std::size_t ch = 0; ch < stats.channel_flits.size(); ++ch) {
    const auto& channel = net_.channels()[ch];
    channels.push(
        obs::Json::object()
            .set("src", channel.src_router)
            .set("dst", channel.dst_router)
            .set("length", channel.length)
            .set("flits", stats.channel_flits[ch])
            .set("utilization",
                 static_cast<double>(stats.channel_flits[ch]) / cycles));
  }
  config_.trace->emit("sim.channel_utilization",
                      obs::Json::object()
                          .set("measured_cycles",
                               stats.activity.measured_cycles)
                          .set("flit_bits", net_.flit_bits())
                          .set("width", net_.width())
                          .set("height", net_.height())
                          .set("channels", std::move(channels)));
}

SimStats Simulator::finalize() const {
  for (const RouterState& rs : routers_) {
    long held = 0;
    for (const auto& port : rs.in)
      for (const InVc& q : port) held += static_cast<long>(q.buffer.size());
    XLP_CHECK(held == rs.buffered,
              "router flit counter out of step with its input buffers");
  }

  SimStats stats;
  stats.activity = activity_;
  stats.channel_flits = channel_flits_measured_;
  stats.last_ejection_cycle = last_ejection_cycle_;
  stats.reroutes = reroutes_;
  stats.packets_dropped = packets_dropped_;
  stats.packets_retransmitted = packets_retransmitted_;
  stats.packets_lost = packets_lost_;
  stats.packets_unroutable = packets_unroutable_;

  const long measure_start = config_.warmup_cycles;
  const long measure_end = measure_start + config_.measure_cycles;
  const int nodes = net_.node_count();

  double latency_sum = 0.0;
  double head_latency_sum = 0.0;
  long hops_sum = 0;
  std::vector<double> latencies;
  for (const Packet& pk : packets_) {
    if (pk.superseded) continue;  // its retransmitted copy carries the stats
    if (pk.ejected >= measure_start && pk.ejected < measure_end)
      ++stats.packets_ejected_in_window;
    if (!pk.measured) continue;
    ++stats.packets_offered;
    if (pk.ejected < 0) continue;
    ++stats.packets_finished;
    const auto total = static_cast<double>(pk.ejected - pk.created);
    latency_sum += total;
    head_latency_sum += static_cast<double>(pk.head_ejected - pk.created);
    hops_sum += pk.hops;
    latencies.push_back(total);
    stats.max_latency = std::max(stats.max_latency, total);
  }
  if (stats.packets_finished > 0) {
    stats.avg_latency = latency_sum / stats.packets_finished;
    stats.avg_head_latency = head_latency_sum / stats.packets_finished;
    stats.avg_hops =
        static_cast<double>(hops_sum) / stats.packets_finished;

    double sq = 0.0;
    for (const double x : latencies) {
      const double d = x - stats.avg_latency;
      sq += d * d;
    }
    stats.stddev_latency = std::sqrt(sq / latencies.size());

    // Percentiles through the shared log-bucketed histogram. Latencies are
    // integral cycle counts, so sizing the exact (unit-bucket) range to
    // cover the observed max reproduces the historical sort-based
    // sorted[floor(p * (n - 1))] values byte-for-byte — the histogram's
    // nearest-rank rule is the same formula. (Beyond 2^22 cycles the
    // exact range caps out and quantiles become log-bucketed; no
    // simulation this code runs gets near that.)
    int hist_bits = 1;
    while (hist_bits < 22 &&
           static_cast<double>(1L << hist_bits) <= stats.max_latency)
      ++hist_bits;
    obs::Histogram latency_hist(hist_bits);
    for (const double x : latencies) latency_hist.record(static_cast<long>(x));
    stats.p50_latency =
        static_cast<double>(latency_hist.value_at_quantile(0.50));
    stats.p95_latency =
        static_cast<double>(latency_hist.value_at_quantile(0.95));
    stats.p99_latency =
        static_cast<double>(latency_hist.value_at_quantile(0.99));

    // Batch means over the measurement window for a confidence interval
    // (consecutive batches damp the autocorrelation of queueing systems).
    constexpr int kBatches = 10;
    // activity_.measured_cycles == config_.measure_cycles on a completed
    // run; it is the (shorter) elapsed window when the run was stopped.
    const long batch_span =
        std::max<long>(1, activity_.measured_cycles / kBatches);
    double batch_sum[kBatches] = {};
    long batch_count[kBatches] = {};
    for (const Packet& pk : packets_) {
      if (!pk.measured || pk.ejected < 0) continue;
      const long idx64 = (pk.created - measure_start) / batch_span;
      const int b = static_cast<int>(std::min<long>(idx64, kBatches - 1));
      batch_sum[b] += static_cast<double>(pk.ejected - pk.created);
      ++batch_count[b];
    }
    double means[kBatches];
    int k = 0;
    for (int b = 0; b < kBatches; ++b)
      if (batch_count[b] > 0) means[k++] = batch_sum[b] / batch_count[b];
    if (k >= 2) {
      double mean_of_means = 0.0;
      for (int b = 0; b < k; ++b) mean_of_means += means[b];
      mean_of_means /= k;
      double var = 0.0;
      for (int b = 0; b < k; ++b) {
        const double d = means[b] - mean_of_means;
        var += d * d;
      }
      var /= (k - 1);
      // t-quantile for small k; 2.262 is t(0.975, 9), a good constant for
      // ~10 batches.
      stats.ci95_latency = 2.262 * std::sqrt(var / k);
    }
  }
  stats.drained = stats.packets_finished == stats.packets_offered;

  const double node_cycles =
      static_cast<double>(activity_.measured_cycles) * nodes;
  stats.throughput_packets_per_node_cycle =
      static_cast<double>(stats.packets_ejected_in_window) / node_cycles;
  stats.offered_packets_per_node_cycle =
      static_cast<double>(stats.packets_offered) / node_cycles;
  if (grants_measured_ > 0)
    stats.avg_contention_per_hop =
        static_cast<double>(contention_cycles_) / grants_measured_;
  return stats;
}

}  // namespace xlp::sim
