// Layer probes: timed calls into each layer's public API, sized from what
// the measured run reported (heap depth, loss rate, session size). Each
// probe repeats its loop three times and keeps the median; probes that
// allocate count their allocations with the benchmark's own counter, so the
// run's alloc.per_dispatch can be attributed to layers.
#pragma once

#include <cstddef>

namespace perfbench {

struct ProbeInputs {
  std::size_t heap_depth = 0;  // the run's scheduler heap high-water
  double loss_rate = 0.0;      // the run's bottleneck drop rate
  int receivers = 27;          // the run's session size n
};

struct ProbeResults {
  double push_pop_ns = 0;          // schedule + dispatch at heap_depth
  double burst_event_ns = 0;       // one event in a short sorted burst
  double link_hop_ns = 0;          // one packet over one link, end to end
  double link_hop_self_ns = 0;     // ... minus its scheduler events
  double droptail_op_ns = 0;       // enqueue + dequeue
  double red_op_ns = 0;            // enqueue (+ dequeue) at RED's operating point
  double mcast_fanout_ns = 0;      // per delivered copy, 27-way fan-out
  double reassembly_ns_inorder = 0, reassembly_allocs_inorder = 0;
  double reassembly_ns_lossy = 0, reassembly_allocs_lossy = 0;
  double conn_setup_ns = 0, conn_setup_allocs = 0;  // per sender+receiver pair
  double census_ns_n27 = 0, census_ns_n1000 = 0, census_ns_n10000 = 0;
  double census_ns_at_n = 0;
  double scoreboard_ns = 0;        // one ACK's scoreboard work
  double rla_ack_ns_n27 = 0, rla_ack_ns_n1000 = 0, rla_ack_ns_n10000 = 0;
  double rla_ack_self_ns_at_n = 0;  // at n, minus its scheduler events
};

ProbeResults run_probes(const ProbeInputs& in);

}  // namespace perfbench
