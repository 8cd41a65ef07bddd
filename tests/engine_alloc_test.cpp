// Zero-allocation guarantees of the event engine and packet pipeline.
//
// This binary replaces the global operator new/delete with counting
// wrappers, warms each subsystem past its growth phase (slab, heap, packet
// rings), and then asserts that a steady-state window — timer re-arms, link
// traffic, paced sends, a pipe that never drains, multicast fan-out —
// performs literally zero heap allocations.
// The counter is per-binary, which is why this test lives in its own file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace {
std::uint64_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rlacast {
namespace {

class CountingSink final : public net::Agent {
 public:
  void on_receive(const net::Packet&) override { ++received; }
  std::uint64_t received = 0;
};

TEST(EngineAlloc, SteadyStateTimerChurnAllocatesNothing) {
  sim::Simulator sim;
  int fires = 0;
  sim::Timer t(sim, [&] { ++fires; });
  // Warm-up: grow the slab and heap, exercise arm, in-place reschedule,
  // fire, and slot reuse once each.
  for (int i = 0; i < 8; ++i) {
    t.schedule(1.0);
    t.schedule(2.0);
    sim.run_all();
  }

  const std::uint64_t before = g_news;
  for (int i = 0; i < 10000; ++i) {
    t.schedule(1.0);  // arm (slot reuse)
    t.schedule(2.0);  // in-place retarget
    sim.run_all();    // fire
  }
  EXPECT_EQ(g_news - before, 0u)
      << "timer arm/reschedule/fire cycle hit the heap";
  EXPECT_EQ(fires, 8 + 10000);
}

TEST(EngineAlloc, SteadyStateLinkTrafficAllocatesNothing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1000 B -> 1 ms serialization
  cfg.delay = 0.01;
  cfg.buffer_pkts = 64;
  net.connect(a, b, cfg);
  net.build_routes();
  CountingSink sink;
  net.attach(b, 1, &sink);

  // CBR source at half the link rate, driven by a self-rescheduling timer —
  // the same shape as every periodic agent in the repository.
  net::SeqNum next_seq = 0;
  sim::Timer src(sim, [&] {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.dst_port = 1;
    p.seq = next_seq++;
    net.inject(p);
    src.schedule(0.002);
  });
  src.schedule(0.0);
  sim.run_until(0.5);  // warm-up: queue ring, pipe ring, slab, heap

  const std::uint64_t before = g_news;
  const std::uint64_t delivered_before = sink.received;
  sim.run_until(10.0);
  EXPECT_EQ(g_news - before, 0u) << "link pipeline hit the heap";
  EXPECT_GT(sink.received - delivered_before, 4000u);
}

TEST(EngineAlloc, SteadyStatePacedSendsAllocateNothing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = 0.01;
  cfg.buffer_pkts = 64;
  net.connect(a, b, cfg);
  net.build_routes();
  CountingSink sink;
  net.attach(b, 1, &sink);

  // Up to 5 ms of processing per packet at one send per 2 ms: departures
  // queue up behind each other in the pacer's pipe.
  net::SendPacer pacer(sim, net, sim.rng_stream("pacer"), 0.005);
  net::SeqNum next_seq = 0;
  sim::Timer src(sim, [&] {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.dst_port = 1;
    p.seq = next_seq++;
    pacer.send(p);
    src.schedule(0.002);
  });
  src.schedule(0.0);
  sim.run_until(0.5);

  const std::uint64_t before = g_news;
  const std::uint64_t delivered_before = sink.received;
  sim.run_until(10.0);
  EXPECT_EQ(g_news - before, 0u) << "paced send path hit the heap";
  EXPECT_GT(sink.received - delivered_before, 4000u);
}

TEST(EngineAlloc, NeverDrainingPipeWrapsWithoutGrowing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1 ms serialization
  cfg.delay = 0.05;         // ~25 packets always propagating at 500 pkt/s
  cfg.buffer_pkts = 64;
  net.connect(a, b, cfg);
  net.build_routes();
  CountingSink sink;
  net.attach(b, 1, &sink);
  net::Link* link = net.link_between(a, b);

  net::SeqNum next_seq = 0;
  sim::Timer src(sim, [&] {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.dst_port = 1;
    p.seq = next_seq++;
    net.inject(p);
    src.schedule(0.002);
  });
  src.schedule(0.0);
  sim.run_until(0.5);  // warm-up: the pipe fills and its ring sizes up

  // Probe the pipe every 0.5 ms: it must never empty in the window, so its
  // ring head wraps around thousands of times over live packets.
  std::size_t min_in_flight = link->in_flight();
  sim::Timer probe(sim, [&] {
    min_in_flight = std::min(min_in_flight, link->in_flight());
    probe.schedule(0.0005);
  });
  probe.schedule(0.0005);
  sim.run_until(0.6);

  const std::uint64_t before = g_news;
  const std::size_t hiwater_before = link->in_flight_hiwater();
  const std::uint64_t delivered_before = sink.received;
  sim.run_until(10.0);
  EXPECT_EQ(g_news - before, 0u) << "wrapping pipe ring hit the heap";
  EXPECT_GE(min_in_flight, 20u) << "the pipe drained during the window";
  EXPECT_EQ(link->in_flight_hiwater(), hiwater_before);
  EXPECT_GT(sink.received - delivered_before, 4000u);
}

TEST(EngineAlloc, SteadyStateMulticastFanOutAllocatesNothing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId s = net.add_node();
  const net::NodeId g = net.add_node();
  const net::NodeId r1 = net.add_node();
  const net::NodeId r2 = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = 0.01;
  cfg.buffer_pkts = 64;
  net.connect(s, g, cfg);
  net.connect(g, r1, cfg);
  net.connect(g, r2, cfg);
  net.build_routes();
  const net::GroupId group = 1;
  net.join_group(group, s, r1);
  net.join_group(group, s, r2);
  CountingSink sink1, sink2;
  net.subscribe(group, r1, &sink1);
  net.subscribe(group, r2, &sink2);

  net::SeqNum next_seq = 0;
  sim::Timer src(sim, [&] {
    net::Packet p;
    p.src = s;
    p.group = group;
    p.seq = next_seq++;
    net.inject(p);
    src.schedule(0.002);
  });
  src.schedule(0.0);
  sim.run_until(0.5);

  const std::uint64_t before = g_news;
  sim.run_until(10.0);
  EXPECT_EQ(g_news - before, 0u) << "multicast fan-out hit the heap";
  EXPECT_GT(sink1.received, 4000u);
  EXPECT_EQ(sink1.received, sink2.received);
}

}  // namespace
}  // namespace rlacast
