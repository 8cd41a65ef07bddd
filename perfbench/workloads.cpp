#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <functional>

#include "model/formulas.hpp"
#include "net/link.hpp"
#include "net/red.hpp"
#include "replay/snapshot.hpp"
#include "rla/rla_sender.hpp"
#include "sim/simulator.hpp"
#include "topo/big_tree.hpp"
#include "topo/tertiary_tree.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  // Calls are short and many, each on its own sub-seed. The simulated load
  // of a call depends on its seed: on the 27-leaf tree the RLA session keeps
  // growing its share for the first minute (events per simulated second
  // rise from 60k over [3 s, 10 s] to 120k over [30 s, 120 s]), and how fast
  // it grows varies between seeds, so per-call load varies by 13 % for 20 s
  // calls and by 25 % for 40 s or 60 s calls. Many short calls average that
  // out fastest. The scale workload runs n = 10^3: at n = 10^4 a call short
  // enough to repeat covers ~2 simulated seconds whose load varies 2x
  // between seeds.
  static const std::vector<Workload> kAll = {
      {.name = "tree27-droptail", .duration = 20.0, .warmup = 5.0},
      {.name = "scale-n1k-red", .big_tree = true, .receivers = 1000,
       .group_size = 25, .duration = 6.0, .warmup = 2.0},
      {.name = "web-churn", .web = true, .duration = 20.0, .warmup = 5.0},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

void SpanHistogram::add(std::uint64_t ns) {
  if (buckets_.empty()) buckets_.resize(kBuckets);
  ++buckets_[std::min<std::uint64_t>(ns, kBuckets - 1)];
  ++count_;
}

double SpanHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto need = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > need) return static_cast<double>(i);
  }
  return static_cast<double>(kBuckets - 1);
}

namespace {

/// Passive observer: collects the RLA sender and links as they
/// attach themselves, counts RNG draws, and (traced runs) records one span per
/// dispatch — the host time between consecutive dispatch notifications,
/// i.e. one event's callback plus the scheduler work to reach the next.
/// Marker-free runs read the final totals at teardown (detach).
class BenchObserver final : public rlacast::replay::RunObserver {
 public:
  explicit BenchObserver(SpanHistogram& spans) : spans_(spans) {}

  bool timing = false;
  std::uint64_t draws = 0;
  const rlacast::rla::RlaSender* rla = nullptr;
  std::vector<const rlacast::net::Link*> links;
  std::uint64_t teardown_acks = 0;
  std::uint64_t teardown_dispatched = 0;

  std::uint32_t on_stream(std::string_view) override { return streams_++; }
  void on_draw(std::uint32_t, std::uint64_t) override { ++draws; }
  void on_dispatch(std::uint64_t, double) override {
    if (!timing) return;
    const auto now = std::chrono::steady_clock::now();
    if (have_last_)
      spans_.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
              .count()));
    last_ = now;
    have_last_ = true;
  }
  void stop_timing() {
    timing = false;
    have_last_ = false;
  }
  void attach(std::string, const rlacast::replay::Snapshotable* c) override {
    if (const auto* s = dynamic_cast<const rlacast::rla::RlaSender*>(c)) {
      if (rla == nullptr) rla = s;
    } else if (const auto* l = dynamic_cast<const rlacast::net::Link*>(c)) {
      links.push_back(l);
    }
  }
  void detach(const rlacast::replay::Snapshotable* c) override {
    if (c == rla) {
      teardown_acks = rla->acks_received();
      rla = nullptr;
    } else if (const auto* s =
                   dynamic_cast<const rlacast::sim::Scheduler*>(c)) {
      teardown_dispatched = s->dispatched();
    }
  }

 private:
  SpanHistogram& spans_;
  std::uint32_t streams_ = 0;
  bool have_last_ = false;
  std::chrono::steady_clock::time_point last_{};
};

Mark take_mark(const rlacast::sim::Simulator& sim, const BenchObserver& obs) {
  Mark m;
  m.wall = now_s();
  m.alloc = alloc_now();
  m.taken = true;
  m.ec = sim.scheduler().counters();
  m.draws = obs.draws;
  if (obs.rla != nullptr) m.acks = obs.rla->acks_received();
  for (const rlacast::net::Link* l : obs.links) {
    m.link_hops += l->packets_delivered();
    const auto& st = l->queue().stats();
    const std::uint64_t arrivals = st.enqueued + st.dropped;
    if (dynamic_cast<const rlacast::net::RedQueue*>(&l->queue()) != nullptr)
      m.red_arrivals += arrivals;
    else
      m.droptail_arrivals += arrivals;
  }
  return m;
}

constexpr int kStateSamples = 10;
constexpr std::uint64_t kMarkerEvents = 3 + kStateSamples;

/// Installs the observer and the marker events on the runner's simulator.
std::function<void(rlacast::sim::Simulator&)> instrument(
    const Workload& w, RunOptions opt, BenchObserver& obs, RunOutcome& out,
    double fast_link_bps) {
  return [&w, opt, &obs, &out, fast_link_bps](rlacast::sim::Simulator& sim) {
    sim.set_observer(&obs);
    if (!opt.markers) return;
    sim.at(0.0, [&sim, &obs, &out, traced = opt.traced] {
      out.t0 = take_mark(sim, obs);
      // Untraced runs observe set-up only (to find the sender and links);
      // the run itself dispatches unobserved.
      if (!traced) sim.set_observer(nullptr);
    });
    if (opt.setup_only) return;
    sim.at(w.warmup, [&sim, &obs, &out, traced = opt.traced] {
      out.warm = take_mark(sim, obs);
      obs.timing = traced;
    });
    // Sender state is sampled at evenly spaced instants of the measured
    // phase: its size follows the window, so one end-of-run reading would
    // mostly measure where the window happened to be.
    for (int k = 0; k < kStateSamples; ++k) {
      const double at = w.warmup + (k + 0.5) * (w.duration - w.warmup) /
                                       kStateSamples;
      sim.at(at, [&obs, &out] {
        if (obs.rla == nullptr) return;
        out.sender_bytes_per_rcvr +=
            static_cast<double>(obs.rla->state_bytes()) /
            static_cast<double>(obs.rla->receiver_count()) / kStateSamples;
        out.materialized_hiwater = std::max(
            out.materialized_hiwater, obs.rla->materialized_scoreboards());
      });
    }
    sim.at(w.duration, [&sim, &obs, &out, fast_link_bps] {
      obs.stop_timing();
      out.end = take_mark(sim, obs);
      std::uint64_t offpath = 0;
      for (const rlacast::net::Link* l : obs.links)
        if (l->bandwidth_bps() >= fast_link_bps)
          offpath += l->queue().stats().dropped;
      out.offpath_drops = offpath;
    });
  };
}

void run_tree(const Workload& w, std::uint64_t seed, RunOptions opt,
              BenchObserver& obs, RunOutcome& out) {
  using namespace rlacast;
  topo::TreeConfig cfg;
  cfg.bottleneck = topo::TreeCase::kL1;
  cfg.gateway = topo::GatewayType::kDropTail;
  cfg.duration = opt.setup_only ? 0.0 : w.duration;
  cfg.warmup = opt.setup_only ? 0.0 : w.warmup;
  cfg.seed = seed;
  if (w.web) cfg.traffic.kind = workload::TrafficKind::kWeb;
  cfg.instrument = instrument(w, opt, obs, out, cfg.fast_link_bps);

  out.alloc_call = alloc_now();
  out.t_call = now_s();
  const topo::TreeResult res = topo::run_tertiary_tree(cfg);
  out.t_return = now_s();

  out.rla = res.rla;
  out.tcps = res.tcps;
  out.dispatched = opt.markers ? out.end.ec.dispatched - kMarkerEvents
                               : obs.teardown_dispatched;
  out.acks = opt.markers ? out.end.acks : obs.teardown_acks;
  const auto band = model::theorem2_droptail_bounds(w.receivers);
  out.band_lo = band.lo;
  out.band_hi = band.hi;
  out.bottleneck_drop_rate =
      res.bottleneck_drop_rate.empty() ? 0.0 : res.bottleneck_drop_rate[0];
  out.fetches_started = res.web_flows_started;
  out.fetches_completed = res.web_flows_completed;
  out.rla_signals = res.rla[0].cong_signals;
  out.rla_window_cuts = res.rla[0].window_cuts;
  out.rla_rexmits = res.rla_mcast_rexmits + res.rla_ucast_rexmits;
}

void run_big(const Workload& w, std::uint64_t seed, RunOptions opt,
             BenchObserver& obs, RunOutcome& out) {
  using namespace rlacast;
  topo::BigTreeConfig cfg;
  cfg.receivers = w.receivers;
  cfg.group_size = w.group_size;
  cfg.gateway = topo::GatewayType::kRed;
  cfg.duration = opt.setup_only ? 0.0 : w.duration;
  cfg.warmup = opt.setup_only ? 0.0 : w.warmup;
  cfg.seed = seed;
  cfg.instrument = instrument(w, opt, obs, out, cfg.fast_link_bps);

  out.alloc_call = alloc_now();
  out.t_call = now_s();
  const topo::BigTreeResult res = topo::run_big_tree(cfg);
  out.t_return = now_s();

  out.rla = {res.rla};
  out.tcps = res.tcps;
  out.dispatched = res.events - (opt.markers ? kMarkerEvents : 0);
  out.acks = res.acks;
  const auto band = model::theorem1_red_bounds(w.receivers);
  out.band_lo = band.lo;
  out.band_hi = band.hi;
  out.bottleneck_drop_rate = res.bottleneck_drop_rate;
  out.offpath_drops = res.offpath_drops;
  out.rla_signals = res.rla.cong_signals;
  out.rla_window_cuts = res.rla.window_cuts;
  out.rla_rexmits = res.mcast_rexmits + res.ucast_rexmits;
}

}  // namespace

RunOutcome run_once(const Workload& w, std::uint64_t seed, RunOptions opt) {
  RunOutcome out;
  BenchObserver obs(out.spans);
  try {
    if (w.big_tree)
      run_big(w, seed, opt, obs, out);
    else
      run_tree(w, seed, opt, obs, out);
    out.completed = !opt.markers ||
                    (out.t0.taken &&
                     (opt.setup_only || (out.warm.taken && out.end.taken)));
    if (!out.completed) out.error = "a marker event never fired";
    out.worst_pps = out.tcps.empty()
                        ? 0.0
                        : out.tcps[rlacast::topo::worst_index(out.tcps)]
                              .throughput_pps;
    out.ratio = out.worst_pps > 0.0 ? out.rla[0].throughput_pps / out.worst_pps
                                    : 0.0;
  } catch (const std::exception& e) {
    out.completed = false;
    out.error = e.what();
  }
  return out;
}

std::vector<std::pair<std::string, double>> fingerprint(const RunOutcome& r) {
  std::vector<std::pair<std::string, double>> f;
  auto rows = [&f](const char* prefix,
                   const std::vector<rlacast::topo::FlowRow>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      const std::string p = prefix + std::to_string(i) + ".";
      f.emplace_back(p + "throughput_pps", v[i].throughput_pps);
      f.emplace_back(p + "avg_cwnd", v[i].avg_cwnd);
      f.emplace_back(p + "avg_rtt", v[i].avg_rtt);
      f.emplace_back(p + "cong_signals", static_cast<double>(v[i].cong_signals));
      f.emplace_back(p + "window_cuts", static_cast<double>(v[i].window_cuts));
      f.emplace_back(p + "forced_cuts", static_cast<double>(v[i].forced_cuts));
      f.emplace_back(p + "timeouts", static_cast<double>(v[i].timeouts));
    }
  };
  rows("rla", r.rla);
  rows("tcp", r.tcps);
  f.emplace_back("dispatched", static_cast<double>(r.dispatched));
  f.emplace_back("acks", static_cast<double>(r.acks));
  f.emplace_back("bottleneck_drop_rate", r.bottleneck_drop_rate);
  f.emplace_back("fetches_started", r.fetches_started);
  f.emplace_back("fetches_completed", r.fetches_completed);
  f.emplace_back("rla_rexmits", static_cast<double>(r.rla_rexmits));
  return f;
}

std::string first_difference(
    const std::vector<std::pair<std::string, double>>& a,
    const std::vector<std::pair<std::string, double>>& b) {
  if (a.size() != b.size()) return "entry count";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].first != b[i].first || a[i].second != b[i].second)
      return a[i].first;
  return "";
}

}  // namespace perfbench
