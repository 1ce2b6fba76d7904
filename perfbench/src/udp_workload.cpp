// udp_loopback: the protocol over real loopback sockets in one process.
//
// Four UdpRuntimes, each with its own socket, thread and DescriptorStore
// (as deployment children have), host 8,192 nodes, about 2,048 apiece,
// placed by cell prefix. The overlay comes from oracle_fill; the gossip
// period is compressed to 1 s, which keeps total CPU well under the cores.
// The node count sizes setup (construction plus oracle_fill, about 0.2 s)
// so that setup_s is not a millisecond timing.
// Exhaustive queries (sigma = infinity, f = 1/64, so about 128 matches) are
// due at 120 per second, at random times within each second, and are
// submitted by the origin's own thread when due; latency is timed from the
// due time. This is the only workload that runs the wire codecs, datagram
// framing and coalescing, and socket syscalls; the event simulator is not
// involved.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench_util.h"
#include "common/hashing.h"
#include "core/selection_node.h"
#include "exp/bootstrap.h"
#include "net/process.h"
#include "net/udp_runtime.h"
#include "space/cells.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ares;

constexpr std::size_t kHosts = 4;
constexpr std::size_t kNodes = 8192;
constexpr SimTime kPeriod = 1000 * kMillisecond;
constexpr int kWarmupCycles = 5;
/// Arrivals per one-second sub-window, at uniformly random times within it.
constexpr std::size_t kQueriesPerSubWindow = 120;
constexpr double kSelectivity = 1.0 / 64;
constexpr std::size_t kIntroducers = 5;
/// The measured window is cut into one-second sub-windows. CPU per
/// node-cycle is the median over sub-windows. Wall latency (a per-layer
/// figure) is the lower quartile over sub-windows: delay from other
/// tenants' load on the machine only ever adds latency.
constexpr std::int64_t kSubWindowNs = 1'000'000'000;
/// Setup takes about 0.2 s here, so it is repeated more often than the
/// sim workloads' kSetupRepeats; setup_s is the median.
constexpr int kSetups = 9;
/// How long in-flight queries may drain after the schedule ends.
constexpr double kDrainS = 5.0;
/// UDP + IPv4 header bytes per datagram, counted in the wire byte total.
constexpr double kIpUdpHeader = 28.0;

struct Plan {
  std::vector<Point> points;
  std::vector<PeerDescriptor> descs;
  /// Hosting socket of each node: cell-prefix placement (shard_of_coord),
  /// so nodes in a coarse cell, which the DFS walks in sequence, share a
  /// host and most hops stay on one thread.
  std::vector<std::uint32_t> host_of;
  std::vector<RangeQuery> shapes;
  std::vector<NodeId> origin;
  std::vector<std::int64_t> due_offset_ns;  // relative to the window start
};

Plan make_plan(std::uint64_t seed, std::size_t sub_windows, const AttributeSpace& space) {
  Plan p;
  Rng prng(hash_mix(seed, 0x504F494E54ULL));  // "POINT"
  auto gen = uniform_points(space, 0, 80);
  for (std::size_t i = 0; i < kNodes; ++i) {
    p.points.push_back(gen(prng));
    p.descs.push_back(make_descriptor(space, static_cast<NodeId>(i), p.points.back()));
    p.host_of.push_back(shard_of_coord(space, p.descs.back().coord, kHosts));
  }
  Rng qrng(hash_mix(seed, 0x5155455259ULL));  // "QUERY"
  for (std::size_t w = 0; w < sub_windows; ++w) {
    std::vector<std::int64_t> due;
    for (std::size_t j = 0; j < kQueriesPerSubWindow; ++j)
      due.push_back(static_cast<std::int64_t>(w) * kSubWindowNs +
                    static_cast<std::int64_t>(qrng.uniform() * kSubWindowNs));
    std::sort(due.begin(), due.end());
    for (std::int64_t t : due) {
      p.due_offset_ns.push_back(t);
      p.origin.push_back(static_cast<NodeId>(qrng.index(kNodes)));
      p.shapes.push_back(best_case_query(space, kSelectivity, qrng));
    }
  }
  return p;
}

/// Per-arrival slots; each is written only by the thread hosting the origin.
struct Slot {
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t done_ns = 0;
  QueryId qid = 0;
  bool done = false;
  std::vector<NodeId> ids;
};

/// Benchmark-owned observer (traced pass): forward edges per query, one
/// instance per host thread.
class HopObserver final : public QueryObserver {
 public:
  void on_query_forwarded(QueryId q, NodeId, NodeId, int, int) override { ++hops_[q]; }
  const std::unordered_map<QueryId, std::uint32_t>& hops() const { return hops_; }

 private:
  std::unordered_map<QueryId, std::uint32_t> hops_;
};

/// Counters a host thread snapshots at the window edges.
struct Counters {
  std::uint64_t cycles = 0, all_bytes = 0, select_bytes = 0, select_msgs = 0;
  std::uint64_t query_msgs = 0, gossip_bytes = 0, gossip_msgs = 0, header_bytes = 0;
  std::uint64_t tx_datagrams = 0, rx_datagrams = 0, tx_frames = 0, syscalls = 0;
  std::uint64_t rx_rejected = 0, decode_fail = 0, timeouts = 0, retries = 0;

  static Counters of(net::UdpRuntime& rt) {
    Counters c;
    c.cycles = rt.metrics().total("gossip.cycles");
    const TrafficTotals t = fold_traffic(rt.stats().sent_by_type());
    c.all_bytes = t.all_bytes;
    c.select_bytes = t.select_bytes;
    c.select_msgs = t.select_msgs;
    c.query_msgs = t.query_msgs;
    c.gossip_bytes = t.gossip_bytes;
    c.gossip_msgs = t.gossip_msgs;
    c.header_bytes = rt.header_bytes();
    c.tx_datagrams = rt.tx_datagrams();
    c.rx_datagrams = rt.rx_datagrams();
    c.tx_frames = rt.tx_frames();
    c.syscalls = rt.tx_syscalls() + rt.rx_syscalls();
    c.rx_rejected = rt.rx_rejected();
    c.decode_fail = rt.metrics().total("wire.decode_fail");
    c.timeouts = rt.metrics().total("query.timeouts");
    c.retries = rt.metrics().total("query.retries");
    return c;
  }
  Counters minus(const Counters& o) const {
    Counters d;
    for (auto f : kFields) d.*f = this->*f - o.*f;
    return d;
  }
  void add(const Counters& o) {
    for (auto f : kFields) this->*f += o.*f;
  }

  static constexpr std::uint64_t Counters::* kFields[] = {
      &Counters::cycles,       &Counters::all_bytes,    &Counters::select_bytes,
      &Counters::select_msgs,  &Counters::query_msgs,   &Counters::gossip_bytes,
      &Counters::gossip_msgs,  &Counters::header_bytes, &Counters::tx_datagrams,
      &Counters::rx_datagrams, &Counters::tx_frames,    &Counters::syscalls,
      &Counters::rx_rejected,  &Counters::decode_fail,  &Counters::timeouts,
      &Counters::retries};
};

struct Host {
  std::unique_ptr<DescriptorStore> store;
  std::unique_ptr<HopObserver> observer;
  std::unique_ptr<net::UdpRuntime> rt;
  std::vector<std::size_t> mine;  // arrivals whose origin this host runs
  SpanRecorder rec;
  Counters at_start, at_end;
  std::vector<std::uint64_t> cycles_at;  // gossip.cycles at each sub-window edge
  double poll_cpu_s = 0.0, poll_wall_s = 0.0;
  std::thread thread;
};

/// One deployment: construction and bootstrap() are the timed setup;
/// start() runs one thread per host until stop().
class Deployment {
 public:
  Deployment(const AttributeSpace& space, const Plan& plan, std::uint64_t seed,
             std::vector<Slot>& slots, bool traced)
      : space_(space), plan_(plan), slots_(slots), traced_(traced) {
    net::AddressBook book;
    std::vector<int> socks;
    for (std::size_t h = 0; h < kHosts; ++h) {
      const int fd = net::udp_bind_loopback();
      if (fd < 0) throw std::runtime_error("udp_bind_loopback failed");
      net::set_recv_buffer(fd, 1 << 20);
      const std::uint16_t port = net::local_port(fd);
      for (std::size_t i = 0; i < kNodes; ++i)
        if (plan_.host_of[i] == h) book.set(static_cast<NodeId>(i), {0x7F000001, port});
      socks.push_back(fd);
    }
    ProtocolConfig proto;
    proto.gossip_period = kPeriod;
    for (std::size_t h = 0; h < kHosts; ++h) {
      auto host = std::make_unique<Host>();
      host->store = std::make_unique<DescriptorStore>(space_);
      host->store->reserve(kNodes);
      for (std::size_t i = 0; i < kNodes; ++i)
        host->store->put(static_cast<NodeId>(i), plan_.points[i]);
      if (traced_) host->observer = std::make_unique<HopObserver>();
      net::UdpRuntime::Config rc;
      rc.seed = hash_mix(seed, 0x484F5354ULL + h);  // "HOST"
      host->rt = std::make_unique<net::UdpRuntime>(socks[h], book, rc);
      for (NodeId id = 0; id < kNodes; ++id) {
        if (plan_.host_of[id] != h) continue;
        host->rt->add_node(
            id, std::make_unique<SelectionNode>(
                    space_, *host->store, plan_.points[id], proto, introducers(seed, id),
                    Rng(hash_mix(seed ^ 0x4E4F4445ULL, id)), host->observer.get()));
      }
      hosts_.push_back(std::move(host));
    }
    for (std::size_t i = 0; i < plan_.origin.size(); ++i)
      hosts_[plan_.host_of[plan_.origin[i]]]->mine.push_back(i);
  }

  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void bootstrap(std::uint64_t seed) {
    for (auto& host : hosts_) {
      Rng orng(hash_mix(seed, 0x4F5241434CULL));  // "ORACL": same overlay in every host
      net::UdpRuntime* rt = host->rt.get();
      oracle_fill(
          space_, plan_.descs,
          [rt](std::size_t i) -> RoutingTable* {
            auto* sn = rt->find_as<SelectionNode>(static_cast<NodeId>(i));
            return sn == nullptr ? nullptr : &sn->routing();
          },
          OracleOptions{}, orng);
    }
  }

  /// Starts the host threads. Arrivals are submitted when due at
  /// window_start_ns + offset; the counters are snapshotted at
  /// window_start_ns and at stop(), and the node-cycle count at each of the
  /// `sub_windows` edges.
  void start(std::int64_t window_start_ns, std::size_t sub_windows) {
    window_start_ns_ = window_start_ns;
    for (auto& host : hosts_) {
      Host* h = host.get();
      h->cycles_at.assign(sub_windows + 1, 0);
      h->thread = std::thread([this, h] { loop(*h); });
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& host : hosts_)
      if (host->thread.joinable()) host->thread.join();
  }

  std::size_t completed() const { return completed_.load(std::memory_order_acquire); }
  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  /// Valid once the host threads have stopped.
  SelectionNode& node(NodeId id) {
    return *hosts_[plan_.host_of[id]]->rt->find_as<SelectionNode>(id);
  }

 private:
  std::vector<PeerDescriptor> introducers(std::uint64_t seed, NodeId id) const {
    std::vector<PeerDescriptor> out;
    Rng rng(hash_mix(seed ^ 0x494E54524FULL, id));  // "INTRO"
    for (std::size_t idx : rng.sample_indices(kNodes, kIntroducers + 1)) {
      if (idx == id) continue;
      out.push_back(plan_.descs[idx]);
      if (out.size() == kIntroducers) break;
    }
    return out;
  }

  void loop(Host& h) {
    net::UdpRuntime& rt = *h.rt;
    std::size_t next = 0;
    std::size_t mark = 0;
    const auto edge = [&](std::size_t k) {
      return window_start_ns_ + static_cast<std::int64_t>(k) * kSubWindowNs;
    };
    const std::int32_t root = traced_ ? h.rec.begin("net.host_thread") : -1;
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::int64_t now = host_now_ns();
      for (; mark < h.cycles_at.size() && now >= edge(mark); ++mark) {
        if (mark == 0) h.at_start = Counters::of(rt);
        h.cycles_at[mark] = rt.metrics().total("gossip.cycles");
      }
      for (; next < h.mine.size(); ++next) {
        const std::size_t i = h.mine[next];
        Slot& s = slots_[i];
        s.due_ns = window_start_ns_ + plan_.due_offset_ns[i];
        if (s.due_ns > now) break;
        s.submit_ns = host_now_ns();
        s.qid = rt.find_as<SelectionNode>(plan_.origin[i])
                    ->submit(plan_.shapes[i], kNoSigma,
                             [this, &s](const std::vector<MatchRecord>& ms) {
                               s.done_ns = host_now_ns();
                               for (const MatchRecord& m : ms) s.ids.push_back(m.id);
                               s.done = true;
                               completed_.fetch_add(1, std::memory_order_release);
                             });
      }
      std::int64_t wait_ns = 20'000'000;
      if (mark < h.cycles_at.size()) wait_ns = std::min(wait_ns, edge(mark) - now);
      if (next < h.mine.size())
        wait_ns = std::min(wait_ns,
                           window_start_ns_ + plan_.due_offset_ns[h.mine[next]] - now);
      const SimTime wait_us = std::max<std::int64_t>(0, wait_ns / 1000);
      if (traced_) {
        const double c0 = thread_cpu_s();
        const std::int32_t sp = h.rec.begin("net.poll_once", root);
        rt.poll_once(wait_us);
        h.rec.end(sp);
        const Span& s = h.rec.spans()[static_cast<std::size_t>(sp)];
        h.poll_wall_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
        h.poll_cpu_s += thread_cpu_s() - c0;
      } else {
        rt.poll_once(wait_us);
      }
    }
    h.at_end = Counters::of(rt);
    if (mark == 0) h.at_start = h.at_end;
    for (; mark < h.cycles_at.size(); ++mark) h.cycles_at[mark] = h.at_end.cycles;
    if (traced_) h.rec.end(root);
  }

  const AttributeSpace& space_;
  const Plan& plan_;
  std::vector<Slot>& slots_;
  bool traced_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::int64_t window_start_ns_ = 0;
  std::atomic<bool> stop_{false};
  // ordering: release on each completion / acquire in completed() publishes
  // the slot a completion wrote.
  std::atomic<std::size_t> completed_{0};
};

void sleep_until_ns(std::int64_t t) {
  const std::int64_t now = host_now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

Result run_udp_loopback(const Options& opt, SpanRecorder* rec) {
  Result r;
  const AttributeSpace space = AttributeSpace::uniform(5, 3, 0, 80);
  const auto sub_windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt.seconds * 1e9 / kSubWindowNs));
  const Plan plan = make_plan(opt.seed, sub_windows, space);
  const std::size_t total = plan.origin.size();
  std::vector<Slot> slots(total);

  // -- setup, repeated; the last deployment serves the measured window -------
  // Setup is construction (sockets, stores, nodes) plus the oracle overlay.
  // The warm-up gossip that follows is a fixed wall-clock wait, so it is
  // not part of setup_s.
  std::vector<double> setup_s, build_s, boot_s;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < kSetups; ++k) {
    dep.reset();
    ScopedSpan setup(rec, "setup");
    const double t0 = wall_s();
    {
      ScopedSpan s(rec, "exp.build", setup.index());
      dep = std::make_unique<Deployment>(space, plan, opt.seed, slots, rec != nullptr);
    }
    const double t1 = wall_s();
    {
      ScopedSpan s(rec, "exp.bootstrap", setup.index());
      dep->bootstrap(opt.seed);
    }
    const double t2 = wall_s();
    setup_s.push_back(t2 - t0);
    build_s.push_back(t1 - t0);
    boot_s.push_back(t2 - t1);
  }
  // Warm-up gossip cycles, so the views are in steady state when the
  // window opens.
  const std::int64_t window_start = host_now_ns() + kWarmupCycles * kPeriod * 1000;
  {
    ScopedSpan s(rec, "exp.warmup");
    dep->start(window_start, sub_windows);
    sleep_until_ns(window_start);
  }

  // -- measured window ------------------------------------------------------
  const double cpu0 = process_cpu_s();
  const double wall0 = wall_s();
  const std::int32_t steady = rec != nullptr ? rec->begin("steady") : -1;
  std::vector<double> cpu_at;
  for (std::size_t k = 0; k <= sub_windows; ++k) {
    sleep_until_ns(window_start + static_cast<std::int64_t>(k) * kSubWindowNs);
    cpu_at.push_back(process_cpu_s());
  }
  const std::int64_t schedule_end =
      window_start + static_cast<std::int64_t>(sub_windows) * kSubWindowNs;
  const std::int64_t deadline = schedule_end + static_cast<std::int64_t>(kDrainS * 1e9);
  while (dep->completed() < total && host_now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  dep->stop();
  const double cpu = process_cpu_s() - cpu0;
  const double wall = wall_s() - wall0;
  if (rec != nullptr) rec->end(steady);

  Counters d;
  double poll_cpu = 0.0, poll_wall = 0.0;
  std::unordered_map<QueryId, std::uint32_t> hops;
  for (const auto& h : dep->hosts()) {
    d.add(h->at_end.minus(h->at_start));
    poll_cpu += h->poll_cpu_s;
    poll_wall += h->poll_wall_s;
    if (h->observer != nullptr)
      for (const auto& [q, n] : h->observer->hops()) hops[q] += n;
    if (rec != nullptr) rec->append(h->rec, steady);
  }

  // -- correctness and latency -----------------------------------------------
  std::vector<double> lag_ms;
  std::vector<std::vector<double>> window_ms(sub_windows);
  std::vector<std::pair<std::int64_t, int>> marks;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const Slot& s = slots[i];
    const RangeQuery& q = plan.shapes[i];
    std::vector<NodeId> truth;
    for (std::size_t n = 0; n < kNodes; ++n)
      if (q.matches(plan.points[n])) truth.push_back(static_cast<NodeId>(n));
    const Verdict v = check_exhaustive(s.done, s.ids, truth);
    if (v != Verdict::kOk) {
      ++r.failed;
      if (r.failed <= 5) std::fprintf(stderr, "query %zu: %s\n", i, verdict_name(v));
    }
    if (s.submit_ns != 0)
      lag_ms.push_back(static_cast<double>(s.submit_ns - s.due_ns) / 1e6);
    if (s.done) {
      ++completed;
      window_ms[static_cast<std::size_t>(plan.due_offset_ns[i] / kSubWindowNs)].push_back(
          static_cast<double>(s.done_ns - s.due_ns) / 1e6);
      marks.emplace_back(s.due_ns, +1);
      marks.emplace_back(s.done_ns, -1);
    }
    if (rec != nullptr) {
      const std::int32_t qs = rec->add(
          Span{"query", s.due_ns, s.done ? s.done_ns : s.due_ns, steady, i + 1});
      if (auto it = hops.find(s.qid); it != hops.end()) rec->at(qs).hops = it->second;
      if (s.submit_ns != 0)
        rec->add(Span{"exp.gen_lag", s.due_ns, s.submit_ns, qs, i + 1});
    }
  }
  std::sort(marks.begin(), marks.end());
  std::int64_t cur = 0, peak = 0;
  for (const auto& mk : marks) peak = std::max(peak, cur += mk.second);

  r.attempted = total;
  const double cycles = static_cast<double>(d.cycles);
  const double done = static_cast<double>(std::max<std::size_t>(completed, 1));
  if (d.decode_fail != 0) r.errors.push_back("wire.decode_fail > 0");
  if (cycles <= 0.0) r.errors.push_back("no gossip cycles measured");
  std::vector<double> win_p50, win_p90, win_cpu_us;
  for (std::size_t w = 0; w < sub_windows; ++w) {
    if (!tail_supported(window_ms[w].size(), 0.90))
      r.errors.push_back("fewer than 100 latency samples in a sub-window");
    win_p50.push_back(quantile(window_ms[w], 0.50));
    win_p90.push_back(quantile(window_ms[w], 0.90));
    std::uint64_t c = 0;
    for (const auto& h : dep->hosts()) c += h->cycles_at[w + 1] - h->cycles_at[w];
    if (c > 0)
      win_cpu_us.push_back((cpu_at[w + 1] - cpu_at[w]) * 1e6 / static_cast<double>(c));
  }
  const double wire_bytes = static_cast<double>(d.all_bytes + d.header_bytes) +
                            kIpUdpHeader * static_cast<double>(d.tx_datagrams);

  r.e2e["setup_s"] = median(setup_s);
  std::fprintf(stderr, "setups build_s+bootstrap_s:");
  for (std::size_t k = 0; k < setup_s.size(); ++k)
    std::fprintf(stderr, " %.4f+%.4f", build_s[k], boot_s[k]);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, "sub-window p50_ms p90_ms cpu_us_per_node_cycle:");
  for (std::size_t w = 0; w < win_p50.size(); ++w)
    std::fprintf(stderr, " %.3f/%.3f/%.1f", win_p50[w], win_p90[w],
                 w < win_cpu_us.size() ? win_cpu_us[w] : 0.0);
  std::fprintf(stderr, "\n");
  r.e2e["query_hops"] = static_cast<double>(d.query_msgs) / done;
  r.e2e["query_bytes"] = static_cast<double>(d.select_bytes) / done;
  r.e2e["wire_bytes_per_op"] = wire_bytes / cycles;
  r.e2e["peak_rss_mb"] = peak_rss_mb();

  auto& L = r.layer;
  L["exp.build_s"] = median(build_s);
  L["exp.bootstrap_s"] = median(boot_s);
  L["exp.gen_lag_p50_ms"] = quantile(lag_ms, 0.50);
  L["exp.gen_lag_p99_ms"] =
      tail_supported(lag_ms.size(), 0.99) ? quantile(lag_ms, 0.99) : 0.0;
  L["wall_query_p50_ms"] = quantile(win_p50, 0.25);
  L["wall_query_p90_ms"] = quantile(win_p90, 0.25);
  L["wire_bytes_per_node_cycle"] = wire_bytes / cycles;
  L["cpu_us_per_node_cycle"] = median(win_cpu_us);
  L["gossip_bytes_per_node_cycle"] = static_cast<double>(d.gossip_bytes) / cycles;
  L["gossip.msgs_per_node_cycle"] = static_cast<double>(d.gossip_msgs) / cycles;
  L["query_fail_frac"] = static_cast<double>(r.failed) / static_cast<double>(total);
  L["core.hops_per_query"] = r.e2e["query_hops"];
  L["core.msgs_per_query"] = static_cast<double>(d.select_msgs) / done;
  L["core.peak_in_flight"] = static_cast<double>(peak);
  L["core.timeouts_per_query"] = static_cast<double>(d.timeouts) / done;
  L["core.retries_per_query"] = static_cast<double>(d.retries) / done;
  L["wire.decode_fail"] = static_cast<double>(d.decode_fail);
  const auto dbl = [](std::uint64_t v) { return static_cast<double>(v); };
  const double datagrams = dbl(d.tx_datagrams);
  L["net.frames_per_datagram"] = datagrams > 0 ? dbl(d.tx_frames) / datagrams : 0.0;
  L["net.syscalls_per_node_cycle"] = dbl(d.syscalls) / cycles;
  L["net.header_bytes_per_node_cycle"] =
      (dbl(d.header_bytes) + kIpUdpHeader * datagrams) / cycles;
  L["net.cpu_us_per_datagram"] =
      d.rx_datagrams > 0 ? cpu * 1e6 / dbl(d.rx_datagrams) : 0.0;
  L["net.rx_rejected"] = dbl(d.rx_rejected);
  const double scheduled = dbl(kNodes) * wall * 1e6 / static_cast<double>(kPeriod);
  L["net.cycle_shortfall"] = 1.0 - cycles / scheduled;
  double fill = 0.0;
  const double slots_per_table = space.max_level() * space.dimensions();
  for (NodeId id = 0; id < kNodes; ++id)
    fill += dbl(dep->node(id).routing().populated_slots()) / slots_per_table;
  L["core.rt_slot_fill"] = fill / static_cast<double>(kNodes);

  if (rec != nullptr) {
    L["net.poll_busy_frac"] = poll_wall > 0.0 ? poll_cpu / poll_wall : 0.0;
    ReplayInputs replay;
    replay.space = &space;
    replay.points = plan.points;
    replay.cyclon_views.resize(kNodes);
    replay.vicinity_views.resize(kNodes);
    Rng pick(hash_mix(opt.seed, 0x5245504CULL));  // "REPL"
    for (NodeId id = 0; id < kNodes; ++id) capture_views(replay, dep->node(id));
    for (std::size_t idx : pick.sample_indices(kNodes, 512))
      sample_routing(replay, dep->node(static_cast<NodeId>(idx)));
    for (std::size_t i = 0; i < total && replay.queries.size() < 256; ++i) {
      if (!slots[i].done) continue;
      replay.queries.push_back(plan.shapes[i]);
      std::vector<MatchRecord> recs;
      for (NodeId id : slots[i].ids) recs.push_back({id, plan.points[id]});
      replay.replies.push_back(std::move(recs));
    }
    dep.reset();
    replay_layers(replay, L);
  }
  return r;
}

}  // namespace perfbench
