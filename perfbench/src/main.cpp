// perfbench: the ares end-to-end and per-layer benchmark.
//
//   perfbench --workload <gossip_steady|query_open_loop|udp_loopback>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 runs the workload once untraced and prints the end-to-end
// metrics. --trace 1 runs it untraced and then traced in the same process,
// prints the per-layer metrics (plus the tracing overhead, traced minus
// untraced, of every end-to-end metric), and writes the spans to
// <trace-dir>/<workload>-<seed>.json (default trace-dir: perfbench-trace in
// the working directory). The last line of
// stdout is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "runtime/wire.h"
#include "workloads.h"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double wall_s() { return static_cast<double>(host_now_ns()) * 1e-9; }

double median(std::vector<double> v) { return v.empty() ? 0.0 : quantile(v, 0.5); }

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

// Must match BENCHMARK.json (run.py checks names and units).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"query_hops", "count"}, {"query_bytes", "B"},
    {"wire_bytes_per_op", "B"}, {"peak_rss_mb", "MB"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {
      // Per-workload figures (0 where they do not apply).
      {"node_cycles_per_s", "1/s"},
      {"queries_per_s", "1/s"},
      {"sim_query_p50_ms", "ms"},
      {"sim_query_p99_ms", "ms"},
      {"wall_query_p50_ms", "ms"},
      {"wall_query_p90_ms", "ms"},
      {"gossip_bytes_per_node_cycle", "B"},
      {"wire_bytes_per_node_cycle", "B"},
      {"cpu_us_per_node_cycle", "us"},
      {"query_fail_frac", "ratio"},
      // exp
      {"exp.build_s", "s"},
      {"exp.bootstrap_s", "s"},
      {"exp.gen_lag_p50_ms", "ms"},
      {"exp.gen_lag_p99_ms", "ms"},
      // sim
      {"sim.events_per_node_cycle", "count"},
      {"sim.events_per_query", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.pending_peak", "count"},
      {"sim.late_events", "count"},
      // gossip + space + core/routing_table
      {"gossip.msgs_per_node_cycle", "count"},
      {"gossip.ns_per_node_cycle", "ns"},
      {"gossip.allocs_per_node_cycle", "count"},
      {"space.classify_ns", "ns"},
      {"core.rt_offer_ns", "ns"},
      {"core.rt_slot_fill", "ratio"},
      // core query path
      {"core.hops_per_query", "count"},
      {"core.msgs_per_query", "count"},
      {"core.peak_in_flight", "count"},
      {"core.timeouts_per_query", "count"},
      {"core.retries_per_query", "count"},
      // wire
      {"wire.encode_ns_per_frame", "ns"},
      {"wire.decode_ns_per_frame", "ns"},
      {"wire.decode_fail", "count"},
      // net
      {"net.frames_per_datagram", "ratio"},
      {"net.syscalls_per_node_cycle", "count"},
      {"net.header_bytes_per_node_cycle", "B"},
      {"net.poll_busy_frac", "ratio"},
      {"net.cpu_us_per_datagram", "us"},
      {"net.rx_rejected", "count"},
      {"net.cycle_shortfall", "ratio"},
  };
  for (const char* k : {"cyclon.reply", "cyclon.request", "select.progress",
                        "select.query", "select.reply", "vicinity.reply",
                        "vicinity.request"}) {
    d.push_back({std::string("wire.encode_ns.") + k, "ns"});
    d.push_back({std::string("wire.decode_ns.") + k, "ns"});
    d.push_back({std::string("wire.frame_bytes.") + k, "B"});
  }
  for (const MetricDef& m : kEndToEnd) d.push_back({"overhead." + m.name, m.unit});
  return d;
}

int usage() {
  std::cerr << "usage: perfbench --workload <gossip_steady|query_open_loop|udp_loopback> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  return 2;
}

Result run_workload(const Options& opt, SpanRecorder* rec) {
  if (opt.workload == "gossip_steady") return run_gossip_steady(opt, rec);
  if (opt.workload == "query_open_loop") return run_query_open_loop(opt, rec);
  return run_udp_loopback(opt, rec);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << (std::isfinite(v) ? v : 0.0);
  return os.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  int trace = -1;
  std::string trace_dir = "perfbench-trace";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opt.seconds > 0.0;
    } else if (key == "--trace") {
      trace = val == "0" ? 0 : val == "1" ? 1 : -1;
    } else if (key == "--trace-dir") {
      trace_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || trace < 0 ||
      (opt.workload != "gossip_steady" && opt.workload != "query_open_loop" &&
       opt.workload != "udp_loopback"))
    return usage();

  // The default wire configuration: pointer-path delivery in the simulator
  // and the legacy gossip encoding, whatever the environment says.
  ares::wire::set_checked_delivery(false);
  ares::wire::set_delta_enabled(false);

  Result a = run_workload(opt, nullptr);
  Result out = a;
  std::vector<MetricDef> defs = kEndToEnd;
  std::map<std::string, double> values = a.e2e;
  if (trace == 1) {
    SpanRecorder rec;
    Options traced = opt;
    traced.rounds = a.rounds;
    Result b = run_workload(traced, &rec);
    out.attempted += b.attempted;
    out.failed += b.failed;
    out.errors.insert(out.errors.end(), b.errors.begin(), b.errors.end());
    values = b.layer;
    // The replay decodes every frame it encodes; a failure is a codec bug.
    if (values["wire.decode_fail"] != 0) out.errors.push_back("wire.decode_fail > 0");
    // The per-workload figures come from the untraced pass.
    for (const char* k : {"node_cycles_per_s", "queries_per_s", "sim_query_p50_ms",
                          "sim_query_p99_ms", "wall_query_p50_ms", "wall_query_p90_ms",
                          "gossip_bytes_per_node_cycle", "wire_bytes_per_node_cycle",
                          "cpu_us_per_node_cycle"})
      if (a.layer.contains(k)) values[k] = a.layer[k];
    values["query_fail_frac"] =
        static_cast<double>(out.failed) /
        static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
    for (const MetricDef& m : kEndToEnd)
      values["overhead." + m.name] = b.e2e[m.name] - a.e2e[m.name];
    defs = per_layer_defs();

    const std::filesystem::path dir = trace_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        (dir / (opt.workload + "-" + std::to_string(opt.seed) + ".json")).string();
    if (!rec.write_json(path, 20000)) out.errors.push_back("cannot write " + path);
    std::cout << "spans: " << rec.size() << " written to " << path << "\n";
    std::cout << "span totals (name: count, total ms, self ms):\n";
    for (const auto& [name, t] : rec.totals())
      std::cout << "  " << name << ": " << t.count << ", " << fmt(t.total_ns / 1e6)
                << ", " << fmt(t.self_ns / 1e6) << "\n";
  }
  for (const std::string& e : out.errors) std::cerr << "incorrect: " << e << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (out.errors.empty() && out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : defs) {
    auto it = values.find(m.name);
    js << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << fmt(it != values.end() ? it->second : 0.0) << ", \"unit\": \"" << m.unit
       << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
