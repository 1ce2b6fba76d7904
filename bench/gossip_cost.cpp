/// §6 (prose): overlay-maintenance cost. The paper estimates each node
/// initiates exactly two gossips per cycle (one per layer) and receives on
/// average two, with ~320-byte messages: ~2,560 bytes/node/cycle — deemed
/// negligible. This bench measures the actual traffic of our gossip stack.

#include "bench_common.h"

#include "runtime/wire.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct TypeRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

struct RunResult {
  std::vector<TypeRow> rows;
  std::uint64_t delta_saved = 0;  // wire.bytes_delta_saved total
  SimTotals totals;
};

}  // namespace

int main() {
  exp::print_experiment_header(
      "Gossip cost (paper §6, prose)", "overlay maintenance traffic",
      "~4 gossip messages initiated+received per node per 10 s cycle, "
      "~2,560 bytes/node/cycle, independent of query load");

  Setup s = read_setup(500);
  print_setup(s);
  const double cycles = option_double("CYCLES", 60);

  exp::BenchReport report("gossip_cost");
  report.set_threads(1);  // single trial; nothing to fan out

  const std::vector<int> one{0};
  auto results = exp::run_trials(one, [&](int, std::size_t) {
    auto grid = make_gossip_grid(s, from_seconds(10.0 * cycles), "lan",
                                 /*track_visited=*/false);
    RunResult out;
    for (const auto& [name, tc] : grid->net().stats().sent_by_type()) {
      if (!name.starts_with("cyclon.") && !name.starts_with("vicinity."))
        continue;
      out.rows.push_back({name, tc.count, tc.bytes});
    }
    out.delta_saved = grid->net().metrics().total("wire.bytes_delta_saved");
    out.totals = totals_of(*grid);
    return out;
  });
  const RunResult& r = results[0];
  report.add_events(r.totals.events, r.totals.late);

  exp::Table t({"message type", "count", "bytes", "msgs/node/cycle",
                "bytes/node/cycle"});
  std::uint64_t total_msgs = 0, total_bytes = 0;
  const double denom = static_cast<double>(s.n) * cycles;
  for (const auto& row : r.rows) {
    total_msgs += row.count;
    total_bytes += row.bytes;
    t.row({row.name, std::to_string(row.count), std::to_string(row.bytes),
           exp::fmt(static_cast<double>(row.count) / denom),
           exp::fmt(static_cast<double>(row.bytes) / denom)});
    report.point()
        .str("type", row.name)
        .num("count", row.count)
        .num("bytes", row.bytes);
  }
  t.row({"TOTAL", std::to_string(total_msgs), std::to_string(total_bytes),
         exp::fmt(static_cast<double>(total_msgs) / denom),
         exp::fmt(static_cast<double>(total_bytes) / denom)});
  t.print();
  std::cout << "paper's estimate: ~2,560 bytes/node/cycle (320 B messages, "
               "4 per cycle)\n";
  const double per_node_cycle = static_cast<double>(total_bytes) / denom;
  const bool delta = wire::delta_enabled();
  // In delta mode the type counters measure compressed frames;
  // uncompressed = compressed + bytes_delta_saved.
  const std::uint64_t uncompressed = total_bytes + r.delta_saved;
  if (delta) {
    std::cout << "delta mode: " << r.delta_saved << " bytes saved ("
              << exp::fmt(static_cast<double>(uncompressed) / denom)
              << " bytes/node/cycle uncompressed)\n";
  }
  report.summary()
      .num("total_gossip_msgs", total_msgs)
      .num("total_gossip_bytes", total_bytes)
      .num("bytes_per_node_cycle", per_node_cycle)
      .num("bytes_delta_saved", r.delta_saved)
      .num("uncompressed_bytes_per_node_cycle",
           static_cast<double>(uncompressed) / denom);
  report.write();

  // Budget gate: at the paper's defaults (d=5), measured overlay traffic
  // must stay within +-15% of the ~2,560 B/node/cycle estimate. Bytes are
  // codec-measured (Message::wire_size() == encoded frame length), so this
  // guards the wire format itself against silent size drift. With delta
  // encoding on the wire the gate flips: compressed traffic must land at
  // least 25% below the budget.
  if (s.dims == 5) {
    if (delta) {
      const double cap = 2560.0 * 0.75;
      if (per_node_cycle > cap) {
        std::cerr << "FAIL: delta mode " << per_node_cycle
                  << " bytes/node/cycle above the 25%-reduction cap " << cap
                  << "\n";
        return 1;
      }
      std::cout << "delta budget check: " << exp::fmt(per_node_cycle)
                << " <= " << cap << " OK\n";
    } else {
      const double lo = 2560.0 * 0.85, hi = 2560.0 * 1.15;
      if (per_node_cycle < lo || per_node_cycle > hi) {
        std::cerr << "FAIL: " << per_node_cycle
                  << " bytes/node/cycle outside paper budget [" << lo << ", "
                  << hi << "]\n";
        return 1;
      }
      std::cout << "budget check: " << exp::fmt(per_node_cycle) << " in ["
                << lo << ", " << hi << "] OK\n";
    }
  }
  return 0;
}
