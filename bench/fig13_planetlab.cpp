/// Figure 13: repeated massive failures on a wide-area deployment
/// (PlanetLab substitute: 302 nodes, heterogeneous WAN latency).
///
/// Paper: 10% of the network is killed every 20 minutes WITHOUT
/// replacement over ~30,000 s. Each wave briefly dents delivery; the
/// gossip layers restore near-optimal delivery before the next wave, even
/// as the system shrinks.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct RunResult {
  std::vector<exp::DeliveryPoint> series;
  std::size_t final_population = 0;
  SimTotals totals;
};

}  // namespace

int main() {
  exp::print_experiment_header(
      "Figure 13", "delivery under repeated massive failures (PlanetLab)",
      "delivery dips at each 10%-kill wave (every 20 min, no replacement) "
      "and recovers to near 1.0 between waves; the system shrinks over time");

  Setup s = read_setup(302);
  s.selectivity = option_double("F", 0.25);
  print_setup(s);

  exp::BenchReport report("fig13_planetlab");
  report.set_threads(1);  // single long trial; nothing to fan out

  // Run as a (single-config) trial for uniformity with the other figure
  // binaries: the worker returns data, the main thread prints.
  const std::vector<int> one{0};
  auto results = exp::run_trials(one, [&](int, std::size_t) {
    // WAN latencies: a subtree of ~75 sequential hops can take tens of
    // seconds, so T(q) must be generous to avoid false failure verdicts.
    auto grid = make_gossip_grid(s, from_seconds(option_double("CONVERGENCE_S", 400)),
                                 "planetlab", /*track_visited=*/true,
                                 /*default_timeout_s=*/60.0);
    ChurnDriver churn(grid->net());
    const int waves = static_cast<int>(option_u64("WAVES", 12));
    churn.start_decay(kPlanetLabDecay.fraction, kPlanetLabDecay.period, waves);

    const SimTime duration =
        from_seconds(option_double("DURATION_S", static_cast<double>((waves + 2) * 1200)));
    RunResult out;
    out.series = exp::delivery_timeline(
        *grid,
        [&](Rng& rng) { return best_case_query(grid->space(), s.selectivity, rng); },
        duration, /*interval=*/from_seconds(120), /*settle=*/from_seconds(120),
        kNoSigma);
    churn.stop();
    out.final_population = grid->net().population();
    out.totals = totals_of(*grid);
    return out;
  });
  const RunResult& r = results[0];
  report.add_events(r.totals.events, r.totals.late);
  for (const auto& p : r.series)
    report.point()
        .num("t_seconds", p.t_seconds)
        .num("delivery", p.delivery)
        .num("matching_alive", static_cast<std::uint64_t>(p.ground_truth));

  exp::Table t({"t (s)", "delivery", "matching alive", "population"});
  for (std::size_t i = 0; i < r.series.size();
       i += std::max<std::size_t>(1, r.series.size() / 25)) {
    const auto& p = r.series[i];
    t.row({exp::fmt(p.t_seconds, 0), exp::fmt(p.delivery, 3),
           std::to_string(p.ground_truth), ""});
  }
  t.print();

  Summary sum;
  for (const auto& p : r.series) sum.add(p.delivery);
  std::cout << "mean delivery: " << exp::fmt(sum.mean(), 3)
            << "   min: " << exp::fmt(sum.min(), 3)
            << "   final population: " << r.final_population << " of " << s.n
            << "\n";
  report.summary()
      .num("mean_delivery", sum.mean())
      .num("min_delivery", sum.empty() ? 0.0 : sum.min())
      .num("final_population", static_cast<std::uint64_t>(r.final_population));
  report.write();
  return 0;
}
