#pragma once

/// \file workloads.h
/// The three benchmark workloads and what they report. Each drives the
/// library only through its public entry points (Grid, run_open_loop,
/// oracle_fill, SelectionNode::submit, UdpRuntime) with the default build
/// and protocol configuration.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/selection_node.h"
#include "space/attribute_space.h"
#include "space/query.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Sim workloads: run exactly this many query rounds instead of measuring
  /// for `seconds` (the traced pass repeats the untraced pass's rounds, so
  /// both see the same queries).
  std::size_t rounds = 0;
};

/// One pass of a workload: the end-to-end metrics, the per-layer figures it
/// measured along the way, and the correctness tally.
struct Result {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t rounds = 0;  // query rounds run (sim workloads)
  /// Run-level correctness failures (late events, decode failures, ...);
  /// any entry makes the run incorrect.
  std::vector<std::string> errors;
};

/// Each sim run sets its workload up this many times; setup_s is the
/// median. udp_loopback, whose setup is shorter, repeats it more often.
inline constexpr int kSetupRepeats = 3;

/// `rec` is null for an untraced pass.
Result run_gossip_steady(const Options& opt, SpanRecorder* rec);
Result run_query_open_loop(const Options& opt, SpanRecorder* rec);
Result run_udp_loopback(const Options& opt, SpanRecorder* rec);

/// Inputs for the per-layer ns/op replays, captured from a workload's state
/// after setup.
struct ReplayInputs {
  const ares::AttributeSpace* space = nullptr;
  std::vector<ares::Point> points;  // indexed by NodeId
  /// Sampled nodes and the peers their routing tables hold (classify and
  /// RoutingTable::offer inputs).
  std::vector<ares::NodeId> sample;
  std::vector<std::vector<ares::NodeId>> sample_peers;
  /// Gossip views of every node (empty when the workload runs no gossip);
  /// they seed the Cyclon + Vicinity + RoutingTable node-cycle replay.
  std::vector<std::vector<ares::NodeId>> cyclon_views;
  std::vector<std::vector<ares::NodeId>> vicinity_views;
  /// Select-protocol messages to encode/decode: queries as issued and
  /// result sets as replied.
  std::vector<ares::RangeQuery> queries;
  std::vector<std::vector<ares::MatchRecord>> replies;
};

/// Adds the peers in `sn`'s routing table to the classify/offer sample.
void sample_routing(ReplayInputs& in, const ares::SelectionNode& sn);
/// Records `sn`'s Cyclon and Vicinity views (in.*_views must cover its id).
void capture_views(ReplayInputs& in, const ares::SelectionNode& sn);

/// Fills the gossip.*, space.*, core.rt_offer_ns and wire.* replay metrics.
void replay_layers(const ReplayInputs& in, std::map<std::string, double>& layer);

// -- host measurements ------------------------------------------------------
double process_cpu_s();
double thread_cpu_s();
double peak_rss_mb();
double wall_s();
/// Allocations made by the calling thread (operator new is counted in this
/// binary, see alloc_count.cpp).
std::uint64_t thread_allocs();

double median(std::vector<double> v);

}  // namespace perfbench
