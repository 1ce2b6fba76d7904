/// Message-level tests of the SelectionNode state machine: crafted QUERY /
/// REPLY / PROGRESS frames injected through the loopback runtime (zero
/// latency, manual clock — no Simulator/Network pair), exercising paths
/// end-to-end runs rarely hit (duplicate receptions, late replies,
/// keepalive deadline refresh, unknown-query progress).

#include <gtest/gtest.h>

#include "core/selection_node.h"
#include "runtime/loopback.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

class ProtocolMessagesTest : public ::testing::Test {
 protected:
  ProtocolMessagesTest()
      : space(AttributeSpace::uniform(2, 3, 0, 80)), store(space), net(7) {}

  NodeId add_node(Point values, ProtocolConfig cfg = {}) {
    cfg.gossip_enabled = false;
    return net.add_node(std::make_unique<SelectionNode>(
        space, store, std::move(values), cfg, std::vector<PeerDescriptor>{}, Rng(1)));
  }

  SelectionNode& node(NodeId id) { return *net.find_as<SelectionNode>(id); }

  /// Crafted query message addressed as if `parent` forwarded it.
  std::unique_ptr<QueryMsg> make_query(QueryId qid, NodeId parent, int level,
                                       std::uint32_t dims) {
    auto m = std::make_unique<QueryMsg>();
    m->id = qid;
    m->reply_to = parent;
    m->origin = parent;
    m->query = RangeQuery::any(2);
    m->sigma = kNoSigma;
    m->level = level;
    m->dims_mask = dims;
    return m;
  }

  AttributeSpace space;
  DescriptorStore store;
  LoopbackRuntime net;
};

/// Test double that records everything it receives.
class SinkNode final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    if (const auto* r = dynamic_cast<const ReplyMsg*>(&m)) {
      replies.emplace_back(from, *r);
    } else if (dynamic_cast<const ProgressMsg*>(&m) != nullptr) {
      ++progress_count;
    }
  }
  std::vector<std::pair<NodeId, ReplyMsg>> replies;
  int progress_count = 0;
};

TEST_F(ProtocolMessagesTest, LeafProbeAnswersWithSelfOnly) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  net.send(parent, leaf, make_query(77, parent, /*level=*/-1, 0));
  net.run_until(net.now() + 600 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent);
  ASSERT_EQ(sink.replies.size(), 1u);
  EXPECT_EQ(sink.replies[0].second.id, 77u);
  ASSERT_EQ(sink.replies[0].second.matching.size(), 1u);
  EXPECT_EQ(sink.replies[0].second.matching[0].id, leaf);
}

TEST_F(ProtocolMessagesTest, LeafProbeNonMatchingAnswersEmpty) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  auto q = make_query(78, parent, -1, 0);
  q->query = RangeQuery::any(2).with(0, 50, std::nullopt);  // leaf at 5: no
  net.send(parent, leaf, std::move(q));
  net.run_until(net.now() + 600 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent);
  ASSERT_EQ(sink.replies.size(), 1u);
  EXPECT_TRUE(sink.replies[0].second.matching.empty());
}

TEST_F(ProtocolMessagesTest, DuplicateQueryAnsweredIdempotently) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  net.send(parent, leaf, make_query(80, parent, -1, 0));
  net.run_until(net.now() + 600 * kSecond);
  net.send(parent, leaf, make_query(80, parent, -1, 0));  // retransmission
  net.run_until(net.now() + 600 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent);
  ASSERT_EQ(sink.replies.size(), 2u);
  // The duplicate answer must not re-add the leaf (empty reply).
  EXPECT_TRUE(sink.replies[1].second.matching.empty());
  EXPECT_EQ(node(leaf).active_queries(), 0u);
}

TEST_F(ProtocolMessagesTest, DuplicatesAnsweredIdempotentlyAcrossManyQueries) {
  // The completed-query record must recognize every id it was given, not
  // only the latest or the largest: ids from several origins and sequence
  // numbers, completed out of ascending order, each retransmitted later.
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  auto qid = [](std::uint64_t origin, std::uint64_t seq) -> QueryId {
    return (origin << 32) | seq;
  };
  const std::vector<QueryId> served = {qid(3, 5), qid(1, 9), qid(2, 0), qid(1, 2),
                                       qid(3, 1), qid(7, 4)};
  for (QueryId q : served) net.send(parent, leaf, make_query(q, parent, -1, 0));
  net.run_until(net.now() + 600 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent);
  ASSERT_EQ(sink.replies.size(), served.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(sink.replies[i].second.id, served[i]);
    EXPECT_EQ(sink.replies[i].second.matching.size(), 1u);
  }

  // Retransmit every one, in yet another order: each gets an empty reply.
  const std::vector<QueryId> again = {served[2], served[5], served[0], served[4],
                                      served[1], served[3]};
  for (QueryId q : again) net.send(parent, leaf, make_query(q, parent, -1, 0));
  net.run_until(net.now() + 600 * kSecond);
  ASSERT_EQ(sink.replies.size(), served.size() + again.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    const ReplyMsg& r = sink.replies[served.size() + i].second;
    EXPECT_EQ(r.id, again[i]);
    EXPECT_TRUE(r.matching.empty()) << "retransmission of " << again[i];
  }
  EXPECT_EQ(node(leaf).active_queries(), 0u);

  // An id never seen before, between the served ones, is still served.
  net.send(parent, leaf, make_query(qid(2, 3), parent, -1, 0));
  net.run_until(net.now() + 600 * kSecond);
  ASSERT_EQ(sink.replies.size(), served.size() + again.size() + 1);
  const ReplyMsg& fresh = sink.replies.back().second;
  EXPECT_EQ(fresh.id, qid(2, 3));
  ASSERT_EQ(fresh.matching.size(), 1u);
  EXPECT_EQ(fresh.matching[0].id, leaf);
  EXPECT_EQ(node(leaf).active_queries(), 0u);
}

TEST_F(ProtocolMessagesTest, UnknownReplyIgnored) {
  NodeId a = add_node({5, 5});
  auto r = std::make_unique<ReplyMsg>();
  r->id = 999;  // never seen
  r->matching.push_back({kInvalidNode, {1, 2}});
  net.send(a, a, std::move(r));
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(node(a).active_queries(), 0u);  // no state created
}

TEST_F(ProtocolMessagesTest, UnknownProgressIgnored) {
  NodeId a = add_node({5, 5});
  auto p = std::make_unique<ProgressMsg>();
  p->id = 31337;
  net.send(a, a, std::move(p));
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(node(a).active_queries(), 0u);
}

TEST_F(ProtocolMessagesTest, KeepalivesFlowWhileBranchActive) {
  // Parent forwards to child; child has a stuck sub-branch (link to a dead
  // node), so it stays active and must heartbeat the parent.
  ProtocolConfig cfg;
  cfg.query_timeout = 4 * kSecond;
  cfg.retry_alternates = false;
  NodeId parent_sink = net.add_node(std::make_unique<SinkNode>());
  NodeId child = add_node({5, 5}, cfg);
  NodeId dead = add_node({75, 75}, cfg);  // gives child a slot link, then dies
  node(child).routing().offer(node(dead).descriptor());
  net.remove_node(dead, false);

  // Query covering the whole space: child matches, then forwards toward the
  // dead node's subcell and waits.
  net.send(parent_sink, child, make_query(81, parent_sink, 3, 0b11));
  net.run_until(3 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent_sink);
  EXPECT_GE(sink.progress_count, 1);  // heartbeats arrived before any reply
  EXPECT_TRUE(sink.replies.empty());
  // After the child's timeout fires, the branch resolves and a reply lands.
  net.run_until(20 * kSecond);
  EXPECT_EQ(sink.replies.size(), 1u);
}

TEST_F(ProtocolMessagesTest, ProgressRefreshesParentDeadline) {
  // A (origin) forwards to B; B's subtree takes ~3 timeouts' worth of time
  // because of its own dead link chain, but A must NOT declare B failed.
  ProtocolConfig cfg;
  cfg.query_timeout = 3 * kSecond;
  cfg.retry_alternates = false;

  NodeId a = add_node({5, 5}, cfg);
  NodeId b = add_node({75, 5}, cfg);  // in N(3,0)(a)
  NodeId dead1 = add_node({45, 5}, cfg);   // in N(2,0)(b)
  NodeId dead2 = add_node({75, 75}, cfg);  // in N(3,1)(b)
  // a links b; b links two dead nodes in different subcells.
  node(a).routing().offer(node(b).descriptor());
  node(b).routing().offer(node(dead1).descriptor());
  node(b).routing().offer(node(dead2).descriptor());
  net.remove_node(dead1, false);
  net.remove_node(dead2, false);

  bool completed = false;
  std::size_t matches = 0;
  node(a).submit(RangeQuery::any(2), kNoSigma,
                 [&](const std::vector<MatchRecord>& m) {
                   completed = true;
                   matches = m.size();
                 });
  net.run_until(60 * kSecond);
  EXPECT_TRUE(completed);
  // Both a and b must be in the result: had A falsely timed B out, B's
  // subtree (including B itself) would have been dropped.
  EXPECT_EQ(matches, 2u);
}

TEST_F(ProtocolMessagesTest, SigmaZeroForbidden) {
  [[maybe_unused]] NodeId a = add_node({5, 5});
#ifdef NDEBUG
  GTEST_SKIP() << "assertion checks compiled out in release";
#else
  EXPECT_DEATH(node(a).submit(RangeQuery::any(2), 0, nullptr), "sigma");
#endif
}

TEST_F(ProtocolMessagesTest, QueryStateCleanedAfterCompletion) {
  NodeId a = add_node({5, 5});
  NodeId b = add_node({75, 5});
  node(a).routing().offer(node(b).descriptor());
  node(b).routing().offer(node(a).descriptor());
  bool done = false;
  node(a).submit(RangeQuery::any(2), kNoSigma, [&](const auto&) { done = true; });
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(node(a).active_queries(), 0u);
  EXPECT_EQ(node(b).active_queries(), 0u);
}

}  // namespace
}  // namespace ares
