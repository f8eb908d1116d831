/**
 * @file
 * Partition tolerance (DESIGN.md section 14): quorum-gated death on
 * the minority side, reintegration after a heal without new lives,
 * session ends when both sides declared each other dead or one side
 * restarted, the stale-writeback fence with exactly-once re-homing,
 * owner restart racing the recall RTO, the FaultModel's asymmetric
 * forced-outage window, and a full cut-set on the oblivious mesh
 * killing traffic at the wire.
 */

#include <gtest/gtest.h>

#include "net/fault_model.hh"
#include "net/router.hh"
#include "os/dsm.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

SystemConfig
partitionConfig(unsigned width, unsigned height, bool dsm)
{
    SystemConfig cfg;
    cfg.meshWidth = width;
    cfg.meshHeight = height;
    cfg.ni.reliability.enabled = true;
    cfg.health.enabled = true;
    cfg.health.heartbeatPeriod = 50 * ONE_US;
    cfg.health.suspectTimeout = 200 * ONE_US;
    cfg.health.deadTimeout = 600 * ONE_US;
    if (dsm) {
        cfg.dsm.enabled = true;
        cfg.dsm.numPages = 4;
    }
    return cfg;
}

std::uint64_t
totalStaleEpochRejects(ShrimpSystem &sys)
{
    std::uint64_t total = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id)
        total += sys.kernel(id).health()->staleEpochRejects();
    return total;
}

TEST(Partition, MinorityStallsWithoutQuorum)
{
    // A 4x1 row: node 3 is an end, so no dimension-order route between
    // the other three crosses it and the majority stays connected. (In
    // a 2x2, the route 2 -> 1 turns at node 3 and would be cut too.)
    ShrimpSystem sys(partitionConfig(4, 1, false));
    sys.runFor(ONE_MS);

    // Strand node 3 alone: 1 of 4 can never reach a strict majority.
    ASSERT_GT(sys.partition({3}, {0, 1, 2}), 0u);
    EXPECT_TRUE(sys.partitioned());
    sys.runFor(2 * ONE_MS);

    // The majority side has quorum and declares the minority DEAD.
    for (NodeId id : {NodeId{0}, NodeId{1}, NodeId{2}}) {
        EXPECT_EQ(sys.kernel(id).health()->peerState(3),
                  PeerHealth::DEAD)
            << "majority node " << id;
    }
    // The minority must NOT declare the majority dead: its suspects
    // stall at SUSPECT for lack of a quorum.
    HealthMonitor *h3 = sys.kernel(3).health();
    EXPECT_FALSE(h3->quorumReachable());
    EXPECT_GE(h3->partitionsDeclared(), 1u);
    EXPECT_EQ(h3->peersDeclaredDead(), 0u);
    for (NodeId peer : {NodeId{0}, NodeId{1}, NodeId{2}})
        EXPECT_EQ(h3->peerState(peer), PeerHealth::SUSPECT);
}

/**
 * Store @p words distinct values from @p src_node's page at @p src to
 * @p dst_node's page at @p dst, mapping the pair first, one store
 * every @p gap.
 */
void
mapAndStore(ShrimpSystem &sys, NodeId src_node, Process &src,
            Addr src_va, NodeId dst_node, Process &dst, Addr dst_va,
            unsigned words, std::uint32_t base, Tick gap = ONE_US)
{
    ASSERT_EQ(sys.kernel(src_node).mapDirect(src, src_va, 1,
                                             sys.kernel(dst_node), dst,
                                             dst_va,
                                             UpdateMode::AUTO_SINGLE),
              err::OK);
    Translation t = src.space().translate(src_va, true);
    ASSERT_TRUE(t.ok());
    for (unsigned i = 0; i < words; ++i) {
        std::uint32_t value = base + i;
        sys.node(src_node).bus.postWrite(t.paddr + 4 * i, &value, 4,
                                         BusMaster::CPU, sys.curTick());
        sys.runFor(gap);
    }
}

/** Does @p dst_node's page at @p dst_va hold base .. base+words-1? */
void
expectWords(ShrimpSystem &sys, NodeId dst_node, Process &dst,
            Addr dst_va, unsigned words, std::uint32_t base)
{
    Translation t = dst.space().translate(dst_va, false);
    ASSERT_TRUE(t.ok());
    for (unsigned i = 0; i < words; ++i) {
        EXPECT_EQ(sys.node(dst_node).mem.readInt(t.paddr + 4 * i, 4),
                  base + i)
            << "node " << dst_node << " word " << i;
    }
}

TEST(Partition, HealReintegratesWithoutNewLives)
{
    ShrimpSystem sys(partitionConfig(2, 2, false));
    std::vector<Process *> procs;
    for (NodeId id = 0; id < sys.numNodes(); ++id)
        procs.push_back(sys.kernel(id).createProcess("p"));
    // Pages 0 and 1 send and receive before the cut, 2 and 3 after.
    Addr a = procs[0]->allocate(4), b = procs[3]->allocate(4);

    // Live streams in both directions across the future cut.
    constexpr unsigned kWords = 64;
    mapAndStore(sys, 0, *procs[0], a, 3, *procs[3], b + PAGE_SIZE,
                kWords, 0x0A000000u);
    mapAndStore(sys, 3, *procs[3], b, 0, *procs[0], a + PAGE_SIZE,
                kWords, 0x3A000000u);
    sys.runFor(ONE_MS);
    expectWords(sys, 3, *procs[3], b + PAGE_SIZE, kWords, 0x0A000000u);
    expectWords(sys, 0, *procs[0], a + PAGE_SIZE, kWords, 0x3A000000u);

    sys.partition({3}, {0, 1, 2});
    sys.runFor(2 * ONE_MS);
    ASSERT_EQ(sys.kernel(0).health()->peerState(3), PeerHealth::DEAD);

    sys.heal();
    EXPECT_FALSE(sys.partitioned());
    sys.runFor(3 * ONE_MS);

    // Everyone sees everyone ALIVE again, and nobody started a new
    // life: only a node's own restart does that.
    for (NodeId a_id = 0; a_id < sys.numNodes(); ++a_id) {
        EXPECT_EQ(sys.kernel(a_id).health()->selfIncarnation(), 1u)
            << "node " << a_id;
        for (NodeId b_id = 0; b_id < sys.numNodes(); ++b_id) {
            if (a_id != b_id) {
                EXPECT_EQ(sys.kernel(a_id).health()->peerState(b_id),
                          PeerHealth::ALIVE)
                    << a_id << " -> " << b_id;
            }
        }
    }

    // The majority dropped its mappings toward the node it declared
    // dead; a re-map across the healed cut converges exactly in both
    // directions.
    mapAndStore(sys, 0, *procs[0], a + 2 * PAGE_SIZE, 3, *procs[3],
                b + 3 * PAGE_SIZE, kWords, 0x0B000000u);
    mapAndStore(sys, 3, *procs[3], b + 2 * PAGE_SIZE, 0, *procs[0],
                a + 3 * PAGE_SIZE, kWords, 0x3B000000u);
    sys.runFor(3 * ONE_MS);
    expectWords(sys, 3, *procs[3], b + 3 * PAGE_SIZE, kWords,
                0x0B000000u);
    expectWords(sys, 0, *procs[0], a + 3 * PAGE_SIZE, kWords,
                0x3B000000u);
}

TEST(Partition, MutualDeathHealsBothWays)
{
    // Two nodes that each declare the other DEAD recover each other
    // one at a time: a short restart of node 1 shifts its heartbeat
    // phase, so after the heal one side ends the session first and
    // the other, still holding it DEAD, sees that end before its own
    // recovery. That recovery must follow the end, not end (and
    // fence) the session the first side just started.
    ShrimpSystem sys(partitionConfig(2, 1, false));
    Process *p0 = sys.kernel(0).createProcess("p0");
    Process *p1 = sys.kernel(1).createProcess("p1");
    Addr a = p0->allocate(2), b = p1->allocate(2);
    sys.runFor(ONE_MS);
    sys.crashNode(1);
    sys.runFor(120 * ONE_US);
    sys.restartNode(1);
    sys.runFor(ONE_MS);

    sys.partition({1}, {0});
    sys.runFor(2 * ONE_MS);
    ASSERT_EQ(sys.kernel(0).health()->peerState(1), PeerHealth::DEAD);
    ASSERT_EQ(sys.kernel(1).health()->peerState(0), PeerHealth::DEAD);

    sys.heal();
    sys.runFor(ONE_MS);
    // Recovered for good, not cycling back through DEAD.
    for (unsigned step = 0; step < 16; ++step) {
        sys.runFor(250 * ONE_US);
        EXPECT_EQ(sys.kernel(0).health()->peerState(1), PeerHealth::ALIVE)
            << "step " << step;
        EXPECT_EQ(sys.kernel(1).health()->peerState(0), PeerHealth::ALIVE)
            << "step " << step;
    }

    constexpr unsigned kWords = 64;
    mapAndStore(sys, 0, *p0, a, 1, *p1, b + PAGE_SIZE, kWords,
                0x01000000u);
    mapAndStore(sys, 1, *p1, b, 0, *p0, a + PAGE_SIZE, kWords,
                0x10000000u);
    sys.runFor(2 * ONE_MS);
    expectWords(sys, 1, *p1, b + PAGE_SIZE, kWords, 0x01000000u);
    expectWords(sys, 0, *p0, a + PAGE_SIZE, kWords, 0x10000000u);
}

TEST(Partition, RestartedNodeKeepsItsFirstMappings)
{
    // A survivor follows a peer's new life with a restart of its own
    // stream to it. The new life must not read that restart as the
    // end of its session: if it did, it would purge the mappings it
    // has just made and drop the stores still in its window.
    ShrimpSystem sys(partitionConfig(2, 1, false));
    Process *p0 = sys.kernel(0).createProcess("p0");
    Process *p1 = sys.kernel(1).createProcess("p1");
    Addr a = p0->allocate(1), b = p1->allocate(1);
    sys.runFor(ONE_MS);
    sys.crashNode(1);
    sys.runFor(100 * ONE_US);
    sys.restartNode(1);
    sys.runFor(10 * ONE_US);

    // Store across the time node 0 learns of node 1's new life.
    constexpr unsigned kWords = 64;
    mapAndStore(sys, 1, *p1, b, 0, *p0, a, kWords, 0x1E000000u,
                10 * ONE_US);
    sys.runFor(ONE_MS);
    expectWords(sys, 0, *p0, a, kWords, 0x1E000000u);
    EXPECT_EQ(sys.kernel(0).health()->peersDeclaredDead(), 0u);
    EXPECT_GT(sys.kernel(1).health()->selfIncarnation(), 1u);
}

TEST(Partition, StaleWritebackFencedAndRehomedOnce)
{
    // 3x1 row: home 0, requester 1, owner 2. Cutting only node 2's
    // outbound direction makes the failure asymmetric -- the recall
    // still reaches the owner, but its writeback dies on the wire.
    SystemConfig cfg = partitionConfig(3, 1, true);
    // The stranded owner must keep retrying its writeback across the
    // whole outage instead of failing its channels.
    cfg.ni.reliability.maxRetries = 60;
    ShrimpSystem sys(cfg);

    std::uint32_t page = 0;
    while (sys.kernel(0).dsm()->homeNode(page) != 0)
        ++page;

    bool owned = false;
    sys.kernel(2).dsm()->acquire(page, true, [&owned](std::uint64_t st) {
        owned = st == err::OK;
    });
    sys.runFor(ONE_MS);
    ASSERT_TRUE(owned);
    ASSERT_EQ(sys.kernel(0).dsm()->ownerOf(page), 2u);

    Router::Port out = sys.backplane().portToward(2, 1);
    sys.backplane().router(2).forceLinkDown(out);

    // The requester's write-acquire recalls the page from the owner;
    // the owner's WB can only die outbound. Once heartbeat silence
    // declares the owner DEAD, the home fails the acquire fast rather
    // than forking a second writable copy (split-brain refusal).
    std::uint64_t acquireStatus = err::OK;
    bool acquireDone = false;
    sys.kernel(1).dsm()->acquire(
        page, true, [&](std::uint64_t st) {
            acquireDone = true;
            acquireStatus = st;
        });
    sys.runFor(2 * ONE_MS);
    EXPECT_EQ(sys.kernel(0).health()->peerState(2), PeerHealth::DEAD);
    EXPECT_TRUE(acquireDone);
    EXPECT_EQ(acquireStatus, err::HOSTDOWN);
    EXPECT_TRUE(sys.kernel(0).dsm()->errored(page));
    // The owner's side of the cut is asymmetric: it still hears the
    // majority's heartbeats and keeps believing they are alive.
    EXPECT_EQ(sys.kernel(2).health()->peersDeclaredDead(), 0u);

    // Restore the direction before the owner's retry budget dies. Its
    // queued writeback retransmits into the healed link, but the
    // majority has moved on: the recovery ends the home's session with
    // the owner, the stream carrying the old session's writeback is
    // fenced, and the page re-homes exactly once.
    sys.backplane().router(2).forceLinkUp(out);
    sys.runFor(3 * ONE_MS);

    EXPECT_EQ(sys.kernel(0).health()->peerState(2), PeerHealth::ALIVE);
    EXPECT_FALSE(sys.kernel(0).dsm()->errored(page));
    EXPECT_EQ(sys.kernel(0).dsm()->rehomes(), 1u);
    EXPECT_GT(totalStaleEpochRejects(sys), 0u);

    // The page is usable again, and the stale grant never resurrects:
    // the requester takes clean exclusive ownership.
    bool reacquired = false;
    sys.kernel(1).dsm()->acquire(
        page, true, [&reacquired](std::uint64_t st) {
            reacquired = st == err::OK;
        });
    sys.runFor(2 * ONE_MS);
    EXPECT_TRUE(reacquired);
    EXPECT_EQ(sys.kernel(0).dsm()->ownerOf(page), 1u);
}

TEST(Partition, OwnerRestartBeforeRtoFencesStaleLife)
{
    // Crash the owner mid-recall and restart it BEFORE heartbeat
    // silence can declare it dead: nobody ever sees DEAD, yet the
    // restart bumps its incarnation, so the grant held by its previous
    // life is revoked through the epoch fence alone and the page
    // re-homes exactly once.
    ShrimpSystem sys(partitionConfig(3, 1, true));

    std::uint32_t page = 0;
    while (sys.kernel(0).dsm()->homeNode(page) != 0)
        ++page;

    bool owned = false;
    sys.kernel(2).dsm()->acquire(page, true, [&owned](std::uint64_t st) {
        owned = st == err::OK;
    });
    sys.runFor(ONE_MS);
    ASSERT_TRUE(owned);

    // Recall goes out toward the owner...
    bool acquireDone = false;
    std::uint64_t acquireStatus = err::OK;
    sys.kernel(1).dsm()->acquire(
        page, true, [&](std::uint64_t st) {
            acquireDone = true;
            acquireStatus = st;
        });
    sys.runFor(10 * ONE_US);
    // ...and the owner power-fails mid-recall, restarting within the
    // suspect timeout so silence proves nothing to anyone.
    sys.crashNode(2);
    sys.runFor(100 * ONE_US);
    sys.restartNode(2);
    sys.runFor(3 * ONE_MS);

    EXPECT_EQ(sys.kernel(0).health()->peersDeclaredDead(), 0u);
    EXPECT_GT(sys.kernel(2).health()->selfIncarnation(), 1u);
    EXPECT_EQ(sys.kernel(0).dsm()->rehomes(), 1u);
    EXPECT_FALSE(sys.kernel(0).dsm()->errored(page));

    // However the recall raced the crash, the machine converges: the
    // requester either already completed or a retry takes ownership.
    if (!acquireDone || acquireStatus != err::OK) {
        bool retried = false;
        sys.kernel(1).dsm()->acquire(
            page, true, [&retried](std::uint64_t st) {
                retried = st == err::OK;
            });
        sys.runFor(2 * ONE_MS);
        EXPECT_TRUE(retried);
    }
    EXPECT_EQ(sys.kernel(0).dsm()->ownerOf(page), 1u);
}

TEST(FaultModelTest, ValidatedClampsAndSwapsWindow)
{
    FaultModel::Params p;
    p.dropProb = 1.7;
    p.corruptProb = -0.3;
    p.linkDownProb = 0.5;
    p.linkDownTicks = 0;
    p.downFrom = 200 * ONE_US;      // inverted on purpose
    p.downUntil = 100 * ONE_US;
    FaultModel::Params v = FaultModel::validated(p);
    EXPECT_DOUBLE_EQ(v.dropProb, 1.0);
    EXPECT_DOUBLE_EQ(v.corruptProb, 0.0);
    EXPECT_GT(v.linkDownTicks, 0u);
    EXPECT_EQ(v.downFrom, 100 * ONE_US);
    EXPECT_EQ(v.downUntil, 200 * ONE_US);
}

TEST(FaultModelTest, AsymmetricForcedWindowAndRuntimeForce)
{
    // A forced window on one FaultModel takes down exactly that
    // direction of the link, deterministically, with no sampled
    // faults configured at all.
    FaultModel::Params down;
    down.downFrom = 100 * ONE_US;
    down.downUntil = 200 * ONE_US;
    FaultModel a(down, 1);
    FaultModel b(FaultModel::Params{}, 2);   // the reverse direction

    EXPECT_EQ(a.decide(50 * ONE_US), FaultModel::Action::PASS);
    EXPECT_EQ(a.decide(150 * ONE_US), FaultModel::Action::LINK_DOWN);
    EXPECT_TRUE(a.linkDown(150 * ONE_US));
    EXPECT_EQ(b.decide(150 * ONE_US), FaultModel::Action::PASS);
    EXPECT_EQ(a.decide(250 * ONE_US), FaultModel::Action::PASS);

    // Runtime force: down until forced up, reverse side untouched.
    a.forceDown(300 * ONE_US);
    EXPECT_EQ(a.decide(5 * ONE_MS), FaultModel::Action::LINK_DOWN);
    EXPECT_TRUE(a.linkDown(ONE_MS));
    a.forceUp(5 * ONE_MS);
    EXPECT_EQ(a.decide(5 * ONE_MS + 1), FaultModel::Action::PASS);
    EXPECT_EQ(b.decide(5 * ONE_MS), FaultModel::Action::PASS);
}

TEST(RouterPartition, FullCutSetDropsAtTheWire)
{
    // A wall of cut links seals off the east column. Dimension-order
    // routing never looks for a way around: every packet sent into
    // the wall dies on the downed wire as a linkDownDrop -- never a
    // silent re-queue that wedges the mesh.
    SystemConfig cfg;
    cfg.meshWidth = 3;
    cfg.meshHeight = 3;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(2).createProcess("b");
    Addr src = a->allocate(1), dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(2), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);
    sys.runFor(ONE_MS);

    ASSERT_GT(sys.partition({0, 1, 3, 4, 6, 7}, {2, 5, 8}), 0u);

    auto dropsNow = [&sys] {
        std::uint64_t total = 0;
        for (NodeId id = 0; id < sys.numNodes(); ++id)
            total += sys.backplane().router(id).linkDownDrops();
        return total;
    };
    const std::uint64_t before = dropsNow();

    Translation t = a->space().translate(src, false);
    ASSERT_TRUE(t.ok());
    const unsigned kPackets = 8;
    for (unsigned i = 0; i < kPackets; ++i) {
        std::uint32_t value = 0xD00D + i;
        sys.node(0).bus.postWrite(t.paddr + 4 * i, &value, 4,
                                  BusMaster::CPU, sys.curTick());
        sys.runFor(50 * ONE_US);
    }
    sys.runFor(2 * ONE_MS);

    // Exact landing: every packet sent surfaced as a link-down drop,
    // and nothing is parked in any router queue.
    EXPECT_EQ(dropsNow() - before, kPackets);
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        EXPECT_EQ(sys.backplane().router(id).queuedPackets(), 0u)
            << "router " << id << " still holds packets";
    }
    // Nothing leaked across the cut.
    Translation td = b->space().translate(dst, false);
    ASSERT_TRUE(td.ok());
    EXPECT_EQ(sys.node(2).mem.readInt(td.paddr, 4), 0u);
}

} // namespace
} // namespace shrimp
