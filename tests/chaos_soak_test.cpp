/**
 * @file
 * Chaos-soak harness tests: seeded fault schedules must leave the
 * machine consistent, quiescent, and perfectly repeatable, at the
 * paper's 16 nodes too, and a permanently dead link on the oblivious
 * mesh cuts exactly the pairs routed across it.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/chaos.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

std::string
joinViolations(const ChaosReport &r)
{
    std::string out;
    for (const auto &v : r.violations)
        out += v + "\n";
    return out;
}

//! Ten distinct seeds, every global invariant holds on each.
TEST(ChaosSoak, TenSeedsHoldInvariants)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ChaosParams p;
        p.seed = seed;
        ChaosReport r = runChaos(p);
        EXPECT_TRUE(r.ok) << "seed " << seed << ":\n"
                          << joinViolations(r);
        EXPECT_GT(r.writesIssued, 0u) << "seed " << seed;
        EXPECT_GT(r.heartbeatsSent, 0u) << "seed " << seed;
        EXPECT_EQ(r.crashesInjected, p.crashes) << "seed " << seed;
        // Every crash must have been detected by at least one peer.
        EXPECT_GT(r.peersDeclaredDead, 0u) << "seed " << seed;
        // The DSM phase actually ran its schedule.
        EXPECT_GT(r.dsmOpsIssued, 0u) << "seed " << seed;
    }
}

//! A wider mesh: longer routes, more flaps.
TEST(ChaosSoak, ThreeByThreeMesh)
{
    ChaosParams p;
    p.seed = 42;
    p.meshWidth = 3;
    p.meshHeight = 3;
    p.linkFlaps = 5;
    p.writesPerPair = 24;
    ChaosReport r = runChaos(p);
    EXPECT_TRUE(r.ok) << joinViolations(r);
    EXPECT_GT(r.writesIssued, 0u);
}

//! Same seed, same machine: the run is a pure function of the params.
TEST(ChaosSoak, SameSeedIsDeterministic)
{
    ChaosParams p;
    p.seed = 7;
    ChaosReport a = runChaos(p);
    ChaosReport b = runChaos(p);
    EXPECT_TRUE(a.ok) << joinViolations(a);
    EXPECT_TRUE(b.ok) << joinViolations(b);
    EXPECT_EQ(a.statsFingerprint, b.statsFingerprint);
    EXPECT_EQ(a.writesIssued, b.writesIssued);
    EXPECT_EQ(a.peersDeclaredDead, b.peersDeclaredDead);
    EXPECT_EQ(a.peersRecovered, b.peersRecovered);
    EXPECT_EQ(a.linkDownDrops, b.linkDownDrops);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.dsmOpsIssued, b.dsmOpsIssued);
    EXPECT_EQ(a.dsmOpsHostdown, b.dsmOpsHostdown);
    EXPECT_EQ(a.dsmRehomes, b.dsmRehomes);
}

//! Different seeds should produce observably different runs.
TEST(ChaosSoak, DifferentSeedsDiffer)
{
    ChaosParams pa, pb;
    pa.seed = 3;
    pb.seed = 4;
    ChaosReport a = runChaos(pa);
    ChaosReport b = runChaos(pb);
    EXPECT_NE(a.statsFingerprint, b.statsFingerprint);
}

/** Run @p p: every invariant holds and some pairs verify exactly. */
ChaosReport
expectHolds(const ChaosParams &p)
{
    ChaosReport r = runChaos(p);
    EXPECT_TRUE(r.ok) << joinViolations(r);
    EXPECT_GT(r.pairsVerifiedExact, 0u);
    return r;
}

//! One link flap at 16 nodes: no router wedges, no peer is falsely
//! declared dead (retransmission rides out the downed wire).
TEST(ChaosSoak, SixteenNodesRideOutOneFlap)
{
    ChaosParams p;
    p.seed = 6;
    p.meshWidth = 4;
    p.meshHeight = 4;
    p.crashes = 0;
    p.overloadBursts = 0;
    p.linkFlaps = 1;
    ChaosReport r = expectHolds(p);
    EXPECT_EQ(r.linkFlapsInjected, 1u);
    EXPECT_EQ(r.peersDeclaredDead, 0u);
    EXPECT_EQ(r.partitionsDeclared, 0u);
}

//! A crash and restart at 16 nodes: survivors keep their unacked
//! writes to each other (no new life on a peer's recovery).
TEST(ChaosSoak, SixteenNodesKeepWritesAcrossACrash)
{
    ChaosParams p;
    p.seed = 1;
    p.meshWidth = 4;
    p.meshHeight = 4;
    p.linkFlaps = 0;
    p.overloadBursts = 0;
    expectHolds(p);
}

//! The default soak at the paper's 16 nodes.
TEST(ChaosSoak, SixteenNodesDefaultSoak)
{
    ChaosParams p;
    p.seed = 2;
    p.meshWidth = 4;
    p.meshHeight = 4;
    expectHolds(p);
}

//! Default 3x3 seeds whose crashes and flaps hit pairs verified
//! exactly.
TEST(ChaosSoak, ThreeByThreeDefaultSeeds)
{
    for (std::uint64_t seed : {1, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ChaosParams p;
        p.seed = seed;
        p.meshWidth = 3;
        p.meshHeight = 3;
        expectHolds(p);
    }
}

/**
 * A partition ends only the sessions across the cut: every other pair
 * still converges exactly, and no DSM page ends with two exclusive
 * owners. At these 2x2 seeds a DSM grant sent in the old session is
 * still in flight at the heal; the cut must fence it.
 */
TEST(ChaosSoak, PartitionsKeepOtherPairsExact)
{
    struct Case
    {
        std::uint64_t seed;
        unsigned side;
    };
    for (Case c : {Case{11, 2}, Case{14, 2}, Case{1, 4}}) {
        SCOPED_TRACE("seed " + std::to_string(c.seed));
        ChaosParams p;
        p.seed = c.seed;
        p.meshWidth = c.side;
        p.meshHeight = c.side;
        p.partitions = 2;
        EXPECT_EQ(expectHolds(p).healsInjected, 2u);
    }
}

/**
 * The mesh is oblivious: with the 4<->5 link of a 3x3 cut for good,
 * every pair whose dimension-order route avoids it still delivers
 * exactly, every pair routed across it loses its channel and never
 * delivers, and nothing stays parked in the fabric.
 */
TEST(ChaosSoak, DeadLinkCutsOnlyCrossingPairs)
{
    SystemConfig cfg;
    cfg.meshWidth = 3;
    cfg.meshHeight = 3;
    cfg.ni.reliability.enabled = true;
    ShrimpSystem sys(cfg);
    const unsigned n = sys.numNodes();

    // Cut the wire between node 4 (center) and node 5, both ways.
    sys.backplane().router(4).forceLinkDown(Router::EAST);
    sys.backplane().router(5).forceLinkDown(Router::WEST);

    // X then Y: the only horizontal hops are on the source's row, so
    // a route uses 4<->5 iff it starts on row 1 and its X leg spans
    // columns 1 and 2.
    auto crosses = [&sys](NodeId s, NodeId d) {
        const MeshBackplane &bp = sys.backplane();
        unsigned sx = bp.xOf(s), dx = bp.xOf(d);
        return bp.yOf(s) == 1 && std::min(sx, dx) <= 1 &&
               std::max(sx, dx) == 2;
    };

    std::vector<Process *> procs(n);
    std::vector<Addr> srcBase(n), dstBase(n);
    for (NodeId id = 0; id < n; ++id) {
        procs[id] = sys.kernel(id).createProcess("pairs");
        srcBase[id] = procs[id]->allocate(n);
        dstBase[id] = procs[id]->allocate(n);
    }
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            ASSERT_EQ(sys.kernel(s).mapDirect(
                          *procs[s], srcBase[s] + d * PAGE_SIZE, 1,
                          sys.kernel(d), *procs[d],
                          dstBase[d] + s * PAGE_SIZE,
                          UpdateMode::AUTO_SINGLE),
                      err::OK);
        }
    }

    // One distinct word from every source to every destination.
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            Translation t = procs[s]->space().translate(
                srcBase[s] + d * PAGE_SIZE, true);
            ASSERT_TRUE(t.ok());
            std::uint32_t value = 0xC0DE0000u + s * 16 + d;
            sys.node(s).bus.postWrite(t.paddr, &value, 4,
                                      BusMaster::CPU, sys.curTick());
        }
    }
    // Long enough for the retry budget toward the far side to run out.
    sys.runFor(30 * ONE_MS);

    unsigned crossing = 0;
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            Translation t = procs[d]->space().translate(
                dstBase[d] + s * PAGE_SIZE, false);
            ASSERT_TRUE(t.ok());
            auto v = static_cast<std::uint32_t>(
                sys.node(d).mem.readInt(t.paddr, 4));
            if (!crosses(s, d)) {
                EXPECT_EQ(v, 0xC0DE0000u + s * 16 + d)
                    << "pair " << s << "->" << d
                    << " avoids the dead link but was not delivered";
                continue;
            }
            ++crossing;
            EXPECT_EQ(v, 0u) << "pair " << s << "->" << d
                             << " delivered across a dead wire";
            EXPECT_TRUE(
                sys.node(s).ni.retransmitBuffer().isFailed(d) ||
                sys.kernel(s).peerFailed(d))
                << "pair " << s << "->" << d
                << " never learned it is cut";
        }
    }
    // {3, 4} -> column 2, and 5 -> columns 0 and 1.
    EXPECT_EQ(crossing, 12u);

    std::uint64_t dropped = 0;
    for (NodeId id = 0; id < n; ++id) {
        EXPECT_EQ(sys.backplane().router(id).queuedPackets(), 0u)
            << "router " << id << " still holds packets";
        dropped += sys.backplane().router(id).linkDownDrops();
    }
    EXPECT_GT(dropped, 0u);
}

} // namespace
} // namespace shrimp
