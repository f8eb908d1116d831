/**
 * @file
 * Edge cases in the kernel's mapping machinery: double-mapping
 * refusal (one outgoing mapping per page half, the hardware limit of
 * Section 3.2), RPC queueing on the kernel channel when several map
 * operations are in flight to the same peer, and unmap of mappings
 * that do not exist.
 */

#include <gtest/gtest.h>

#include "os/map_manager.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;
using test::poke32;

/** Arguments of an AUTO_SINGLE map of @p npages pages to node 1. */
MapArgs
mapToNode1(Addr src, std::uint32_t npages, const Process &dst_proc,
           Addr dst)
{
    MapArgs args;
    args.localVaddr = static_cast<std::uint32_t>(src);
    args.npages = npages;
    args.dstNode = 1;
    args.dstPid = dst_proc.pid();
    args.dstVaddr = static_cast<std::uint32_t>(dst);
    args.mode = static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE);
    return args;
}

TEST(OsEdge, DoubleMapOfSamePageRefused)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst1 = b->allocate(1);
    Addr dst2 = b->allocate(1);

    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst1, UpdateMode::AUTO_SINGLE),
              err::OK);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst2, UpdateMode::AUTO_SINGLE),
              err::AGAIN);
}

TEST(OsEdge, TwoHalvesOfOnePageMayMapSeparately)
{
    // The split mechanism allows exactly two mappings per page.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(2);

    EXPECT_EQ(sys.kernel(0).mapDirectRange(*a, src, PAGE_SIZE / 2,
                                           sys.kernel(1), *b, dst,
                                           UpdateMode::AUTO_SINGLE),
              err::OK);
    EXPECT_EQ(sys.kernel(0).mapDirectRange(
                  *a, src + PAGE_SIZE / 2, PAGE_SIZE / 2,
                  sys.kernel(1), *b, dst + PAGE_SIZE + PAGE_SIZE / 2,
                  UpdateMode::AUTO_SINGLE),
              err::OK);
    // A third mapping of either half is refused.
    EXPECT_EQ(sys.kernel(0).mapDirectRange(*a, src, PAGE_SIZE / 2,
                                           sys.kernel(1), *b,
                                           dst + PAGE_SIZE,
                                           UpdateMode::AUTO_SINGLE),
              err::AGAIN);
}

TEST(OsEdge, ConcurrentMapSyscallsQueueOnTheChannel)
{
    // Two processes on node 0 issue MAP syscalls to node 1 at the
    // same time; the per-peer RPC engine must serialize them and both
    // must succeed.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.kernel.quantum = 10 * ONE_US;
    ShrimpSystem sys(cfg);
    Process *b = sys.kernel(1).createProcess("b");
    Addr dsts[2] = {b->allocate(2), b->allocate(2)};
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    Process *procs[2];
    Addr outs[2];
    for (int i = 0; i < 2; ++i) {
        Process *p =
            sys.kernel(0).createProcess("m" + std::to_string(i));
        procs[i] = p;
        Addr src = p->allocate(2);
        Addr args = p->allocate(1);
        outs[i] = p->allocate(1);
        poke32(sys, 0, *p, args + 0, static_cast<std::uint32_t>(src));
        poke32(sys, 0, *p, args + 4, 2);
        poke32(sys, 0, *p, args + 8, 1);
        poke32(sys, 0, *p, args + 12, b->pid());
        poke32(sys, 0, *p, args + 16,
               static_cast<std::uint32_t>(dsts[i]));
        poke32(sys, 0, *p, args + 20,
               static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE));
        poke32(sys, 0, *p, args + 24, 0);

        Program prog(p->name());
        prog.movi(R1, args);
        prog.syscall(sys::MAP);
        prog.movi(R1, outs[i]);
        prog.st(R1, 0, R0, 4);
        // Prove the mapping works right away.
        prog.movi(R1, src);
        prog.sti(R1, 0, 0xE0 + i, 4);
        prog.halt();
        loadProgram(sys.kernel(0), *p, std::move(prog));
    }

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(5 * ONE_MS);

    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(peek32(sys, 0, *procs[i], outs[i]), err::OK);
        EXPECT_EQ(peek32(sys, 1, *b, dsts[i]),
                  static_cast<std::uint32_t>(0xE0 + i));
    }
    // Both operations (2 pages each) went over one serialized channel.
    EXPECT_GE(sys.kernel(0).mapManager().rpcsSent(), 4u);
}

TEST(OsEdge, UnmapOfNonexistentMappingFails)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    Addr args = a->allocate(1);
    Addr out = a->allocate(1);

    poke32(sys, 0, *a, args + 0, static_cast<std::uint32_t>(src));
    poke32(sys, 0, *a, args + 4, 1);
    poke32(sys, 0, *a, args + 8, 1);
    poke32(sys, 0, *a, args + 12, b->pid());
    poke32(sys, 0, *a, args + 16, static_cast<std::uint32_t>(dst));
    poke32(sys, 0, *a, args + 20,
           static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE));
    poke32(sys, 0, *a, args + 24, 0);

    Program pa("a");
    pa.movi(R1, args);
    pa.syscall(sys::UNMAP);     // nothing was ever mapped
    pa.movi(R1, out);
    pa.st(R1, 0, R0, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    EXPECT_EQ(peek32(sys, 0, *a, out), err::INVAL);
}

TEST(OsEdge, UnmapWithHugePageCountFailsAtFirstPage)
{
    // The page count comes unchecked from user memory; an unmap of
    // ~4G pages with nothing mapped fails at once, like a 1-page one.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    MapManager &mm = sys.kernel(0).mapManager();
    std::vector<std::uint64_t> results;
    mm.startUnmap(*a, mapToNode1(a->allocate(1), 0xffff'ffff, *b,
                                 b->allocate(1)),
                  [&](std::uint64_t st) { results.push_back(st); });
    EXPECT_EQ(results, std::vector<std::uint64_t>{err::INVAL});
    EXPECT_EQ(mm.rpcsSent(), 0u);
}

TEST(OsEdge, UnmapLooksUpEachPageWhenItsTurnComes)
{
    // Page 1 is mapped only after the 3-page unmap has started: the
    // unmap still removes it, then fails at page 2, which never was.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(3);
    Addr dst = b->allocate(3);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                                      UpdateMode::AUTO_SINGLE),
              err::OK);

    MapManager &mm = sys.kernel(0).mapManager();
    std::vector<std::uint64_t> results;
    mm.startUnmap(*a, mapToNode1(src, 3, *b, dst),
                  [&](std::uint64_t st) { results.push_back(st); });
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src + PAGE_SIZE, 1,
                                      sys.kernel(1), *b, dst + PAGE_SIZE,
                                      UpdateMode::AUTO_SINGLE),
              err::OK);
    sys.runFor(ONE_MS);

    EXPECT_EQ(results, std::vector<std::uint64_t>{err::INVAL});
    EXPECT_EQ(mm.rpcsSent(), 2u);
    EXPECT_TRUE(mm.outRecords().empty());
}

TEST(OsEdge, RemapAfterUnmapSucceeds)
{
    // Unmap releases the page's outgoing half, so a fresh map of the
    // same page to a new destination must succeed.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst1 = b->allocate(1);
    Addr dst2 = b->allocate(1);
    Addr args = a->allocate(1);

    auto fill_args = [&](Addr dst) {
        poke32(sys, 0, *a, args + 0, static_cast<std::uint32_t>(src));
        poke32(sys, 0, *a, args + 4, 1);
        poke32(sys, 0, *a, args + 8, 1);
        poke32(sys, 0, *a, args + 12, b->pid());
        poke32(sys, 0, *a, args + 16, static_cast<std::uint32_t>(dst));
        poke32(sys, 0, *a, args + 20,
               static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE));
        poke32(sys, 0, *a, args + 24, 0);
    };

    fill_args(dst1);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst1, UpdateMode::AUTO_SINGLE),
              err::OK);

    // Unmap via syscall, then remap to dst2 via syscall.
    Program pa("a");
    pa.movi(R1, args);
    pa.syscall(sys::UNMAP);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));
    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);

    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst2, UpdateMode::AUTO_SINGLE),
              err::OK);
}

TEST(OsEdge, ReapedProcessMappingsAreTornDown)
{
    // A maps into B. B is reaped: the shootdown invalidates A's NIPT
    // entry, A's next store faults, the remap is refused (NOPROC for
    // a reaped process) and A is killed -- a dead process's memory
    // can never be written again.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0x11, 4);     // before the reap: arrives
    pa.movi(R2, 0);
    pa.movi(R3, 20'000);
    pa.label("d");
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("d");
    pa.sti(R1, 4, 0x22, 4);     // after the reap: faults, A killed
    pa.sti(R1, 8, 0x33, 4);     // never executes
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.eventQueue().scheduleFn(
        [&sys, b] { sys.kernel(1).reapProcess(*b); }, 100 * ONE_US);

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited(5 * ONE_SEC));
    sys.runFor(10 * ONE_MS);

    EXPECT_EQ(peek32(sys, 1, *b, dst + 0), 0x11u);
    EXPECT_EQ(peek32(sys, 1, *b, dst + 4), 0u);
    EXPECT_EQ(peek32(sys, 1, *b, dst + 8), 0u);
    EXPECT_EQ(a->ctx.faults, 1u);
    EXPECT_EQ(a->state, ProcState::EXITED);

    Translation t = b->space().translate(dst, false);
    EXPECT_FALSE(sys.node(1).ni.nipt().mappedIn(pageOf(t.paddr)));
    EXPECT_FALSE(sys.kernel(1).frames().isPinned(pageOf(t.paddr)));
}

TEST(OsEdge, MapStopsAtFirstRefusedPage)
{
    // The second destination page has no translation: the map fails
    // with INVAL after two RPCs, and the first page stays mapped.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(2);
    Addr dst = b->allocate(1);
    ASSERT_FALSE(b->space().translate(dst + PAGE_SIZE, false).ok());

    MapManager &mm = sys.kernel(0).mapManager();
    std::vector<std::uint64_t> results;
    mm.startMap(*a, mapToNode1(src, 2, *b, dst),
                [&](std::uint64_t st) { results.push_back(st); });
    sys.runFor(ONE_MS);

    EXPECT_EQ(results, std::vector<std::uint64_t>{err::INVAL});
    EXPECT_EQ(mm.rpcsSent(), 2u);
    ASSERT_EQ(mm.outRecords().size(), 1u);
    EXPECT_EQ(mm.outRecords()[0].vpage, pageOf(src));
    PageNum frame = pageOf(a->space().translate(src, false).paddr);
    EXPECT_TRUE(sys.node(0).ni.nipt().entry(frame).outLow.valid());
}

TEST(OsEdge, PeerResetEndsInFlightMapOnce)
{
    // A reset of the destination's RPC engine dooms the in-flight
    // MAP_PAGE: done fires once with the reset's errno and the second
    // page is never requested.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(2);
    Addr dst = b->allocate(2);

    MapManager &mm = sys.kernel(0).mapManager();
    std::vector<std::uint64_t> results;
    mm.startMap(*a, mapToNode1(src, 2, *b, dst),
                [&](std::uint64_t st) { results.push_back(st); });
    ASSERT_EQ(mm.rpcsSent(), 1u);
    mm.resetPeer(1, err::HOSTDOWN);
    sys.runFor(ONE_MS);

    EXPECT_EQ(results, std::vector<std::uint64_t>{err::HOSTDOWN});
    EXPECT_EQ(mm.rpcsSent(), 1u);
    EXPECT_TRUE(mm.outRecords().empty());
}

TEST(OsEdge, InFlightMapIsFreedWithTheSystem)
{
    // Destroying the machine with a map still waiting for its first
    // response must free the op and the completion it holds.
    auto token = std::make_shared<int>(0);
    {
        ShrimpSystem sys(test::twoNodeConfig());
        Process *a = sys.kernel(0).createProcess("a");
        Process *b = sys.kernel(1).createProcess("b");
        Addr src = a->allocate(2);
        Addr dst = b->allocate(2);
        sys.kernel(0).mapManager().startMap(
            *a, mapToNode1(src, 2, *b, dst),
            [token](std::uint64_t) {});
        ASSERT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace shrimp
