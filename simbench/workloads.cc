#include "workloads.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common.hh"
#include "core/system.hh"
#include "msg/deliberate.hh"
#include "os/dsm.hh"
#include "reference.hh"
#include "sampler.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "spans.hh"

using namespace shrimp;

namespace simbench
{

bool g_sampleTimedPhase = false;

namespace
{

constexpr unsigned kNodes = 16;
constexpr Tick kNever = MAX_TICK;

double
us(Tick t)
{
    return static_cast<double>(t) / ONE_US;
}

void
note(RepResult &r, std::string msg)
{
    if (r.errors.size() < 8)
        r.errors.push_back(std::move(msg));
}

/** Index of the runFor slice executing now: the cause of host spans
 *  recorded from simulator callbacks. */
std::uint64_t g_slice = 0;

std::unique_ptr<ShrimpSystem>
build(const SystemConfig &cfg, RepResult &r)
{
    double c0 = cpuSeconds();
    std::unique_ptr<ShrimpSystem> sys;
    {
        HostSpan span("ShrimpSystem::ShrimpSystem");
        sys = std::make_unique<ShrimpSystem>(cfg);
    }
    r.buildS = cpuSeconds() - c0;
    r.buildRefS = runReference();
    return sys;
}

Process *
createProcess(ShrimpSystem &sys, NodeId id, const char *name)
{
    HostSpan span("Kernel::createProcess");
    return sys.kernel(id).createProcess(name);
}

void
mapDirect(ShrimpSystem &sys, RepResult &r, NodeId s, Process &sp,
          Addr sv, std::size_t npages, NodeId d, Process &dp, Addr dv,
          UpdateMode mode)
{
    HostSpan span("Kernel::mapDirect");
    std::uint64_t e =
        sys.kernel(s).mapDirect(sp, sv, npages, sys.kernel(d), dp, dv, mode);
    if (e != err::OK) {
        note(r, "mapDirect " + std::to_string(s) + "->" +
                    std::to_string(d) + " failed: " + std::to_string(e));
    }
}

Addr
paddrOf(Process &proc, Addr vaddr)
{
    Translation t = proc.space().translate(vaddr, false);
    return t.ok() ? t.paddr : 0;
}

/**
 * The timed phase: run the machine in runFor slices until @p done
 * holds at or after @p min_end, or @p deadline passes. Each slice's
 * host CPU time is recorded with the reference chunk run after it
 * (reference.hh), and so are the events and the pending-event peak
 * between slices.
 */
template <class Done>
void
timedPhase(ShrimpSystem &sys, RepResult &r, Tick slice, Tick min_end,
           Tick deadline, Done done)
{
    EventQueue &eq = sys.eventQueue();
    const std::uint64_t ev0 = eq.numProcessed();
    const Tick t0 = sys.curTick();
    if (g_sampleTimedPhase)
        sampler::start();
    g_slice = 0;
    for (;;) {
        r.pendingPeak = std::max<std::uint64_t>(r.pendingPeak, eq.size());
        if ((sys.curTick() >= min_end && done()) ||
            sys.curTick() >= deadline) {
            break;
        }
        const double s0 = cpuSeconds();
        {
            HostSpan span("ShrimpSystem::runFor", 0, "timed phase", g_slice);
            sys.runFor(slice);
        }
        r.sliceS.push_back(cpuSeconds() - s0);
        r.refS.push_back(runReference());
        ++g_slice;
    }
    if (g_sampleTimedPhase)
        sampler::stop();
    r.hostS = 0;
    for (double t : r.sliceS)
        r.hostS += t;
    r.events = eq.numProcessed() - ev0;
    r.timedSimUs = us(sys.curTick() - t0);
}

void
finish(ShrimpSystem &sys, RepResult &r, Fingerprint &fp)
{
    r.fingerprint = fp.h;
    std::ostringstream os;
    sys.dumpStatsJson(os);
    r.statsJson = os.str();
}

} // namespace

// ---------------------------------------------------------------------
// mesh16: open-loop all-to-all single-word automatic-update stores.
// ---------------------------------------------------------------------

RepResult
runMesh16(std::uint64_t seed, const Size &size)
{
    RepResult r;
    constexpr unsigned kStoresPerPairPerMs = 12;
    constexpr unsigned kSlots = 16;
    const Tick window = size.meshWindowUs * ONE_US;
    const unsigned per_pair = kStoresPerPairPerMs * size.meshWindowUs / 1000;

    // The chaos soak's machine (core/chaos.cc) on clean links: reliable
    // channels, fault-tolerant routing, 100 us heartbeats, ECN/AIMD
    // with paced jittered retransmits, admission, watchdogs.
    SystemConfig cfg = SystemConfig::paper16();
    cfg.ni.reliability.enabled = true;
    cfg.router.faultTolerant = true;
    cfg.health.enabled = true;
    cfg.health.heartbeatPeriod = 100 * ONE_US;
    cfg.health.suspectTimeout = 400 * ONE_US;
    cfg.health.deadTimeout = 5 * ONE_MS;
    cfg.ni.reliability.congestion.enabled = true;
    cfg.ni.reliability.congestion.paceBucketPackets = 8;
    cfg.ni.reliability.congestion.rtoJitterPermille = 250;
    cfg.ni.reliability.congestion.jitterSeed = seed ^ 0x5EEDBACCULL;
    cfg.ni.inFifo = PacketFifo::Params{8 * 1024, 6 * 1024, 3 * 1024};
    cfg.router.ecnThresholdPackets = 3;
    cfg.ni.watchdogPeriod = 2 * ONE_MS;
    cfg.admission.enabled = true;
    cfg.admission.windowFullAfter = 2 * ONE_MS;

    auto sysp = build(cfg, r);
    ShrimpSystem &sys = *sysp;
    const double c0 = cpuSeconds();

    // One process per node; one source and one destination page per
    // ordered pair.
    struct Pair
    {
        NodeId s, d;
        Addr srcPaddr, dstPaddr;
        std::uint32_t next = 1;     //!< next value expected in order
    };
    std::vector<Process *> procs(kNodes);
    std::vector<Addr> src_base(kNodes), dst_base(kNodes);
    for (NodeId id = 0; id < kNodes; ++id) {
        procs[id] = createProcess(sys, id, "mesh16");
        src_base[id] = procs[id]->allocate(kNodes);
        dst_base[id] = procs[id]->allocate(kNodes);
    }
    std::vector<Pair> pairs;
    std::unordered_map<std::uint64_t, std::uint32_t> pair_by_frame;
    for (NodeId s = 0; s < kNodes; ++s) {
        for (NodeId d = 0; d < kNodes; ++d) {
            if (s == d)
                continue;
            Addr sv = src_base[s] + d * PAGE_SIZE;
            Addr dv = dst_base[d] + s * PAGE_SIZE;
            mapDirect(sys, r, s, *procs[s], sv, 1, d, *procs[d], dv,
                      UpdateMode::AUTO_SINGLE);
            Pair p{s, d, paddrOf(*procs[s], sv), paddrOf(*procs[d], dv)};
            pair_by_frame[(std::uint64_t{d} << 32) | pageOf(p.dstPaddr)] =
                static_cast<std::uint32_t>(pairs.size());
            pairs.push_back(p);
        }
    }

    // Pre-draw the schedule, then install it on the event queue as the
    // chaos soak does. Each pair's values rise with their due times.
    struct Op
    {
        Tick due;
        Tick injected = 0;
        Tick done = kNever;
        std::uint32_t pair;
        std::uint32_t value;
    };
    Rng rng(seed);
    const Tick t0 = sys.curTick() + ONE_US;
    std::vector<Op> ops;
    ops.reserve(pairs.size() * per_pair);
    std::vector<Tick> due(per_pair);
    for (std::uint32_t pi = 0; pi < pairs.size(); ++pi) {
        for (Tick &t : due)
            t = t0 + rng.below(window);
        std::sort(due.begin(), due.end());
        for (std::uint32_t k = 0; k < per_pair; ++k)
            ops.push_back(Op{due[k], 0, kNever, pi, k + 1});
    }

    std::uint64_t delivered = 0;
    Fingerprint fp;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        sys.eventQueue().scheduleFn(
            [&sys, &ops, &pairs, &r, i]() {
                const Op &o = ops[i];
                const Pair &p = pairs[o.pair];
                ++r.issued;
                std::uint32_t v = o.value;
                HostSpan span("XpressBus::postWrite", i + 1,
                              "ShrimpSystem::runFor", g_slice);
                sys.node(p.s).bus.postWrite(
                    p.srcPaddr + (v - 1) % kSlots * 4, &v, 4,
                    BusMaster::CPU, sys.curTick());
            },
            ops[i].due, EventPriority::DEFAULT, "mesh16 store");
    }

    // Every delivery must be the next value of its pair, at its slot.
    for (NodeId d = 0; d < kNodes; ++d) {
        sys.node(d).ni.onDelivered = [&, d](const NetPacket &pkt,
                                            Tick when) {
            auto it = pair_by_frame.find((std::uint64_t{d} << 32) |
                                         pageOf(pkt.dstPaddr));
            if (it == pair_by_frame.end())
                return;     // not benchmark traffic
            Pair &p = pairs[it->second];
            std::uint32_t v = 0;
            if (pkt.srcNode != p.s || pkt.payload.size() != 4) {
                note(r, "foreign packet on pair page");
                return;
            }
            std::memcpy(&v, pkt.payload.data(), 4);
            if (v < p.next || v > per_pair ||
                pkt.dstPaddr != p.dstPaddr + (v - 1) % kSlots * 4) {
                note(r, "pair " + std::to_string(p.s) + "->" +
                            std::to_string(p.d) + " got value " +
                            std::to_string(v) + " expecting " +
                            std::to_string(p.next));
                return;
            }
            // A gap (v > next) leaves the skipped stores undelivered:
            // they count as failed below.
            p.next = v + 1;
            std::size_t i = std::size_t{it->second} * per_pair + (v - 1);
            ops[i].injected = pkt.injectedAt;
            ops[i].done = when;
            ++delivered;
            fp.add(i + 1);
            fp.add(when);
            fp.add(err::OK);
            if (SpanLog *log = spans()) {
                log->sim("store", i + 1, "XpressBus::postWrite", i + 1,
                         us(ops[i].due), us(when));
            }
        };
    }
    r.mapS = cpuSeconds() - c0;
    r.mapRefS = runReference();

    timedPhase(sys, r, 20 * ONE_US, t0 + window, t0 + window + 20 * ONE_MS,
               [&]() { return delivered == ops.size(); });

    // ---- verify ----
    Tick last = t0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &o = ops[i];
        if (o.done == kNever) {
            fp.add(i + 1);
            fp.add(kNever);
            fp.add(1);
            continue;
        }
        ++r.ok;
        last = std::max(last, o.done);
        r.latencyUs.push_back(us(o.done - o.due));
        r.issueUs.push_back(us(o.due));
        r.preInjectUs.push_back(us(o.injected - o.due));
        r.injectToDeliverUs.push_back(us(o.done - o.injected));
    }
    for (const Pair &p : pairs) {
        for (unsigned j = 0; j < kSlots; ++j) {
            auto got = sys.node(p.d).mem.readInt(p.dstPaddr + 4 * j, 4);
            auto want = sys.node(p.s).mem.readInt(p.srcPaddr + 4 * j, 4);
            fp.add(got);
            if (p.next == per_pair + 1 && got != want) {
                note(r, "pair " + std::to_string(p.s) + "->" +
                            std::to_string(p.d) + " slot " +
                            std::to_string(j) + " ended at " +
                            std::to_string(got));
            }
        }
    }
    Tick first_due = kNever;
    for (const Op &o : ops)
        first_due = std::min(first_due, o.due);
    r.payloadBytes = 4 * r.ok;
    r.simSpanUs = last > first_due ? us(last - first_due) : 0;
    finish(sys, r, fp);
    return r;
}

// ---------------------------------------------------------------------
// stream16: closed-loop user-level deliberate-update page streaming.
// ---------------------------------------------------------------------

RepResult
runStream16(std::uint64_t seed, const Size &size)
{
    RepResult r;
    constexpr unsigned kWords = PAGE_SIZE / 4;
    constexpr unsigned kPages = 8;
    // Think time between transfers, in status-register reads.
    constexpr unsigned kMinThink = 100, kMaxThink = 400;
    // Disjoint one-hop pairs, one per mesh row: no link is shared.
    const std::pair<NodeId, NodeId> kPairs[] = {
        {0, 1}, {6, 7}, {8, 9}, {14, 15}};
    constexpr unsigned kNumPairs = 4;
    const std::uint32_t per_pair =
        (size.streamPages + kNumPairs - 1) / kNumPairs;
    SHRIMP_ASSERT(per_pair < kWords, "think table overflows its page");

    SystemConfig cfg = SystemConfig::paper16();
    cfg.ni.reliability.enabled = true;
    auto sysp = build(cfg, r);
    ShrimpSystem &sys = *sysp;
    const double c0 = cpuSeconds();

    struct Stream
    {
        NodeId s, d;
        std::vector<Addr> dstPaddr;
        std::vector<std::uint32_t> pattern;     //!< words 1..kWords-2
        std::vector<std::uint32_t> bytes;       //!< arrived so far
        std::vector<Tick> firstInject;
        std::vector<std::uint32_t> sent;        //!< transfers completed
    };
    std::vector<Stream> streams(kNumPairs);
    std::unordered_map<std::uint64_t, std::pair<unsigned, unsigned>> by_frame;
    Rng rng(seed);
    for (unsigned pi = 0; pi < kNumPairs; ++pi) {
        Stream &st = streams[pi];
        st.s = kPairs[pi].first;
        st.d = kPairs[pi].second;
        st.dstPaddr.resize(kPages);
        st.pattern.resize(kPages * kWords);
        st.bytes.assign(kPages, 0);
        st.firstInject.assign(kPages, kNever);
        st.sent.assign(kPages, 0);
        Process *a = createProcess(sys, st.s, "stream16-src");
        Process *b = createProcess(sys, st.d, "stream16-dst");
        Addr src = a->allocate(kPages);
        Addr dst = b->allocate(kPages);
        Addr think = a->allocate(1);
        mapDirect(sys, r, st.s, *a, src, kPages, st.d, *b, dst,
                  UpdateMode::DELIBERATE);
        Addr cmd;
        {
            HostSpan span("Kernel::mapCommandPages");
            cmd = sys.kernel(st.s).mapCommandPages(*a, src, kPages);
        }
        auto cmd_delta = static_cast<std::int64_t>(cmd) -
                         static_cast<std::int64_t>(src);

        // Seeded inputs: page contents, and the think time before each
        // transfer. The first and last word of a page carry the
        // transfer number, stored by the program before it sends.
        for (unsigned pg = 0; pg < kPages; ++pg) {
            Addr sp = paddrOf(*a, src + pg * PAGE_SIZE);
            for (unsigned w = 1; w + 1 < kWords; ++w) {
                auto v = static_cast<std::uint32_t>(rng.next());
                st.pattern[pg * kWords + w] = v;
                sys.node(st.s).mem.writeInt(sp + 4 * w, v, 4);
            }
            st.dstPaddr[pg] = paddrOf(*b, dst + pg * PAGE_SIZE);
            by_frame[(std::uint64_t{st.d} << 32) | pageOf(st.dstPaddr[pg])] =
                {pi, pg};
        }
        for (std::uint32_t j = 1; j <= per_pair; ++j) {
            sys.node(st.s).mem.writeInt(paddrOf(*a, think) + 4 * j,
                                        rng.inRange(kMinThink, kMaxThink), 4);
        }

        // Transfer j (1-based) sends page (j-1) % kPages: think, stamp,
        // claim the DMA engine with CMPXCHG, poll its progress.
        Program pa("stream16-src");
        pa.movi(R6, 1);                         // R6 = transfer number
        pa.label("xfer");
        pa.mov(R2, R6);
        pa.shli(R2, 2);
        pa.addi(R2, static_cast<std::int64_t>(think));
        pa.ld(R5, R2, 0, 4);
        pa.movi(R4, cmd);
        pa.label("think");                      // status reads
        pa.cmpi(R5, 0);
        pa.jz("stamp");
        pa.ld(R1, R4, 0, 4);
        pa.subi(R5, 1);
        pa.jmp("think");
        pa.label("stamp");
        pa.mov(R3, R6);
        pa.subi(R3, 1);
        pa.andi(R3, kPages - 1);
        pa.shli(R3, PAGE_SHIFT);
        pa.addi(R3, static_cast<std::int64_t>(src));
        pa.st(R3, 0, R6, 4);
        pa.st(R3, PAGE_SIZE - 4, R6, 4);
        pa.movi(R1, PAGE_SIZE);
        msg::emitDeliberateSendSingle(pa, cmd_delta, "send", "multi");
        pa.label("resume");
        pa.label("wait");
        msg::emitDeliberateCheck(pa);
        pa.jnz("wait");
        pa.addi(R6, 1);
        pa.cmpi(R6, per_pair + 1);
        pa.jnz("xfer");
        pa.halt();
        // The fast path's multi-page branch target; never taken, as every
        // transfer is exactly one aligned page.
        msg::emitDeliberateSendMulti(pa, cmd_delta, "multi", "resume");
        pa.finalize();
        Program pb("stream16-dst");
        pb.halt();
        pb.finalize();
        {
            HostSpan span("Kernel::loadAndReady");
            sys.kernel(st.s).loadAndReady(
                *a, std::make_shared<Program>(std::move(pa)));
            sys.kernel(st.d).loadAndReady(
                *b, std::make_shared<Program>(std::move(pb)));
        }
    }

    // A page transfer completes when a page's worth of bytes has
    // arrived; the reliable channel delivers in order, so a page never
    // mixes two transfers.
    const std::uint64_t total = std::uint64_t{per_pair} * kNumPairs;
    std::uint64_t completed = 0;
    Tick first_inject = kNever, last_done = 0;
    Fingerprint fp;
    std::vector<std::uint8_t> page(PAGE_SIZE);
    for (unsigned pi = 0; pi < kNumPairs; ++pi) {
        sys.node(streams[pi].d).ni.onDelivered =
            [&, d = streams[pi].d](const NetPacket &pkt, Tick when) {
                auto it = by_frame.find((std::uint64_t{d} << 32) |
                                        pageOf(pkt.dstPaddr));
                if (it == by_frame.end())
                    return;
                auto [sidx, pg] = it->second;
                Stream &st = streams[sidx];
                st.firstInject[pg] = std::min(st.firstInject[pg],
                                              pkt.injectedAt);
                st.bytes[pg] += static_cast<std::uint32_t>(pkt.payload.size());
                if (st.bytes[pg] < PAGE_SIZE)
                    return;
                const std::uint32_t j = st.sent[pg]++ * kPages + pg + 1;
                const std::uint64_t op = std::uint64_t{sidx} * per_pair + j;
                // One copy out of the simulator; the comparison is the
                // benchmark's own work.
                sys.node(d).mem.read(st.dstPaddr[pg], page.data(), PAGE_SIZE);
                std::uint32_t head, tail;
                std::memcpy(&head, page.data(), 4);
                std::memcpy(&tail, page.data() + PAGE_SIZE - 4, 4);
                const bool good =
                    st.bytes[pg] == PAGE_SIZE && head == j && tail == j &&
                    std::memcmp(page.data() + 4, &st.pattern[pg * kWords + 1],
                                PAGE_SIZE - 8) == 0;
                if (good) {
                    ++r.ok;
                    r.latencyUs.push_back(us(when - st.firstInject[pg]));
                    r.issueUs.push_back(us(st.firstInject[pg]));
                } else {
                    note(r, "stream " + std::to_string(st.s) + "->" +
                                std::to_string(d) + " transfer " +
                                std::to_string(j) + " wrong data");
                }
                fp.add(op);
                fp.add(when);
                fp.add(good ? err::OK : 1);
                if (SpanLog *log = spans()) {
                    log->sim("page", op, "deliberate DMA", op,
                             us(st.firstInject[pg]), us(when));
                }
                first_inject = std::min(first_inject, st.firstInject[pg]);
                last_done = when;
                ++completed;
                st.bytes[pg] = 0;
                st.firstInject[pg] = kNever;
            };
    }
    {
        HostSpan span("ShrimpSystem::startAll");
        sys.startAll();
    }
    r.mapS = cpuSeconds() - c0;
    r.mapRefS = runReference();

    timedPhase(sys, r, 100 * ONE_US, 0, sys.curTick() + ONE_SEC,
               [&]() { return completed == total; });

    r.issued = total;
    for (const Stream &st : streams) {
        for (Addr base : st.dstPaddr) {
            for (unsigned w = 0; w < kWords; ++w)
                fp.add(sys.node(st.d).mem.readInt(base + 4 * w, 4));
        }
    }
    r.payloadBytes = r.ok * PAGE_SIZE;
    r.simSpanUs = last_done > first_inject && first_inject != kNever
                      ? us(last_done - first_inject)
                      : 0;
    finish(sys, r, fp);
    return r;
}

// ---------------------------------------------------------------------
// dsm16: closed-loop DSM acquires, one client per node.
// ---------------------------------------------------------------------

RepResult
runDsm16(std::uint64_t seed, const Size &size)
{
    RepResult r;
    constexpr std::uint32_t kPagesTotal = 64;
    constexpr std::uint32_t kHotPages = 16;
    constexpr unsigned kWritePercent = 30;
    constexpr Tick kThink = 10 * ONE_US;
    const unsigned per_client = size.dsmOpsPerClient;

    SystemConfig cfg = SystemConfig::paper16();
    cfg.dsm.enabled = true;
    cfg.dsm.numPages = kPagesTotal;
    auto sysp = build(cfg, r);
    ShrimpSystem &sys = *sysp;
    const double c0 = cpuSeconds();

    // Reads spread over the whole window; writes go to the hot pages.
    // Every client gets the same mix, pages dealt round-robin from a
    // seeded offset, in a seeded order: the seed changes which pages
    // meet when, not how much contention there is.
    struct Op
    {
        std::uint32_t page;
        bool write;
        Tick issued = 0;
        std::uint64_t writesBefore = 0;
        bool invalidAtIssue = false;
    };
    Rng rng(seed);
    std::vector<std::vector<Op>> ops(kNodes);
    const unsigned writes = per_client * kWritePercent / 100;
    for (NodeId c = 0; c < kNodes; ++c) {
        auto hot = static_cast<std::uint32_t>(rng.below(kHotPages));
        auto any = static_cast<std::uint32_t>(rng.below(kPagesTotal));
        for (unsigned k = 0; k < per_client; ++k) {
            if (k < writes)
                ops[c].push_back(Op{(hot + k) % kHotPages, true});
            else
                ops[c].push_back(Op{(any + k) % kPagesTotal, false});
        }
        for (std::size_t k = ops[c].size(); k > 1; --k)
            std::swap(ops[c][k - 1], ops[c][rng.below(k)]);
    }
    r.mapS = cpuSeconds() - c0;
    r.mapRefS = runReference();

    // Each write acquire increments the counter in word 0 of its page.
    // A write must find exactly the writes committed before it; a read
    // must see at least the writes committed when it was issued.
    std::vector<std::uint64_t> committed(kPagesTotal, 0);
    std::vector<std::size_t> next(kNodes, 0);
    std::uint64_t finished_clients = 0;
    Fingerprint fp;
    Tick t_first = kNever, t_last = 0;
    std::function<void(NodeId)> issue;
    auto complete = [&](NodeId c, std::size_t k, std::uint64_t st) {
        Op &o = ops[c][k];
        Dsm &dsm = *sys.kernel(c).dsm();
        const std::uint64_t op = std::uint64_t{c} * per_client + k + 1;
        bool good = st == err::OK;
        if (good) {
            Addr pa = pageBase(dsm.localFrame(o.page));
            std::uint64_t v = sys.node(c).mem.readInt(pa, 4);
            if (o.write) {
                good = v == committed[o.page];
                sys.node(c).mem.writeInt(pa, v + 1, 4);
                ++committed[o.page];
            } else {
                good = v >= o.writesBefore && v <= committed[o.page];
            }
            if (!good) {
                note(r, "dsm page " + std::to_string(o.page) + " node " +
                            std::to_string(c) + " read counter " +
                            std::to_string(v));
            }
        }
        if (good) {
            ++r.ok;
            r.latencyUs.push_back(us(sys.curTick() - o.issued));
            r.issueUs.push_back(us(o.issued));
            if (o.invalidAtIssue)
                r.payloadBytes += PAGE_SIZE;
        }
        fp.add(op);
        fp.add(sys.curTick());
        fp.add(st);
        if (SpanLog *log = spans()) {
            log->sim(o.write ? "acquire write" : "acquire read", op,
                     "Dsm::acquire", op, us(o.issued), us(sys.curTick()));
        }
        t_last = sys.curTick();
        if (next[c] < ops[c].size()) {
            sys.eventQueue().scheduleFn([&issue, c]() { issue(c); },
                                        sys.curTick() + kThink,
                                        EventPriority::DEFAULT,
                                        "dsm16 think");
        } else {
            ++finished_clients;
        }
    };
    issue = [&](NodeId c) {
        const std::size_t k = next[c]++;
        Op &o = ops[c][k];
        Dsm &dsm = *sys.kernel(c).dsm();
        o.issued = sys.curTick();
        o.writesBefore = committed[o.page];
        o.invalidAtIssue = dsm.localState(o.page) == DsmPageState::INVALID;
        t_first = std::min(t_first, o.issued);
        ++r.issued;
        HostSpan span("Dsm::acquire", std::uint64_t{c} * per_client + k + 1,
                      "ShrimpSystem::runFor", g_slice);
        dsm.acquire(o.page, o.write, [&complete, c, k](std::uint64_t st) {
            complete(c, k, st);
        });
    };
    for (NodeId c = 0; c < kNodes; ++c) {
        sys.eventQueue().scheduleFn([&issue, c]() { issue(c); },
                                    sys.curTick() + ONE_US,
                                    EventPriority::DEFAULT, "dsm16 start");
    }

    timedPhase(sys, r, 200 * ONE_US, 0, sys.curTick() + 2 * ONE_SEC,
               [&]() { return finished_clients == kNodes; });

    // Exactly-once: a fresh read of every hot page finds its counter
    // equal to the writes that completed on it.
    for (std::uint32_t pg = 0; pg < kHotPages; ++pg) {
        const NodeId reader = static_cast<NodeId>((pg + 1) % kNodes);
        Dsm &dsm = *sys.kernel(reader).dsm();
        bool done = false;
        std::uint64_t status = 0;
        dsm.acquire(pg, false, [&](std::uint64_t st) {
            done = true;
            status = st;
        });
        for (int i = 0; i < 1000 && !done; ++i)
            sys.runFor(100 * ONE_US);
        std::uint64_t v =
            done && status == err::OK
                ? sys.node(reader).mem.readInt(pageBase(dsm.localFrame(pg)), 4)
                : ~std::uint64_t{0};
        fp.add(v);
        if (v != committed[pg]) {
            note(r, "dsm page " + std::to_string(pg) + " counter " +
                        std::to_string(v) + " after " +
                        std::to_string(committed[pg]) + " writes");
        }
    }
    r.simSpanUs = t_last > t_first && t_first != kNever ? us(t_last - t_first)
                                                        : 0;
    finish(sys, r, fp);
    return r;
}

WorkloadFn
findWorkload(const std::string &name)
{
    if (name == "mesh16")
        return &runMesh16;
    if (name == "stream16")
        return &runStream16;
    if (name == "dsm16")
        return &runDsm16;
    return nullptr;
}

} // namespace simbench
