/**
 * @file
 * Chaos-soak harness: seeded randomized fault schedules (node
 * crash/restart cycles, bidirectional link outages, incast overload
 * bursts) applied to a mesh carrying mixed automatic-update traffic,
 * with a global invariant checker run at the end:
 *
 *  - no corrupt or misdelivered data: every destination word is
 *    either untouched or a value its source actually stored there;
 *  - exactly-once in-order end state: pairs untouched by any fault
 *    end with the destination page equal to the source page;
 *  - eventual quiescence: once every link is revived and every node
 *    restarted, all FIFOs, retransmit windows and router queues drain
 *    and no NI progress-watchdog stall survives the settle phase;
 *  - determinism: the same seed produces the identical run (callers
 *    compare statsFingerprint across repeats).
 *
 * The schedule is pre-drawn from one seeded Rng before simulation
 * starts, so the event stream -- and therefore every statistic -- is a
 * pure function of ChaosParams.
 */

#ifndef SHRIMP_CORE_CHAOS_HH
#define SHRIMP_CORE_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace shrimp
{

/** One chaos-soak run's knobs; everything defaults to a small soak. */
struct ChaosParams
{
    std::uint64_t seed = 1;
    unsigned meshWidth = 2;
    unsigned meshHeight = 2;
    /** Fault + traffic phase length. */
    Tick duration = 30 * ONE_MS;
    /** Recovery/drain phase after all faults are healed. */
    Tick settle = 25 * ONE_MS;
    /** Node crash/restart cycles injected across the run. */
    unsigned crashes = 1;
    /** Transient bidirectional link outages injected. */
    unsigned linkFlaps = 3;
    /** Longest link outage (short enough that retransmission rides
     *  it out without failing the channel). */
    Tick maxFlapTicks = 4 * ONE_MS;
    /** Stores issued per ordered node pair, spread over duration. */
    unsigned writesPerPair = 48;
    /**
     * Incast overload bursts: every other node fires a volley of
     * stores at one rng-chosen hot node, driving its receive FIFO and
     * the surrounding routers into congestion. The first burst is
     * aligned with the first crash window and aimed at the victim, so
     * the retry-storm suppression runs while the target is down.
     */
    unsigned overloadBursts = 2;
    /** Stores each other node fires at the hot node per burst. */
    unsigned burstWritesPerSender = 24;
    /** Word slots cycled through within each pair's mapped page. */
    static constexpr unsigned slots = 16;
    /**
     * DSM phase: every node issues dsmOpsPerNode randomized
     * acquires (read or write) against a dsmPages-page shared window
     * while the fault schedule runs, so directory coherence soaks
     * against crashes, flaps and overload. 0 pages disables the phase.
     */
    unsigned dsmPages = 4;
    unsigned dsmOpsPerNode = 6;
    /**
     * Network partition/heal cycles: each cycle isolates one
     * rng-chosen node behind a full two-way cut-set for longer than
     * the dead timeout, so the majority declares it DEAD while the
     * minority side stalls at SUSPECT for lack of quorum; the heal
     * then soaks reintegration (the sessions across the cut end pair
     * by pair, stale streams are fenced, DSM pages re-home) while
     * every other pair keeps converging exactly. Cycles are laid out in
     * disjoint slices of the run so they never overlap. 0 disables
     * the phase.
     */
    unsigned partitions = 0;
    /** Record an event trace and write it here ("" = no trace). */
    std::string tracePath;
};

/** What a soak run observed; ok == violations.empty(). */
struct ChaosReport
{
    bool ok = true;
    std::vector<std::string> violations;

    std::uint64_t writesIssued = 0;
    std::uint64_t crashesInjected = 0;
    std::uint64_t linkFlapsInjected = 0;
    std::uint64_t heartbeatsSent = 0;
    std::uint64_t peersDeclaredDead = 0;
    std::uint64_t peersRecovered = 0;
    /** Packets lost onto a downed wire (flaps and partition cuts). */
    std::uint64_t linkDownDrops = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t overloadBurstsInjected = 0;
    std::uint64_t sendsRejected = 0;
    std::uint64_t ecnMarksSeen = 0;
    std::uint64_t ecnEchoesSent = 0;
    std::uint64_t pacedRetransmits = 0;
    std::uint64_t watchdogStalls = 0;
    std::uint64_t pairsVerifiedExact = 0;
    std::uint64_t dsmOpsIssued = 0;
    std::uint64_t dsmOpsHostdown = 0;
    std::uint64_t dsmRehomes = 0;
    std::uint64_t partitionsInjected = 0;
    std::uint64_t healsInjected = 0;
    /** Quorum stalls: a minority side refusing to declare DEAD. */
    std::uint64_t partitionsDeclared = 0;
    /** Machine-wide total of fenced drops (health admit rejects +
     *  NI channel-epoch drops + DSM fenced writebacks). */
    std::uint64_t staleEpochRejects = 0;
    std::uint64_t niStaleEpochDrops = 0;
    std::uint64_t fencedWritebacks = 0;
    Tick endTick = 0;
    /** FNV-1a over the final JSON stats dump: the determinism probe. */
    std::uint64_t statsFingerprint = 0;
};

/** Run one seeded soak; never throws on invariant failure (report). */
ChaosReport runChaos(const ChaosParams &params);

} // namespace shrimp

#endif // SHRIMP_CORE_CHAOS_HH
