/**
 * @file
 * The reference chunk: a fixed piece of benchmark-owned host work that
 * measures how fast the host runs right now.
 *
 * The benchmark shares its machine with other tenants, whose load
 * slows every instruction by tens of percent for minutes at a time; no
 * median over repetitions removes that. So every timed piece of work
 * (each timed-phase slice, the machine's construction, the rest of the
 * set-up) is followed by a reference chunk, and its CPU time is scaled
 * by the chunk's nominal time over its measured time: the reported
 * host time is what the work would have cost on a host that runs the
 * chunk in exactly its nominal time.
 *
 * Contention does not slow all code alike, and each workload's slices
 * are hit differently, so the chunk does three kinds of work in turn
 * (README.md has the measurements behind the choice):
 *  - bit-serial CRC-16 over 512 bytes, branch-free: latency-bound
 *    arithmetic with a footprint of a few cache lines;
 *  - two sequential passes over 96 KiB: load throughput from L2;
 *  - 2000 dependent loads along a random cycle through 256 KiB: load
 *    latency beyond L2.
 * It runs once untimed, then once timed, so the timed pass finds its
 * code and data in cache whatever the work before it left behind. The
 * simulator never runs this code.
 */

#ifndef SIMBENCH_REFERENCE_HH
#define SIMBENCH_REFERENCE_HH

#include <vector>

namespace simbench
{

/** Nominal CPU seconds of one chunk. */
constexpr double kReferenceSeconds = 40e-6;

/** Run the chunk untimed, then timed; @return the timed CPU seconds. */
double runReference();

/**
 * Host seconds at the nominal speed: the sum of
 * work[j] * kReferenceSeconds / refs[j]; 0 if a chunk time is missing
 * or not positive.
 */
double normalisedHostSeconds(const std::vector<double> &work,
                             const std::vector<double> &refs);

} // namespace simbench

#endif // SIMBENCH_REFERENCE_HH
