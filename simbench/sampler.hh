/**
 * @file
 * A SIGPROF stack sampler for the host-time ledger.
 *
 * While armed, the kernel interrupts the process every interval of
 * consumed CPU time and the handler stores the interrupted call stack
 * in preallocated memory (no allocation in the handler). After the
 * run, ledger() symbolises the stacks with addr2line and charges each
 * sample to the innermost frame that is decisive:
 *  - a frame in src/<module>/ charges <module>, except that
 *    net/crc.hh charges "net.crc", nic/retransmit_buffer.* "nic.retx",
 *    os/health.* "os.health" and os/dsm.* "os.dsm";
 *  - a frame in the benchmark's own directory charges "bench", except
 *    the reference chunks (reference.hh), which charge "ref": they run
 *    between the timed slices, outside the host time they calibrate;
 *  - frames elsewhere (the C++ library, libc) are passed over, so a
 *    memcpy is charged to the simulator code that called it;
 *  - a stack with no decisive frame charges "other".
 */

#ifndef SIMBENCH_SAMPLER_HH
#define SIMBENCH_SAMPLER_HH

#include <cstdint>
#include <map>
#include <string>

namespace simbench
{

namespace sampler
{

/** Start sampling every @p interval_us of process CPU time. */
void start(unsigned interval_us = 1000);

/** Stop sampling (samples are kept until clear()). */
void stop();

/** Samples dropped because the buffer was full. */
std::uint64_t dropped();

void clear();

/** The ledger line (see file comment) for a repository-relative
 *  source path, or "" when the path is not decisive. */
std::string lineForFile(const std::string &path);

/**
 * Symbolise every stored sample and count samples per ledger line,
 * using @p work_dir for addr2line's input file. Fails (empty map)
 * when addr2line cannot be run.
 */
std::map<std::string, std::uint64_t> ledger(const std::string &work_dir);

} // namespace sampler

} // namespace simbench

#endif // SIMBENCH_SAMPLER_HH
