/**
 * @file
 * Self-tests of the benchmark's own machinery. Exits non-zero on the
 * first failed check.
 *
 *   simbench_selftest [WORK_DIR]
 *
 *  - the percentile helper reports a percentile only with ten samples
 *    beyond it, and uses nearest rank;
 *  - the ledger maps source paths to their lines, and the sampler
 *    charges a busy loop in the benchmark's own code to "bench";
 *  - a reduced-size run of each workload verifies every operation and
 *    reproduces its fingerprint at the same seed.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"
#include "reference.hh"
#include "sampler.hh"
#include "workloads.hh"

using namespace simbench;

namespace
{

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

/** A busy loop owned by the benchmark; the sampler must charge it to
 *  "bench". */
[[gnu::noinline]] std::uint64_t
benchBusyLoop(double cpu_s)
{
    volatile std::uint64_t acc = 0;
    const double end = cpuSeconds() + cpu_s;
    while (cpuSeconds() < end) {
        for (int i = 0; i < 10000; ++i)
            acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return acc;
}

void
testPercentiles()
{
    check(!hasTenBeyond(999, 99.0), "p99 refused with 999 samples");
    check(hasTenBeyond(1000, 99.0), "p99 allowed with 1000 samples");
    check(!hasTenBeyond(19, 50.0), "p50 refused with 19 samples");
    check(hasTenBeyond(20, 50.0), "p50 allowed with 20 samples");
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i)
        v.push_back(i);
    check(percentile(v, 99.0) == 990.0, "p99 of 1..1000 is 990");
    check(percentile(v, 50.0) == 500.0, "p50 of 1..1000 is 500");
    check(median({3.0, 1.0, 2.0, 4.0}) == 2.5, "median of an even set");
    const double n = kReferenceSeconds;
    check(normalisedHostSeconds({1.0, 2.0}, {n, 2 * n}) == 2.0,
          "slice times scale by the reference chunk after them");
}

void
testLedgerLines()
{
    const std::string root = SIMBENCH_REPO_ROOT;
    check(sampler::lineForFile(root + "/src/net/crc.hh") == "net.crc",
          "net/crc.hh has its own line");
    check(sampler::lineForFile(root + "/src/net/router.cc") == "net",
          "net/router.cc charges net");
    check(sampler::lineForFile(root + "/src/nic/retransmit_buffer.cc") ==
              "nic.retx",
          "nic/retransmit_buffer.cc has its own line");
    check(sampler::lineForFile(root + "/simbench/../src/os/dsm.cc") ==
              "os.dsm",
          "paths are normalised before matching");
    check(sampler::lineForFile(root + "/simbench/main.cc") == "bench",
          "benchmark files charge bench");
    check(sampler::lineForFile("/usr/include/c++/12/bits/stl_heap.h")
              .empty(),
          "library headers are not decisive");
}

void
testSamplerChargesBench(const std::string &work_dir)
{
    sampler::clear();
    sampler::start(1000);
    benchBusyLoop(0.3);
    sampler::stop();
    auto counts = sampler::ledger(work_dir);
    std::uint64_t total = 0;
    for (const auto &[line, c] : counts)
        total += c;
    std::uint64_t bench = counts.count("bench") ? counts["bench"] : 0;
    check(total >= 50, "sampler took " + std::to_string(total) +
                           " samples in 0.3 s of CPU");
    check(total > 0 && bench * 10 >= total * 9,
          "busy loop charged to bench: " + std::to_string(bench) + " of " +
              std::to_string(total));
    sampler::clear();
}

void
testReducedWorkloads()
{
    Size small;
    small.meshWindowUs = 500;
    small.streamPages = 64;
    small.dsmOpsPerClient = 8;
    for (const char *name : {"mesh16", "stream16", "dsm16"}) {
        WorkloadFn fn = findWorkload(name);
        RepResult a = fn(7, small);
        RepResult b = fn(7, small);
        std::string w = name;
        check(a.issued > 0 && a.ok == a.issued && a.errors.empty(),
              w + " verifies every operation (" + std::to_string(a.ok) +
                  " of " + std::to_string(a.issued) + ")" +
                  (a.errors.empty() ? "" : ": " + a.errors.front()));
        check(a.latencyUs.size() == a.ok && a.payloadBytes > 0 &&
                  a.simSpanUs > 0,
              w + " reports latency, payload and span");
        check(a.fingerprint == b.fingerprint && a.statsJson == b.statsJson,
              w + " reproduces its fingerprint at the same seed");
        RepResult c = fn(8, small);
        check(c.fingerprint != a.fingerprint,
              w + " fingerprint depends on the seed");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string work_dir = argc > 1 ? argv[1] : ".";
    testPercentiles();
    testLedgerLines();
    testSamplerChargesBench(work_dir);
    testReducedWorkloads();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed",
                g_failures);
    return g_failures ? 1 : 0;
}
