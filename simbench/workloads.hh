/**
 * @file
 * The three benchmark workloads on the paper's 4x4 machine. Each runs
 * once per call from a fresh ShrimpSystem: set-up, a timed phase of
 * fixed simulated work, then verification of every operation it
 * issued. README.md says why each workload exists.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace simbench
{

/** Workload size. Defaults are the benchmark's; self-tests shrink. */
struct Size
{
    /** mesh16: open-loop window in simulated microseconds. */
    unsigned meshWindowUs = 5000;
    /** stream16: page transfers, rounded up to whole passes. */
    unsigned streamPages = 1024;
    /** dsm16: acquires per client. */
    unsigned dsmOpsPerClient = 400;
};

/** One run of one workload. */
struct RepResult
{
    // ---- host cost (CPU seconds, raw) ----
    double buildS = 0;      //!< ShrimpSystem construction and boot
    double mapS = 0;        //!< processes, mappings, loads, schedule
    double hostS = 0;       //!< the timed phase
    std::vector<double> sliceS; //!< each runFor slice of the timed phase
    // The reference chunk (reference.hh) run after each of the above.
    double buildRefS = 0;
    double mapRefS = 0;
    std::vector<double> refS;   //!< after each slice

    // ---- verified behaviour ----
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::vector<std::string> errors;    //!< first few verification errors
    std::vector<double> latencyUs;      //!< per verified operation
    std::vector<double> issueUs;        //!< when each of them was issued
    std::vector<double> preInjectUs;    //!< mesh16: due -> injectedAt
    std::vector<double> injectToDeliverUs;
    std::uint64_t payloadBytes = 0;     //!< verified application payload
    double simSpanUs = 0;   //!< first issue to last completion
    std::uint64_t fingerprint = 0;

    // ---- simulator counters ----
    std::uint64_t events = 0;
    std::uint64_t pendingPeak = 0;
    double timedSimUs = 0;  //!< simulated time covered by the timed phase
    std::string statsJson;
};

/** When set, the SIGPROF sampler runs during every timed phase. */
extern bool g_sampleTimedPhase;

using WorkloadFn = RepResult (*)(std::uint64_t seed, const Size &size);

RepResult runMesh16(std::uint64_t seed, const Size &size);
RepResult runStream16(std::uint64_t seed, const Size &size);
RepResult runDsm16(std::uint64_t seed, const Size &size);

/** The workload called @p name, or nullptr. */
WorkloadFn findWorkload(const std::string &name);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
