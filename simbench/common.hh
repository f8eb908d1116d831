/**
 * @file
 * Small helpers shared by the benchmark program and its self-tests:
 * the host CPU clock, percentiles with the "ten samples beyond" rule,
 * and the FNV-1a behaviour fingerprint.
 */

#ifndef SIMBENCH_COMMON_HH
#define SIMBENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <vector>

namespace simbench
{

/**
 * Host CPU seconds consumed by the calling thread; the benchmark runs
 * on one thread. (The process clock would do, but while the sampler's
 * process CPU timer is armed Linux only advances it at scheduler ticks.)
 */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Can the @p q-th percentile of @p n samples be reported? Only when at
 * least ten samples lie beyond it, so one outlier cannot set it: p99
 * needs n >= 1000, p50 needs n >= 20.
 */
inline bool
hasTenBeyond(std::size_t n, double q)
{
    return static_cast<double>(n) * (100.0 - q) / 100.0 >= 10.0 - 1e-9;
}

/** Nearest-rank @p q-th percentile of @p v (sorted in place). */
inline double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Median of @p v (mean of the middle two when even). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/**
 * Backlog growth: the p90 latency of the last third of the operations
 * (by issue time) over that of the first third. A queue that keeps
 * growing shows as a ratio well above 1.
 */
inline double
backlogGrowth(const std::vector<double> &issue,
              const std::vector<double> &latency)
{
    std::vector<std::pair<double, double>> ops;
    for (std::size_t i = 0; i < issue.size() && i < latency.size(); ++i)
        ops.emplace_back(issue[i], latency[i]);
    std::sort(ops.begin(), ops.end());
    const std::size_t third = ops.size() / 3;
    std::vector<double> first, last;
    for (std::size_t i = 0; i < third; ++i) {
        first.push_back(ops[i].second);
        last.push_back(ops[ops.size() - third + i].second);
    }
    double base = percentile(first, 90.0);
    return base > 0 ? percentile(last, 90.0) / base : 0.0;
}

/** Incremental FNV-1a over little-endian words. */
struct Fingerprint
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

} // namespace simbench

#endif // SIMBENCH_COMMON_HH
