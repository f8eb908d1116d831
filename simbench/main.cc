/**
 * @file
 * The benchmark program: runs one workload repeatedly at one seed for
 * a host-time budget and prints every metric, then one JSON result
 * line (the last line of standard output).
 *
 *   simbench --workload mesh16|stream16|dsm16 --seed N --seconds S
 *            --trace 0|1 [--out DIR]
 *
 * Every repetition is a fresh machine at the same seed, so every
 * repetition must reproduce the first one's behaviour fingerprint,
 * simulated metrics and statistics dump exactly; host metrics are
 * medians over repetitions. --trace 0 prints the end-to-end metrics.
 * --trace 1 alternates untraced and sampled repetitions and prints the
 * per-layer metrics: simulator counters, the per-module host ledger
 * (also written to DIR/<workload>-seed<N>.ledger.json) and the
 * tracing overhead; the first sampled repetition's spans are written
 * to DIR/<workload>-seed<N>.trace.json.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "reference.hh"
#include "sampler.hh"
#include "sim/json.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace simbench;

namespace
{

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Sum (or max) of every statistic whose key ends with @p suffix. */
class StatsView
{
  public:
    explicit StatsView(const std::string &json)
        : _root(shrimp::json::parse(json))
    {}

    double
    sum(const std::string &suffix) const
    {
        double total = 0;
        for (const auto &[key, v] : _root.obj) {
            if (v.isNumber() && endsWith(key, suffix))
                total += v.number;
        }
        return total;
    }

    /** Largest value (or field @p field of a histogram) over keys. */
    double
    max(const std::string &suffix, const char *field = nullptr) const
    {
        double best = 0;
        for (const auto &[key, v] : _root.obj) {
            if (!endsWith(key, suffix))
                continue;
            const shrimp::json::Value *x = field ? v.find(field) : &v;
            if (x && x->isNumber())
                best = std::max(best, x->number);
        }
        return best;
    }

  private:
    static bool
    endsWith(const std::string &s, const std::string &suffix)
    {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    }

    shrimp::json::Value _root;
};

/** Everything a repetition must reproduce exactly. */
bool
sameBehaviour(const RepResult &a, const RepResult &b)
{
    return a.fingerprint == b.fingerprint && a.issued == b.issued &&
           a.ok == b.ok && a.latencyUs == b.latencyUs &&
           a.payloadBytes == b.payloadBytes && a.simSpanUs == b.simSpanUs &&
           a.events == b.events && a.pendingPeak == b.pendingPeak &&
           a.statsJson == b.statsJson;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;     // KiB -> MiB
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload mesh16|stream16|dsm16 --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 argv0);
    std::exit(2);
}

/** Largest late/early p90 latency ratio accepted as "no growing
 *  backlog". */
constexpr double kMaxBacklogGrowth = 1.5;

const char *const kLedgerLines[] = {
    "sim", "net", "net.crc", "nic", "nic.retx", "os", "os.health",
    "os.dsm", "cpu", "mem", "vm", "core", "msg", "bench", "other"};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir = ".bench_out";
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            seconds = std::atof(v.c_str());
        else if (k == "--trace")
            trace = std::atoi(v.c_str());
        else if (k == "--out")
            out_dir = v;
        else
            usage(argv[0]);
    }
    WorkloadFn fn = findWorkload(workload);
    if (!fn || seconds < 0 || (trace != 0 && trace != 1) || argc % 2 == 0)
        usage(argv[0]);
    std::filesystem::create_directories(out_dir);
    const std::string stem =
        out_dir + "/" + workload + "-seed" + std::to_string(seed);

    // ---- repetitions ----
    const Size size;
    const unsigned min_reps = trace ? 6 : 3;
    const auto wall0 = std::chrono::steady_clock::now();
    RepResult r0;
    unsigned nreps = 0;
    std::uint64_t attempted = 0, failed = 0;
    double rss_mb = 0;  // after the first repetition: later ones only
                        // add allocator fragmentation
    std::vector<double> host_plain, host_traced, raw_plain, refs;
    std::vector<double> setup, build_s, map_s, raw_setup;
    std::vector<std::string> errors;
    for (;; ++nreps) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - wall0)
                                   .count();
        if (nreps >= min_reps && elapsed >= seconds)
            break;
        const bool sampled = trace && nreps % 2 == 1;
        std::unique_ptr<SpanLog> log;
        if (sampled) {
            log = std::make_unique<SpanLog>();
            installSpans(log.get());
            g_sampleTimedPhase = true;
        }
        RepResult r = fn(seed, size);
        installSpans(nullptr);
        g_sampleTimedPhase = false;
        if (nreps == 0)
            rss_mb = peakRssMb();
        if (nreps == 1 && sampled && !log->write(stem + ".trace.json"))
            errors.push_back("cannot write " + stem + ".trace.json");

        const double host = normalisedHostSeconds(r.sliceS, r.refS);
        const double build = normalisedHostSeconds({r.buildS}, {r.buildRefS});
        const double map = normalisedHostSeconds({r.mapS}, {r.mapRefS});
        std::fprintf(stderr,
                     "rep %u%s: host %.4f s (raw %.4f s), setup %.4f s "
                     "(raw %.4f s)\n",
                     nreps, sampled ? " (sampled)" : "", host, r.hostS,
                     build + map, r.buildS + r.mapS);
        refs.insert(refs.end(), r.refS.begin(), r.refS.end());
        if (sampled) {
            host_traced.push_back(host);
        } else {
            host_plain.push_back(host);
            raw_plain.push_back(r.hostS);
            setup.push_back(build + map);
            build_s.push_back(build);
            map_s.push_back(map);
            raw_setup.push_back(r.buildS + r.mapS);
        }
        attempted += r.issued;
        failed += r.issued - r.ok;
        if (r.ok != r.issued) {
            errors.push_back("rep " + std::to_string(nreps) + ": " +
                             std::to_string(r.issued - r.ok) + " of " +
                             std::to_string(r.issued) +
                             " operations failed");
        }
        for (const std::string &e : r.errors)
            errors.push_back("rep " + std::to_string(nreps) + ": " + e);
        if (nreps == 0) {
            r0 = std::move(r);
        } else if (!sameBehaviour(r0, r)) {
            errors.push_back("rep " + std::to_string(nreps) +
                             " diverged from rep 0 at the same seed");
        }
    }

    std::vector<double> lat = r0.latencyUs;
    if (!hasTenBeyond(lat.size(), 99.0)) {
        errors.push_back("only " + std::to_string(lat.size()) +
                         " verified operations: p99 needs 1000");
    }
    const double growth = backlogGrowth(r0.issueUs, r0.latencyUs);
    if (growth > kMaxBacklogGrowth) {
        errors.push_back("backlog grows: late p90 latency is " +
                         std::to_string(growth) + "x the early p90");
    }
    const double p50 = percentile(lat, 50.0);
    const double p99 = percentile(lat, 99.0);
    const double host_s = median(host_plain);

    std::vector<Metric> metrics;
    if (trace == 0) {
        metrics = {
            {"host_s", host_s, "s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", rss_mb, "MB"},
            {"sim_latency_p50_us", p50, "us"},
            {"sim_latency_p99_us", p99, "us"},
            {"sim_ops_per_ms",
             r0.simSpanUs > 0 ? r0.ok / (r0.simSpanUs / 1000.0) : 0, "1/ms"},
            {"sim_goodput_mb_s",
             r0.simSpanUs > 0 ? r0.payloadBytes / r0.simSpanUs : 0, "MB/s"},
            {"ops_ok_frac",
             r0.issued ? static_cast<double>(r0.ok) / r0.issued : 0, "ratio"},
        };
    } else {
        StatsView st(r0.statsJson);
        std::vector<double> pre = r0.preInjectUs, i2d = r0.injectToDeliverUs;
        const double traced_s = median(host_traced);
        metrics = {
            {"sim.events", static_cast<double>(r0.events), "count"},
            {"sim.pending_peak", static_cast<double>(r0.pendingPeak), "count"},
            {"sim.ns_per_event", r0.events ? host_s * 1e9 / r0.events : 0, "ns"},
            {"sim.host_ns_per_sim_us",
             r0.timedSimUs > 0 ? host_s * 1e9 / r0.timedSimUs : 0, "ns/us"},
            {"net.packets", st.sum(".injected"), "count"},
            {"net.hops", st.sum(".forwarded"), "count"},
            {"net.credit_blocks", st.sum(".blockedOnCredit"), "count"},
            {"net.sink_blocks", st.sum(".blockedOnSink"), "count"},
            {"net.queue_depth_peak", st.max(".inQueueDepth", "max"), "count"},
            {"net.ecn_marks", st.sum(".ecnMarks"), "count"},
            {"nic.pkts_sent", st.sum(".ni.pktsSent"), "count"},
            {"nic.bytes_sent", st.sum(".ni.bytesSent"), "B"},
            {"nic.acks_sent", st.sum(".ni.relAcksSent"), "count"},
            {"nic.retransmits",
             st.sum(".retx.retxTimeout") + st.sum(".retx.retxNack"), "count"},
            {"nic.overflow_drops", st.sum(".ni.sendOverflowDrops"), "count"},
            {"nic.in_fifo_peak_bytes", st.max(".inFifo.maxFillBytes"), "B"},
            {"nic.out_fifo_peak_bytes", st.max(".outFifo.maxFillBytes"), "B"},
            {"nic.dma_transfers", st.sum(".dma.transfers"), "count"},
            {"nic.dma_fifo_stalls", st.sum(".dma.fifoStalls"), "count"},
            {"nic.pre_inject_p50_us", percentile(pre, 50.0), "us"},
            {"nic.inject_to_deliver_p50_us", percentile(i2d, 50.0), "us"},
            {"os.heartbeats", st.sum(".heartbeatsSent"), "count"},
            {"os.dsm.faults", st.sum(".dsmFaults"), "count"},
            {"os.dsm.fetches", st.sum(".dsmFetches"), "count"},
            {"os.dsm.invalidations", st.sum(".dsmInvalidations"), "count"},
            {"os.interrupts", st.sum(".kernel.interrupts"), "count"},
            {"os.fifo_stall_ticks", st.sum(".kernel.fifoStallTicks"), "ticks"},
            {"cpu.instructions", st.sum(".cpu.instructions"), "count"},
            {"cpu.kernel_instructions", st.sum(".cpu.kernelInstructions"),
             "count"},
            {"mem.xpress_transactions", st.sum(".xpress.transactions"),
             "count"},
            {"mem.xpress_contention_ticks", st.sum(".xpress.contentionTicks"),
             "ticks"},
            {"mem.eisa_bytes", st.sum(".eisa.bytes"), "B"},
            {"mem.cache_misses", st.sum(".cache.misses"), "count"},
            {"setup.build_s", median(build_s), "s"},
            {"setup.map_s", median(map_s), "s"},
            {"setup.raw_s", median(raw_setup), "s"},
            {"host.raw_s", median(raw_plain), "s"},
            {"host.ref_chunk_us", median(refs) * 1e6, "us"},
            {"trace.host_s", traced_s, "s"},
            {"trace.overhead_frac", host_s > 0 ? traced_s / host_s - 1 : 0,
             "ratio"},
        };

        // The host ledger: each line's share of the samples, scaled to
        // the sampled repetitions' median host time, so the lines add
        // up to trace.host_s.
        std::map<std::string, std::uint64_t> counts =
            sampler::ledger(out_dir);
        counts.erase("ref");    // reference chunks run between slices
        std::uint64_t total = 0;
        for (const auto &[line, c] : counts)
            total += c;
        if (total == 0)
            errors.push_back("the sampler recorded no samples");
        std::ofstream lf(stem + ".ledger.json");
        lf << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
           << ", \"samples\": " << total
           << ", \"dropped\": " << sampler::dropped()
           << ", \"host_s\": " << traced_s << ", \"lines\": {";
        bool first = true;
        for (const char *line : kLedgerLines) {
            auto it = counts.find(line);
            std::uint64_t c = it == counts.end() ? 0 : it->second;
            double self = total ? traced_s * c / total : 0;
            metrics.push_back({std::string(line) + ".self_s", self, "s"});
            lf << (first ? "" : ", ") << "\"" << line
               << "\": {\"samples\": " << c << ", \"self_s\": " << self
               << "}";
            first = false;
            counts.erase(line);
        }
        lf << "}}\n";
        for (const auto &[line, c] : counts)
            errors.push_back("sample charged to unknown line " + line);
        metrics.push_back(
            {"trace.samples", static_cast<double>(total), "count"});
    }

    // ---- report ----
    std::printf("workload %s seed %llu: %u repetitions, %llu operations "
                "per repetition (%llu verified), %llu events, "
                "fingerprint %016llx\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                nreps, static_cast<unsigned long long>(r0.issued),
                static_cast<unsigned long long>(r0.ok),
                static_cast<unsigned long long>(r0.events),
                static_cast<unsigned long long>(r0.fingerprint));
    std::printf("latency percentiles over %zu operations; late/early p90 "
                "latency %.3f; host_s and setup_s are medians of %zu "
                "untraced repetitions at the reference speed (raw CPU "
                "medians %.6f s and %.6f s; reference chunk %.2f us, "
                "nominal %.2f us)\n",
                r0.latencyUs.size(), growth, host_plain.size(),
                median(raw_plain), median(raw_setup), median(refs) * 1e6,
                kReferenceSeconds * 1e6);
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    for (const std::string &e : errors)
        std::printf("error: %s\n", e.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
}
