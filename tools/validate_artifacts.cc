/**
 * @file
 * shrimp_validate: schema checks for the simulator's machine-readable
 * artifacts, used by tools/check.sh and the cli_trace_validate test.
 *
 * Usage:
 *   shrimp_validate trace FILE...     Chrome trace-event JSON
 *   shrimp_validate bench FILE...     BENCH_<name>.json results
 *   shrimp_validate stats FILE...     flat stats JSON object
 *   shrimp_validate chaos FILE...     chaos-soak report JSON
 *   shrimp_validate overload FILE...  BENCH_overload.json + collapse gate
 *   shrimp_validate dsm FILE...       BENCH_dsm.json + latency/progress gates
 *   shrimp_validate partition FILE... BENCH_partition.json + recovery gates
 *   shrimp_validate simcore FILE...   BENCH_simcore.json host-speed trajectory
 *
 * Exit status 0 iff every file parses and conforms.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "sim/json.hh"

using shrimp::json::Value;

namespace
{

int g_errors = 0;

void
fail(const std::string &file, const std::string &what)
{
    std::fprintf(stderr, "%s: %s\n", file.c_str(), what.c_str());
    ++g_errors;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Chrome trace-event JSON: the shape Perfetto actually needs. */
void
validateTrace(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "trace root is not an object");
    const Value *events = root.find("traceEvents");
    if (!events || !events->isArray())
        return fail(file, "missing traceEvents array");

    std::set<std::string> open_flows;
    for (std::size_t i = 0; i < events->arr.size(); ++i) {
        const Value &ev = events->arr[i];
        std::string where = "traceEvents[" + std::to_string(i) + "]";
        if (!ev.isObject())
            return fail(file, where + " is not an object");
        const Value *ph = ev.find("ph");
        const Value *name = ev.find("name");
        if (!ph || !ph->isString() || ph->str.size() != 1)
            return fail(file, where + " has no one-char ph");
        if (!name || !name->isString())
            return fail(file, where + " has no name");
        char p = ph->str[0];
        if (std::strchr("BEXibne", p) && !ev.find("ts"))
            return fail(file, where + " has no ts");
        if (p == 'X' && !ev.find("dur"))
            return fail(file, where + " X event has no dur");
        if (p == 'b' || p == 'n' || p == 'e') {
            const Value *id = ev.find("id");
            const Value *cat = ev.find("cat");
            if (!id || !id->isString())
                return fail(file, where + " flow event has no id");
            if (!cat || !cat->isString())
                return fail(file, where + " flow event has no cat");
            std::string key = cat->str + "/" + id->str;
            if (p == 'b')
                open_flows.insert(key);
            else if (!open_flows.count(key))
                return fail(file, where + " flow " + key +
                                      " was never opened");
            if (p == 'e')
                open_flows.erase(key);
        }
    }
}

/** BENCH_<name>.json artifact written by bench_util::ArtifactReporter. */
void
validateBench(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "bench root is not an object");
    const Value *ver = root.find("schema_version");
    if (!ver || !ver->isNumber() || ver->number != 1)
        return fail(file, "schema_version != 1");
    const Value *bench = root.find("bench");
    if (!bench || !bench->isString() || bench->str.empty())
        return fail(file, "missing bench name");
    const Value *results = root.find("results");
    if (!results || !results->isArray())
        return fail(file, "missing results array");
    for (std::size_t i = 0; i < results->arr.size(); ++i) {
        const Value &r = results->arr[i];
        std::string where = "results[" + std::to_string(i) + "]";
        if (!r.isObject())
            return fail(file, where + " is not an object");
        const Value *name = r.find("name");
        const Value *iters = r.find("iterations");
        const Value *time = r.find("real_time_s");
        const Value *counters = r.find("counters");
        if (!name || !name->isString() || name->str.empty())
            return fail(file, where + " has no name");
        if (!iters || !iters->isNumber() || iters->number < 1)
            return fail(file, where + " has no iterations");
        if (!time || !time->isNumber())
            return fail(file, where + " has no real_time_s");
        if (!counters || !counters->isObject())
            return fail(file, where + " has no counters object");
        for (const auto &[key, value] : counters->obj) {
            if (!value.isNumber())
                return fail(file, where + " counter " + key +
                                      " is not a number");
        }
    }
}

/** Flat stats object: every member a number or a stats sub-object. */
void
validateStats(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "stats root is not an object");
    if (root.obj.empty())
        return fail(file, "stats object is empty");
    for (const auto &[key, value] : root.obj) {
        if (value.isNumber())
            continue;
        if (!value.isObject())
            return fail(file, key + " is neither number nor object");
        const Value *count = value.find("count");
        if (!count || !count->isNumber())
            return fail(file, key + " has no numeric count");
    }
}

/** Chaos-soak report written by `shrimp_explore chaos --json`. */
void
validateChaos(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "chaos root is not an object");
    const Value *ver = root.find("schema_version");
    if (!ver || !ver->isNumber() || ver->number != 1)
        return fail(file, "schema_version != 1");
    const Value *kind = root.find("kind");
    if (!kind || !kind->isString() || kind->str != "chaos")
        return fail(file, "kind != \"chaos\"");
    const Value *seed = root.find("seed");
    if (!seed || !seed->isNumber())
        return fail(file, "missing numeric seed");
    const Value *ok = root.find("ok");
    if (!ok || !ok->isBool())
        return fail(file, "missing boolean ok");
    const Value *fp = root.find("stats_fingerprint");
    if (!fp || !fp->isString() || fp->str.size() != 16)
        return fail(file, "stats_fingerprint is not 16 hex chars");
    const Value *violations = root.find("violations");
    if (!violations || !violations->isArray())
        return fail(file, "missing violations array");
    for (std::size_t i = 0; i < violations->arr.size(); ++i) {
        if (!violations->arr[i].isString())
            return fail(file, "violations[" + std::to_string(i) +
                                  "] is not a string");
    }
    // A report may only claim success with zero violations.
    if (ok->boolean && !violations->arr.empty())
        return fail(file, "ok is true but violations are present");
    const Value *counters = root.find("counters");
    if (!counters || !counters->isObject())
        return fail(file, "missing counters object");
    for (const char *key :
         {"writesIssued", "crashesInjected", "linkFlapsInjected",
          "heartbeatsSent", "peersDeclaredDead", "peersRecovered",
          "linkDownDrops", "retransmits",
          "overloadBurstsInjected", "sendsRejected", "ecnMarksSeen",
          "ecnEchoesSent", "pacedRetransmits", "watchdogStalls",
          "pairsVerifiedExact", "dsmOpsIssued", "dsmOpsHostdown",
          "dsmRehomes", "partitionsInjected", "healsInjected",
          "partitionsDeclared", "staleEpochRejects",
          "niStaleEpochDrops", "fencedWritebacks", "endTick"}) {
        const Value *c = counters->find(key);
        if (!c || !c->isNumber())
            return fail(file,
                        std::string("counters.") + key + " missing");
    }
}

/**
 * BENCH_overload.json: the bench schema plus the congestion-collapse
 * regression gate. Over the Incast sweep the most-overloaded point
 * (highest load_pct, nominally 2x saturation) must still sustain at
 * least 80% of the peak goodput seen anywhere in the sweep -- a
 * collapsing send path (goodput falling as offered load rises) fails
 * here instead of in a human's eyeball.
 */
void
validateOverload(const std::string &file, const Value &root)
{
    int before = g_errors;
    validateBench(file, root);
    if (g_errors != before)
        return;
    const Value *results = root.find("results");
    double peak = 0.0;
    double top_load = -1.0, top_goodput = 0.0;
    std::string top_name;
    for (const Value &r : results->arr) {
        const Value *name = r.find("name");
        if (name->str.compare(0, 6, "Incast") != 0)
            continue;
        const Value *goodput = r.find("counters")->find("goodput_MBps");
        const Value *load = r.find("counters")->find("load_pct");
        if (!goodput || !goodput->isNumber())
            return fail(file, name->str + " has no goodput_MBps");
        if (!load || !load->isNumber())
            return fail(file, name->str + " has no load_pct");
        if (goodput->number > peak)
            peak = goodput->number;
        if (load->number > top_load) {
            top_load = load->number;
            top_goodput = goodput->number;
            top_name = name->str;
        }
    }
    if (top_load < 0.0)
        return fail(file, "no Incast results to gate on");
    if (peak <= 0.0)
        return fail(file, "Incast sweep moved no data");
    if (top_goodput < 0.8 * peak) {
        return fail(file, top_name + " collapsed: " +
                              std::to_string(top_goodput) +
                              " MB/s vs peak " + std::to_string(peak) +
                              " MB/s");
    }
}

/**
 * BENCH_dsm.json: the bench schema plus DSM-specific gates. Both the
 * fault-driven stencil and the migratory-counter drivers must be
 * present, each reporting a sane fault-latency distribution (p99 no
 * lower than p50) and forward progress (pages_per_s > 0).
 */
void
validateDsm(const std::string &file, const Value &root)
{
    int before = g_errors;
    validateBench(file, root);
    if (g_errors != before)
        return;
    const Value *results = root.find("results");
    bool have_stencil = false, have_migratory = false;
    for (const Value &r : results->arr) {
        const Value *name = r.find("name");
        bool stencil = name->str.compare(0, 7, "Stencil") == 0;
        bool migratory = name->str.compare(0, 9, "Migratory") == 0;
        if (!stencil && !migratory)
            continue;
        have_stencil |= stencil;
        have_migratory |= migratory;
        const Value *counters = r.find("counters");
        const Value *p50 = counters->find("fault_p50_us");
        const Value *p99 = counters->find("fault_p99_us");
        const Value *rate = counters->find("pages_per_s");
        if (!p50 || !p50->isNumber())
            return fail(file, name->str + " has no fault_p50_us");
        if (!p99 || !p99->isNumber())
            return fail(file, name->str + " has no fault_p99_us");
        if (!rate || !rate->isNumber())
            return fail(file, name->str + " has no pages_per_s");
        if (p99->number < p50->number) {
            return fail(file, name->str + " fault p99 " +
                                  std::to_string(p99->number) +
                                  " below p50 " +
                                  std::to_string(p50->number));
        }
        if (rate->number <= 0.0)
            return fail(file, name->str + " made no page progress");
    }
    if (!have_stencil)
        return fail(file, "no Stencil results");
    if (!have_migratory)
        return fail(file, "no Migratory results");
}

/**
 * BENCH_partition.json: the bench schema plus partition-recovery
 * gates. Every Partition* sweep point must report that the majority
 * actually detected the isolated node (time_to_detect_us > 0), that
 * the machine reintegrated after the heal (time_to_heal_us > 0), and
 * the fence accounting must balance: the machine-wide
 * stale_epoch_rejects total can never be smaller than the layered
 * drops it is supposed to account for (fenced_writebacks +
 * ni_stale_drops).
 */
void
validatePartition(const std::string &file, const Value &root)
{
    int before = g_errors;
    validateBench(file, root);
    if (g_errors != before)
        return;
    const Value *results = root.find("results");
    bool any = false;
    for (const Value &r : results->arr) {
        const Value *name = r.find("name");
        if (name->str.compare(0, 9, "Partition") != 0)
            continue;
        any = true;
        const Value *counters = r.find("counters");
        const Value *detect = counters->find("time_to_detect_us");
        const Value *heal = counters->find("time_to_heal_us");
        const Value *rejects = counters->find("stale_epoch_rejects");
        const Value *fenced = counters->find("fenced_writebacks");
        const Value *ni_drops = counters->find("ni_stale_drops");
        if (!detect || !detect->isNumber())
            return fail(file, name->str + " has no time_to_detect_us");
        if (!heal || !heal->isNumber())
            return fail(file, name->str + " has no time_to_heal_us");
        if (!rejects || !rejects->isNumber())
            return fail(file,
                        name->str + " has no stale_epoch_rejects");
        if (!fenced || !fenced->isNumber())
            return fail(file, name->str + " has no fenced_writebacks");
        if (!ni_drops || !ni_drops->isNumber())
            return fail(file, name->str + " has no ni_stale_drops");
        if (detect->number <= 0.0) {
            return fail(file, name->str +
                                  " never detected the partition");
        }
        if (heal->number <= 0.0)
            return fail(file, name->str + " never reintegrated");
        if (rejects->number < fenced->number + ni_drops->number) {
            return fail(file,
                        name->str + " fence accounting broken: " +
                            std::to_string(rejects->number) +
                            " rejects < " +
                            std::to_string(fenced->number) + " + " +
                            std::to_string(ni_drops->number) +
                            " layered drops");
        }
    }
    if (!any)
        return fail(file, "no Partition results");
}

/** A 16-hex-digit fingerprint string. */
bool
isFingerprint(const Value &v)
{
    return v.isString() && v.str.size() == 16 &&
           v.str.find_first_not_of("0123456789abcdef") == std::string::npos;
}

/**
 * BENCH_simcore.json: the simulator's host-speed trajectory, one row
 * per host-cost change. Each row maps a workload name to its host time
 * in seconds and its same-seed fingerprints. A host-speed change must
 * not change behaviour, so every row must carry the first row's
 * workloads with byte-identical fingerprints. And no workload may run
 * more than 2x slower than in the row before: loose enough to survive
 * co-tenant noise, tight enough to catch an accidental quadratic.
 */
void
validateSimcore(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "simcore root is not an object");
    const Value *ver = root.find("schema_version");
    if (!ver || !ver->isNumber() || ver->number != 1)
        return fail(file, "schema_version != 1");
    const Value *rows = root.find("rows");
    if (!rows || !rows->isArray() || rows->arr.empty())
        return fail(file, "missing or empty rows array");
    for (std::size_t i = 0; i < rows->arr.size(); ++i) {
        const Value &row = rows->arr[i];
        std::string where = "rows[" + std::to_string(i) + "]";
        const Value *label = row.find("label");
        const Value *workloads = row.find("workloads");
        if (!label || !label->isString() || label->str.empty())
            return fail(file, where + " has no label");
        if (!workloads || !workloads->isObject() ||
            workloads->obj.empty())
            return fail(file, where + " has no workloads object");
        for (const auto &[name, w] : workloads->obj) {
            std::string at = where + " " + name;
            const Value *secs = w.find("seconds");
            const Value *fps = w.find("fingerprints");
            if (!secs || !secs->isNumber() || secs->number <= 0.0)
                return fail(file, at + " has no positive seconds");
            if (!fps || !fps->isObject() || fps->obj.empty())
                return fail(file, at + " has no fingerprints object");
            for (const auto &[seed, fp] : fps->obj) {
                if (!isFingerprint(fp))
                    return fail(file, at + " fingerprint " + seed +
                                          " is not 16 hex chars");
            }
        }
        if (i == 0)
            continue;
        const Value &first = *rows->arr[0].find("workloads");
        const Value &prev = *rows->arr[i - 1].find("workloads");
        for (const auto &[name, ref] : first.obj) {
            const Value *w = workloads->find(name);
            if (!w)
                return fail(file, where + " dropped workload " + name);
            for (const auto &[seed, fp] : ref.find("fingerprints")->obj) {
                const Value *got = w->find("fingerprints")->find(seed);
                if (!got || got->str != fp.str) {
                    return fail(file, where + " " + name + " " + seed +
                                          " fingerprint drifted from " +
                                          fp.str);
                }
            }
        }
        for (const auto &[name, w] : workloads->obj) {
            const Value *before = prev.find(name);
            if (!before)
                continue;
            double was = before->find("seconds")->number;
            double now = w.find("seconds")->number;
            if (now > 2.0 * was) {
                return fail(file, where + " " + name + " took " +
                                      std::to_string(now) + " s, over 2x " +
                                      std::to_string(was) + " s");
            }
        }
    }
}

/** Every mode: its name on the command line and its validator. */
struct Mode
{
    const char *name;
    void (*validate)(const std::string &file, const Value &root);
};

constexpr Mode modes[] = {
    {"trace", validateTrace},
    {"bench", validateBench},
    {"stats", validateStats},
    {"chaos", validateChaos},
    {"overload", validateOverload},
    {"dsm", validateDsm},
    {"partition", validatePartition},
    {"simcore", validateSimcore},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::string names;
        for (const Mode &m : modes)
            names += (names.empty() ? "" : "|") + std::string(m.name);
        std::fprintf(stderr, "usage: %s {%s} FILE...\n", argv[0],
                     names.c_str());
        return 2;
    }
    std::string mode = argv[1];
    const Mode *chosen = nullptr;
    for (const Mode &m : modes) {
        if (mode == m.name)
            chosen = &m;
    }
    if (!chosen) {
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 2;
    }

    for (int i = 2; i < argc; ++i) {
        std::string path = argv[i];
        int before = g_errors;
        std::string text;
        if (!readFile(path, text)) {
            fail(path, "cannot read");
            continue;
        }
        Value root;
        try {
            root = shrimp::json::parse(text);
        } catch (const std::exception &e) {
            fail(path, std::string("JSON parse error: ") + e.what());
            continue;
        }
        chosen->validate(path, root);
        if (g_errors == before)
            std::printf("%s: ok\n", path.c_str());
    }
    return g_errors ? 1 : 0;
}
