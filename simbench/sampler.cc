#include "sampler.hh"

#include <execinfo.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <vector>

namespace simbench
{
namespace sampler
{

namespace
{

constexpr int kDepth = 48;
constexpr std::size_t kCapacity = std::size_t{1} << 15;

// Zero-initialised static storage: pages are only touched (and only
// count towards RSS) once samples land in them.
void *g_frames[kCapacity * kDepth];
void *g_pc[kCapacity];
int g_depth[kCapacity];
std::atomic<std::size_t> g_n{0};
std::atomic<std::uint64_t> g_dropped{0};

void
onProf(int, siginfo_t *, void *uctx)
{
    const int saved_errno = errno;
    std::size_t i = g_n.load(std::memory_order_relaxed);
    if (i >= kCapacity) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
        g_depth[i] = backtrace(&g_frames[i * kDepth], kDepth);
        g_pc[i] = reinterpret_cast<void *>(
            static_cast<ucontext_t *>(uctx)->uc_mcontext.gregs[REG_RIP]);
        g_n.store(i + 1, std::memory_order_relaxed);
    }
    errno = saved_errno;
}

void
setTimer(unsigned interval_us)
{
    itimerval t{};
    t.it_interval.tv_sec = interval_us / 1000000;
    t.it_interval.tv_usec = interval_us % 1000000;
    t.it_value = t.it_interval;
    setitimer(ITIMER_PROF, &t, nullptr);
}

/** Load address and mapped ranges of the main executable. */
struct ExeImage
{
    std::uintptr_t base = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;

    bool
    contains(std::uintptr_t a) const
    {
        for (const auto &[lo, hi] : ranges) {
            if (a >= lo && a < hi)
                return true;
        }
        return false;
    }
};

int
findMainImage(dl_phdr_info *info, std::size_t, void *data)
{
    auto *img = static_cast<ExeImage *>(data);
    // The main program is reported first, with an empty name.
    img->base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const auto &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD) {
            std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            img->ranges.emplace_back(lo, lo + ph.p_memsz);
        }
    }
    return 1;
}

std::string
normalised(const std::string &p)
{
    return std::filesystem::path(p).lexically_normal().string();
}

} // namespace

void
start(unsigned interval_us)
{
    // The first backtrace() loads the unwinder; never do that inside
    // the signal handler.
    void *prime[4];
    backtrace(prime, 4);

    struct sigaction sa{};
    sa.sa_sigaction = &onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    setTimer(interval_us);
}

void
stop()
{
    setTimer(0);
}

std::uint64_t dropped() { return g_dropped.load(); }

void
clear()
{
    g_n.store(0);
    g_dropped.store(0);
}

std::string
lineForFile(const std::string &path)
{
    static const std::string root =
        normalised(SIMBENCH_REPO_ROOT) + "/";
    std::string p = normalised(path);
    if (p.compare(0, root.size(), root) == 0)
        p = p.substr(root.size());
    if (p == "simbench/reference.cc")
        return "ref";
    if (p.compare(0, 9, "simbench/") == 0)
        return "bench";
    if (p.compare(0, 4, "src/") != 0)
        return "";
    std::size_t slash = p.find('/', 4);
    if (slash == std::string::npos)
        return "";
    std::string module = p.substr(4, slash - 4);
    std::string file = p.substr(slash + 1);
    auto starts = [&file](const char *prefix) {
        return file.rfind(prefix, 0) == 0;
    };
    if (module == "net" && starts("crc."))
        return "net.crc";
    if (module == "nic" && starts("retransmit_buffer."))
        return "nic.retx";
    if (module == "os" && starts("health."))
        return "os.health";
    if (module == "os" && starts("dsm."))
        return "os.dsm";
    return module;
}

std::map<std::string, std::uint64_t>
ledger(const std::string &work_dir)
{
    const std::size_t n = g_n.load();
    ExeImage img;
    dl_iterate_phdr(&findMainImage, &img);

    // Each sample as a list of addresses, innermost first: the
    // interrupted pc exactly, then return addresses minus one so they
    // resolve to the call instruction's line.
    std::vector<std::vector<std::uintptr_t>> stacks(n);
    std::unordered_map<std::uintptr_t, std::string> line_of;
    for (std::size_t i = 0; i < n; ++i) {
        void **f = &g_frames[i * kDepth];
        int depth = g_depth[i];
        int k = 0;
        while (k < depth && f[k] != g_pc[i])
            ++k;
        auto &st = stacks[i];
        st.push_back(reinterpret_cast<std::uintptr_t>(g_pc[i]));
        // Without the pc in the unwound stack, skip the handler and
        // the signal trampoline.
        for (int j = (k < depth ? k + 1 : 2); j < depth; ++j)
            st.push_back(reinterpret_cast<std::uintptr_t>(f[j]) - 1);
        for (std::uintptr_t a : st) {
            if (img.contains(a))
                line_of.emplace(a, "");
        }
    }

    std::map<std::string, std::uint64_t> out;
    if (n == 0)
        return out;

    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0)
        return {};
    exe[len] = '\0';
    std::string addr_file = work_dir + "/simbench-" +
                            std::to_string(getpid()) + ".addrs";
    {
        std::ofstream af(addr_file);
        char buf[32];
        for (const auto &[a, unused] : line_of) {
            std::snprintf(buf, sizeof(buf), "0x%llx\n",
                          static_cast<unsigned long long>(a - img.base));
            af << buf;
        }
    }
    std::string cmd = "addr2line -a -i -e '" + std::string(exe) +
                      "' < '" + addr_file + "'";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        std::filesystem::remove(addr_file);
        return {};
    }
    // Output: an "0x<addr>" line, then one "file:line" line per
    // inlined frame, innermost first.
    char line[8192];
    std::uintptr_t cur = 0;
    bool decided = true;
    while (std::fgets(line, sizeof(line), pipe)) {
        std::string s(line);
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
            s.pop_back();
        if (s.rfind("0x", 0) == 0) {
            cur = static_cast<std::uintptr_t>(
                      std::stoull(s.substr(2), nullptr, 16)) +
                  img.base;
            decided = false;
            continue;
        }
        if (decided)
            continue;
        std::string file = s.substr(0, s.rfind(':'));
        std::string l = lineForFile(file);
        if (!l.empty()) {
            line_of[cur] = l;
            decided = true;
        }
    }
    int status = pclose(pipe);
    std::filesystem::remove(addr_file);
    if (status != 0)
        return {};

    for (const auto &st : stacks) {
        std::string charged = "other";
        for (std::uintptr_t a : st) {
            auto it = line_of.find(a);
            if (it != line_of.end() && !it->second.empty()) {
                charged = it->second;
                break;
            }
        }
        ++out[charged];
    }
    return out;
}

} // namespace sampler
} // namespace simbench
