#include "reference.hh"

#include <cstdint>

#include "common.hh"

namespace simbench
{

namespace
{

volatile std::uint64_t g_sink;

/** Bit-serial CRC-16 over 512 bytes, branch-free. */
std::uint64_t
crcPart()
{
    static std::vector<std::uint8_t> bytes(512, 7);
    std::uint16_t crc = 0;
    for (std::uint8_t b : bytes) {
        for (int k = 0; k < 8; ++k) {
            const unsigned m = ((crc >> 15) ^ (b >> 7)) & 1;
            crc = static_cast<std::uint16_t>((crc << 1) ^ (0x1021 & -m));
            b = static_cast<std::uint8_t>(b << 1);
        }
    }
    bytes[crc % bytes.size()] = static_cast<std::uint8_t>(crc);
    return crc;
}

/** Two sequential passes over 96 KiB, counting one value. */
std::uint64_t
scanPart()
{
    static std::vector<std::uint64_t> words(12 * 1024, 1);
    std::uint64_t acc = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t w : words)
            acc += w == static_cast<std::uint64_t>(pass);
    }
    return acc;
}

/** The first 2000 dependent loads along a random cycle through
 *  256 KiB. */
std::uint64_t
chasePart()
{
    static const std::vector<std::uint32_t> next = [] {
        constexpr std::uint32_t n = 64 * 1024;
        std::vector<std::uint32_t> order(n), links(n);
        for (std::uint32_t i = 0; i < n; ++i)
            order[i] = i;
        std::uint64_t x = 88172645463325252ULL;
        for (std::uint32_t i = n - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        for (std::uint32_t i = 0; i < n; ++i)
            links[order[i]] = order[(i + 1) % n];
        return links;
    }();
    std::uint32_t p = 0;
    for (int i = 0; i < 2000; ++i)
        p = next[p];
    return p;
}

void
chunk()
{
    g_sink = crcPart() + scanPart() + chasePart();
}

} // namespace

double
runReference()
{
    chunk();
    const double c0 = cpuSeconds();
    chunk();
    return cpuSeconds() - c0;
}

double
normalisedHostSeconds(const std::vector<double> &work,
                      const std::vector<double> &refs)
{
    double sum = 0.0;
    for (std::size_t j = 0; j < work.size(); ++j) {
        if (j >= refs.size() || refs[j] <= 0)
            return 0.0;
        sum += work[j] * kReferenceSeconds / refs[j];
    }
    return sum;
}

} // namespace simbench
