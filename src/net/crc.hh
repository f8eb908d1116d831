/**
 * @file
 * CRC-16/CCITT-FALSE, the per-packet checksum the SHRIMP network
 * interface appends to detect network errors (Section 3.1).
 */

#ifndef SHRIMP_NET_CRC_HH
#define SHRIMP_NET_CRC_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace shrimp
{

// Crc16::updateInt hashes the host bytes of an integer as its
// little-endian wire encoding; a big-endian host would silently change
// every packet's CRC.
static_assert(std::endian::native == std::endian::little,
              "Crc16::updateInt assumes a little-endian host");

/**
 * The slicing-by-4 tables for a CRC-16 with polynomial @p poly. Row 0
 * is the byte-at-a-time table: entry b is the register after shifting
 * the byte b through the bit-serial loop from zero. Row k is row 0
 * followed by k zero bytes, so four data bytes fold into the register
 * with four independent lookups.
 */
constexpr std::array<std::array<std::uint16_t, 256>, 4>
makeCrc16Tables(std::uint16_t poly)
{
    std::array<std::array<std::uint16_t, 256>, 4> t{};
    for (unsigned b = 0; b < 256; ++b) {
        auto crc = static_cast<std::uint16_t>(b << 8);
        for (int bit = 0; bit < 8; ++bit) {
            crc = static_cast<std::uint16_t>(
                (crc & 0x8000) ? (crc << 1) ^ poly : crc << 1);
        }
        t[0][b] = crc;
    }
    for (unsigned k = 1; k < 4; ++k) {
        for (unsigned b = 0; b < 256; ++b) {
            std::uint16_t prev = t[k - 1][b];
            t[k][b] = static_cast<std::uint16_t>((prev << 8) ^
                                                 t[0][prev >> 8]);
        }
    }
    return t;
}

/** Incremental CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF). */
class Crc16
{
  public:
    static constexpr std::array<std::array<std::uint16_t, 256>, 4> table =
        makeCrc16Tables(0x1021);

    /** Feed @p len bytes. */
    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        std::uint16_t crc = _crc;
        // Four bytes at a time: the register's two bytes meet the first
        // two, and each lookup's row counts the bytes that follow it.
        for (; len >= 4; len -= 4, p += 4) {
            crc = static_cast<std::uint16_t>(
                table[3][(crc >> 8) ^ p[0]] ^
                table[2][(crc & 0xFF) ^ p[1]] ^ table[1][p[2]] ^
                table[0][p[3]]);
        }
        for (; len > 0; --len, ++p) {
            crc = static_cast<std::uint16_t>(
                (crc << 8) ^ table[0][(crc >> 8) ^ *p]);
        }
        _crc = crc;
    }

    /** Feed one little-endian integer of @p size bytes. */
    void
    updateInt(std::uint64_t v, unsigned size)
    {
        update(&v, size);
    }

    std::uint16_t value() const { return _crc; }

  private:
    std::uint16_t _crc = 0xFFFF;
};

/** One-shot convenience. */
inline std::uint16_t
crc16(const void *data, std::size_t len)
{
    Crc16 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace shrimp

#endif // SHRIMP_NET_CRC_HH
