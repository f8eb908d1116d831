/**
 * @file
 * Unit tests for CRC-16 and the packet format.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/crc.hh"
#include "net/packet.hh"
#include "sim/random.hh"

namespace shrimp
{
namespace
{

static_assert(Crc16::table[0][1] == 0x1021);

/** The bit-serial CRC-16/CCITT-FALSE the table must reproduce. */
std::uint16_t
bitSerialCrc16(const std::uint8_t *data, std::size_t len)
{
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= static_cast<std::uint16_t>(data[i]) << 8;
        for (int bit = 0; bit < 8; ++bit) {
            crc = static_cast<std::uint16_t>(
                (crc & 0x8000) ? (crc << 1) ^ 0x1021 : crc << 1);
        }
    }
    return crc;
}

/** @p n seeded pseudo-random bytes. */
std::vector<std::uint8_t>
seededBytes(std::size_t n)
{
    Rng rng(12345);
    std::vector<std::uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

TEST(Crc16, KnownVector)
{
    // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
    EXPECT_EQ(crc16("123456789", 9), 0x29B1);
}

TEST(Crc16, EmptyIsInit)
{
    Crc16 c;
    EXPECT_EQ(c.value(), 0xFFFF);
}

TEST(Crc16, IncrementalMatchesOneShot)
{
    Crc16 c;
    c.update("1234", 4);
    c.update("56789", 5);
    EXPECT_EQ(c.value(), crc16("123456789", 9));
}

TEST(Crc16, TableMatchesBitSerialOnEverySingleByte)
{
    for (unsigned b = 0; b < 256; ++b) {
        auto byte = static_cast<std::uint8_t>(b);
        ASSERT_EQ(crc16(&byte, 1), bitSerialCrc16(&byte, 1))
            << "byte " << b;
    }
}

TEST(Crc16, TableMatchesBitSerialOnEveryLengthToPageSize)
{
    // Up to a page-sized DMA payload plus a header's worth.
    const std::vector<std::uint8_t> buf = seededBytes(4100);
    for (std::size_t len = 0; len <= buf.size(); ++len) {
        ASSERT_EQ(crc16(buf.data(), len), bitSerialCrc16(buf.data(), len))
            << "length " << len;
    }
}

TEST(Crc16, IncrementalMatchesBitSerialAtEverySplit)
{
    const std::vector<std::uint8_t> buf = seededBytes(64);
    const std::uint16_t whole = bitSerialCrc16(buf.data(), buf.size());
    for (std::size_t split = 0; split <= buf.size(); ++split) {
        Crc16 c;
        c.update(buf.data(), split);
        c.update(buf.data() + split, buf.size() - split);
        ASSERT_EQ(c.value(), whole) << "split at " << split;
    }
}

TEST(Crc16, DetectsSingleBitError)
{
    std::uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint16_t good = crc16(data, sizeof(data));
    data[3] ^= 0x10;
    EXPECT_NE(crc16(data, sizeof(data)), good);
}

TEST(NetPacket, SealAndVerify)
{
    NetPacket pkt;
    pkt.srcNode = 1;
    pkt.dstNode = 2;
    pkt.dstX = 0;
    pkt.dstY = 1;
    pkt.dstPaddr = 0x1234;
    pkt.payload = {0xde, 0xad, 0xbe, 0xef};
    pkt.sealCrc();
    EXPECT_TRUE(pkt.crcOk());

    pkt.payload[2] ^= 1;
    EXPECT_FALSE(pkt.crcOk());
    pkt.payload[2] ^= 1;
    EXPECT_TRUE(pkt.crcOk());

    // Header fields are covered too.
    pkt.dstPaddr ^= 0x8000;
    EXPECT_FALSE(pkt.crcOk());
}

TEST(NetPacket, WireSizeIncludesOverhead)
{
    NetPacket pkt;
    pkt.payload.resize(100);
    EXPECT_EQ(pkt.wireBytes(),
              100 + NetPacket::headerBytes + NetPacket::crcBytes);
}

} // namespace
} // namespace shrimp
