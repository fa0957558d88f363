// Unit tests: physical address decomposition (paper Fig. 5).
#include <gtest/gtest.h>

#include <set>

#include "common/config.hpp"
#include "mem/address_map.hpp"

namespace mac3d {
namespace {

class AddressMapTest : public ::testing::Test {
 protected:
  SimConfig config_;
  AddressMap map_{config_};
};

TEST_F(AddressMapTest, RowNumberIsAddrOverRowBytes) {
  EXPECT_EQ(map_.row_of(0x0), 0u);
  EXPECT_EQ(map_.row_of(0xFF), 0u);
  EXPECT_EQ(map_.row_of(0x100), 1u);
  EXPECT_EQ(map_.row_of(0xA00), 0xAu);
}

TEST_F(AddressMapTest, FlitIdUsesBits4To7) {
  // Paper Sec. 4.1: bits 0..3 are the FLIT offset, bits 4..7 the FLIT id.
  EXPECT_EQ(map_.flit_of(0x00), 0u);
  EXPECT_EQ(map_.flit_of(0x0F), 0u);
  EXPECT_EQ(map_.flit_of(0x10), 1u);
  EXPECT_EQ(map_.flit_of(0x50), 5u);  // paper Fig. 6 example
  EXPECT_EQ(map_.flit_of(0xF0), 15u);
  // FLIT id is relative to the row: next row starts at FLIT 0 again.
  EXPECT_EQ(map_.flit_of(0x100), 0u);
}

TEST_F(AddressMapTest, RowBaseInvertsRowOf) {
  for (std::uint64_t row : {0ull, 1ull, 12345ull, (8ull << 30) / 256 - 1}) {
    EXPECT_EQ(map_.row_of(map_.row_base(row)), row);
  }
}

TEST_F(AddressMapTest, VaultsInterleaveAtRowGranularity) {
  // Consecutive rows land in consecutive vaults (Sec. 2.2).
  for (std::uint64_t row = 0; row < 64; ++row) {
    EXPECT_EQ(map_.vault_of(row), row % 32);
  }
}

TEST_F(AddressMapTest, BanksCycleAfterVaults) {
  EXPECT_EQ(map_.bank_of(0), 0u);
  EXPECT_EQ(map_.bank_of(31), 0u);
  EXPECT_EQ(map_.bank_of(32), 1u);
  EXPECT_EQ(map_.bank_of(32 * 15 + 5), 15u);
  EXPECT_EQ(map_.bank_of(32 * 16), 0u);  // wraps after 16 banks
}

TEST_F(AddressMapTest, GlobalBankIsUniquePerVaultBankPair) {
  std::set<std::uint32_t> seen;
  for (std::uint64_t row = 0; row < 32ull * 16; ++row) {
    seen.insert(map_.global_bank(row));
  }
  EXPECT_EQ(seen.size(), 512u);  // 8 GB cube: 512 banks (Sec. 2.2.1)
}

TEST_F(AddressMapTest, DecodeAgreesWithFieldAccessors) {
  const Address addr = 0x1A2B3C4D5ull;
  const DecodedAddress decoded = map_.decode(addr);
  EXPECT_EQ(decoded.row, map_.row_of(addr));
  EXPECT_EQ(decoded.flit, map_.flit_of(addr));
  EXPECT_EQ(decoded.flit_off, addr & 0xF);
  EXPECT_EQ(decoded.vault, map_.vault_of(decoded.row));
  EXPECT_EQ(decoded.bank, map_.bank_of(decoded.row));
}

TEST_F(AddressMapTest, BankRowReconstructsRowNumber) {
  const std::uint64_t row = 0x123456;
  const DecodedAddress decoded = map_.decode(map_.row_base(row));
  EXPECT_EQ(decoded.bank_row * 512 + decoded.bank * 32 + decoded.vault, row);
}

TEST_F(AddressMapTest, NodeOfSplitsByCapacity) {
  EXPECT_EQ(map_.node_of(0), 0);
  EXPECT_EQ(map_.node_of((8ull << 30) - 1), 0);
  EXPECT_EQ(map_.node_of(8ull << 30), 1);
  EXPECT_EQ(map_.node_of(3 * (8ull << 30) + 42), 3);
}

TEST_F(AddressMapTest, LocalAddrStripsNodeBits) {
  EXPECT_EQ(map_.local_addr((8ull << 30) + 0x1234), 0x1234u);
  EXPECT_EQ(map_.local_addr(0x1234), 0x1234u);
}

TEST(AddressMapCustom, HbmGeometryRow1K) {
  // Sec. 4.3: HBM has 1 KB pages — 64 FLITs per row.
  SimConfig config;
  config.row_bytes = 1024;
  AddressMap map(config);
  EXPECT_EQ(map.flits_per_row(), 64u);
  EXPECT_EQ(map.flit_of(1023), 63u);
  EXPECT_EQ(map.row_of(1024), 1u);
}

TEST(AddressMapCustom, SmallCubeGeometry) {
  SimConfig config;
  config.hmc_capacity = 1ull << 30;
  config.vaults = 16;
  config.banks_per_vault = 8;
  config.validate();
  AddressMap map(config);
  EXPECT_EQ(map.vault_of(17), 1u);
  EXPECT_EQ(map.bank_of(16), 1u);
  EXPECT_EQ(map.node_of(1ull << 30), 1);
}

}  // namespace
}  // namespace mac3d
