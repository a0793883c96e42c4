#include "numarck/util/crc32.hpp"

#include <array>

namespace numarck::util {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slice-by-16 tables: kTables[0] is the classic byte-at-a-time table, and
// kTables[k][b] is the CRC contribution of byte b followed by k zero bytes,
// so one step folds 16 input bytes with 16 independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  // Bytes are indexed one by one (never loaded as words), so the result is
  // the same on any byte order.
  for (; size >= 16; size -= 16, p += 16) {
    c = kTables[15][p[0] ^ (c & 0xffu)] ^
        kTables[14][p[1] ^ ((c >> 8) & 0xffu)] ^
        kTables[13][p[2] ^ ((c >> 16) & 0xffu)] ^
        kTables[12][p[3] ^ (c >> 24)] ^
        kTables[11][p[4]] ^ kTables[10][p[5]] ^ kTables[9][p[6]] ^
        kTables[8][p[7]] ^ kTables[7][p[8]] ^ kTables[6][p[9]] ^
        kTables[5][p[10]] ^ kTables[4][p[11]] ^ kTables[3][p[12]] ^
        kTables[2][p[13]] ^ kTables[1][p[14]] ^ kTables[0][p[15]];
  }
  for (; size > 0; --size, ++p) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32_update(kCrc32Init, data, size);
}

}  // namespace numarck::util
