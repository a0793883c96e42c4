#include "numarck/util/bitpack.hpp"

#include "numarck/arch/arch.hpp"

namespace numarck::util {

// Both bulk readers dispatch to the active arch kernel table: popcount runs
// a u64-chunk loop (POPCNT from the AVX2 table up), unpack runs one
// unaligned u64 load per value or a gathered SIMD batch. Every table is
// bit-identical and enforces the same ContractViolation bounds semantics.

std::size_t count_ones(const std::uint8_t* data, std::size_t size_bytes,
                       std::size_t bit_begin, std::size_t bit_end) {
  return arch::active().count_ones(data, size_bytes, bit_begin, bit_end);
}

std::vector<std::uint8_t> pack_indices(const std::vector<std::uint32_t>& values,
                                       unsigned width) {
  BitWriter w;
  for (std::uint32_t v : values) w.put(v, width);
  return w.finish();
}

std::vector<std::uint32_t> unpack_indices(const std::vector<std::uint8_t>& bytes,
                                          unsigned width, std::size_t count) {
  std::vector<std::uint32_t> out(count);
  arch::active().unpack(bytes.data(), bytes.size(), 0, width, out.data(),
                        count);
  return out;
}

}  // namespace numarck::util
