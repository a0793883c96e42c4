// Fuzz target: the dispatched bit-unpack/popcount kernels.
//
// The input's first bytes forge a bit offset, a width (deliberately allowed
// to be out of [1,32]) and a count; the remainder is the bit stream. Every
// dispatch level the host supports (scalar, avx2, avx512) runs the same
// unpack and count_ones calls: the scalar BitReader unpack against the
// gathered AVX2 and 8-lane AVX-512 ones, and the portable u64 popcount
// against its POPCNT build. Each must either serve the request entirely
// from in-range bytes or throw ContractViolation, and all levels must agree
// bit-for-bit with the scalar reference — including on WHETHER they threw.
// A divergence traps.
#include <cstdint>
#include <vector>

#include "numarck/arch/arch.hpp"
#include "numarck/util/expect.hpp"

namespace {

struct UnpackResult {
  bool threw = false;
  std::vector<std::uint32_t> values;
};

UnpackResult run_unpack(const numarck::arch::Kernels& k,
                        const std::uint8_t* bytes, std::size_t size,
                        std::size_t offset, unsigned width,
                        std::size_t count) {
  UnpackResult r;
  r.values.assign(count, 0xDEADBEEFu);
  try {
    k.unpack(bytes, size, offset, width, r.values.data(), count);
  } catch (const numarck::ContractViolation&) {
    r.threw = true;
    r.values.clear();
  }
  return r;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 6) return 0;
  const std::size_t offset = static_cast<std::size_t>(data[0]) |
                             (static_cast<std::size_t>(data[1]) << 8);
  // Raw width 0..39: exercises both every valid width and the reject path.
  const unsigned width = data[2] % 40u;
  const std::size_t count = (static_cast<std::size_t>(data[3]) |
                             (static_cast<std::size_t>(data[4]) << 8)) %
                            4096u;
  const std::uint8_t* stream = data + 6;
  const std::size_t stream_size = size - 6;

  const auto levels = numarck::arch::available_levels();
  const numarck::arch::Level active = numarck::arch::active_level();

  std::vector<std::pair<numarck::arch::Level, numarck::arch::Kernels>> tables;
  for (const numarck::arch::Level level : levels) {
    numarck::arch::force_level(level);
    tables.emplace_back(level, numarck::arch::active());
  }
  numarck::arch::force_level(active);

  const UnpackResult ref = run_unpack(tables.front().second, stream,
                                      stream_size, offset, width, count);
  if (!ref.threw) {
    // A successful unpack implies the whole range was in bounds.
    if (width < 1 || width > 32) __builtin_trap();
    if (offset + count * width > stream_size * 8) __builtin_trap();
    for (const std::uint32_t v : ref.values) {
      if (width < 32 && v >= (1u << width)) __builtin_trap();
    }
  }
  const std::size_t total_bits = stream_size * 8;
  const std::size_t begin = offset <= total_bits ? offset : total_bits;
  const std::size_t end =
      begin + count <= total_bits ? begin + count : total_bits;
  const std::size_t ref_ones =
      tables.front().second.count_ones(stream, stream_size, begin, end);

  for (const auto& [level, k] : tables) {
    const UnpackResult got =
        run_unpack(k, stream, stream_size, offset, width, count);
    if (got.threw != ref.threw) __builtin_trap();
    if (got.values != ref.values) __builtin_trap();
    if (k.count_ones(stream, stream_size, begin, end) != ref_ones) {
      __builtin_trap();
    }
  }
  return 0;
}
