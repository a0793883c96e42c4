// Scalar reference implementations shared by every ISA translation unit.
//
// Each kernels_<isa>.cpp includes this header for two reasons: the scalar
// functions ARE the semantics (the SIMD bodies must match them bit for bit on
// any input), and they serve as the tail/fallback path inside the vector
// loops. Everything here is `static` on purpose — this header is compiled
// into TUs built with different -m flags, and internal linkage keeps the
// linker from folding, say, an AVX2-compiled copy into the scalar table
// (which would crash a pre-AVX machine at runtime).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "numarck/arch/arch.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::arch {

// Per-level kernel tables, defined one per kernels_<isa>.cpp. Only the
// accessors whose NUMARCK_ARCH_HAVE_* definition is set by CMake exist at
// link time; dispatch.cpp guards every reference accordingly. Each wider
// table copies the one below and overrides the slots its kernels won.
const Kernels* scalar_kernel_table() noexcept;
const Kernels* avx2_kernel_table() noexcept;
const Kernels* avx512_kernel_table() noexcept;

namespace detail {

/// Pass-A1 classification, one point at a time. This is the exact loop the
/// codec ran before the arch layer existed. It is the library's only
/// classify: no SIMD variant beat it (docs/TUNING.md), so every wider table
/// inherits the scalar table's copy.
static inline ClassifySpanStats classify_scalar(const double* previous,
                                                const double* current,
                                                std::uint32_t* labels,
                                                std::size_t n,
                                                double error_bound,
                                                double small_threshold) {
  ClassifySpanStats s;
  for (std::size_t j = 0; j < n; ++j) {
    // Small-value rule (Algorithm 1 line 5): both sides below the absolute
    // threshold -> "unchanged", index 0.
    if (small_threshold > 0.0 && std::abs(current[j]) < small_threshold &&
        std::abs(previous[j]) <= small_threshold) {
      labels[j] = 0;
      ++s.small;
      continue;
    }
    // Paper rule: zero denominator -> store exactly; extended to any
    // non-finite ratio so the compressor is total on junk input.
    if (previous[j] == 0.0) {
      labels[j] = kLabelExact;
      ++s.undefined;
      continue;
    }
    const double r = (current[j] - previous[j]) / previous[j];
    if (!std::isfinite(r)) {
      labels[j] = kLabelExact;
      ++s.undefined;
      continue;
    }
    const double mag = std::abs(r);
    if (mag < error_bound) {
      labels[j] = 0;
      ++s.below;
      s.err_sum += mag;  // approximated ratio is exactly 0
      s.err_max = std::max(s.err_max, mag);
      continue;
    }
    labels[j] = kLabelNeedsBin;
    ++s.needs_bin;
  }
  return s;
}

static inline void change_ratios_scalar(const double* previous,
                                        const double* current, double* ratios,
                                        std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double d = previous[j];
    ratios[j] = (current[j] - d) / (d == 0.0 ? 1.0 : d);
  }
}

/// Reads the `width`-bit value at absolute bit `q` of an LSB-first stream.
/// One unaligned u64 load covers the value whenever 8 bytes fit (q%8 + width
/// <= 39 < 64 bits for width <= 32); the per-byte loop handles the last few
/// bytes of the buffer. Caller guarantees q + width <= size_bytes * 8.
static inline std::uint32_t read_bits_at(const std::uint8_t* bytes,
                                         std::size_t size_bytes,
                                         std::size_t q, unsigned width,
                                         std::uint64_t mask) {
  const std::size_t byte = q >> 3;
  const unsigned phase = static_cast<unsigned>(q & 7);
  if constexpr (std::endian::native == std::endian::little) {
    if (byte + 8 <= size_bytes) {
      std::uint64_t w;
      std::memcpy(&w, bytes + byte, sizeof w);
      return static_cast<std::uint32_t>((w >> phase) & mask);
    }
  }
  std::uint64_t w = 0;
  unsigned got = 0;
  std::size_t b = byte;
  while (got < phase + width) {
    w |= static_cast<std::uint64_t>(bytes[b++]) << got;
    got += 8;
  }
  return static_cast<std::uint32_t>((w >> phase) & mask);
}

static inline void check_unpack_range(std::size_t size_bytes,
                                      std::size_t bit_offset, unsigned width,
                                      std::size_t count) {
  NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
  NUMARCK_EXPECT(bit_offset <= size_bytes * 8,
                 "unpack: offset past end of stream");
  NUMARCK_EXPECT(count <= (size_bytes * 8 - bit_offset) / width,
                 "unpack: bit range past end of stream");
}

/// Pure-reference unpack: a BitReader pass, byte at a time.
static inline void unpack_scalar(const std::uint8_t* bytes,
                                 std::size_t size_bytes,
                                 std::size_t bit_offset, unsigned width,
                                 std::uint32_t* out, std::size_t count) {
  check_unpack_range(size_bytes, bit_offset, width, count);
  util::BitReader r(bytes, size_bytes, bit_offset);
  for (std::size_t i = 0; i < count; ++i) out[i] = r.get(width);
}

static inline void check_count_ones_range(std::size_t size_bytes,
                                          std::size_t bit_end) {
  NUMARCK_EXPECT(bit_end <= size_bytes * 8,
                 "count_ones: bit range past end of stream");
}

/// Byte-at-a-time popcount (the pre-arch util::count_ones body).
static inline std::size_t count_ones_scalar(const std::uint8_t* data,
                                            std::size_t size_bytes,
                                            std::size_t bit_begin,
                                            std::size_t bit_end) {
  if (bit_end <= bit_begin) return 0;
  check_count_ones_range(size_bytes, bit_end);
  std::size_t count = 0;
  std::size_t byte = bit_begin / 8;
  const std::size_t last_byte = (bit_end - 1) / 8;
  if (byte == last_byte) {
    const unsigned lo = static_cast<unsigned>(bit_begin % 8);
    const unsigned width = static_cast<unsigned>(bit_end - bit_begin);
    const std::uint8_t mask =
        static_cast<std::uint8_t>(((1u << width) - 1u) << lo);
    return static_cast<std::size_t>(
        std::popcount(static_cast<std::uint8_t>(data[byte] & mask)));
  }
  if (bit_begin % 8 != 0) {
    const unsigned lo = static_cast<unsigned>(bit_begin % 8);
    count += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint8_t>(data[byte] >> lo)));
    ++byte;
  }
  for (; byte < last_byte; ++byte) {
    count += static_cast<std::size_t>(std::popcount(data[byte]));
  }
  const unsigned tail = static_cast<unsigned>((bit_end - 1) % 8 + 1);
  const std::uint8_t tail_mask =
      tail == 8 ? 0xffu : static_cast<std::uint8_t>((1u << tail) - 1u);
  count += static_cast<std::size_t>(
      std::popcount(static_cast<std::uint8_t>(data[last_byte] & tail_mask)));
  return count;
}

/// u64-chunk popcount (8 bytes per POPCNT instead of 1).
static inline std::size_t count_ones_wide(const std::uint8_t* data,
                                          std::size_t size_bytes,
                                          std::size_t bit_begin,
                                          std::size_t bit_end) {
  if (bit_end <= bit_begin) return 0;
  check_count_ones_range(size_bytes, bit_end);
  std::size_t byte = bit_begin / 8;
  const std::size_t last_byte = (bit_end - 1) / 8;
  if (byte == last_byte) {
    return count_ones_scalar(data, size_bytes, bit_begin, bit_end);
  }
  std::size_t count = 0;
  if (bit_begin % 8 != 0) {
    const unsigned lo = static_cast<unsigned>(bit_begin % 8);
    count += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint8_t>(data[byte] >> lo)));
    ++byte;
  }
  while (byte + 8 <= last_byte) {
    std::uint64_t w;
    std::memcpy(&w, data + byte, sizeof w);
    count += static_cast<std::size_t>(std::popcount(w));
    byte += 8;
  }
  for (; byte < last_byte; ++byte) {
    count += static_cast<std::size_t>(std::popcount(data[byte]));
  }
  const unsigned tail = static_cast<unsigned>((bit_end - 1) % 8 + 1);
  const std::uint8_t tail_mask =
      tail == 8 ? 0xffu : static_cast<std::uint8_t>((1u << tail) - 1u);
  count += static_cast<std::size_t>(
      std::popcount(static_cast<std::uint8_t>(data[last_byte] & tail_mask)));
  return count;
}

/// Reference decoder span: BitReader cursors, one point at a time. Matches
/// the pre-arch decode loop statement for statement.
static inline void decode_span_scalar(const DecodeSpan& sp) {
  util::BitReader zeta(sp.zeta, sp.zeta_size, sp.i0);
  util::BitReader idx(sp.indices, sp.indices_size, sp.index_bit_offset);
  std::size_t exact_pos = sp.exact_pos;
  for (std::size_t j = sp.i0; j < sp.i1; ++j) {
    if (!zeta.get_bit()) {
      sp.out[j] = sp.exact[exact_pos++];
      continue;
    }
    const std::uint32_t i = idx.get(sp.index_bits);
    if (i == 0) {
      sp.out[j] = sp.previous[j];  // |ΔD| < E: carry the previous value
    } else {
      NUMARCK_EXPECT(i <= sp.center_count, "decode: index out of table");
      sp.out[j] = sp.previous[j] * (1.0 + sp.centers[i - 1]);
    }
  }
}

/// rANS state floor: states live in [kRansLow, 2^32). One 16-bit word per
/// renormalization, so decode refills at most once per symbol.
inline constexpr std::uint32_t kRansLow = 1u << 16;

/// One rANS decode step against `t`, refilling `lane` from its word stream
/// when the state drops below kRansLow. The division-free update is the
/// standard 32/16 rANS transform; every ISA variant must execute exactly
/// this sequence so states (and therefore throw behaviour) never diverge.
static inline std::uint32_t rans_step(const RansDecodeTable& t,
                                      RansLane& lane) {
  const std::uint32_t mask = (1u << t.scale_bits) - 1u;
  const std::uint32_t slot = lane.state & mask;
  const std::uint32_t s = t.slot_symbol[slot];
  lane.state =
      t.freq[s] * (lane.state >> t.scale_bits) + slot - t.cum[s];
  if (lane.state < kRansLow) {
    NUMARCK_EXPECT(lane.cur + 2 <= lane.end,
                   "rans: lane stream exhausted mid-renormalization");
    const std::uint32_t w = static_cast<std::uint32_t>(lane.cur[0]) |
                            (static_cast<std::uint32_t>(lane.cur[1]) << 8);
    lane.cur += 2;
    lane.state = (lane.state << 16) | w;
  }
  return s;
}

/// Reference interleaved decoder: strict round-robin, one symbol at a time.
static inline void rans_decode_scalar(const RansDecodeTable& t,
                                      RansLane* lanes, unsigned ways,
                                      std::uint32_t* out, std::size_t count) {
  NUMARCK_EXPECT(ways >= 1 && ways <= 4, "rans: ways must be in [1,4]");
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = rans_step(t, lanes[i % ways]);
  }
}

/// Multi-way decoder: lane states live in locals across the unrolled body,
/// so the `ways` dependency chains retire in parallel (the rANS transform
/// is integer-serial per lane; interleaving is where the speedup comes
/// from). Bit-identical to rans_decode_scalar by construction — same
/// per-lane step in the same round-robin order.
static inline void rans_decode_interleaved(const RansDecodeTable& t,
                                           RansLane* lanes, unsigned ways,
                                           std::uint32_t* out,
                                           std::size_t count) {
  NUMARCK_EXPECT(ways >= 1 && ways <= 4, "rans: ways must be in [1,4]");
  if (ways == 4) {
    RansLane l0 = lanes[0], l1 = lanes[1], l2 = lanes[2], l3 = lanes[3];
    std::size_t i = 0;
    try {
      for (; i + 4 <= count; i += 4) {
        out[i + 0] = rans_step(t, l0);
        out[i + 1] = rans_step(t, l1);
        out[i + 2] = rans_step(t, l2);
        out[i + 3] = rans_step(t, l3);
      }
    } catch (...) {
      // Keep the lanes' committed progress observable (the caller's
      // post-decode invariant checks never see these on the throw path,
      // but the in-place-update contract should not silently drop work).
      lanes[0] = l0;
      lanes[1] = l1;
      lanes[2] = l2;
      lanes[3] = l3;
      throw;
    }
    lanes[0] = l0;
    lanes[1] = l1;
    lanes[2] = l2;
    lanes[3] = l3;
    for (; i < count; ++i) out[i] = rans_step(t, lanes[i % 4]);
    return;
  }
  if (ways == 2) {
    RansLane l0 = lanes[0], l1 = lanes[1];
    std::size_t i = 0;
    try {
      for (; i + 2 <= count; i += 2) {
        out[i + 0] = rans_step(t, l0);
        out[i + 1] = rans_step(t, l1);
      }
    } catch (...) {
      lanes[0] = l0;
      lanes[1] = l1;
      throw;
    }
    lanes[0] = l0;
    lanes[1] = l1;
    for (; i < count; ++i) out[i] = rans_step(t, lanes[i % 2]);
    return;
  }
  rans_decode_scalar(t, lanes, ways, out, count);
}

static inline unsigned leading_zero_bytes(std::uint64_t x) {
  if (x == 0) return 8;
  return static_cast<unsigned>(std::countl_zero(x)) / 8;
}

/// FPC's 3-bit leading-zero-byte code: {0,1,2,3,5,6,7,8} are representable;
/// an actual count of 4 is demoted to 3 (one extra residual byte), as in the
/// original encoder. Must stay in sync with code_to_lzb in
/// src/lossless/fpc.cpp.
static inline unsigned lzb_to_code(unsigned lzb) {
  if (lzb == 4) return 3;
  return lzb <= 3 ? lzb : lzb - 1;
}

static inline void fpc_xor_lzc_scalar(const std::uint64_t* values,
                                      const std::uint64_t* pred_fcm,
                                      const std::uint64_t* pred_dfcm,
                                      std::size_t n, std::uint64_t* xr,
                                      std::uint8_t* nibble) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x_fcm = values[i] ^ pred_fcm[i];
    const std::uint64_t x_dfcm = values[i] ^ pred_dfcm[i];
    const bool use_dfcm =
        leading_zero_bytes(x_dfcm) > leading_zero_bytes(x_fcm);
    const std::uint64_t x = use_dfcm ? x_dfcm : x_fcm;
    xr[i] = x;
    const unsigned code = lzb_to_code(leading_zero_bytes(x));
    nibble[i] =
        static_cast<std::uint8_t>((use_dfcm ? 1u : 0u) | (code << 1));
  }
}

}  // namespace detail
}  // namespace numarck::arch
