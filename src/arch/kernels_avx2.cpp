// AVX2 kernel table (compiled with -mavx2).
//
// Starts from the scalar table and overrides five slots: 4-lane change
// ratios, gathered centroid reconstruction in decode, gathered 4-lane
// unpack, u64 popcount, and interleaved rANS decode. classify and
// fpc_xor_lzc stay scalar — no AVX2 version beat them.
// Floating-point lanes use only IEEE-exact ops (sub/div/mul/add/ordered
// compares) in the scalar loop's per-element order, and multiplication is
// spelled mul(prev, add(1, center)) — never an FMA — so results are
// bit-identical to the scalar table.
#include <immintrin.h>

#include "kernels_common.hpp"

namespace numarck::arch {
namespace {

void change_ratios_avx2(const double* previous, const double* current,
                        double* ratios, std::size_t n) {
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vone = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d p = _mm256_loadu_pd(previous + j);
    const __m256d c = _mm256_loadu_pd(current + j);
    const __m256d denom =
        _mm256_blendv_pd(p, vone, _mm256_cmp_pd(p, vzero, _CMP_EQ_OQ));
    _mm256_storeu_pd(ratios + j, _mm256_div_pd(_mm256_sub_pd(c, p), denom));
  }
  if (j < n) {
    detail::change_ratios_scalar(previous + j, current + j, ratios + j,
                                 n - j);
  }
}

void unpack_avx2(const std::uint8_t* bytes, std::size_t size_bytes,
                 std::size_t bit_offset, unsigned width, std::uint32_t* out,
                 std::size_t count) {
  detail::check_unpack_range(size_bytes, bit_offset, width, count);
  const std::uint64_t mask =
      width == 32 ? 0xffffffffull : ((1ull << width) - 1);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vstep = _mm256_set1_epi64x(static_cast<long long>(4) * width);
  const __m256i v7 = _mm256_set1_epi64x(7);
  // Lane bit positions bit_offset + {0,1,2,3}·width, advanced 4·width per
  // iteration; each lane gathers the u64 that starts at its byte.
  __m256i vq = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(bit_offset)),
      _mm256_set_epi64x(static_cast<long long>(3) * width,
                        static_cast<long long>(2) * width, width, 0));
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Lane 3 has the highest bit position; once its u64 load would run past
    // the buffer, fall back to the per-value tail for the rest.
    const std::size_t last_q = bit_offset + (i + 3) * width;
    if ((last_q >> 3) + 8 > size_bytes) break;
    const __m256i voff = _mm256_srli_epi64(vq, 3);
    const __m256i vsh = _mm256_and_si256(vq, v7);
    const __m256i w = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(bytes), voff, 1);
    const __m256i v =
        _mm256_and_si256(_mm256_srlv_epi64(w, vsh), vmask);
    // Four u64 lanes carrying u32 values -> one 128-bit store.
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i packed = _mm_castps_si128(
        _mm_shuffle_ps(_mm_castsi128_ps(lo), _mm_castsi128_ps(hi),
                       _MM_SHUFFLE(2, 0, 2, 0)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
    vq = _mm256_add_epi64(vq, vstep);
  }
  for (; i < count; ++i) {
    out[i] = detail::read_bits_at(bytes, size_bytes, bit_offset + i * width,
                                  width, mask);
  }
}

void decode_span_avx2(const DecodeSpan& sp) {
  const unsigned B = sp.index_bits;
  const std::uint64_t mask = B == 32 ? 0xffffffffull : ((1ull << B) - 1);
  std::size_t exact_pos = sp.exact_pos;
  std::size_t index_bit = sp.index_bit_offset;
  // All-masked gathers never touch memory, but hand them a real address
  // anyway for the centers-empty case (every index is then 0 or the batch
  // already threw).
  static const double kNoCenters = 0.0;
  const double* cbase = sp.center_count != 0 ? sp.centers : &kNoCenters;
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m128i izero = _mm_setzero_si128();
  const __m128i ione = _mm_set1_epi32(1);

  const auto decode_run = [&](std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) {
      if (((sp.zeta[j >> 3] >> (j & 7)) & 1u) == 0) {
        sp.out[j] = sp.exact[exact_pos++];
        continue;
      }
      const std::uint32_t i =
          detail::read_bits_at(sp.indices, sp.indices_size, index_bit, B,
                               mask);
      index_bit += B;
      if (i == 0) {
        sp.out[j] = sp.previous[j];
      } else {
        NUMARCK_EXPECT(i <= sp.center_count, "decode: index out of table");
        sp.out[j] = sp.previous[j] * (1.0 + sp.centers[i - 1]);
      }
    }
  };

  std::size_t j = sp.i0;
  const std::size_t head = std::min(sp.i1, (sp.i0 + 7) & ~std::size_t{7});
  decode_run(j, head);
  j = head;
  for (; j + 8 <= sp.i1; j += 8) {
    const std::uint8_t z = sp.zeta[j >> 3];
    if (z == 0x00) {  // 8 exact values in a row
      std::memcpy(sp.out + j, sp.exact + exact_pos, 8 * sizeof(double));
      exact_pos += 8;
      continue;
    }
    if (z != 0xFF) {  // mixed byte: per-bit path
      decode_run(j, j + 8);
      continue;
    }
    // 8 compressible points: bulk-read the indices, then reconstruct two
    // 4-lane halves with a masked gather (index-0 lanes never touch the
    // table and carry `previous` through a blend, preserving NaN payloads).
    alignas(32) std::uint32_t idx[8];
    std::uint32_t mx = 0;
    for (unsigned k = 0; k < 8; ++k) {
      idx[k] = detail::read_bits_at(sp.indices, sp.indices_size, index_bit, B,
                                    mask);
      index_bit += B;
      mx = std::max(mx, idx[k]);
    }
    NUMARCK_EXPECT(mx <= sp.center_count, "decode: index out of table");
    for (unsigned h = 0; h < 8; h += 4) {
      const __m128i vi =
          _mm_load_si128(reinterpret_cast<const __m128i*>(idx + h));
      const __m128i zero32 = _mm_cmpeq_epi32(vi, izero);
      const __m256i zero64 = _mm256_cvtepi32_epi64(zero32);
      const __m256d gather_mask = _mm256_castsi256_pd(
          _mm256_xor_si256(zero64, _mm256_set1_epi64x(-1)));
      const __m128i im1 = _mm_sub_epi32(vi, ione);
      const __m256d g = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), cbase,
                                                 im1, gather_mask, 8);
      const __m256d pv = _mm256_loadu_pd(sp.previous + j + h);
      const __m256d res = _mm256_mul_pd(pv, _mm256_add_pd(vone, g));
      const __m256d outv =
          _mm256_blendv_pd(res, pv, _mm256_castsi256_pd(zero64));
      _mm256_storeu_pd(sp.out + j + h, outv);
    }
  }
  decode_run(j, sp.i1);
}

}  // namespace

const Kernels* avx2_kernel_table() noexcept {
  static const Kernels k = [] {
    Kernels t = *scalar_kernel_table();
    t.level = Level::kAvx2;
    t.change_ratios = &change_ratios_avx2;
    t.decode_span = &decode_span_avx2;
    t.unpack = &unpack_avx2;
    t.count_ones = &detail::count_ones_scalar;  // this TU's POPCNT build
    t.rans_decode = &detail::rans_decode_interleaved;
    return t;
  }();
  return &k;
}

}  // namespace numarck::arch
