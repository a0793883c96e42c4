// AVX-512 kernel table (compiled with F/BW/CD/DQ/VL — the Skylake-X common
// subset; no VPOPCNTDQ).
//
// Starts from the AVX2 table and overrides only the three slots where an
// 8-lane body beat AVX2 (docs/TUNING.md): 8-lane unpack, 8-lane masked
// gather in decode, and VPLZCNTQ-based FPC selection. Same bit-identity
// contract as every other table: IEEE-exact ops only, scalar accumulation
// order, no FMA.
#include <immintrin.h>

#include "kernels_common.hpp"

namespace numarck::arch {
namespace {

void unpack_avx512(const std::uint8_t* bytes, std::size_t size_bytes,
                   std::size_t bit_offset, unsigned width, std::uint32_t* out,
                   std::size_t count) {
  detail::check_unpack_range(size_bytes, bit_offset, width, count);
  const std::uint64_t mask =
      width == 32 ? 0xffffffffull : ((1ull << width) - 1);
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i vstep = _mm512_set1_epi64(static_cast<long long>(8) * width);
  const __m512i v7 = _mm512_set1_epi64(7);
  const long long w = width;
  __m512i vq = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(bit_offset)),
      _mm512_set_epi64(7 * w, 6 * w, 5 * w, 4 * w, 3 * w, 2 * w, w, 0));
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const std::size_t last_q = bit_offset + (i + 7) * width;
    if ((last_q >> 3) + 8 > size_bytes) break;
    const __m512i voff = _mm512_srli_epi64(vq, 3);
    const __m512i vsh = _mm512_and_si512(vq, v7);
    const __m512i loaded = _mm512_i64gather_epi64(voff, bytes, 1);
    const __m512i v =
        _mm512_and_si512(_mm512_srlv_epi64(loaded, vsh), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(v));
    vq = _mm512_add_epi64(vq, vstep);
  }
  for (; i < count; ++i) {
    out[i] = detail::read_bits_at(bytes, size_bytes, bit_offset + i * width,
                                  width, mask);
  }
}

void decode_span_avx512(const DecodeSpan& sp) {
  const unsigned B = sp.index_bits;
  const std::uint64_t mask = B == 32 ? 0xffffffffull : ((1ull << B) - 1);
  std::size_t exact_pos = sp.exact_pos;
  std::size_t index_bit = sp.index_bit_offset;
  static const double kNoCenters = 0.0;
  const double* cbase = sp.center_count != 0 ? sp.centers : &kNoCenters;
  const __m512d vone = _mm512_set1_pd(1.0);
  const __m256i izero = _mm256_setzero_si256();
  const __m256i ione = _mm256_set1_epi32(1);

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
    // 8 compressible points: one masked 8-lane gather; index-0 lanes carry
    // `previous` through the blend (bit-exact, NaN payloads included).
    alignas(32) std::uint32_t idx[8];
    std::uint32_t mx = 0;
    for (unsigned k = 0; k < 8; ++k) {
      idx[k] = detail::read_bits_at(sp.indices, sp.indices_size, index_bit, B,
                                    mask);
      index_bit += B;
      mx = std::max(mx, idx[k]);
    }
    NUMARCK_EXPECT(mx <= sp.center_count, "decode: index out of table");
    const __m256i vi = _mm256_load_si256(reinterpret_cast<__m256i*>(idx));
    const __mmask8 nonzero = _mm256_cmp_epi32_mask(vi, izero, _MM_CMPINT_NE);
    const __m256i im1 = _mm256_sub_epi32(vi, ione);
    const __m512d g = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), nonzero,
                                               im1, cbase, 8);
    const __m512d pv = _mm512_loadu_pd(sp.previous + j);
    const __m512d res = _mm512_mul_pd(pv, _mm512_add_pd(vone, g));
    _mm512_storeu_pd(sp.out + j, _mm512_mask_blend_pd(nonzero, pv, res));
  }
  decode_run(j, sp.i1);
}

void fpc_xor_lzc_avx512(const std::uint64_t* values,
                        const std::uint64_t* pred_fcm,
                        const std::uint64_t* pred_dfcm, std::size_t n,
                        std::uint64_t* xr, std::uint8_t* nibble) {
  alignas(64) std::uint64_t xbuf[8];
  alignas(64) std::uint64_t lbuf[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(values + i));
    const __m512i xf = _mm512_xor_si512(
        v, _mm512_loadu_si512(reinterpret_cast<const void*>(pred_fcm + i)));
    const __m512i xd = _mm512_xor_si512(
        v, _mm512_loadu_si512(reinterpret_cast<const void*>(pred_dfcm + i)));
    // VPLZCNTQ counts leading zero bits (64 for a zero lane); >>3 gives
    // leading zero bytes, exactly leading_zero_bytes().
    const __m512i lf = _mm512_srli_epi64(_mm512_lzcnt_epi64(xf), 3);
    const __m512i ld = _mm512_srli_epi64(_mm512_lzcnt_epi64(xd), 3);
    const __mmask8 use_dfcm = _mm512_cmpgt_epu64_mask(ld, lf);
    _mm512_store_si512(xbuf, _mm512_mask_blend_epi64(use_dfcm, xf, xd));
    _mm512_store_si512(lbuf, _mm512_mask_blend_epi64(use_dfcm, lf, ld));
    for (unsigned k = 0; k < 8; ++k) {
      xr[i + k] = xbuf[k];
      const unsigned code =
          detail::lzb_to_code(static_cast<unsigned>(lbuf[k]));
      nibble[i + k] = static_cast<std::uint8_t>(
          (((use_dfcm >> k) & 1u) ? 1u : 0u) | (code << 1));
    }
  }
  if (i < n) {
    detail::fpc_xor_lzc_scalar(values + i, pred_fcm + i, pred_dfcm + i,
                               n - i, xr + i, nibble + i);
  }
}

}  // namespace

const Kernels* avx512_kernel_table() noexcept {
  static const Kernels k = [] {
    Kernels t = *avx2_kernel_table();
    t.level = Level::kAvx512;
    t.decode_span = &decode_span_avx512;
    t.unpack = &unpack_avx512;
    t.fpc_xor_lzc = &fpc_xor_lzc_avx512;
    return t;
  }();
  return &k;
}

}  // namespace numarck::arch
