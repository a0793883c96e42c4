#include "numarck/lossless/fpc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "numarck/arch/arch.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::lossless {

namespace {

constexpr std::uint32_t kMagic = 0x46504331u;  // "FPC1"

/// Predictor pair with the hash-update constants from the FPC paper.
class Predictors {
 public:
  explicit Predictors(unsigned table_log2)
      : mask_((1ull << table_log2) - 1),
        fcm_(mask_ + 1, 0),
        dfcm_(mask_ + 1, 0) {}

  [[nodiscard]] std::uint64_t predict_fcm() const { return fcm_[fcm_hash_]; }
  [[nodiscard]] std::uint64_t predict_dfcm() const {
    return dfcm_[dfcm_hash_] + last_;
  }

  /// Advances both predictor states with the true value (must be called with
  /// the identical sequence on compressor and decompressor).
  void update(std::uint64_t v) {
    fcm_[fcm_hash_] = v;
    fcm_hash_ = ((fcm_hash_ << 6) ^ (v >> 48)) & mask_;
    const std::uint64_t delta = v - last_;
    dfcm_[dfcm_hash_] = delta;
    dfcm_hash_ = ((dfcm_hash_ << 2) ^ (delta >> 40)) & mask_;
    last_ = v;
  }

 private:
  std::uint64_t mask_;
  std::vector<std::uint64_t> fcm_;
  std::vector<std::uint64_t> dfcm_;
  std::uint64_t fcm_hash_ = 0;
  std::uint64_t dfcm_hash_ = 0;
  std::uint64_t last_ = 0;
};

/// Inverse of the arch kernels' lzb_to_code: FPC's 3-bit code maps to
/// {0,1,2,3,5,6,7,8} leading zero bytes (4 is not representable).
unsigned code_to_lzb(unsigned code) { return code <= 3 ? code : code + 1; }

/// Values per compress block: the five scratch arrays stay L1-resident.
constexpr std::size_t kFpcBlock = 256;

}  // namespace

std::vector<std::uint8_t> fpc_compress(std::span<const double> values,
                                       const FpcOptions& opts) {
  NUMARCK_EXPECT(opts.table_log2 >= 4 && opts.table_log2 <= 24,
                 "fpc table_log2 out of [4,24]");
  Predictors pred(opts.table_log2);
  numarck::util::BitWriter header;
  std::vector<std::uint8_t> residual;
  residual.reserve(values.size() * 4);
  const auto& kernels = numarck::arch::active();

  // Blocked three-stage loop. The predictor tables advance on every true
  // value, so predictions must be drawn serially — but once both predictions
  // per value are materialized, selecting the better residual (XOR +
  // leading-zero-byte count) is data-parallel and runs through the wide
  // kernel. The emitted header nibble is put(use_dfcm,1) + put(code,3)
  // LSB-first, i.e. exactly the kernel's use_dfcm | code << 1.
  std::uint64_t vbuf[kFpcBlock];
  std::uint64_t pf[kFpcBlock];
  std::uint64_t pd[kFpcBlock];
  std::uint64_t xr[kFpcBlock];
  std::uint8_t nib[kFpcBlock];
  for (std::size_t base = 0; base < values.size(); base += kFpcBlock) {
    const std::size_t m = std::min(kFpcBlock, values.size() - base);
    for (std::size_t i = 0; i < m; ++i) {
      std::uint64_t v;
      std::memcpy(&v, &values[base + i], sizeof v);
      vbuf[i] = v;
      pf[i] = pred.predict_fcm();
      pd[i] = pred.predict_dfcm();
      pred.update(v);
    }
    kernels.fpc_xor_lzc(vbuf, pf, pd, m, xr, nib);
    for (std::size_t i = 0; i < m; ++i) {
      header.put(nib[i], 4);
      const unsigned stored_bytes = 8 - code_to_lzb((nib[i] >> 1) & 7u);
      std::uint64_t rest = xr[i];
      for (unsigned b = 0; b < stored_bytes; ++b) {
        residual.push_back(static_cast<std::uint8_t>(rest & 0xffu));
        rest >>= 8;
      }
    }
  }

  numarck::util::ByteWriter out;
  out.put_u32(kMagic);
  out.put_u8(static_cast<std::uint8_t>(opts.table_log2));
  out.put_varint(values.size());
  const auto hdr = header.finish();
  out.put_varint(hdr.size());
  out.put_bytes(hdr.data(), hdr.size());
  out.put_varint(residual.size());
  out.put_bytes(residual.data(), residual.size());
  return out.take();
}

namespace {

/// The parsed stream header. `header` holds 4 bits per value; `residual` the
/// low-order residual bytes they describe.
struct FpcStream {
  unsigned table_log2 = 0;
  std::size_t count = 0;
  std::span<const std::uint8_t> header;
  std::span<const std::uint8_t> residual;
};

/// Parses the header fields (magic, table size, value count) and checks the
/// two regions lie inside the stream. Every value owns a 4-bit header entry,
/// so a forged count larger than the header can describe is rejected here,
/// before anything is sized from it.
FpcStream read_stream(std::span<const std::uint8_t> stream) {
  numarck::util::ByteReader in(stream);
  NUMARCK_EXPECT(in.get_u32() == kMagic, "fpc: bad magic");
  FpcStream s;
  s.table_log2 = in.get_u8();
  NUMARCK_EXPECT(s.table_log2 >= 4 && s.table_log2 <= 24,
                 "fpc: bad table size");
  s.count = in.get_varint();
  const std::size_t hdr_size = in.get_varint();
  NUMARCK_EXPECT(hdr_size <= in.remaining(), "fpc: truncated header");
  NUMARCK_EXPECT(s.count <= hdr_size * 2, "fpc: count exceeds header capacity");
  s.header = stream.subspan(in.position(), hdr_size);
  in.skip(hdr_size);
  const std::size_t res_size = in.get_varint();
  NUMARCK_EXPECT(res_size <= in.remaining(), "fpc: truncated residual");
  s.residual = stream.subspan(in.position(), res_size);
  return s;
}

}  // namespace

std::vector<double> fpc_decompress(std::span<const std::uint8_t> stream) {
  const FpcStream s = read_stream(stream);
  numarck::util::BitReader header(s.header.data(), s.header.size());
  const std::uint8_t* res = s.residual.data();
  const std::size_t res_size = s.residual.size();
  std::size_t res_pos = 0;

  Predictors pred(s.table_log2);
  std::vector<double> out;
  out.reserve(s.count);
  for (std::size_t i = 0; i < s.count; ++i) {
    const bool use_dfcm = header.get_bit();
    const unsigned code = header.get(3);
    const unsigned stored_bytes = 8 - code_to_lzb(code);
    std::uint64_t xr = 0;
    NUMARCK_EXPECT(res_pos + stored_bytes <= res_size, "fpc: residual overrun");
    for (unsigned b = 0; b < stored_bytes; ++b) {
      xr |= static_cast<std::uint64_t>(res[res_pos++]) << (8 * b);
    }
    const std::uint64_t p = use_dfcm ? pred.predict_dfcm() : pred.predict_fcm();
    const std::uint64_t v = xr ^ p;
    pred.update(v);
    double d;
    std::memcpy(&d, &v, sizeof d);
    out.push_back(d);
  }
  return out;
}

std::size_t fpc_count(std::span<const std::uint8_t> stream) {
  return read_stream(stream).count;
}

std::size_t fpc_validate(std::span<const std::uint8_t> stream) {
  const FpcStream s = read_stream(stream);
  numarck::util::BitReader header(s.header.data(), s.header.size());
  std::size_t res_needed = 0;
  for (std::size_t i = 0; i < s.count; ++i) {
    static_cast<void>(header.get(1));  // predictor selector
    res_needed += 8 - code_to_lzb(header.get(3));
  }
  NUMARCK_EXPECT(res_needed <= s.residual.size(), "fpc: residual overrun");
  return s.count;
}

}  // namespace numarck::lossless
