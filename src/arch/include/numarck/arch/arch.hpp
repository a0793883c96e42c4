// numarck_arch — runtime-dispatched SIMD kernels for the codec hot path.
//
// The per-point loops that bound single-core throughput (classify, change
// ratios, decode reconstruction, bit unpack / popcount, FPC's XOR+LZC, rANS
// decode) are exposed here as C-style function pointers. A cpuid probe at
// first use selects the widest table the machine supports (scalar / AVX2 /
// AVX-512), overridable with NUMARCK_ARCH=scalar|avx2|avx512 for testing and
// CI. Other targets (aarch64 included) run the scalar table.
//
// A wider table replaces a slot only where its kernel won a measurement
// (docs/TUNING.md "SIMD dispatch" names each one); every other slot
// inherits the narrower table's function. classify has no SIMD variant.
//
// The dispatcher is a pure speed knob: every implementation of a kernel is
// REQUIRED to produce bit-identical output (labels, stats, decoded values,
// unpacked indices, FPC codes) to the scalar reference on any input. All
// floating-point work sticks to IEEE-exact operations (+, -, *, /, abs,
// ordered compares) in the same per-element order as the scalar loop, and
// never introduces FMA contraction, so lane values cannot drift. The ISA
// sweep tests (tests/arch_test.cpp) and fuzz_bitpack enforce this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace numarck::arch {

/// Dispatch levels, ordered from narrowest to widest.
enum class Level : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* to_string(Level level) noexcept;

/// Parses a NUMARCK_ARCH value ("scalar" | "avx2" | "avx512"). Returns false
/// (out untouched) on any other name.
bool parse_level(std::string_view name, Level& out) noexcept;

/// Per-point labels shared with the encoder's classify pass. Index values
/// occupy [0, 2^16 - 1], so the markers can never collide with a real index.
inline constexpr std::uint32_t kLabelExact = 0xFFFFFFFFu;
inline constexpr std::uint32_t kLabelNeedsBin = 0xFFFFFFFEu;

/// Partial classification stats for one span; field semantics match
/// core::IterationStats. err_sum is accumulated in point order, so it is
/// bit-identical for a fixed span decomposition.
struct ClassifySpanStats {
  std::size_t small = 0;
  std::size_t below = 0;
  std::size_t undefined = 0;
  std::size_t needs_bin = 0;
  double err_sum = 0.0;
  double err_max = 0.0;
};

/// Pass-A1 classification over one span: labels[j] becomes 0 (small-value or
/// below-threshold), kLabelExact (zero previous / non-finite ratio) or
/// kLabelNeedsBin. `small_threshold` <= 0 disables the small-value rule.
using ClassifyFn = ClassifySpanStats (*)(const double* previous,
                                         const double* current,
                                         std::uint32_t* labels, std::size_t n,
                                         double error_bound,
                                         double small_threshold);

/// Eq. 1 for a span: ratios[j] = (current[j] - previous[j]) / previous[j],
/// with a masked divisor so previous[j] == 0 lanes divide by 1.0 instead of
/// raising FE_DIVBYZERO (callers only consume lanes whose ratio is defined).
using ChangeRatiosFn = void (*)(const double* previous, const double* current,
                                double* ratios, std::size_t n);

/// One decoder span (the per-chunk loop of core::decode_iteration). All
/// bounds except the per-index center check are pre-validated by the caller;
/// implementations must still throw ContractViolation on an index larger
/// than center_count, exactly like the scalar reference.
struct DecodeSpan {
  const double* previous = nullptr;
  double* out = nullptr;
  std::size_t i0 = 0;  ///< first point (global index)
  std::size_t i1 = 0;  ///< one past the last point
  const std::uint8_t* zeta = nullptr;
  std::size_t zeta_size = 0;
  const std::uint8_t* indices = nullptr;
  std::size_t indices_size = 0;
  std::size_t index_bit_offset = 0;  ///< absolute bit of this span's 1st index
  const double* centers = nullptr;
  std::size_t center_count = 0;
  const double* exact = nullptr;
  std::size_t exact_size = 0;
  std::size_t exact_pos = 0;  ///< this span's first exact-value cursor
  unsigned index_bits = 8;
};

using DecodeSpanFn = void (*)(const DecodeSpan& span);

/// Bulk LSB-first unpack of `count` width-bit values starting at an absolute
/// bit offset. Throws ContractViolation when the requested range does not
/// fit in the stream or width is outside [1, 32] — same contract as
/// util::BitReader, checked up front so wide loads never touch bytes past
/// size_bytes.
using UnpackFn = void (*)(const std::uint8_t* bytes, std::size_t size_bytes,
                          std::size_t bit_offset, unsigned width,
                          std::uint32_t* out, std::size_t count);

/// Population count over the bit range [bit_begin, bit_end) of an LSB-first
/// stream (the decoder's ζ cursor recovery).
using CountOnesFn = std::size_t (*)(const std::uint8_t* data,
                                    std::size_t size_bytes,
                                    std::size_t bit_begin, std::size_t bit_end);

/// rANS decode table (docs/FORMAT.md §9), built and fully validated by
/// lossless::rans_decode before any kernel call: slot_symbol maps each of
/// the 1 << scale_bits slots to its symbol; freq/cum are per symbol, with
/// cum[s] <= slot < cum[s] + freq[s] for every slot mapped to s.
struct RansDecodeTable {
  const std::uint16_t* slot_symbol = nullptr;  ///< 1 << scale_bits entries
  const std::uint32_t* freq = nullptr;         ///< per symbol
  const std::uint32_t* cum = nullptr;          ///< per symbol
  unsigned scale_bits = 12;                    ///< table is 2^scale_bits slots
};

/// One rANS interleave lane: a 32-bit state plus a forward byte cursor over
/// the lane's 16-bit little-endian renormalization words.
struct RansLane {
  std::uint32_t state = 0;
  const std::uint8_t* cur = nullptr;
  const std::uint8_t* end = nullptr;
};

/// Decodes `count` symbols round-robin from `ways` interleaved lanes
/// (symbol i comes from lane i % ways; 1 <= ways <= 4), updating lane
/// states and cursors in place. Implementations must throw
/// ContractViolation when a lane's renormalization words run out before
/// `count` symbols are produced — same end-of-stream contract as
/// util::BitReader — and must agree with the scalar reference bit for bit,
/// including on WHETHER they threw (fuzz_rans enforces this).
using RansDecodeFn = void (*)(const RansDecodeTable& table, RansLane* lanes,
                              unsigned ways, std::uint32_t* out,
                              std::size_t count);

/// FPC selection stage for a block: xr[i] is the chosen predictor residual
/// and nibble[i] the 4-bit header entry (bit 0 = use_dfcm, bits 1..3 = the
/// 3-bit leading-zero-byte code), given the true values and both
/// predictions. Bit-exact across ISAs (pure integer work).
using FpcXorLzcFn = void (*)(const std::uint64_t* values,
                             const std::uint64_t* pred_fcm,
                             const std::uint64_t* pred_dfcm, std::size_t n,
                             std::uint64_t* xr, std::uint8_t* nibble);

/// One kernel table per dispatch level.
struct Kernels {
  Level level = Level::kScalar;
  ClassifyFn classify = nullptr;
  ChangeRatiosFn change_ratios = nullptr;
  DecodeSpanFn decode_span = nullptr;
  UnpackFn unpack = nullptr;
  CountOnesFn count_ones = nullptr;
  FpcXorLzcFn fpc_xor_lzc = nullptr;
  RansDecodeFn rans_decode = nullptr;
};

/// Widest level this CPU supports (cpuid probe; cached).
Level detect_best() noexcept;

/// True when `level`'s kernel table can run on this CPU and was compiled in.
bool level_supported(Level level) noexcept;

/// Every supported level, narrowest first (always starts with kScalar).
/// This is what the ISA-sweep tests and BENCH_simd.json iterate.
std::vector<Level> available_levels();

/// The active kernel table. Selected on first use: the NUMARCK_ARCH
/// environment variable if set (unsupported or unknown values fall back to
/// detection with a warning on stderr), else detect_best().
const Kernels& active() noexcept;

Level active_level() noexcept;

/// Replaces the active table (tests and benchmarks sweeping ISAs). Throws
/// ContractViolation when the level is not supported on this machine. Not
/// safe to call concurrently with in-flight encode/decode work.
void force_level(Level level);

/// One-line summary for logs and bench JSONs, e.g.
/// "arch: active=avx2 detected=avx512 available=scalar,avx2,avx512
///  override=avx2 (NUMARCK_ARCH) kernels=classify,change_ratios,...".
std::string describe();

}  // namespace numarck::arch
