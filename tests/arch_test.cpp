// numarck_arch tests: dispatcher unit tests, per-kernel differential tests
// against the scalar reference on adversarial inputs, and the ISA sweep —
// encode/decode FLASH and CMIP5 fixtures under every dispatch level the host
// supports and assert byte-identical containers and identical stats. The
// dispatcher is documented as a pure speed knob; these tests are what make
// that claim enforceable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "harness_common.hpp"
#include "numarck/arch/arch.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace na = numarck::arch;
namespace nk = numarck::core;

namespace {

/// Restores the pre-test dispatch level no matter how the test exits, so a
/// failing sweep cannot leak a forced level into later tests.
class ScopedArch {
 public:
  ScopedArch() : saved_(na::active_level()) {}
  ~ScopedArch() { na::force_level(saved_); }
  ScopedArch(const ScopedArch&) = delete;
  ScopedArch& operator=(const ScopedArch&) = delete;

 private:
  na::Level saved_;
};

/// Snapshot of every supported kernel table (forcing each level once).
std::vector<std::pair<na::Level, na::Kernels>> all_tables() {
  ScopedArch guard;
  std::vector<std::pair<na::Level, na::Kernels>> tables;
  for (na::Level level : na::available_levels()) {
    na::force_level(level);
    tables.emplace_back(level, na::active());
  }
  return tables;
}

/// Exact-or-both-NaN comparison for lanes whose value is allowed to be NaN
/// (change_ratios on non-finite input). Everything else must be bitwise
/// equal, which EXPECT_EQ on doubles checks via ==; NaN != NaN would fail it.
bool same_double(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

/// Adversarial classify/change-ratio input: every label class, non-finite
/// values, denormals, and an odd length so every SIMD tail path runs.
void adversarial_snapshots(std::size_t n, std::vector<double>& prev,
                           std::vector<double>& curr) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  numarck::util::Pcg32 rng(0xA12C5);
  prev.resize(n);
  curr.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    switch (j % 13) {
      case 0: prev[j] = 0.0; curr[j] = rng.uniform(-2.0, 2.0); break;
      case 1: prev[j] = 1.0; curr[j] = inf; break;
      case 2: prev[j] = 1.0; curr[j] = nan; break;
      case 3: prev[j] = -inf; curr[j] = 1.0; break;
      case 4: prev[j] = 1e-310; curr[j] = 1e308; break;   // ratio overflows
      case 5: prev[j] = 5e-9; curr[j] = -3e-9; break;     // small-value rule
      case 6: prev[j] = 4.0; curr[j] = 4.0; break;        // zero ratio
      case 7: prev[j] = -0.0; curr[j] = 1.0; break;       // negative zero prev
      case 8: prev[j] = 1e-310; curr[j] = 2e-310; break;  // denormal pair
      default:
        prev[j] = rng.uniform(0.5, 5.0);
        curr[j] = prev[j] * (1.0 + rng.normal() * 0.05);
        break;
    }
  }
}

/// Base fixture for the tests that compare kernel tables with the scalar
/// reference. On a host whose only table is scalar they would compare scalar
/// with itself, so they report SKIP instead of a vacuous PASS.
class MultiLevelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (na::available_levels().size() < 2) {
      GTEST_SKIP() << "only the scalar kernel table runs on this host; "
                      "nothing to compare it with";
    }
  }
};

class ArchKernels : public MultiLevelTest {};
class ArchSweep : public MultiLevelTest {};

}  // namespace

// -------------------------------------------------------------- dispatch --

TEST(ArchDispatch, ToStringParseRoundTrip) {
  for (na::Level level :
       {na::Level::kScalar, na::Level::kAvx2, na::Level::kAvx512}) {
    na::Level parsed{};
    ASSERT_TRUE(na::parse_level(na::to_string(level), parsed))
        << na::to_string(level);
    EXPECT_EQ(parsed, level);
  }
}

TEST(ArchDispatch, ParseRejectsRemovedAndUnknownNames) {
  // Names with no table here (sse4*, neon) must fail loudly, not map to a
  // different table.
  for (const char* name :
       {"sse4", "sse4.2", "sse42", "neon", "pentium", "", "AVX2"}) {
    na::Level out = na::Level::kAvx512;
    EXPECT_FALSE(na::parse_level(name, out)) << name;
    EXPECT_EQ(out, na::Level::kAvx512) << name;  // untouched on failure
  }
}

TEST(ArchDispatch, AvailableLevelsStartWithScalarAndAreSupported) {
  const auto levels = na::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), na::Level::kScalar);
  for (na::Level level : levels) EXPECT_TRUE(na::level_supported(level));
  EXPECT_TRUE(na::level_supported(na::detect_best()));
  EXPECT_TRUE(na::level_supported(na::active_level()));
}

TEST(ArchDispatch, ForceLevelSwitchesTablesAndUnsupportedThrows) {
  ScopedArch guard;
  for (na::Level level :
       {na::Level::kScalar, na::Level::kAvx2, na::Level::kAvx512}) {
    if (na::level_supported(level)) {
      na::force_level(level);
      EXPECT_EQ(na::active_level(), level);
      EXPECT_EQ(na::active().level, level);
    } else {
      EXPECT_THROW(na::force_level(level), numarck::ContractViolation);
    }
  }
}

TEST(ArchDispatch, DescribeNamesActiveLevelAndKernels) {
  const std::string d = na::describe();
  EXPECT_NE(d.find("active="), std::string::npos) << d;
  EXPECT_NE(d.find(na::to_string(na::active_level())), std::string::npos) << d;
  EXPECT_NE(d.find("classify"), std::string::npos) << d;
}

// ------------------------------------------------- kernel differentials --

TEST_F(ArchKernels, ClassifyMatchesScalarOnAdversarialInput) {
  std::vector<double> prev, curr;
  adversarial_snapshots(1027, prev, curr);  // odd length: tail paths
  const auto tables = all_tables();
  const auto& ref = tables.front().second;
  for (double small : {0.0, 1e-7}) {
    std::vector<std::uint32_t> want(prev.size());
    const auto want_stats = ref.classify(prev.data(), curr.data(), want.data(),
                                         prev.size(), 0.01, small);
    for (const auto& [level, k] : tables) {
      // The library has one classify; every table must point at it.
      EXPECT_EQ(k.classify, ref.classify) << na::to_string(level);
      std::vector<std::uint32_t> got(prev.size(), 0xABABABABu);
      const auto stats = k.classify(prev.data(), curr.data(), got.data(),
                                    prev.size(), 0.01, small);
      EXPECT_EQ(got, want) << na::to_string(level) << " small=" << small;
      EXPECT_EQ(stats.small, want_stats.small) << na::to_string(level);
      EXPECT_EQ(stats.below, want_stats.below) << na::to_string(level);
      EXPECT_EQ(stats.undefined, want_stats.undefined) << na::to_string(level);
      EXPECT_EQ(stats.needs_bin, want_stats.needs_bin) << na::to_string(level);
      EXPECT_EQ(stats.err_sum, want_stats.err_sum) << na::to_string(level);
      EXPECT_EQ(stats.err_max, want_stats.err_max) << na::to_string(level);
    }
  }
}

TEST_F(ArchKernels, ChangeRatiosMatchScalarLaneForLane) {
  std::vector<double> prev, curr;
  adversarial_snapshots(517, prev, curr);
  const auto tables = all_tables();
  std::vector<double> want(prev.size());
  tables.front().second.change_ratios(prev.data(), curr.data(), want.data(),
                                      prev.size());
  for (const auto& [level, k] : tables) {
    std::vector<double> got(prev.size(), -42.0);
    k.change_ratios(prev.data(), curr.data(), got.data(), prev.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_TRUE(same_double(got[j], want[j]))
          << na::to_string(level) << " lane " << j << ": " << got[j]
          << " != " << want[j];
    }
  }
}

TEST_F(ArchKernels, UnpackMatchesScalarAtEveryOffsetAndWidth) {
  numarck::util::Pcg32 rng(0x0111);
  std::vector<std::uint8_t> bytes(257);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() & 0xffu);
  const auto tables = all_tables();
  for (unsigned width : {1u, 3u, 7u, 8u, 11u, 16u, 24u, 31u, 32u}) {
    for (std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
      // Largest count that fits, so the wide loop's near-end guard and the
      // per-byte tail both run.
      const std::size_t count = (bytes.size() * 8 - offset) / width;
      std::vector<std::uint32_t> want(count);
      tables.front().second.unpack(bytes.data(), bytes.size(), offset, width,
                                   want.data(), count);
      for (const auto& [level, k] : tables) {
        std::vector<std::uint32_t> got(count, 0xCCCCCCCCu);
        k.unpack(bytes.data(), bytes.size(), offset, width, got.data(), count);
        EXPECT_EQ(got, want)
            << na::to_string(level) << " W=" << width << " off=" << offset;
        // One value too many must throw for every level alike.
        std::vector<std::uint32_t> over(count + 1);
        EXPECT_THROW(k.unpack(bytes.data(), bytes.size(), offset, width,
                              over.data(), count + 1),
                     numarck::ContractViolation)
            << na::to_string(level);
      }
    }
  }
  for (const auto& [level, k] : tables) {
    std::uint32_t one = 0;
    EXPECT_THROW(k.unpack(bytes.data(), bytes.size(), 0, 0, &one, 1),
                 numarck::ContractViolation)
        << na::to_string(level);
    EXPECT_THROW(k.unpack(bytes.data(), bytes.size(), 0, 33, &one, 1),
                 numarck::ContractViolation)
        << na::to_string(level);
    k.unpack(bytes.data(), bytes.size(), 0, 8, &one, 0);  // count 0: no-op
  }
}

TEST_F(ArchKernels, CountOnesMatchesScalarOnUnalignedRanges) {
  numarck::util::Pcg32 rng(0xC0);
  std::vector<std::uint8_t> bytes(129);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() & 0xffu);
  const auto tables = all_tables();
  const std::size_t total = bytes.size() * 8;
  for (const auto& [level, k] : tables) {
    for (std::size_t begin : {std::size_t{0}, std::size_t{3}, std::size_t{64},
                              std::size_t{777}}) {
      for (std::size_t end : {begin, begin + 1, begin + 65, total}) {
        EXPECT_EQ(k.count_ones(bytes.data(), bytes.size(), begin, end),
                  tables.front().second.count_ones(bytes.data(), bytes.size(),
                                                   begin, end))
            << na::to_string(level) << " [" << begin << "," << end << ")";
      }
    }
  }
}

TEST_F(ArchKernels, DecodeSpanMatchesScalarIncludingUnalignedStart) {
  // Hand-built container slice: ζ mixes exact runs, compressible runs and
  // alternating bits, so every byte-dispatch case (0x00 / 0xFF / mixed) and
  // the unaligned head run.
  const std::size_t n = 203;
  const unsigned bits = 5;
  std::vector<double> centers;
  for (int c = 0; c < 30; ++c) centers.push_back(-0.3 + 0.02 * c);
  numarck::util::Pcg32 rng(0x5EC0DE);
  numarck::util::BitWriter zw;
  std::vector<std::uint32_t> labels(n);
  std::vector<std::uint32_t> comp_indices;
  std::vector<double> prev(n), exact;
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = rng.uniform(0.5, 5.0);
    const bool comp = (j / 16) % 3 != 0 ? true : (j % 2 == 0);
    zw.put_bit(comp);
    if (comp) {
      // 0 = below-threshold, 1..30 = center indices.
      labels[j] = static_cast<std::uint32_t>(rng.next() % (centers.size() + 1));
      comp_indices.push_back(labels[j]);
    } else {
      exact.push_back(rng.uniform(-1.0, 1.0));
    }
  }
  const auto zeta = zw.finish();
  numarck::util::BitWriter iw;
  for (std::uint32_t v : comp_indices) iw.put(v, bits);
  const auto indices = iw.finish();

  const auto tables = all_tables();
  for (std::size_t i0 : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                         std::size_t{190}}) {
    na::DecodeSpan span;
    span.previous = prev.data();
    span.i0 = i0;
    span.i1 = n;
    span.zeta = zeta.data();
    span.zeta_size = zeta.size();
    span.indices = indices.data();
    span.indices_size = indices.size();
    span.centers = centers.data();
    span.center_count = centers.size();
    span.exact = exact.data();
    span.exact_size = exact.size();
    span.index_bits = bits;
    const std::size_t comp_before = tables.front().second.count_ones(
        zeta.data(), zeta.size(), 0, i0);
    span.index_bit_offset = comp_before * bits;
    span.exact_pos = i0 - comp_before;

    std::vector<double> want(n, -7.0);
    span.out = want.data();
    tables.front().second.decode_span(span);
    for (const auto& [level, k] : tables) {
      std::vector<double> got(n, -9.0);
      span.out = got.data();
      k.decode_span(span);
      for (std::size_t j = i0; j < n; ++j) {
        EXPECT_TRUE(same_double(got[j], want[j]))
            << na::to_string(level) << " i0=" << i0 << " point " << j;
      }
    }
  }

  // An index beyond the center table must throw at every level.
  numarck::util::BitWriter bad;
  for (std::size_t j = 0; j < comp_indices.size(); ++j) {
    bad.put(static_cast<std::uint32_t>(centers.size() + 1), bits);
  }
  const auto bad_indices = bad.finish();
  for (const auto& [level, k] : tables) {
    na::DecodeSpan span;
    std::vector<double> out(n);
    span.previous = prev.data();
    span.out = out.data();
    span.i0 = 0;
    span.i1 = n;
    span.zeta = zeta.data();
    span.zeta_size = zeta.size();
    span.indices = bad_indices.data();
    span.indices_size = bad_indices.size();
    span.centers = centers.data();
    span.center_count = centers.size();
    span.exact = exact.data();
    span.exact_size = exact.size();
    span.index_bits = bits;
    EXPECT_THROW(k.decode_span(span), numarck::ContractViolation)
        << na::to_string(level);
  }
}

TEST_F(ArchKernels, FpcXorLzcMatchesScalar) {
  const std::size_t n = 101;
  numarck::util::Pcg32 rng(0xF9C);
  auto next64 = [&rng] {
    return (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
  };
  std::vector<std::uint64_t> values(n), pf(n), pd(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = next64();
    // Force every leading-zero-byte count 0..8, including the exact-predict
    // (xr == 0) case and the demoted lzb == 4 case.
    const unsigned keep = static_cast<unsigned>(i % 9);
    pf[i] = values[i] ^ (keep == 0 ? 0 : next64() >> (8 * (8 - keep)));
    pd[i] = next64();
  }
  const auto tables = all_tables();
  std::vector<std::uint64_t> want_xr(n);
  std::vector<std::uint8_t> want_nib(n);
  tables.front().second.fpc_xor_lzc(values.data(), pf.data(), pd.data(), n,
                                    want_xr.data(), want_nib.data());
  for (const auto& [level, k] : tables) {
    std::vector<std::uint64_t> xr(n, ~0ull);
    std::vector<std::uint8_t> nib(n, 0xAA);
    k.fpc_xor_lzc(values.data(), pf.data(), pd.data(), n, xr.data(),
                  nib.data());
    EXPECT_EQ(xr, want_xr) << na::to_string(level);
    EXPECT_EQ(nib, want_nib) << na::to_string(level);
  }
}

// ----------------------------------------------------------- ISA sweeps --

namespace {

void expect_same_encoding(const nk::EncodedIteration& got,
                          const nk::EncodedIteration& want,
                          const std::string& what) {
  EXPECT_EQ(got.zeta, want.zeta) << what;
  EXPECT_EQ(got.indices, want.indices) << what;
  EXPECT_EQ(got.exact_values, want.exact_values) << what;
  EXPECT_EQ(got.centers, want.centers) << what;
  EXPECT_EQ(got.stats.total_points, want.stats.total_points) << what;
  EXPECT_EQ(got.stats.below_threshold, want.stats.below_threshold) << what;
  EXPECT_EQ(got.stats.small_value, want.stats.small_value) << what;
  EXPECT_EQ(got.stats.binned, want.stats.binned) << what;
  EXPECT_EQ(got.stats.exact_undefined, want.stats.exact_undefined) << what;
  EXPECT_EQ(got.stats.exact_out_of_bound, want.stats.exact_out_of_bound)
      << what;
  EXPECT_EQ(got.stats.mean_ratio_error, want.stats.mean_ratio_error) << what;
  EXPECT_EQ(got.stats.max_ratio_error, want.stats.max_ratio_error) << what;
  EXPECT_EQ(got.serialize(), want.serialize()) << what;
}

/// Encodes and decodes prev -> curr under every available dispatch level and
/// asserts the containers and reconstructions are byte-identical to the
/// scalar reference, for each strategy x thread-count combination.
void sweep_levels(const std::vector<double>& prev,
                  const std::vector<double>& curr, const std::string& tag) {
  ScopedArch guard;
  for (auto s : {nk::Strategy::kEqualWidth, nk::Strategy::kLogScale,
                 nk::Strategy::kClustering}) {
    for (std::size_t threads : {1u, 4u}) {
      numarck::util::ThreadPool pool(threads);
      nk::Options opts;
      opts.strategy = s;
      opts.pool = &pool;

      na::force_level(na::Level::kScalar);
      const auto ref_enc = nk::encode_iteration(prev, curr, opts);
      const auto ref_dec = nk::decode_iteration(prev, ref_enc, &pool);

      for (na::Level level : na::available_levels()) {
        na::force_level(level);
        const std::string what = tag + " " + nk::to_string(s) + " arch=" +
                                 na::to_string(level) +
                                 " threads=" + std::to_string(threads);
        const auto enc = nk::encode_iteration(prev, curr, opts);
        expect_same_encoding(enc, ref_enc, what);
        const auto dec = nk::decode_iteration(prev, enc, &pool);
        EXPECT_EQ(dec, ref_dec) << what;
      }
    }
  }
}

}  // namespace

TEST_F(ArchSweep, FlashFixtureIsByteIdenticalAcrossLevels) {
  const auto series = numarck::bench::flash_series(2, {"dens", "pres"});
  for (const auto& [var, snaps] : series) {
    sweep_levels(snaps[0], snaps[1], "flash/" + var);
  }
}

TEST_F(ArchSweep, ClimateFixtureIsByteIdenticalAcrossLevels) {
  const auto snaps =
      numarck::bench::climate_series(numarck::sim::climate::Variable::kRlds, 2);
  sweep_levels(snaps[0], snaps[1], "cmip5/rlds");
}

TEST_F(ArchSweep, FpcStreamIsByteIdenticalAcrossLevels) {
  ScopedArch guard;
  const auto snaps = numarck::bench::climate_series(
      numarck::sim::climate::Variable::kMrro, 2, 7);
  na::force_level(na::Level::kScalar);
  const auto ref = numarck::lossless::fpc_compress(snaps[1], {});
  for (na::Level level : na::available_levels()) {
    na::force_level(level);
    const auto stream = numarck::lossless::fpc_compress(snaps[1], {});
    EXPECT_EQ(stream, ref) << na::to_string(level);
    const auto back = numarck::lossless::fpc_decompress(stream);
    ASSERT_EQ(back.size(), snaps[1].size()) << na::to_string(level);
    for (std::size_t j = 0; j < back.size(); ++j) {
      EXPECT_TRUE(same_double(back[j], snaps[1][j]))
          << na::to_string(level) << " point " << j;
    }
  }
}
