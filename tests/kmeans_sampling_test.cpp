// End-to-end properties of the kHistogramLloyd engine and stride-based
// learn-set sampling (Options::sampling_ratio), exercised on realistic
// fixtures (FLASH Sedov + CMIP5-like climate series from bench/harness):
//   * engine parity — the histogram engine's inertia stays within the
//     resolution bound documented in kmeans1d.hpp, and the end-to-end
//     compression ratio stays within 2% of the exact sorted-boundary engine;
//   * determinism — the encoded byte stream is identical for 1/2/4/8 worker
//     threads, with and without sampling;
//   * safety — the per-point error bound survives sampling_ratio = 0.01,
//     constant data, and n < k inputs, because classification re-checks
//     every point against the learned table regardless of who trained it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "harness_common.hpp"
#include "numarck/cluster/kmeans1d.hpp"
#include "numarck/core/change_ratio.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/core/options.hpp"
#include "numarck/util/parallel_for.hpp"
#include "numarck/util/thread_pool.hpp"

namespace {

using namespace numarck;

struct Fixture {
  std::string name;
  std::vector<double> prev;
  std::vector<double> curr;
};

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> fx = [] {
    std::vector<Fixture> out;
    auto flash = bench::flash_series(2, {"dens"});
    out.push_back({"flash-dens", flash["dens"][0], flash["dens"][1]});
    const auto clim = bench::climate_series(sim::climate::Variable::kRlds, 2);
    out.push_back({"cmip5-rlds", clim[0], clim[1]});
    return out;
  }();
  return fx;
}

core::Options base_options(cluster::KMeansEngine engine) {
  core::Options o;
  o.strategy = core::Strategy::kClustering;
  o.kmeans_engine = engine;
  return o;
}

/// |dec - curr| within the codec guarantee: ratio error <= E where the ratio
/// is defined, and the small-value rule's 2x-threshold absolute error where
/// both neighbours sit below the threshold.
void expect_within_bound(const Fixture& fx, std::span<const double> dec,
                         const core::Options& opts) {
  ASSERT_EQ(dec.size(), fx.curr.size());
  const double e = opts.error_bound;
  const double thr = opts.resolved_small_value_threshold();
  for (std::size_t j = 0; j < dec.size(); ++j) {
    const double err = std::abs(dec[j] - fx.curr[j]);
    const bool ratio_ok = err <= e * std::abs(fx.prev[j]) * (1.0 + 1e-9);
    const bool small_ok =
        std::abs(fx.prev[j]) < thr && std::abs(fx.curr[j]) < thr;
    ASSERT_TRUE(ratio_ok || small_ok)
        << fx.name << " point " << j << ": prev=" << fx.prev[j]
        << " curr=" << fx.curr[j] << " dec=" << dec[j];
  }
}

TEST(EngineParity, CompressionRatioWithinTwoPercentOfExact) {
  for (const auto& fx : fixtures()) {
    auto exact = base_options(cluster::KMeansEngine::kSortedBoundary);
    auto hist = base_options(cluster::KMeansEngine::kHistogramLloyd);
    const auto re = core::encode_iteration(fx.prev, fx.curr, exact);
    const auto rh = core::encode_iteration(fx.prev, fx.curr, hist);
    const double pe = re.paper_compression_ratio();
    const double ph = rh.paper_compression_ratio();
    EXPECT_LE(std::abs(pe - ph), 0.02 * std::abs(pe))
        << fx.name << ": exact ratio " << pe << "% vs histogram " << ph << "%";
  }
}

TEST(EngineParity, InertiaWithinResolutionBoundOnFixtures) {
  for (const auto& fx : fixtures()) {
    const auto cr = core::compute_change_ratios(fx.prev, fx.curr);
    std::vector<double> xs;
    for (std::size_t j = 0; j < cr.ratio.size(); ++j) {
      if (cr.valid[j] != 0) xs.push_back(cr.ratio[j]);
    }
    ASSERT_GT(xs.size(), std::size_t{1000}) << fx.name;

    cluster::KMeansOptions ko;
    ko.k = 255;
    ko.engine = cluster::KMeansEngine::kSortedBoundary;
    const auto exact = cluster::kmeans1d(xs, ko);
    ko.engine = cluster::KMeansEngine::kHistogramLloyd;
    const auto hist = cluster::kmeans1d(xs, ko);

    // Documented bound (kmeans1d.hpp): each point's assigned distance grows
    // by at most w, so inertia_hist <= sum (d_j + w)^2, bounded via
    // Cauchy-Schwarz by inertia + 2 w sqrt(n * inertia) + n w^2.
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    const std::size_t bins =
        std::min(std::max(std::size_t{64} * ko.k, std::size_t{4096}),
                 std::size_t{1} << 18);
    const double w = (*hi - *lo) / static_cast<double>(bins);
    const double n = static_cast<double>(xs.size());
    const double bound =
        exact.inertia + 2.0 * w * std::sqrt(n * exact.inertia) + n * w * w;
    EXPECT_LE(hist.inertia, bound) << fx.name;
  }
}

TEST(SamplingDeterminism, EncodedBytesIdenticalAcrossThreadCounts) {
  for (const auto& fx : fixtures()) {
    // More than one reduction block, whatever the host's core count: the
    // byte comparison below then checks a real multi-block summation order.
    ASSERT_GT(util::reduce_plan(0, fx.curr.size()).chunks, 1U) << fx.name;
    for (double sampling : {1.0, 0.01}) {
      std::vector<std::uint8_t> reference;
      for (std::size_t workers : {1U, 2U, 4U, 8U}) {
        util::ThreadPool pool(workers);
        auto opts = base_options(cluster::KMeansEngine::kHistogramLloyd);
        opts.sampling_ratio = sampling;
        opts.pool = &pool;
        const auto bytes =
            core::encode_iteration(fx.prev, fx.curr, opts).serialize();
        if (reference.empty()) {
          reference = bytes;
        } else {
          EXPECT_EQ(bytes, reference)
              << fx.name << " sampling=" << sampling << " workers=" << workers;
        }
      }
    }
  }
}

TEST(SamplingDeterminism, DecodeBitIdenticalAcrossEnginesAndThreadCounts) {
  for (const auto& fx : fixtures()) {
    for (auto engine : {cluster::KMeansEngine::kSortedBoundary,
                        cluster::KMeansEngine::kHistogramLloyd}) {
      const auto enc =
          core::encode_iteration(fx.prev, fx.curr, base_options(engine));
      std::vector<double> reference;
      for (std::size_t workers : {1U, 2U, 4U, 8U}) {
        util::ThreadPool pool(workers);
        const auto dec = core::decode_iteration(fx.prev, enc, &pool);
        if (reference.empty()) {
          reference = dec;
        } else {
          ASSERT_EQ(dec.size(), reference.size());
          for (std::size_t j = 0; j < dec.size(); ++j) {
            ASSERT_EQ(dec[j], reference[j])
                << fx.name << " workers=" << workers << " point " << j;
          }
        }
      }
    }
  }
}

TEST(SamplingRoundTrip, ErrorBoundHoldsAtOnePercentSample) {
  for (const auto& fx : fixtures()) {
    auto opts = base_options(cluster::KMeansEngine::kHistogramLloyd);
    opts.sampling_ratio = 0.01;
    const auto enc = core::encode_iteration(fx.prev, fx.curr, opts);
    EXPECT_LE(enc.stats.max_ratio_error, opts.error_bound * (1.0 + 1e-9))
        << fx.name;
    const auto dec = core::decode_iteration(fx.prev, enc);
    expect_within_bound(fx, dec, opts);
  }
}

TEST(SamplingEdgeCases, ConstantDataRoundTripsExactly) {
  const std::vector<double> snap(5000, 3.25);
  auto opts = base_options(cluster::KMeansEngine::kHistogramLloyd);
  opts.sampling_ratio = 0.01;
  const auto enc = core::encode_iteration(snap, snap, opts);
  const auto dec = core::decode_iteration(snap, enc);
  EXPECT_EQ(dec, snap);
}

TEST(SamplingEdgeCases, FewerPointsThanClustersStaysBounded) {
  const Fixture fx{"tiny",
                   {1.0, 2.0, -3.0, 4.0, 0.0, 6.0, 7.0},
                   {1.5, 1.0, -3.3, 4.0, 5.0, 5.9, 7.007}};
  auto opts = base_options(cluster::KMeansEngine::kHistogramLloyd);
  opts.sampling_ratio = 0.01;
  const auto enc = core::encode_iteration(fx.prev, fx.curr, opts);
  const auto dec = core::decode_iteration(fx.prev, enc);
  expect_within_bound(fx, std::span<const double>(dec), opts);
}

}  // namespace
