#include "numarck/core/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "numarck/arch/arch.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

namespace numarck::core {

// The encoder is a two-pass classify-then-pack pipeline:
//
//   Pass A (classify) — one parallel sweep assigns every point a uint32
//   label: the index value it will pack (0 for small-value / below-threshold,
//   c+1 for a binned point) or an exact/needs-bin marker. The same labels
//   feed the learn-set gather, so the predicates run once instead of twice
//   (the old stage-2 scan re-evaluated them to build the learn set). The
//   change ratio (Eq. 1) is computed inline in every pass that needs it —
//   one divide is cheaper than materializing and re-reading an n-element
//   ratio + validity pair of arrays, and it keeps the sampled path at a
//   single streaming read of (previous, current).
//
//   Pass B (pack) — per-chunk counts of compressible points turn into
//   exclusive prefix sums, which give every chunk the absolute bit offset of
//   its slice of the ζ / index streams and the element offset of its exact
//   values. Chunks then pack disjoint regions concurrently (BitSpanWriter
//   merges the shared straddle bytes atomically). Because every offset is
//   absolute, the streams are bit-identical for any thread count.
//
// decode_iteration is symmetric: a popcount pass over ζ recovers each
// chunk's index/exact cursors from the same prefix sums, then chunks decode
// concurrently.
//
// The per-point loops dispatch through numarck::arch — SIMD where the CPU
// has it, the scalar reference otherwise. Every kernel table is bit-identical
// (see arch.hpp), so the containers and stats do not depend on the selected
// ISA any more than they depend on the thread count.

namespace {

// Final per-point labels, shared with the arch kernels. Index values occupy
// [0, 2^16 - 1] (index_bits is at most 16), so the markers can never collide
// with a real index.
using arch::kLabelExact;     // ζ = 0, value escapes
using arch::kLabelNeedsBin;  // transient: pass A2

/// Eq. 1 for one point. Callers on needs-bin labels are guaranteed a finite
/// result: classify_points already exact-escaped zero-denominator and
/// non-finite points, and (previous, current) are immutable between passes.
inline double change_ratio_at(std::span<const double> previous,
                              std::span<const double> current, std::size_t j) {
  return (current[j] - previous[j]) / previous[j];
}

using ClassifyStats = arch::ClassifySpanStats;

/// Pass A1: model-free classification. Labels every point as index 0
/// (small-value or below-threshold), exact (undefined ratio) or needs-bin;
/// the needs-bin points are exactly the learn-set candidates. Each reduction
/// block runs the fused change-ratio + classify kernel; partial stats combine
/// in block order over a plan that depends on n alone, so the sums are
/// identical for every pool size and host.
ClassifyStats classify_points(std::span<const double> previous,
                              std::span<const double> current,
                              const Options& opts, util::ThreadPool& pool,
                              std::vector<std::uint32_t>& labels) {
  const std::size_t n = current.size();
  labels.resize(n);
  const double E = opts.error_bound;
  const double small = opts.resolved_small_value_threshold();
  const auto& kernels = arch::active();
  return util::parallel_reduce<ClassifyStats>(
      pool, 0, n, ClassifyStats{},
      [&](std::size_t i0, std::size_t i1) {
        return kernels.classify(previous.data() + i0, current.data() + i0,
                                labels.data() + i0, i1 - i0, E, small);
      },
      [](ClassifyStats a, const ClassifyStats& b) {
        a.small += b.small;
        a.below += b.below;
        a.undefined += b.undefined;
        a.needs_bin += b.needs_bin;
        a.err_sum += b.err_sum;
        a.err_max = std::max(a.err_max, b.err_max);
        return a;
      });
}

/// Gathers every stride-th needs-bin ratio in point order. The stride walks
/// the *global* needs-bin ordinal (per-chunk counts + exclusive prefix sums
/// give each chunk both its write offset and its starting ordinal), so the
/// sampled learn set is a pure function of the data — identical for every
/// thread count and chunking. stride == 1 recovers the full learn set.
std::vector<double> gather_learn_set(std::span<const double> previous,
                                     std::span<const double> current,
                                     const std::vector<std::uint32_t>& labels,
                                     std::size_t needs_bin_total,
                                     std::size_t stride,
                                     util::ThreadPool& pool) {
  if (needs_bin_total == 0) return {};
  std::vector<double> learn((needs_bin_total + stride - 1) / stride);
  const util::ChunkPlan plan(0, labels.size(), pool.size());
  std::vector<std::size_t> ordinal(plan.chunks);
  util::parallel_chunks(pool, plan,
                        [&](std::size_t c, std::size_t i0, std::size_t i1) {
                          std::size_t count = 0;
                          for (std::size_t j = i0; j < i1; ++j) {
                            count += labels[j] == kLabelNeedsBin;
                          }
                          ordinal[c] = count;
                        });
  std::size_t running = 0;
  for (auto& o : ordinal) {
    const std::size_t count = o;
    o = running;
    running += count;
  }
  NUMARCK_EXPECT(running == needs_bin_total, "learn-set gather count drifted");
  util::parallel_chunks(
      pool, plan, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        std::size_t o = ordinal[c];
        for (std::size_t j = i0; j < i1; ++j) {
          if (labels[j] != kLabelNeedsBin) continue;
          if (o % stride == 0) {
            learn[o / stride] = change_ratio_at(previous, current, j);
          }
          ++o;
        }
      });
  return learn;
}

struct AssignStats {
  std::size_t binned = 0;
  std::size_t out_of_bound = 0;
  double err_sum = 0.0;
  double err_max = 0.0;
};

/// Points per assign/ratio block: small enough for the ratio scratch to sit
/// in L1, large enough to amortize the density scan.
constexpr std::size_t kAssignBlock = 128;

/// Pass A2: resolves every needs-bin label to a bin index (via the O(1)
/// lookup) or an exact escape when the nearest center misses the bound. This
/// is the pass that preserves the per-point error bound under sampling: it
/// re-checks every point against the bound regardless of whether its ratio
/// was in the (possibly sampled) learn set.
///
/// The divides are blocked through the wide change-ratio kernel when a block
/// is dense with needs-bin points; the ratio of a needs-bin point is the
/// same IEEE divide either way (previous != 0 is guaranteed by pass A1), so
/// the path choice cannot change a single bit of output. Lookup and bound
/// check stay scalar per point — BinLookup's repair step is already O(1).
AssignStats assign_bins(std::span<const double> previous,
                        std::span<const double> current, const BinModel& model,
                        double error_bound, util::ThreadPool& pool,
                        std::vector<std::uint32_t>& labels) {
  const BinLookup lookup(model);
  const bool have_model = !model.empty();
  const auto& kernels = arch::active();
  return util::parallel_reduce<AssignStats>(
      pool, 0, labels.size(), AssignStats{},
      [&](std::size_t i0, std::size_t i1) {
        AssignStats s;
        double ratios[kAssignBlock];
        for (std::size_t b = i0; b < i1; b += kAssignBlock) {
          const std::size_t m = std::min(kAssignBlock, i1 - b);
          std::size_t nb = 0;
          for (std::size_t j = b; j < b + m; ++j) {
            nb += labels[j] == kLabelNeedsBin;
          }
          if (nb == 0) continue;
          const bool dense = have_model && 2 * nb >= m;
          if (dense) {
            kernels.change_ratios(previous.data() + b, current.data() + b,
                                  ratios, m);
          }
          for (std::size_t j = b; j < b + m; ++j) {
            if (labels[j] != kLabelNeedsBin) continue;
            if (have_model) {
              const double r =
                  dense ? ratios[j - b] : change_ratio_at(previous, current, j);
              const std::size_t c = lookup.nearest(r);
              const double err = std::abs(model.centers[c] - r);
              if (err <= error_bound) {
                labels[j] = static_cast<std::uint32_t>(c + 1);
                ++s.binned;
                s.err_sum += err;
                s.err_max = std::max(s.err_max, err);
                continue;
              }
            }
            labels[j] = kLabelExact;
            ++s.out_of_bound;
          }
        }
        return s;
      },
      [](AssignStats a, const AssignStats& b) {
        a.binned += b.binned;
        a.out_of_bound += b.out_of_bound;
        a.err_sum += b.err_sum;
        a.err_max = std::max(a.err_max, b.err_max);
        return a;
      });
}

/// Pass B: per-chunk compressible counts -> exclusive prefix sums ->
/// packing of disjoint stream regions at absolute offsets (the single-chunk
/// plan degenerates to a sequential pass over the whole range, so there is
/// one layout and one code path for every thread count).
///
/// Within a chunk the labels are walked as runs: an exact run turns into a
/// put_zeros cursor skip plus one memcpy of contiguous current values, a
/// compressible run into put_ones plus a bulk put_many of the labels —
/// replacing the old per-point branch + put_bit + put sequence.
void pack_streams(std::span<const double> current,
                  const std::vector<std::uint32_t>& labels,
                  unsigned index_bits, util::ThreadPool& pool,
                  EncodedIteration& enc) {
  const std::size_t n = labels.size();
  const util::ChunkPlan plan(0, n, pool.size());
  std::vector<std::size_t> comp_before(plan.chunks);
  util::parallel_chunks(pool, plan,
                        [&](std::size_t c, std::size_t i0, std::size_t i1) {
                          std::size_t count = 0;
                          for (std::size_t j = i0; j < i1; ++j) {
                            count += labels[j] != kLabelExact;
                          }
                          comp_before[c] = count;
                        });
  std::size_t total_comp = 0;
  for (auto& o : comp_before) {
    const std::size_t count = o;
    o = total_comp;
    total_comp += count;
  }
  const std::size_t total_exact = n - total_comp;

  enc.zeta.assign((n + 7) / 8, 0);
  enc.indices.assign((total_comp * index_bits + 7) / 8, 0);
  enc.exact_values.resize(total_exact);
  util::parallel_chunks(
      pool, plan, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        util::BitSpanWriter zeta(enc.zeta.data(), enc.zeta.size(), i0);
        util::BitSpanWriter idx(enc.indices.data(), enc.indices.size(),
                                comp_before[c] * index_bits);
        // Exact cursor: points before i0 minus compressible points before i0.
        std::size_t exact_pos = i0 - comp_before[c];
        std::size_t j = i0;
        while (j < i1) {
          std::size_t run = j;
          if (labels[j] == kLabelExact) {
            while (run < i1 && labels[run] == kLabelExact) ++run;
            zeta.put_zeros(run - j);
            std::memcpy(enc.exact_values.data() + exact_pos,
                        current.data() + j, (run - j) * sizeof(double));
            exact_pos += run - j;
          } else {
            while (run < i1 && labels[run] != kLabelExact) ++run;
            zeta.put_ones(run - j);
            idx.put_many(labels.data() + j, run - j, index_bits);
          }
          j = run;
        }
        zeta.finish();
        idx.finish();
      });
}

/// Learn-set stride for Options::sampling_ratio (1.0 -> 1, 0.01 -> 100).
std::size_t sampling_stride(const Options& opts) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(1.0 / opts.sampling_ratio)));
}

/// Stages A2 + B plus the stats roll-up, shared by every encode entry point.
EncodedIteration finish_encode(std::span<const double> previous,
                               std::span<const double> current,
                               const BinModel& model, const Options& opts,
                               util::ThreadPool& pool,
                               std::vector<std::uint32_t>& labels,
                               const ClassifyStats& cs) {
  const std::size_t n = current.size();
  EncodedIteration enc;
  enc.index_bits = opts.index_bits;
  enc.error_bound = opts.error_bound;
  enc.strategy = opts.strategy;
  enc.point_count = n;
  enc.stats.total_points = n;
  if (n == 0) return enc;
  NUMARCK_EXPECT(model.centers.size() <= opts.max_bins(),
                 "bin model larger than the index space");
  enc.centers = model.centers;

  const AssignStats as =
      assign_bins(previous, current, model, opts.error_bound, pool, labels);
  pack_streams(current, labels, opts.index_bits, pool, enc);

  enc.stats.small_value = cs.small;
  enc.stats.below_threshold = cs.below;
  enc.stats.exact_undefined = cs.undefined;
  enc.stats.binned = as.binned;
  enc.stats.exact_out_of_bound = as.out_of_bound;
  enc.stats.mean_ratio_error =
      (cs.err_sum + as.err_sum) / static_cast<double>(n);
  enc.stats.max_ratio_error = std::max(cs.err_max, as.err_max);
  return enc;
}

}  // namespace

EncodedIteration encode_iteration(std::span<const double> previous,
                                  std::span<const double> current,
                                  const Options& opts) {
  opts.validate();
  NUMARCK_EXPECT(previous.size() == current.size(),
                 "encode: snapshot size mismatch");
  auto& pool = opts.pool ? *opts.pool : util::ThreadPool::global();

  // Stage 1+2 fused: one sweep evaluates Eq. 1 and classifies; the needs-bin
  // labels are the learn-set candidates (defined, not small-valued, and not
  // already satisfied by the zero index). The gather then samples every
  // stride-th candidate by global ordinal.
  std::vector<std::uint32_t> labels;
  const ClassifyStats cs =
      classify_points(previous, current, opts, pool, labels);
  const std::vector<double> learn_set = gather_learn_set(
      previous, current, labels, cs.needs_bin, sampling_stride(opts), pool);
  const BinModel model = learn_bins(learn_set, opts);

  // Stage 3: assignment + packing from the labels.
  return finish_encode(previous, current, model, opts, pool, labels, cs);
}

EncodedIteration encode_iteration_with_model(std::span<const double> previous,
                                             std::span<const double> current,
                                             const BinModel& model,
                                             const Options& opts) {
  opts.validate();
  NUMARCK_EXPECT(previous.size() == current.size(),
                 "encode: snapshot size mismatch");
  auto& pool = opts.pool ? *opts.pool : util::ThreadPool::global();
  std::vector<std::uint32_t> labels;
  const ClassifyStats cs =
      classify_points(previous, current, opts, pool, labels);
  return finish_encode(previous, current, model, opts, pool, labels, cs);
}

std::vector<double> decode_iteration(std::span<const double> previous,
                                     const EncodedIteration& enc,
                                     util::ThreadPool* pool) {
  NUMARCK_EXPECT(previous.size() == enc.point_count,
                 "decode: previous snapshot has wrong length");
  auto& tp = pool ? *pool : util::ThreadPool::global();
  const std::size_t n = enc.point_count;
  std::vector<double> out(n);
  const auto& kernels = arch::active();

  // One validated span path for every thread count: a popcount pass over ζ
  // rebuilds the per-chunk compressible counts the encoder packed with, the
  // stream lengths are checked against those totals up front (the container
  // may be forged), then each chunk decodes its span independently.
  NUMARCK_EXPECT(enc.zeta.size() * 8 >= n, "decode: ζ bitmap too short");
  const util::ChunkPlan plan(0, n, tp.size());
  std::vector<std::size_t> comp_before(plan.chunks);
  util::parallel_chunks(tp, plan,
                        [&](std::size_t c, std::size_t i0, std::size_t i1) {
                          comp_before[c] = kernels.count_ones(
                              enc.zeta.data(), enc.zeta.size(), i0, i1);
                        });
  std::size_t total_comp = 0;
  for (auto& o : comp_before) {
    const std::size_t count = o;
    o = total_comp;
    total_comp += count;
  }
  NUMARCK_EXPECT(n - total_comp == enc.exact_values.size(),
                 "decode: exact stream length mismatch");
  if (total_comp != 0) {
    NUMARCK_EXPECT(enc.index_bits >= 1 && enc.index_bits <= 32,
                   "decode: index width out of range");
    NUMARCK_EXPECT(enc.indices.size() * 8 / enc.index_bits >= total_comp,
                   "decode: index stream too short");
  }
  util::parallel_chunks(
      tp, plan, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        arch::DecodeSpan span;
        span.previous = previous.data();
        span.out = out.data();
        span.i0 = i0;
        span.i1 = i1;
        span.zeta = enc.zeta.data();
        span.zeta_size = enc.zeta.size();
        span.indices = enc.indices.data();
        span.indices_size = enc.indices.size();
        span.index_bit_offset = comp_before[c] * enc.index_bits;
        span.centers = enc.centers.data();
        span.center_count = enc.centers.size();
        span.exact = enc.exact_values.data();
        span.exact_size = enc.exact_values.size();
        span.exact_pos = i0 - comp_before[c];
        span.index_bits = enc.index_bits;
        kernels.decode_span(span);
      });
  return out;
}

}  // namespace numarck::core
