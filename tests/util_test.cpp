// Unit tests for the utility layer: thread pool, parallel loops, bit
// packing, CRC32, RNG, streaming statistics and byte serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "numarck/util/bitpack.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/stats.hpp"
#include "numarck/util/thread_pool.hpp"

namespace nu = numarck::util;

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPool, RunsSubmittedTasks) {
  nu::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  nu::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesExceptions) {
  nu::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ExecutesManyTasksExactlyOnce) {
  nu::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 1000; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ForwardsArguments) {
  nu::ThreadPool pool(2);
  auto f = pool.submit([](int a, int b) { return a * b; }, 6, 7);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&nu::ThreadPool::global(), &nu::ThreadPool::global());
}

// Shutdown semantics: a submit() racing the destructor must either enqueue
// the task (whose future is then satisfied — the destructor drains the queue
// before the workers exit) or throw std::runtime_error. It must never
// deadlock or drop an accepted task. The only way to race submit against the
// destructor without a use-after-free is from inside worker tasks: the
// destructor joins the workers, so the pool outlives every task body.
// Exercised under TSan in CI.
TEST(ThreadPool, SubmitRacingDestructionThrowsOrCompletes) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> completed{0};
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    nu::ThreadPool* ppool = nullptr;
    // Declared before the pool so it outlives the destructor's final drain.
    std::function<void(int)> spawn = [&](int depth) {
      completed.fetch_add(1);
      if (depth == 0) return;
      try {
        (void)ppool->submit([&spawn, depth] { spawn(depth - 1); });
        accepted.fetch_add(1);
      } catch (const std::runtime_error&) {
        rejected.fetch_add(1);  // pool is stopping: the documented outcome
      }
    };
    {
      nu::ThreadPool pool(3);
      ppool = &pool;
      for (int i = 0; i < 8; ++i) {
        (void)pool.submit([&spawn] { spawn(64); });
      }
      // Destructor runs here, racing the re-submission chains.
    }
    // Every accepted task ran: the 8 seeds plus each accepted re-submission.
    EXPECT_EQ(completed.load(), 8 + accepted.load())
        << "an accepted task was dropped during shutdown (rejected="
        << rejected.load() << ")";
  }
}

TEST(ThreadPool, DestructorDrainsQueuedTasksBeforeJoin) {
  std::atomic<int> ran{0};
  {
    nu::ThreadPool pool(2);
    for (int i = 0; i < 128; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 128);
}

TEST(ThreadPool, DestructorDrainsSlowTasksWithoutDropping) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  {
    nu::ThreadPool pool(3);
    for (int i = 0; i < 32; ++i) {
      futs.push_back(pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      }));
    }
    // Destroy while most tasks are still queued.
  }
  for (auto& f : futs) f.get();  // must all be satisfied, never block forever
  EXPECT_EQ(ran.load(), 32);
}

// ----------------------------------------------------------- parallel_for --

TEST(ParallelFor, CoversEveryIndexOnce) {
  nu::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(20000);
  nu::parallel_for(pool, 0, hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  nu::ThreadPool pool(2);
  bool called = false;
  nu::parallel_for(pool, 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ChunkedCoversRangeWithDisjointChunks) {
  nu::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(50000);
  nu::parallel_for_chunked(pool, 0, hits.size(),
                           [&](std::size_t i0, std::size_t i1) {
                             for (std::size_t i = i0; i < i1; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ChunkPlan, OversubscribesForLoadBalancing) {
  // Large ranges get more chunks than *usable* workers (x4) so skewed
  // per-chunk work can be balanced. Usable means capped at the machine's
  // core count — asking a 1-core box for 4 workers must not produce a
  // 16-chunk plan (the seed benchmark showed 8-thread encode slower than
  // 1-thread from exactly that).
  const std::size_t n = 1 << 20;
  const std::size_t usable = nu::effective_workers(4);
  nu::ChunkPlan plan(0, n, 4);
  EXPECT_EQ(plan.chunks,
            usable <= 1 ? 1 : usable * nu::kParallelOversubscribe);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    EXPECT_GE(i1 - i0, nu::kParallelGrainSize / 2);
  }
}

TEST(ChunkPlan, CapsWorkersAtHardwareConcurrency) {
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) GTEST_SKIP() << "hardware_concurrency unknown on this box";
  // Requesting far more workers than cores yields the same plan as
  // requesting exactly the core count.
  const std::size_t n = 1 << 22;
  const nu::ChunkPlan greedy(0, n, 64 * hw);
  const nu::ChunkPlan capped(0, n, hw);
  EXPECT_EQ(greedy.chunks, capped.chunks);
  EXPECT_EQ(greedy.step, capped.step);
  EXPECT_LE(greedy.chunks, hw * nu::kParallelOversubscribe);
}

TEST(ChunkPlan, RespectsGrainSize) {
  // A range worth only a few grains never splits below the grain size even
  // with many workers available.
  nu::ChunkPlan plan(0, 3 * nu::kParallelGrainSize, 16);
  EXPECT_LE(plan.chunks, 3u);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    EXPECT_GE(i1 - i0, nu::kParallelGrainSize);
  }
}

TEST(ChunkPlan, NeverSplitsBelowGrain) {
  // The floor: any multi-chunk plan keeps every chunk at >= grain points, so
  // tiny inputs stay single-threaded instead of shattering into slivers.
  for (std::size_t n : {std::size_t{1}, nu::kParallelGrainSize - 1,
                        nu::kParallelGrainSize, 2 * nu::kParallelGrainSize - 1,
                        2 * nu::kParallelGrainSize,
                        5 * nu::kParallelGrainSize + 123}) {
    nu::ChunkPlan plan(0, n, 8);
    if (plan.chunks > 1) {
      for (std::size_t c = 0; c < plan.chunks; ++c) {
        const auto [i0, i1] = plan.bounds(c);
        EXPECT_GE(i1 - i0, nu::kParallelGrainSize) << "n=" << n << " c=" << c;
      }
    } else {
      EXPECT_EQ(plan.bounds(0).second - plan.bounds(0).first, n);
    }
  }
}

TEST(ChunkPlan, BoundsTileTheRangeExactly) {
  nu::ChunkPlan plan(100, 100 + (1 << 18) + 37, 8);
  std::size_t expect_next = 100;
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    EXPECT_EQ(i0, expect_next);
    EXPECT_LT(i0, i1);
    expect_next = i1;
  }
  EXPECT_EQ(expect_next, 100 + (1 << 18) + 37);
}

TEST(ParallelChunks, CoversEveryIndexOnceWithChunkIds) {
  nu::ThreadPool pool(4);
  const std::size_t n = 100000;
  nu::ChunkPlan plan(0, n, pool.size());
  std::vector<std::atomic<int>> hits(n);
  std::vector<std::atomic<int>> chunk_runs(plan.chunks);
  nu::parallel_chunks(pool, plan,
                      [&](std::size_t c, std::size_t i0, std::size_t i1) {
                        chunk_runs[c].fetch_add(1);
                        for (std::size_t i = i0; i < i1; ++i) {
                          hits[i].fetch_add(1);
                        }
                      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (auto& r : chunk_runs) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelReduce, SumMatchesSerial) {
  nu::ThreadPool pool(4);
  const std::size_t n = 100000;
  const auto sum = nu::parallel_reduce<std::uint64_t>(
      pool, 0, n, 0,
      [](std::size_t i0, std::size_t i1) {
        std::uint64_t s = 0;
        for (std::size_t i = i0; i < i1; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelReduce, SmallRangeRunsInline) {
  nu::ThreadPool pool(4);
  const auto v = nu::parallel_reduce<int>(
      pool, 0, 10, 100,
      [](std::size_t i0, std::size_t i1) {
        return static_cast<int>(i1 - i0);
      },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 110);
}

TEST(ReducePlan, CapsBlocksAndKeepsGrain) {
  EXPECT_EQ(nu::reduce_plan(0, 2 * nu::kParallelGrainSize - 1).chunks, 1u);
  EXPECT_EQ(nu::reduce_plan(0, 3 * nu::kParallelGrainSize).chunks, 3u);
  const std::size_t n = 1000 * nu::kParallelGrainSize + 17;
  const nu::ChunkPlan plan = nu::reduce_plan(0, n);
  EXPECT_EQ(plan.chunks, nu::kReduceMaxBlocks);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    EXPECT_GE(i1 - i0, nu::kParallelGrainSize);
  }
  EXPECT_EQ(plan.bounds(plan.chunks - 1).second, n);
}

TEST(ParallelReduce, FloatingSumBitIdenticalAcrossPoolSizes) {
  // Magnitudes over 24 decades with mixed signs: any change of summation
  // order shows in the low bits. The reference walks reduce_plan's blocks
  // serially, so a pool that splits the range any other way fails here even
  // on a 1-core host.
  nu::Pcg32 rng(7);
  std::vector<double> xs(300000);
  for (auto& x : xs) {
    x = (rng.uniform() < 0.5 ? -1.0 : 1.0) *
        std::pow(10.0, rng.uniform(-12.0, 12.0));
  }
  const auto partial = [&xs](std::size_t i0, std::size_t i1) {
    double s = 0.0;
    for (std::size_t i = i0; i < i1; ++i) s += xs[i];
    return s;
  };
  const auto add = [](double a, double b) { return a + b; };
  const nu::ChunkPlan plan = nu::reduce_plan(0, xs.size());
  ASSERT_GT(plan.chunks, 1u);
  double reference = 0.0;
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    reference += partial(i0, i1);
  }
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    nu::ThreadPool pool(workers);
    const double sum =
        nu::parallel_reduce<double>(pool, 0, xs.size(), 0.0, partial, add);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
              std::bit_cast<std::uint64_t>(reference))
        << "workers=" << workers;
  }
}

// --------------------------------------------------------------- bitpack --

TEST(BitPack, SingleValueRoundTrip) {
  nu::BitWriter w;
  w.put(0x2Au, 8);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  EXPECT_EQ(r.get(8), 0x2Au);
}

TEST(BitPack, RejectsValueWiderThanWidth) {
  nu::BitWriter w;
  EXPECT_THROW(w.put(4u, 2), numarck::ContractViolation);
}

TEST(BitPack, RejectsZeroWidth) {
  nu::BitWriter w;
  EXPECT_THROW(w.put(0u, 0), numarck::ContractViolation);
}

TEST(BitPack, ReadPastEndThrows) {
  nu::BitWriter w;
  w.put(1u, 3);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  (void)r.get(8);
  EXPECT_THROW((void)r.get(8), numarck::ContractViolation);
}

TEST(BitPack, BitCountTracksExactBits) {
  nu::BitWriter w;
  w.put(1u, 3);
  w.put(1u, 9);
  EXPECT_EQ(w.bit_count(), 12u);
}

class BitPackWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitPackWidthTest, RandomRoundTripAtWidth) {
  const unsigned width = GetParam();
  nu::Pcg32 rng(width * 7919);
  std::vector<std::uint32_t> values(997);
  const std::uint32_t mask =
      width == 32 ? 0xffffffffu : ((1u << width) - 1u);
  for (auto& v : values) v = rng.next() & mask;
  const auto packed = nu::pack_indices(values, width);
  EXPECT_EQ(packed.size(), (values.size() * width + 7) / 8);
  const auto unpacked = nu::unpack_indices(packed, width, values.size());
  EXPECT_EQ(unpacked, values);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackWidthTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 9u, 10u,
                                           12u, 15u, 16u, 17u, 24u, 31u, 32u));

TEST(BitPack, Width32RoundTripIncludingExtremes) {
  // width == 32 must bypass the (1u << width) fit check (which would be UB)
  // and round-trip every bit pattern, including all-ones.
  nu::BitWriter w;
  w.put_bit(true);  // misalign so the 32-bit value straddles five bytes
  w.put(0xFFFFFFFFu, 32);
  w.put(0u, 32);
  w.put(0x80000001u, 32);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get(32), 0xFFFFFFFFu);
  EXPECT_EQ(r.get(32), 0u);
  EXPECT_EQ(r.get(32), 0x80000001u);
}

TEST(BitSpanWriter, OffsetWritesMatchSequentialWriter) {
  // Split one logical stream at an arbitrary (byte-straddling) bit offset
  // between two span writers; the buffer must equal a sequential append pass.
  nu::BitWriter seq;
  seq.put(5u, 3);
  seq.put(0x3FFu, 10);     // first writer ends mid-byte at bit 13
  seq.put(0xABCDu, 16);
  seq.put_bit(true);
  auto expected = seq.finish();

  std::vector<std::uint8_t> buf(expected.size(), 0);
  nu::BitSpanWriter a(buf.data(), buf.size(), 0);
  a.put(5u, 3);
  a.put(0x3FFu, 10);
  a.finish();
  nu::BitSpanWriter b(buf.data(), buf.size(), 13);
  b.put(0xABCDu, 16);
  b.put_bit(true);
  b.finish();
  EXPECT_EQ(buf, expected);
}

TEST(BitSpanWriter, ManySplitPointsAllByteBoundaryStraddles) {
  // A 997-value width-11 stream split at every possible position must be
  // byte-identical to pack_indices, whichever side of a byte the cut lands.
  nu::Pcg32 rng(20250805);
  std::vector<std::uint32_t> values(997);
  for (auto& v : values) v = rng.next() & 0x7FFu;
  const auto expected = nu::pack_indices(values, 11);
  for (std::size_t split : {1u, 7u, 8u, 64u, 100u, 500u, 996u}) {
    std::vector<std::uint8_t> buf(expected.size(), 0);
    nu::BitSpanWriter a(buf.data(), buf.size(), 0);
    for (std::size_t i = 0; i < split; ++i) a.put(values[i], 11);
    a.finish();
    nu::BitSpanWriter b(buf.data(), buf.size(), split * 11);
    for (std::size_t i = split; i < values.size(); ++i) b.put(values[i], 11);
    b.finish();
    EXPECT_EQ(buf, expected) << "split at " << split;
  }
}

TEST(BitSpanWriter, Width32AtUnalignedOffset) {
  std::vector<std::uint8_t> buf(9, 0);
  nu::BitSpanWriter w(buf.data(), buf.size(), 5);
  w.put(0xDEADBEEFu, 32);
  w.finish();
  nu::BitReader r(buf.data(), buf.size(), 5);
  EXPECT_EQ(r.get(32), 0xDEADBEEFu);
}

TEST(BitSpanWriter, WritePastEndThrows) {
  std::vector<std::uint8_t> buf(1, 0);
  nu::BitSpanWriter w(buf.data(), buf.size(), 0);
  w.put(0xFFu, 8);
  EXPECT_THROW(w.put(0xFFu, 8), numarck::ContractViolation);
}

TEST(BitReader, OffsetConstructorSkipsExactly) {
  nu::BitWriter w;
  w.put(0x2Au, 7);
  w.put(0x155u, 9);
  w.put(0x33u, 6);
  auto bytes = w.finish();
  nu::BitReader r(bytes.data(), bytes.size(), 7);
  EXPECT_EQ(r.get(9), 0x155u);
  EXPECT_EQ(r.get(6), 0x33u);
}

TEST(BitPack, CountOnesMatchesBitwiseScan) {
  nu::Pcg32 rng(99);
  std::vector<std::uint8_t> bytes(64);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() & 0xffu);
  const auto scan = [&](std::size_t b0, std::size_t b1) {
    std::size_t c = 0;
    for (std::size_t i = b0; i < b1; ++i) {
      c += (bytes[i / 8] >> (i % 8)) & 1u;
    }
    return c;
  };
  for (std::size_t b0 : {0u, 1u, 5u, 8u, 13u, 200u}) {
    for (std::size_t b1 : {0u, 3u, 8u, 9u, 64u, 257u, 512u}) {
      if (b1 < b0) continue;
      EXPECT_EQ(nu::count_ones(bytes.data(), bytes.size(), b0, b1),
                scan(b0, b1))
          << "[" << b0 << "," << b1 << ")";
    }
  }
}

TEST(BitPack, MixedWidthStreamRoundTrip) {
  nu::BitWriter w;
  w.put_bit(true);
  w.put(5u, 3);
  w.put(1000u, 10);
  w.put_bit(false);
  w.put(0xABCDu, 16);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get(3), 5u);
  EXPECT_EQ(r.get(10), 1000u);
  EXPECT_FALSE(r.get_bit());
  EXPECT_EQ(r.get(16), 0xABCDu);
}

// ----------------------------------------------------------------- crc32 --

TEST(Crc32, MatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(nu::crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(nu::crc32("", 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto full = nu::crc32(data.data(), data.size());
  auto inc = nu::kCrc32Init;
  inc = nu::crc32_update(inc, data.data(), 10);
  inc = nu::crc32_update(inc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc, full);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(256);
  std::iota(data.begin(), data.end(), 0);
  const auto good = nu::crc32(data.data(), data.size());
  data[100] ^= 0x10;
  EXPECT_NE(nu::crc32(data.data(), data.size()), good);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSeed) {
  nu::Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  nu::Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  nu::Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  nu::Pcg32 rng(11);
  nu::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, BoundedNeverExceedsBound) {
  nu::Pcg32 rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedZeroReturnsZero) {
  nu::Pcg32 rng(13);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, SplitMix64Avalanches) {
  nu::SplitMix64 a(0), b(1);
  // Nearby seeds must produce very different outputs.
  EXPECT_NE(a.next(), b.next());
}

// ----------------------------------------------------------------- stats --

TEST(RunningStats, BasicMoments) {
  nu::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  nu::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  nu::Pcg32 rng(5);
  nu::RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  nu::RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  nu::RunningStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Percentile, MedianOfOddRange) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(nu::percentile(v, 50.0), 3.0);
}

TEST(Percentile, ExtremesAreMinMax) {
  std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(nu::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nu::percentile(v, 100.0), 5.0);
}

TEST(Percentile, EmptyThrows) {
  std::vector<double> v;
  EXPECT_THROW(nu::percentile(v, 50.0), numarck::ContractViolation);
}

// ----------------------------------------------------------- byte_stream --

TEST(ByteStream, FixedWidthRoundTrip) {
  nu::ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xCDEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_f64(3.14159);
  nu::ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xCDEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteStream, VarintRoundTripBoundaryValues) {
  nu::ByteWriter w;
  const std::uint64_t cases[] = {0,      1,       127,        128,
                                 16383,  16384,   0xFFFFFFFFull,
                                 0xFFFFFFFFFFFFFFFFull};
  for (auto v : cases) w.put_varint(v);
  nu::ByteReader r(w.bytes());
  for (auto v : cases) EXPECT_EQ(r.get_varint(), v);
}

TEST(ByteStream, StringAndVectorRoundTrip) {
  nu::ByteWriter w;
  w.put_string("dens");
  w.put_vector(std::vector<double>{1.0, -2.5, 3.75});
  nu::ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "dens");
  EXPECT_EQ(r.get_vector<double>(), (std::vector<double>{1.0, -2.5, 3.75}));
}

TEST(ByteStream, TruncatedReadThrows) {
  nu::ByteWriter w;
  w.put_u16(7);
  nu::ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_u32(), numarck::ContractViolation);
}

TEST(ByteStream, TruncatedVarintThrows) {
  std::vector<std::uint8_t> bad{0x80, 0x80};  // continuation never ends
  nu::ByteReader r(bad);
  EXPECT_THROW((void)r.get_varint(), numarck::ContractViolation);
}

TEST(ByteStream, RemainingAndPositionAreConsistent) {
  nu::ByteWriter w;
  w.put_u32(1);
  w.put_u32(2);
  nu::ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.get_u32();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

// ---------------------------------------------------------------- expect --

TEST(Expect, ThrowsWithExpressionInMessage) {
  try {
    NUMARCK_EXPECT(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
  }
}

TEST(Expect, PassesSilently) {
  NUMARCK_EXPECT(2 + 2 == 4, "fine");
  SUCCEED();
}
