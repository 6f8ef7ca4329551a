#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/temp_path.hpp"
#include "util/thread_pool.hpp"

namespace lgg {
namespace {

// ---------- bits ----------

TEST(Bits, WordsForBits) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(128), 2u);
  EXPECT_EQ(words_for_bits(129), 3u);
}

TEST(Bits, SetGetClear) {
  std::vector<std::uint64_t> words(3, 0);
  for (const std::size_t i : {0u, 1u, 63u, 64u, 127u, 128u, 191u}) {
    EXPECT_FALSE(get_bit(words, i));
    set_bit(words, i);
    EXPECT_TRUE(get_bit(words, i));
  }
  clear_bit(words, 64);
  EXPECT_FALSE(get_bit(words, 64));
  EXPECT_TRUE(get_bit(words, 63));
  EXPECT_TRUE(get_bit(words, 127));
}

TEST(Bits, Popcount) {
  std::vector<std::uint64_t> words{0xFFull, 0x1ull, 0x8000000000000000ull};
  EXPECT_EQ(popcount(words), 8u + 1u + 1u);
}

TEST(Bits, AndPopcount) {
  std::vector<std::uint64_t> a{0b1100, 0xFFFF};
  std::vector<std::uint64_t> b{0b1010, 0xFF00};
  EXPECT_EQ(and_popcount(a, b), 1u + 8u);
}

TEST(Bits, AndPopcountDifferentLengthsUsesShorter) {
  std::vector<std::uint64_t> a{~0ull, ~0ull};
  std::vector<std::uint64_t> b{~0ull};
  EXPECT_EQ(and_popcount(a, b), 64u);
}

TEST(Bits, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(0, 256), 0u);
  EXPECT_EQ(round_up_pow2(1, 256), 256u);
  EXPECT_EQ(round_up_pow2(256, 256), 256u);
  EXPECT_EQ(round_up_pow2(257, 256), 512u);
}

TEST(Bits, ForEachSetBitVisitsAscending) {
  std::vector<std::uint64_t> words(2, 0);
  const std::vector<std::size_t> want{0, 5, 63, 64, 100};
  std::span<std::uint64_t> span_words(words);
  for (const std::size_t i : want) set_bit(span_words, i);
  std::vector<std::size_t> got;
  for_each_set_bit(words, [&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

// ---------- parse ----------

TEST(ParseU64, StrictDecimal) {
  EXPECT_EQ(util::parse_u64("0"), 0u);
  EXPECT_EQ(util::parse_u64("007"), 7u);
  EXPECT_EQ(util::parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "+5", "-1", " 5", "5 ", "5x", "0x10",
                          "18446744073709551616", "99999999999999999999",
                          "100000000000000000000"})
    EXPECT_EQ(util::parse_u64(bad), std::nullopt) << "'" << bad << "'";
}

TEST(ParseF64, StrictFiniteToken) {
  EXPECT_EQ(util::parse_f64("0.25"), 0.25);
  EXPECT_EQ(util::parse_f64("1"), 1.0);
  EXPECT_EQ(util::parse_f64("-2.5"), -2.5);
  EXPECT_EQ(util::parse_f64(".5"), 0.5);
  EXPECT_EQ(util::parse_f64("1e-3"), 1e-3);
  EXPECT_EQ(util::parse_f64("1.7976931348623157e308"), 1.7976931348623157e308);
  // Same value as strtod for the tokens both accept.
  for (const char* ok : {"0.1", "0.05", "3.14159", "1e-07", "0.3333333333"})
    EXPECT_EQ(util::parse_f64(ok), std::strtod(ok, nullptr)) << ok;
  for (const char* bad : {"", "+1", " 1", "1 ", "1.5x", "abc", "0x1p3", "1e",
                          "nan", "inf", "-inf", "1e999", ",7", "0.1,7"})
    EXPECT_EQ(util::parse_f64(bad), std::nullopt) << "'" << bad << "'";
}

// ---------- prng ----------

TEST(Prng, DeterministicStream) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Prng, UniformBoundRespected) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Prng, UniformZeroBound) {
  Xoshiro256 rng(7);
  EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Prng, Uniform01Range) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, UniformIsRoughlyUniform) {
  Xoshiro256 rng(11);
  std::vector<int> buckets(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++buckets[rng.uniform(10)];
  for (const int b : buckets) EXPECT_NEAR(b, draws / 10, draws / 100);
}

TEST(Prng, SplitMixExpandsZeroSeed) {
  // Zero seed must still give a usable stream.
  Xoshiro256 rng(0);
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 50; ++i) vals.insert(rng.next());
  EXPECT_GT(vals.size(), 45u);
}

// ---------- error ----------

TEST(Error, LggCheckThrowsWithMessage) {
  try {
    LGG_CHECK(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Error, LggAssertThrowsLogicError) {
  EXPECT_THROW(LGG_ASSERT(1 == 2), std::logic_error);
}

// ---------- table ----------

TEST(Table, AlignedOutput) {
  TextTable t({"name", "n"});
  t.new_row().add("alpha").add(std::uint64_t{5});
  t.new_row().add("b").add(std::uint64_t{123456});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("123456"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  TextTable t({"only"});
  t.new_row().add("ok");
  EXPECT_THROW(t.add("overflow"), Error);
}

TEST(Table, AddBeforeNewRowThrows) {
  TextTable t({"c"});
  EXPECT_THROW(t.add("x"), Error);
}

TEST(Table, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4ull * 1024 * 1024 * 1024), "4.00 GiB");
}

TEST(Table, FormatSeconds) {
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
  EXPECT_EQ(format_seconds(0.0015), "1.500 ms");
  EXPECT_EQ(format_seconds(0.0000015), "1.500 us");
}

// ---------- thread pool ----------

TEST(ThreadPool, CoversWholeRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   10,
                   [](std::size_t lo, std::size_t) {
                     if (lo == 0) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, PropagatesExceptionFromWorkerChunk) {
  // Chunk 0 runs inline on the caller; force the throw into a chunk that
  // is executed by a pool worker (lo != 0) and check it still propagates.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t lo, std::size_t) {
                                   if (lo != 0)
                                     throw std::runtime_error("worker boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SmallRangeSpawnsNoEmptyChunks) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(3, [&](std::size_t lo, std::size_t hi) {
    const std::lock_guard lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::size_t covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi) << "empty chunk spawned";
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 3u);
  EXPECT_LE(chunks.size(), 3u);
}

TEST(ThreadPool, GrainBoundsChunkSize) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::size_t> sizes;
  pool.parallel_for(
      100,
      [&](std::size_t lo, std::size_t hi) {
        const std::lock_guard lock(mu);
        sizes.push_back(hi - lo);
      },
      40);
  std::size_t covered = 0;
  for (const std::size_t s : sizes) {
    EXPECT_GE(s, 40u);  // n >= grain: every chunk holds >= grain elements
    covered += s;
  }
  EXPECT_EQ(covered, 100u);
  EXPECT_LE(sizes.size(), 2u);  // 100 / 40 = 2 chunks max
}

TEST(ThreadPoolDynamic, CoversWholeRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_dynamic(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolDynamic, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_dynamic(0, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolDynamic, GrainBoundsChunkCount) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_dynamic(
      100,
      [&](std::size_t lo, std::size_t hi) {
        const std::lock_guard lock(mu);
        chunks.emplace_back(lo, hi);
      },
      40);
  std::size_t covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 100u);
  EXPECT_LE(chunks.size(), 2u);  // 100 / 40 = at most 2 chunks
}

TEST(ThreadPoolDynamic, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_dynamic(
                   100,
                   [](std::size_t lo, std::size_t) {
                     if (lo != 0) throw std::runtime_error("dynamic boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, TinyCallsNeverTouchAReturnedFrame) {
  // Regression: the last worker used to decrement the completion count
  // and only then lock done_mutex to notify, so the caller could see zero,
  // return, and reuse the frame holding done_mutex/done_cv while the
  // worker still used them.  Each call below splits [0, 4) into four
  // one-element chunks; whoever runs chunk 0 (the caller, in
  // parallel_for) waits until the other three have run, then spins a
  // call-dependent few steps, so over the loop the caller's completion
  // check sweeps across the moment the last worker retires.  Thousands of
  // back-to-back calls on one private pool reuse the same frame;
  // ThreadSanitizer (the tsan preset runs this label) reports any late
  // touch, and a plain build may crash or hang on it.
  ThreadPool pool(3);
  std::atomic<int> others_done{0};
  std::atomic<int> delay{0};
  const auto chunk = [&](std::size_t lo, std::size_t) {
    if (lo != 0) {
      others_done.fetch_add(1);
      return;
    }
    while (others_done.load() < 3) std::this_thread::yield();
    std::atomic<int> spin{0};
    while (spin.fetch_add(1) < delay.load()) {
    }
  };
  for (int i = 0; i < 3000; ++i) {
    delay = i % 97;
    others_done = 0;
    pool.parallel_for(4, chunk);
    ASSERT_EQ(others_done.load(), 3);
    others_done = 0;
    pool.parallel_for_dynamic(4, chunk, 1, 1);
    ASSERT_EQ(others_done.load(), 3);
  }
}

TEST(ThreadPool, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(
      5,
      [&](std::size_t lo, std::size_t hi) {
        const std::lock_guard lock(mu);
        chunks.emplace_back(lo, hi);
      },
      64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks.front(), (std::pair<std::size_t, std::size_t>{0, 5}));
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> total{0};
  ThreadPool::shared().parallel_for(257, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 257);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t, std::size_t) {
      throw std::runtime_error("first");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> total{0};
  pool.parallel_for(100, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 100);
}

// ---------- temp paths ----------

TEST(TempPath, UniquePerCallAndRemovedOnDestruction) {
  namespace fs = std::filesystem;
  std::string file_path, dir_path, nested;
  {
    const util::TempPath a = util::TempPath::file("lgg-util-test");
    const util::TempPath b = util::TempPath::file("lgg-util-test");
    const util::TempPath dir = util::TempPath::dir("lgg-util-test");
    EXPECT_NE(a.path(), b.path());
    EXPECT_TRUE(fs::is_regular_file(a.path()));
    EXPECT_TRUE(fs::is_directory(dir.path()));
    file_path = a.path();
    dir_path = dir.path();
    nested = dir.path() + "/inside.txt";
    std::ofstream(nested) << "x";
    ASSERT_TRUE(fs::exists(nested));
  }
  EXPECT_FALSE(fs::exists(file_path));
  EXPECT_FALSE(fs::exists(dir_path));
  EXPECT_FALSE(fs::exists(nested));
}

}  // namespace
}  // namespace lgg
