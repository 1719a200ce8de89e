// The shared pool behind the parallel SAR engine: chunking, lifecycle,
// exception propagation, reuse, and the spans its helpers open. These run
// under TSAN via the `parallel` CTest label (see README).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfly {
namespace {

TEST(ThreadPool, ConstructAndTearDownVariousSizes) {
  for (unsigned n : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.thread_count(), n);
    std::atomic<int> calls{0};
    pool.parallel_for(0, 100, 10,
                      [&](std::size_t b, std::size_t e) {
                        calls.fetch_add(static_cast<int>(e - b));
                      });
    EXPECT_EQ(calls.load(), 100);
  }  // destructor joins workers; leaks/hangs fail the test run
}

TEST(ThreadPool, DefaultSizeMatchesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, EmptyRangeNeverCallsBody) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 3, 2, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for(9, 9, 1, [&](std::size_t, std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, GrainLargerThanRangeIsOneChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(3, 10, 100, [&](std::size_t b, std::size_t e) {
    chunks.emplace_back(b, e);  // single chunk: no data race
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{3, 10}));
}

TEST(ThreadPool, ZeroGrainTreatedAsOne) {
  ThreadPool pool(2);
  std::vector<int> hits(17, 0);
  pool.parallel_for(0, hits.size(), 0, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 17);
}

TEST(ThreadPool, EveryIndexCoveredExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 1013;  // prime: last chunk is ragged
  std::vector<int> hits(n, 0);
  pool.parallel_for(0, n, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;  // disjoint chunks
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  // Determinism contract: the chunk set depends only on (begin, end, grain).
  auto chunk_set = [](unsigned threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(2, 53, 5, [&](std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lk(mu);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  // threads == 1 short-circuits to a single whole-range call...
  const auto serial = chunk_set(1);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0], (std::pair<std::size_t, std::size_t>{2, 53}));
  // ...while every parallel execution uses the same grain-derived chunks.
  const auto two = chunk_set(2);
  EXPECT_EQ(chunk_set(8), two);
  std::size_t covered = 0;
  for (const auto& [b, e] : two) covered += e - b;
  EXPECT_EQ(covered, 51u);
  EXPECT_EQ(two.size(), (51u + 4u) / 5u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 64, 4,
                        [&](std::size_t b, std::size_t) {
                          if (b == 32) throw std::runtime_error("chunk 32");
                        }),
      std::runtime_error);
  // The pool survives a throwing job and accepts new work.
  std::atomic<int> total{0};
  pool.parallel_for(0, 10, 1, [&](std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, ExceptionOnSerialPathPropagatesToo) {
  EXPECT_THROW(
      parallel_for(0, 4, 1,
                   [](std::size_t, std::size_t) { throw std::logic_error("serial"); },
                   1),
      std::logic_error);
}

TEST(ThreadPool, ReuseAcrossManySubmissions) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 500; ++round) {
    pool.parallel_for(0, 64, 8, [&](std::size_t b, std::size_t e) {
      total.fetch_add(static_cast<long>(e - b));
    });
  }
  EXPECT_EQ(total.load(), 500L * 64L);
}

TEST(ThreadPool, SharedPoolWrapperSumsCorrectly) {
  // Sum 1..n via disjoint partial sums on the process-wide pool.
  const std::size_t n = 10000;
  std::vector<long> partial((n + 99) / 100, 0);
  parallel_for(0, n, 100, [&](std::size_t b, std::size_t e) {
    long s = 0;
    for (std::size_t i = b; i < e; ++i) s += static_cast<long>(i) + 1;
    partial[b / 100] = s;
  });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0L),
            static_cast<long>(n) * (static_cast<long>(n) + 1) / 2);
}

TEST(ThreadPool, ClampThreadCountPinsToHardware) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // 0 is the "use the hardware" sentinel everywhere a knob defaults to it.
  EXPECT_EQ(clamp_thread_count(0), hw);
  EXPECT_EQ(clamp_thread_count(1), 1u);
  // Oversized requests (a config written on a bigger machine) pin to the
  // hardware instead of oversubscribing; results are unaffected because
  // chunk boundaries never depend on the thread count.
  EXPECT_EQ(clamp_thread_count(hw), hw);
  EXPECT_EQ(clamp_thread_count(hw + 1), hw);
  EXPECT_EQ(clamp_thread_count(10000), hw);
  if (hw > 1) {
    EXPECT_EQ(clamp_thread_count(hw - 1), hw - 1);
  }
}

TEST(ThreadPool, NestedParallelForRunsSerially) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    // Nested use must neither deadlock nor drop work.
    parallel_for(0, 16, 2, [&](std::size_t b, std::size_t e) {
      inner_calls.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(inner_calls.load(), 8 * 16);
}

/// A parallel_for whose chunks wait (up to 2 s) until a second thread has
/// run one, so on a multi-core host at least one helper joins.
void run_until_two_threads_join(ThreadPool& pool) {
  std::mutex mu;
  std::set<std::thread::id> threads;
  pool.parallel_for(0, 64, 1, [&](std::size_t, std::size_t) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(mu);
        threads.insert(std::this_thread::get_id());
        if (threads.size() >= 2) return;
      }
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
}

TEST(ThreadPool, HelpersOpenTheRegionOwnersSpan) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "needs 2 cores";
  ThreadPool pool(4);
  (void)obs::drain_trace();
  {
    obs::Span region("test.region");
    run_until_two_threads_join(pool);
  }
  const auto trace = obs::drain_trace();
  const obs::SpanRecord* owner = nullptr;
  std::vector<const obs::SpanRecord*> helpers;
  for (const auto& span : trace.spans) {
    if (std::strcmp(span.name, "test.region") != 0) continue;
    if (owner == nullptr) {
      owner = &span;  // opened first: the caller's
    } else {
      helpers.push_back(&span);
    }
  }
  ASSERT_NE(owner, nullptr);
  ASSERT_GE(helpers.size(), 1u) << "no helper span named after the region";
  std::set<std::uint32_t> threads{owner->thread};
  for (const obs::SpanRecord* helper : helpers) {
    threads.insert(helper->thread);
    EXPECT_EQ(helper->depth, 0u);  // a root on the helper's own thread
    EXPECT_GE(helper->start_ns, owner->start_ns);
    EXPECT_LE(helper->end_ns, owner->end_ns);
  }
  EXPECT_GE(threads.size(), 2u);
  // The helpers opened no pool.job span of their own.
  for (const auto& span : trace.spans) {
    if (span.thread != owner->thread) {
      EXPECT_STRNE(span.name, "pool.job");
    }
  }

  // A region opened outside any span: helpers name theirs pool.job.
  run_until_two_threads_join(pool);
  const auto unowned = obs::drain_trace();
  std::set<std::uint32_t> pool_job_threads;
  for (const auto& span : unowned.spans) {
    if (std::strcmp(span.name, "pool.job") == 0) pool_job_threads.insert(span.thread);
  }
  EXPECT_GE(pool_job_threads.size(), 2u);
}

}  // namespace
}  // namespace rfly
