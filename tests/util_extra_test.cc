// Extra coverage for the util layer every other layer leans on: Status /
// Result edge cases (propagation macros, move-only payloads, move
// semantics) and ThreadPool shutdown behaviour under load.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tdmatch {
namespace util {
namespace {

// ---------------------------------------------------------------------------
// Status: move semantics
// ---------------------------------------------------------------------------

TEST(StatusExtraTest, MoveLeavesSourceOk) {
  Status s = Status::IOError("disk gone");
  Status t = std::move(s);
  EXPECT_TRUE(t.IsIOError());
  EXPECT_EQ(t.message(), "disk gone");
  // The moved-from status holds a null state record, i.e. reads as OK.
  EXPECT_TRUE(s.ok());  // NOLINT(bugprone-use-after-move)
}

TEST(StatusExtraTest, MoveAssignOverwritesError) {
  Status dst = Status::Internal("old");
  dst = Status::NotFound("new");
  EXPECT_TRUE(dst.IsNotFound());
  EXPECT_EQ(dst.message(), "new");
}

TEST(StatusExtraTest, OkCodeDropsMessage) {
  Status s(StatusCode::kOk, "should be dropped");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusExtraTest, CopyAssignFromErrorToError) {
  Status a = Status::OutOfRange("a");
  Status b = Status::AlreadyExists("b");
  a = b;
  EXPECT_TRUE(a.IsAlreadyExists());
  EXPECT_EQ(a.message(), "b");
  EXPECT_TRUE(b.IsAlreadyExists());
}

// ---------------------------------------------------------------------------
// Error propagation macros
// ---------------------------------------------------------------------------

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative: " + std::to_string(x));
  return Status::OK();
}

Status CheckAll(const std::vector<int>& xs) {
  for (int x : xs) {
    TDM_RETURN_NOT_OK(FailIfNegative(x));
  }
  return Status::OK();
}

TEST(PropagationTest, ReturnNotOkPassesThroughFirstError) {
  EXPECT_TRUE(CheckAll({1, 2, 3}).ok());
  Status s = CheckAll({1, -2, -3});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "negative: -2");  // stops at the first failure
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  TDM_ASSIGN_OR_RETURN(int h, Half(x));
  TDM_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(PropagationTest, AssignOrReturnChainsResults) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  // First stage fails.
  EXPECT_TRUE(Quarter(9).status().IsInvalidArgument());
  // Second stage fails (6/2 = 3 is odd).
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Result: move-only payloads and edge cases
// ---------------------------------------------------------------------------

Result<std::unique_ptr<int>> MakeBox(int x) {
  if (x < 0) return Status::OutOfRange("no negative boxes");
  return std::make_unique<int>(x);
}

TEST(ResultExtraTest, MoveOnlyPayloadRoundTrips) {
  auto r = MakeBox(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 7);
  std::unique_ptr<int> owned = std::move(r).ValueOrDie();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 7);
}

TEST(ResultExtraTest, MoveOnlyPayloadThroughAssignOrReturn) {
  auto doubled = [](int x) -> Result<std::unique_ptr<int>> {
    TDM_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(x));
    *box *= 2;
    return Result<std::unique_ptr<int>>(std::move(box));
  };
  auto r = doubled(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 42);
  EXPECT_TRUE(doubled(-1).status().IsOutOfRange());
}

TEST(ResultExtraTest, ErrorResultReportsStatus) {
  auto r = MakeBox(-3);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
  EXPECT_EQ(r.status().message(), "no negative boxes");
}

TEST(ResultExtraTest, OkResultHasOkStatus) {
  Result<std::string> r(std::string("hello"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r->size(), 5u);
}

TEST(ResultExtraTest, ConstructedFromOkStatusBecomesInternal) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultExtraTest, ValueOrFallsBackOnError) {
  Result<std::string> err(Status::NotFound("gone"));
  EXPECT_EQ(err.ValueOr("fallback"), "fallback");
  Result<std::string> ok(std::string("present"));
  EXPECT_EQ(ok.ValueOr("fallback"), "present");
}

// ---------------------------------------------------------------------------
// ThreadPool: shutdown under load
// ---------------------------------------------------------------------------

TEST(ThreadPoolExtraTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // The destructor must run every queued task before joining.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolExtraTest, SubmitFromWorkerDoesNotDeadlock) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    pool.Submit([&pool, &count] {
      count.fetch_add(1);
      pool.Submit([&count] { count.fetch_add(1); });
    });
    // The destructor runs the nested submission too before joining.
  }
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolExtraTest, ParallelForCoversRangeExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ThreadPool::ParallelFor(n, 4, [&hits](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolExtraTest, ParallelForMoreThreadsThanWork) {
  std::atomic<int> total{0};
  ThreadPool::ParallelFor(3, 16, [&total](size_t begin, size_t end, size_t) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPoolExtraTest, ParallelForZeroItemsIsNoop) {
  bool called = false;
  ThreadPool::ParallelFor(0, 4,
                          [&called](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolExtraTest, RunChunkedCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ThreadPool::RunChunked(p, n, 4, [&hits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
      }
    }
  }
}

TEST(ThreadPoolExtraTest, ConcurrentRunTasksEachCompleteTheirOwn) {
  // Two callers share one pool; each returns only after all of its own
  // tasks ran, while the other caller's tasks are queued beside them.
  ThreadPool pool(2);
  std::atomic<int> a{0}, b{0};
  std::thread other([&] {
    pool.RunTasks(50, [&b](size_t) { b.fetch_add(1); });
    EXPECT_EQ(b.load(), 50);
  });
  pool.RunTasks(50, [&a](size_t) { a.fetch_add(1); });
  EXPECT_EQ(a.load(), 50);
  other.join();
  EXPECT_EQ(b.load(), 50);
}

}  // namespace
}  // namespace util
}  // namespace tdmatch
