// Tests for support::Workspace, the per-thread scratch arenas behind the
// hot kernels: capacity reuse across calls, growth, slot independence, and
// the thread_local isolation guarantee under an Executor fan-out.
#include "support/workspace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "support/executor.h"

namespace {

using fullweb::support::Executor;
using fullweb::support::Workspace;

TEST(Workspace, CapacitySurvivesAcrossCalls) {
  auto& ws = Workspace::for_thread();
  auto& buf = ws.real(7);
  buf.assign(4096, 1.0);
  const double* data = buf.data();
  const std::size_t cap = buf.capacity();
  buf.clear();  // the idiomatic "release": size 0, capacity kept

  auto& again = Workspace::for_thread().real(7);
  EXPECT_EQ(&again, &buf);
  EXPECT_GE(again.capacity(), cap);
  again.resize(4096);
  EXPECT_EQ(again.data(), data);  // no reallocation on reuse at same size
}

TEST(Workspace, BuffersGrowOnDemand) {
  auto& buf = Workspace::for_thread().real(6);
  buf.assign(16, 0.0);
  buf.assign(1 << 18, 2.5);
  ASSERT_EQ(buf.size(), std::size_t{1} << 18);
  EXPECT_EQ(buf.front(), 2.5);
  EXPECT_EQ(buf.back(), 2.5);
}

TEST(Workspace, SlotsDoNotAlias) {
  auto& ws = Workspace::for_thread();
  for (std::size_t s = 0; s < Workspace::kSlots; ++s)
    ws.real(s).assign(64, static_cast<double>(s));
  for (std::size_t s = 0; s < Workspace::kSlots; ++s) {
    ASSERT_EQ(ws.real(s).size(), 64u);
    EXPECT_EQ(ws.real(s)[0], static_cast<double>(s)) << "slot " << s;
    for (std::size_t t = s + 1; t < Workspace::kSlots; ++t)
      EXPECT_NE(ws.real(s).data(), ws.real(t).data());
  }
  // Real, complex and index slot families are separate storage too.
  ws.cplx(0).assign(64, {1.0, -1.0});
  ws.index(0).assign(64, 7u);
  EXPECT_EQ(ws.real(0)[0], 0.0);
  EXPECT_EQ(ws.cplx(0)[0], std::complex<double>(1.0, -1.0));
}

TEST(Workspace, EachThreadGetsItsOwnArenaUnderExecutor) {
  Executor executor(4);
  constexpr std::size_t kTasks = 256;
  constexpr std::size_t kLen = 512;

  std::mutex mu;
  std::map<std::thread::id, const Workspace*> arena_of_thread;
  std::atomic<std::size_t> corrupted{0};

  executor.parallel_for(0, kTasks, [&](std::size_t i) {
    Workspace& ws = Workspace::for_thread();
    {
      std::lock_guard<std::mutex> lock(mu);
      auto [it, inserted] = arena_of_thread.emplace(std::this_thread::get_id(), &ws);
      // for_thread() must be stable within a thread.
      if (!inserted && it->second != &ws) ++corrupted;
    }
    // Fill an owned slot with a task-unique pattern, do some work, and
    // verify the pattern: another thread writing into this arena would show
    // up as corruption (and as a race under TSan).
    auto& buf = ws.real(5);
    buf.assign(kLen, static_cast<double>(i));
    double acc = 0.0;
    for (std::size_t j = 0; j < kLen; ++j) acc += buf[j];
    if (acc != static_cast<double>(i) * kLen) ++corrupted;
    for (std::size_t j = 0; j < kLen; ++j)
      if (buf[j] != static_cast<double>(i)) ++corrupted;
  });

  EXPECT_EQ(corrupted.load(), 0u);
  // Distinct threads got distinct arenas.
  std::vector<const Workspace*> arenas;
  for (const auto& [tid, ws] : arena_of_thread) arenas.push_back(ws);
  for (std::size_t a = 0; a < arenas.size(); ++a)
    for (std::size_t b = a + 1; b < arenas.size(); ++b)
      EXPECT_NE(arenas[a], arenas[b]);
  EXPECT_LE(arena_of_thread.size(), 5u);  // 4 workers + possibly the caller
}

}  // namespace
