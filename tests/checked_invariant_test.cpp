// The NEXUSPP_CHECKED invariant layer's own tests. Each negative test
// violates one invariant in a death-test child process and asserts the
// checked build aborts with the documented "nexuspp-checked:" diagnostic;
// the positive tests prove the real resolver paths run clean under full
// instrumentation (the audited AllowAllocScope holes line up with every
// allocation the release path actually performs). In a normal build the
// hooks compile to nothing, and this file only verifies they stay inert.

#include <gtest/gtest.h>

#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"
#include "exec/sharded_resolver.hpp"
#include "util/invariant.hpp"

namespace nexuspp {
namespace {

using exec::ShardedResolver;
using exec::ShardedResolverConfig;
using util::AllowAllocScope;
using util::LockDomain;
using util::LockRankGuard;
using util::NoAllocScope;

/// Submits `tasks` single-chain tasks (all inout on one address, so task
/// i depends on task i-1), then finishes them in dependency order. This
/// walks the full grant machinery — shard critical sections and pending-
/// counter votes — under whatever instrumentation the build enables.
void drive_chain(std::uint64_t tasks) {
  ShardedResolverConfig cfg;
  cfg.shards = 4;
  cfg.pool_capacity = 256;
  cfg.table_capacity = 1024;
  ShardedResolver resolver(cfg, tasks);

  std::vector<ShardedResolver::GlobalId> order;
  for (std::uint64_t gid = 0; gid < tasks; ++gid) {
    auto session = resolver.begin_submit(
        gid, gid, 0, std::vector<core::Param>{core::inout(0x1000)});
    ASSERT_EQ(session.advance(), ShardedResolver::Progress::kDone);
    if (session.ready()) order.push_back(gid);
  }
  ASSERT_EQ(order.size(), 1u);  // head of the chain only

  std::vector<ShardedResolver::GlobalId> now_ready;
  std::uint64_t finished = 0;
  while (finished < order.size()) {
    resolver.finish(order[finished], now_ready);
    ++finished;
    order.insert(order.end(), now_ready.begin(), now_ready.end());
  }
  EXPECT_EQ(finished, tasks);
}

TEST(CheckedInvariants, ResolverChainRunsClean) { drive_chain(64); }

/// Drives a core::Resolver directly: a writer, a crowd of readers behind
/// it, a second writer, more readers, repeated. Two-id kick-off lists make
/// the crowds spill into dummy entries, and draining them promotes the
/// dummies. Every task also writes a private address, so finishing erases
/// entries too. Each finish_into runs inside a NoAllocScope with no holes:
/// in a checked build any heap allocation on the release path aborts.
void drive_core_release(core::MatchMode mode) {
  core::TaskPool pool({128, 4});
  core::DependenceTable table({512, 2, true, mode});
  core::Resolver resolver(pool, table);

  constexpr core::Addr kShared = 0x1000;
  std::vector<core::TaskId> ready;
  std::vector<core::TaskId> order;  // submission order
  std::uint32_t submitted = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) {
      const core::Param shared =
          i == 0 ? core::inout(kShared) : core::in(kShared);
      const std::vector<core::Param> params = {
          shared, core::out(0x8000 + 0x40 * submitted)};
      const auto ins = pool.insert(0, submitted++, params);
      ASSERT_TRUE(ins.has_value());
      const auto sub = resolver.submit(ins->id);
      ASSERT_FALSE(sub.stalled);
      order.push_back(ins->id);
      if (sub.ready) ready.push_back(ins->id);
    }
  }
  EXPECT_GT(table.stats().ko_dummy_allocations, 0u);

  std::vector<core::TaskId> now_ready;
  now_ready.reserve(pool.capacity());
  std::size_t finished = 0;
  while (finished < ready.size()) {
    const core::TaskId task = ready[finished++];
    now_ready.clear();
    {
      const NoAllocScope no_alloc("core::Resolver::finish_into");
      (void)resolver.finish_into(task, now_ready);
      (void)pool.free_task(task);
    }
    ready.insert(ready.end(), now_ready.begin(), now_ready.end());
  }
  EXPECT_EQ(finished, order.size());
  EXPECT_GT(table.stats().promotions, 0u);
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(pool.empty());
}

TEST(CheckedInvariants, CoreReleasePathAllocatesNothingBaseAddr) {
  drive_core_release(core::MatchMode::kBaseAddr);
}

TEST(CheckedInvariants, CoreReleasePathAllocatesNothingRange) {
  drive_core_release(core::MatchMode::kRange);
}

#if defined(NEXUSPP_CHECKED)

TEST(CheckedInvariantsDeath, TwoShardLocksAbort) {
  EXPECT_DEATH(
      {
        const LockRankGuard first(LockDomain::kShard);
        const LockRankGuard second(LockDomain::kShard);
      },
      "nexuspp-checked: shard lock acquired while a shard lock is held");
}

TEST(CheckedInvariantsDeath, RunQueueUnderShardLockAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard shard(LockDomain::kShard);
        const LockRankGuard queue(LockDomain::kRunQueue);
      },
      "nexuspp-checked: run-queue lock acquired while a shard lock is held");
}

TEST(CheckedInvariantsDeath, ShardUnderRunQueueLockAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard queue(LockDomain::kRunQueue);
        const LockRankGuard shard(LockDomain::kShard);
      },
      "nexuspp-checked: shard lock acquired while run-queue lock is held");
}

TEST(CheckedInvariantsDeath, CompletionUnderRunQueueLockAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard queue(LockDomain::kRunQueue);
        const LockRankGuard completion(LockDomain::kCompletion);
      },
      "nexuspp-checked: completion lock acquired while run-queue lock is "
      "held");
}

TEST(CheckedInvariantsDeath, ShardUnderCompletionLockAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard completion(LockDomain::kCompletion);
        const LockRankGuard shard(LockDomain::kShard);
      },
      "nexuspp-checked: shard lock acquired while completion lock is held");
}

TEST(CheckedInvariantsDeath, HotPathAllocationAborts) {
  EXPECT_DEATH(
      {
        const NoAllocScope guard("injected-hot-path");
        auto* leak = new int(42);  // trips the operator-new hook
        (void)leak;
      },
      "nexuspp-checked: allocation inside a no-alloc scope "
      "\\(injected-hot-path\\)");
}

TEST(CheckedInvariants, SequentialLocksAndAllowedAllocsPass) {
  {
    const LockRankGuard first(LockDomain::kShard);
  }
  const LockRankGuard second(LockDomain::kShard);  // prior scope closed

  const NoAllocScope no_alloc("audited-region");
  const AllowAllocScope allow("audited interior site");
  auto* fine = new int(7);  // inside the allow window: must not abort
  delete fine;
}

#else  // !NEXUSPP_CHECKED

TEST(CheckedInvariants, HooksAreInertInNormalBuilds) {
  // The no-op versions must accept the same shapes and do nothing.
  const LockRankGuard a(LockDomain::kShard);
  const LockRankGuard b(LockDomain::kShard);  // no tracking: no abort
  const NoAllocScope no_alloc("ignored");
  auto* ok = new int(1);  // no operator-new hook in normal builds
  delete ok;
}

#endif  // NEXUSPP_CHECKED

}  // namespace
}  // namespace nexuspp
