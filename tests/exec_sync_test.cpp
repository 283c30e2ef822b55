// The resolver's shard lock: concurrent finish() callers on one
// ShardedResolver are serialized per shard (every task released exactly
// once, in an oracle-valid order) and counted exactly by the lock census;
// and the census flows through the exec-threads engine into RunReport,
// its CSV schema and the metrics registry.
//
// This file runs under the ThreadSanitizer CI job and under the Release
// `--repeat until-fail:10` repeat-runner: every multi-threaded test here
// must be schedule-independent by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>  // std::lock_guard
#include <string>
#include <thread>
#include <vector>

#include "chk/chk.hpp"
#include "core/oracle.hpp"
#include "core/types.hpp"
#include "engine/registry.hpp"
#include "engine/run_report.hpp"
#include "exec/sharded_resolver.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

using exec::ShardedResolver;

std::vector<trace::TaskRecord> small_dag(std::uint64_t seed,
                                         std::uint32_t tasks) {
  workloads::RandomDagConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.addr_space = 24;  // dense enough for real hazard chains
  return *workloads::make_random_dag_trace(cfg);
}

/// Registers a whole graph from one thread, then releases it from several
/// threads at once. Each releaser pops a granted task, finishes it, and
/// queues what the release granted; pops happen under the queue lock, so
/// the pop order is a completion order the oracle can check. The queue
/// lock and thread links are the chk:: kinds so a race-checking build sees
/// the same happens-before edges the hardware provides.
TEST(ShardLock, ConcurrentFinishCallersAreSerializedAndCounted) {
  for (const core::MatchMode mode :
       {core::MatchMode::kBaseAddr, core::MatchMode::kRange}) {
    SCOPED_TRACE(core::to_string(mode));
    const auto tasks = small_dag(5, 400);
    exec::ShardedResolverConfig cfg;
    cfg.shards = 4;
    cfg.match_mode = mode;
    ShardedResolver resolver(cfg, tasks.size());

    chk::Mutex mu;
    std::deque<std::uint64_t> ready;
    std::vector<std::uint64_t> order;
    for (std::uint64_t gid = 0; gid < tasks.size(); ++gid) {
      auto session = resolver.begin_submit(gid, tasks[gid].serial,
                                           tasks[gid].fn, tasks[gid].params);
      ASSERT_EQ(session.advance(), ShardedResolver::Progress::kDone)
          << session.failure();
      if (session.ready()) ready.push_back(gid);
    }
    // Registration entered each touched shard once per task; release
    // enters the same shards once more.
    const std::uint64_t submit_locks =
        resolver.sync_stats().lock_acquisitions;
    ASSERT_GT(submit_locks, 0u);

    const auto releaser = [&] {
      std::vector<ShardedResolver::GlobalId> granted;
      for (;;) {
        std::uint64_t gid = 0;
        bool popped = false;
        {
          const std::lock_guard<chk::Mutex> lock(mu);
          if (order.size() == tasks.size()) return;
          if (!ready.empty()) {
            gid = ready.front();
            ready.pop_front();
            order.push_back(gid);
            popped = true;
          }
        }
        if (!popped) {
          // Another releaser holds the grants this one waits for.
          std::this_thread::yield();
          continue;
        }
        resolver.finish(gid, granted);
        const std::lock_guard<chk::Mutex> lock(mu);
        ready.insert(ready.end(), granted.begin(), granted.end());
      }
    };
    constexpr int kReleasers = 3;
    std::vector<chk::ThreadLink> links(kReleasers);
    std::vector<std::thread> pool;
    for (int t = 0; t < kReleasers; ++t) {
      pool.emplace_back([&releaser, &link = links[t]] {
        link.child_begin();
        releaser();
        link.child_end();
      });
    }
    for (int t = 0; t < kReleasers; ++t) {
      pool[t].join();
      links[t].parent_join();
    }

    ASSERT_EQ(order.size(), tasks.size());
    EXPECT_TRUE(ready.empty());
    std::vector<std::vector<core::Param>> params;
    for (const auto& task : tasks) params.push_back(task.params);
    const auto violation =
        core::GraphOracle::validate_completion_order(mode, params, order);
    EXPECT_TRUE(violation.empty()) << violation;

    const auto census = resolver.sync_stats();
    EXPECT_EQ(census.lock_acquisitions, 2 * submit_locks);
    EXPECT_LE(census.lock_contentions, census.lock_acquisitions);
  }
}

/// exec-threads: the master is the resolver's only caller, so the census
/// counts every shard entry and no contention, and both numbers reach the
/// report, its CSV row and the metrics registry.
TEST(ShardLock, CensusFlowsThroughEngineCsvAndMetrics) {
  engine::EngineParams params;
  params.threads = 4;
  params.banks = 2;
  const auto tasks = small_dag(1, 200);
  const auto report =
      engine::EngineRegistry::builtins()
          .make("exec-threads", params)
          ->run(std::make_unique<trace::VectorStream>(
              std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  ASSERT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_GT(report.exec_lock_acquisitions, 0u);
  EXPECT_EQ(report.exec_lock_contentions, 0u);

  const auto header = engine::RunReport::csv_header();
  const auto row = report.csv_row();
  ASSERT_EQ(header.size(), row.size());
  const auto cell = [&](const char* name) {
    const auto col = std::find(header.begin(), header.end(), name);
    EXPECT_NE(col, header.end()) << name;
    return col == header.end()
               ? std::string{}
               : row[static_cast<std::size_t>(col - header.begin())];
  };
  EXPECT_EQ(cell("exec_lock_acquisitions"),
            std::to_string(report.exec_lock_acquisitions));
  EXPECT_EQ(cell("exec_lock_contentions"), "0");

  obs::MetricsRegistry registry;
  report.register_metrics(registry);
  EXPECT_EQ(registry.value_or("sync.lock_acquisitions", -1.0),
            static_cast<double>(report.exec_lock_acquisitions));
  EXPECT_EQ(registry.value_or("sync.lock_contentions", -1.0), 0.0);
}

}  // namespace
}  // namespace nexuspp
