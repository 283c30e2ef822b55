// Layer-5 correctness tooling tests (docs/CORRECTNESS.md): the schedule
// explorer, the happens-before race checker, and a compiled-in mutant
// that proves the pair would catch a broken task-channel publication.
//
// Built without NEXUSPP_SCHEDCHECK the suite pins the zero-cost contract
// (the chk:: wrappers ARE the std primitives) and skips everything else.
// Built with it:
//   * RaceChecker unit tests drive hand-built event sequences with
//     explicit thread ids and assert exact verdicts (race kind, dedup)
//     — the checker is pure logic over those ids.
//   * ScheduleController tests pin determinism (same seed -> same trace),
//     seed sensitivity, and the deadlock / step-limit diagnoses.
//   * A workload sweep runs the executor's task-channel protocol
//     (master + 2 workers, forced parks) over seed sets and demands
//     completion with zero race reports.
//   * The mutant test flips chk::Faults::send_before_write, proves a
//     bounded schedule budget finds the reintroduced race, and replays the
//     found seed to the bit-identical trace and report signature; the same
//     seeds are clean on the real code.
//   * The single-owner test lets a second thread call
//     ShardedResolver::finish while the master still submits, with no
//     lock: the checker must report it on every seed.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <type_traits>

#include "chk/chk.hpp"

#if !defined(NEXUSPP_SCHEDCHECK)

namespace nexuspp {
namespace {

// The OFF contract: aliases, not wrappers — pointer-identical layout and
// codegen with the uninstrumented build, by construction.
static_assert(std::is_same_v<chk::Atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<chk::Atomic<std::uint64_t>,
                             std::atomic<std::uint64_t>>);
static_assert(std::is_same_v<chk::Mutex, std::mutex>);
static_assert(std::is_same_v<chk::CondVar, std::condition_variable>);
// The fault toggle folds to constant false (dead mutant branches).
static_assert(!chk::Faults::send_before_write());
static_assert(chk::schedule_thread_id() == chk::kNoScheduleThread);

TEST(SchedCheck, RequiresSchedcheckBuild) {
  GTEST_SKIP() << "built without NEXUSPP_SCHEDCHECK; configure with "
                  "-DNEXUSPP_SCHEDCHECK=ON to run schedule exploration";
}

}  // namespace
}  // namespace nexuspp

#else  // NEXUSPP_SCHEDCHECK

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "chk/controller.hpp"
#include "chk/race_checker.hpp"
#include "chk/session.hpp"
#include "core/types.hpp"
#include "exec/channel.hpp"
#include "exec/sharded_resolver.hpp"

namespace nexuspp {
namespace {

using chk::OpKind;
using chk::RaceChecker;
using chk::RaceReport;
using chk::SchedulePolicy;
using chk::ScheduleController;
using chk::ScheduleOutcome;
using chk::TraceEntry;

constexpr const char* kFile = "unit";

// --- RaceChecker: hand-built event sequences ---------------------------------

TEST(RaceChecker, UnsynchronizedWritesRace) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteWrite);
  EXPECT_EQ(checker.reports()[0].prior.line, 1u);
  EXPECT_EQ(checker.reports()[0].current.line, 2u);
}

TEST(RaceChecker, WriteThenUnorderedReadRaces) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, false, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteRead);
}

TEST(RaceChecker, ReadThenUnorderedWriteRaces) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, false, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kReadWrite);
}

TEST(RaceChecker, ConcurrentReadsDoNotRace) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, false, kFile, 1);
  checker.on_plain(1, &a, false, kFile, 2);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, ReleaseAcquireEdgeOrdersAccesses) {
  RaceChecker checker;
  int a = 0;
  int flag = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_release(0, &flag, OpKind::kAtomicStore, kFile, 2);
  checker.on_acquire(1, &flag, OpKind::kAtomicLoad, kFile, 3);
  checker.on_plain(1, &a, true, kFile, 4);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, EdgeOnDifferentAddressDoesNotOrder) {
  RaceChecker checker;
  int a = 0;
  int flag = 0;
  int other = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_release(0, &flag, OpKind::kAtomicStore, kFile, 2);
  checker.on_acquire(1, &other, OpKind::kAtomicLoad, kFile, 3);
  checker.on_plain(1, &a, true, kFile, 4);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteWrite);
}

TEST(RaceChecker, MutexCriticalSectionsOrderAccesses) {
  RaceChecker checker;
  int a = 0;
  int m = 0;
  checker.on_mutex_acquire(0, &m, kFile, 1);
  checker.on_plain(0, &a, true, kFile, 2);
  checker.on_mutex_release(0, &m, kFile, 3);
  checker.on_mutex_acquire(1, &m, kFile, 4);
  checker.on_plain(1, &a, true, kFile, 5);
  checker.on_mutex_release(1, &m, kFile, 6);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, ForkJoinClockTransferOrdersAccesses) {
  RaceChecker checker;
  int a = 0;
  std::uint64_t clock[chk::kMaxThreads] = {};
  checker.on_plain(0, &a, true, kFile, 1);
  checker.capture_clock(0, clock);  // parent captures at fork
  checker.adopt_clock(1, clock);    // child adopts before first access
  checker.on_plain(1, &a, true, kFile, 2);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, DuplicatePairReportedOnce) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  checker.on_plain(1, &a, true, kFile, 2);  // same pair again
  EXPECT_EQ(checker.reports().size(), 1u);
}

TEST(RaceChecker, ReportCarriesLocations) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, "writer.cpp", 10);
  checker.on_plain(1, &a, false, "reader.cpp", 20);
  ASSERT_EQ(checker.reports().size(), 1u);
  const std::string text = checker.reports()[0].to_string();
  EXPECT_NE(text.find("writer.cpp:10"), std::string::npos) << text;
  EXPECT_NE(text.find("reader.cpp:20"), std::string::npos) << text;
}

// --- ScheduleController: determinism and diagnoses ---------------------------

[[nodiscard]] bool traces_equal(const std::vector<TraceEntry>& a,
                                const std::vector<TraceEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_decision(b[i])) return false;
  }
  return true;
}

/// Runs one schedule of a tiny three-thread workload (atomic counter +
/// mutex-protected plain counter) and returns its trace.
std::vector<TraceEntry> run_counter_workload(const SchedulePolicy& policy) {
  chk::Atomic<std::uint64_t> counter{0};
  chk::Mutex mu;
  std::uint64_t plain = 0;
  auto body = [&] {
    for (int i = 0; i < 3; ++i) {
      counter.fetch_add(1, std::memory_order_acq_rel);
      std::lock_guard<chk::Mutex> lock(mu);
      chk::plain_write(&plain);
      ++plain;
    }
  };
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome =
      controller.run({body, body, body});
  EXPECT_TRUE(outcome.completed()) << outcome.diagnosis;
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 9u);
  EXPECT_EQ(plain, 9u);
  return controller.trace();
}

TEST(ScheduleController, SameSeedReplaysIdenticalTrace) {
  for (const auto kind :
       {SchedulePolicy::Kind::kRandomWalk, SchedulePolicy::Kind::kPct}) {
    SchedulePolicy policy;
    policy.kind = kind;
    policy.seed = 42;
    const auto first = run_counter_workload(policy);
    const auto second = run_counter_workload(policy);
    EXPECT_FALSE(first.empty());
    EXPECT_TRUE(traces_equal(first, second))
        << "replay diverged for kind=" << static_cast<int>(kind);
  }
}

TEST(ScheduleController, DifferentSeedsExploreDifferentInterleavings) {
  std::vector<std::vector<TraceEntry>> traces;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    traces.push_back(run_counter_workload(policy));
  }
  bool any_diverged = false;
  for (std::size_t i = 1; i < traces.size() && !any_diverged; ++i) {
    any_diverged = !traces_equal(traces[0], traces[i]);
  }
  EXPECT_TRUE(any_diverged)
      << "12 seeds produced one interleaving; the walk is not exploring";
}

TEST(ScheduleController, TraceTokensAreDenseAndFirstSeen) {
  SchedulePolicy policy;
  const auto trace = run_counter_workload(policy);
  ASSERT_FALSE(trace.empty());
  std::uint32_t max_token = 0;
  std::set<std::uint32_t> seen;
  for (const auto& entry : trace) {
    seen.insert(entry.addr_token);
    max_token = std::max(max_token, entry.addr_token);
  }
  // Dense: tokens 0..max all appear (first-registration numbering).
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(max_token) + 1);
  EXPECT_EQ(trace[0].addr_token, 0u);
}

TEST(ScheduleController, SelfDeadlockDiagnosed) {
  SchedulePolicy policy;
  chk::Mutex mu;
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome = controller.run({[&] {
    std::lock_guard<chk::Mutex> outer(mu);
    // Relocking the held mutex can never succeed: every live thread ends
    // up blocked with no pending write, which is exactly the deadlock
    // predicate. ScheduleAbort unwinds through lock(); the lock_guard
    // releases the outer hold.
    std::lock_guard<chk::Mutex> inner(mu);
  }});
  EXPECT_EQ(outcome.kind, ScheduleOutcome::Kind::kDeadlock);
  EXPECT_NE(outcome.diagnosis.find("deadlock"), std::string::npos)
      << outcome.diagnosis;
}

TEST(ScheduleController, AbBaDeadlockFoundAcrossSeeds) {
  int deadlocks = 0;
  int completions = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    chk::Mutex a;
    chk::Mutex b;
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, nullptr);
    const auto outcome = controller.run({
        [&] {
          std::lock_guard<chk::Mutex> la(a);
          std::lock_guard<chk::Mutex> lb(b);
        },
        [&] {
          std::lock_guard<chk::Mutex> lb(b);
          std::lock_guard<chk::Mutex> la(a);
        },
    });
    if (outcome.kind == ScheduleOutcome::Kind::kDeadlock) ++deadlocks;
    if (outcome.completed()) ++completions;
  }
  // The classic AB-BA hang depends on the interleaving: the sweep must
  // both find it and find schedules that dodge it.
  EXPECT_GT(deadlocks, 0);
  EXPECT_GT(completions, 0);
}

TEST(ScheduleController, StepLimitDiagnosed) {
  SchedulePolicy policy;
  policy.max_steps = 200;
  chk::Atomic<int> never{0};
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome = controller.run({[&] {
    while (never.load(std::memory_order_relaxed) == 0) {
    }
  }});
  EXPECT_EQ(outcome.kind, ScheduleOutcome::Kind::kStepLimit);
}

TEST(ScheduleController, SeedBannerIsReplayable) {
  SchedulePolicy policy;
  policy.seed = 1234;
  policy.kind = SchedulePolicy::Kind::kPct;
  ScheduleController controller(policy);
  const auto banner = controller.seed_banner();
  EXPECT_NE(banner.find("seed=1234"), std::string::npos) << banner;
  EXPECT_NE(banner.find("pct"), std::string::npos) << banner;
}

// --- Workload sweeps: real exec structures, zero reports ---------------------

/// Standard seed set for the sweeps: random walks plus PCT schedules.
[[nodiscard]] std::vector<SchedulePolicy> sweep_policies(
    std::uint64_t random_walks, std::uint64_t pct_schedules) {
  std::vector<SchedulePolicy> out;
  for (std::uint64_t seed = 1; seed <= random_walks; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    out.push_back(policy);
  }
  for (std::uint64_t seed = 1; seed <= pct_schedules; ++seed) {
    SchedulePolicy policy;
    policy.kind = SchedulePolicy::Kind::kPct;
    policy.seed = seed;
    policy.depth = 3;
    policy.expected_steps = 500;
    out.push_back(policy);
  }
  return out;
}

/// The executor's Task Controller channel protocol: a master and 2
/// workers over real exec::TaskChannels (depth-2 inboxes) with a
/// WaitPolicy of no spins and no yields, so every wait parks. The master
/// drains posts, sends while a worker has room, and parks when it can do
/// neither; each worker echoes the ids it receives. `tasks` > 2 * kDepth
/// wraps every ring.
struct ChannelWorkload {
  static constexpr std::uint32_t kWorkers = 2;

  explicit ChannelWorkload(std::uint64_t tasks)
      : total(tasks), echoed(tasks, 0) {}

  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const exec::WaitPolicy park_at_once{};
    const auto master = [this, park_at_once] {
      std::uint64_t next = 0;
      std::uint64_t done = 0;
      while (done < total) {
        for (auto& channel : channels) {
          done += channel.drain([this](std::uint64_t gid) { ++echoed[gid]; });
        }
        for (auto& channel : channels) {
          while (next < total && channel.held() < exec::TaskChannel::kDepth) {
            channel.send(next++);
          }
        }
        if (done < total) {
          exec::await_posts(channels, master_parker, park_at_once);
        }
      }
      for (auto& channel : channels) channel.close();
    };
    std::vector<std::function<void()>> out = {master};
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      out.emplace_back([this, w, park_at_once] {
        std::uint64_t gid = 0;
        while (channels[w].receive(gid, park_at_once)) {
          channels[w].post(gid, master_parker);
        }
      });
    }
    return out;
  }

  /// Every id came back exactly once (meaningful on real code only: the
  /// mutant may echo a stale id).
  [[nodiscard]] bool each_echoed_once() const {
    return std::all_of(echoed.begin(), echoed.end(),
                       [](std::uint32_t n) { return n == 1; });
  }

  std::uint64_t total;
  std::vector<std::uint32_t> echoed;  ///< master-only
  std::array<exec::TaskChannel, kWorkers> channels;
  exec::Parker master_parker;
};

TEST(SchedExploration, TaskChannelIsRaceFree) {
  // Random walks only. Under PCT's fixed priorities, a parked worker with
  // nothing to do and the parked master keep waking each other (the
  // controller counts the unlock inside every controlled condvar wait as
  // progress) and starve the low-priority worker that holds the task
  // both wait for — a livelock of the model, not of the protocol.
  for (const auto& policy : sweep_policies(60, 0)) {
    ChannelWorkload workload(7);
    RaceChecker checker;
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, &checker);
    const auto outcome = controller.run(workload.threads());
    ASSERT_TRUE(outcome.completed())
        << controller.seed_banner() << ": " << outcome.diagnosis;
    EXPECT_TRUE(checker.reports().empty())
        << "seed " << policy.seed << ": "
        << checker.reports()[0].to_string();
    EXPECT_TRUE(workload.each_echoed_once()) << controller.seed_banner();
  }
}

// --- Mutant detection and replay ---------------------------------------------

/// Signature of a detection, stable across processes for one seed: the
/// schedule trace plus every (kind, prior line, current line) report.
struct Detection {
  std::vector<TraceEntry> trace;
  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> reports;
  ScheduleOutcome::Kind outcome = ScheduleOutcome::Kind::kCompleted;
};

/// Runs one schedule of `Workload(tasks)` under a fresh checker.
template <class Workload>
Detection run_schedule(const SchedulePolicy& policy, std::uint64_t tasks) {
  Workload workload(tasks);
  RaceChecker checker;
  Detection out;
  {
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, &checker);
    out.outcome = controller.run(workload.threads()).kind;
    out.trace = controller.trace();
  }
  for (const auto& report : checker.reports()) {
    out.reports.emplace(static_cast<int>(report.kind), report.prior.line,
                        report.current.line);
  }
  return out;
}

/// The mutant contract: some schedule within a bounded budget reports a
/// race, and replaying its seed reproduces the identical interleaving and
/// the identical racing pair — that is the debugging contract.
void expect_found_and_replayed(
    const std::function<Detection(const SchedulePolicy&)>& run) {
  // Bounded budget: the CI gate is "found within kBudget schedules", the
  // same contract a nightly sweep would enforce.
  constexpr int kBudget = 200;
  int attempts = 0;
  SchedulePolicy found_policy;
  Detection found;
  bool detected = false;
  for (const auto& policy : sweep_policies(150, 50)) {
    ++attempts;
    const auto result = run(policy);
    if (!result.reports.empty()) {
      found_policy = policy;
      found = result;
      detected = true;
      break;
    }
    if (attempts >= kBudget) break;
  }
  ASSERT_TRUE(detected) << "mutant race not found within " << kBudget
                        << " schedules";
  EXPECT_LE(attempts, kBudget);

  const auto replay = run(found_policy);
  EXPECT_TRUE(traces_equal(found.trace, replay.trace))
      << "replay of seed " << found_policy.seed
      << " diverged from the original failing schedule";
  EXPECT_EQ(found.reports, replay.reports);
  EXPECT_EQ(found.outcome, replay.outcome);
}

// --- The mutant: a task-channel send that publishes before it writes --------

struct SendEarlyScope {
  SendEarlyScope() { chk::Faults::set_send_before_write(true); }
  ~SendEarlyScope() { chk::Faults::set_send_before_write(false); }
};

TEST(SchedExploration, MutantChannelSendRaceIsFoundAndReplays) {
  const SendEarlyScope mutant;
  expect_found_and_replayed([](const SchedulePolicy& policy) {
    return run_schedule<ChannelWorkload>(policy, 5);
  });
}

TEST(SchedExploration, MutantDisabledSameSeedsAreClean) {
  // The schedules that expose the mutant must be clean on real code —
  // the detector reacts to the fault, not to the workload.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    const auto result = run_schedule<ChannelWorkload>(policy, 5);
    EXPECT_TRUE(result.reports.empty()) << "seed " << seed;
    EXPECT_EQ(result.outcome, ScheduleOutcome::Kind::kCompleted);
  }
}

// --- Single ownership of the resolver ----------------------------------------

/// The resolver has one owner and no lock; its entry points annotate it as
/// a plain write. Here a master registers a chain of tasks (all inout on
/// one address) and hands the head to a second thread through an atomic
/// flag; that thread finishes the head. With `handoff_last` the flag is
/// raised after the whole chain is registered, so every registration
/// happens-before the finish. Otherwise the master keeps registering after
/// the handoff, unordered with the finish: the misuse the annotations
/// must expose.
struct SecondCallerWorkload {
  SecondCallerWorkload(std::uint64_t tasks, bool handoff_last)
      : total(tasks), handoff_last(handoff_last) {
    exec::ShardedResolverConfig cfg;
    cfg.pool_capacity = 64;
    cfg.table_capacity = 256;
    resolver = std::make_unique<exec::ShardedResolver>(cfg, tasks);
  }

  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      for (std::uint64_t gid = 0; gid < total; ++gid) {
        auto session = resolver->begin_submit(
            gid, gid, 0, std::vector<core::Param>{core::inout(0x40)});
        if (session.advance() != exec::ShardedResolver::Progress::kDone) {
          throw std::runtime_error("unexpected submit stall: " +
                                   session.failure());
        }
        if (gid == (handoff_last ? total - 1 : 0)) {
          head_registered.store(true, std::memory_order_release);
        }
      }
    };
    const auto finisher = [this] {
      while (!head_registered.load(std::memory_order_acquire)) {
        if (!chk::spin_yield()) std::this_thread::yield();
      }
      std::vector<std::uint64_t> granted;
      resolver->finish(0, granted);
    };
    return {master, finisher};
  }

  std::uint64_t total;
  bool handoff_last;
  std::unique_ptr<exec::ShardedResolver> resolver;
  chk::Atomic<bool> head_registered{false};
};

/// Race reports of one schedule of SecondCallerWorkload(3, handoff_last).
std::vector<RaceReport> second_caller_reports(const SchedulePolicy& policy,
                                              bool handoff_last) {
  SecondCallerWorkload workload(3, handoff_last);
  RaceChecker checker;
  {
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, &checker);
    const auto outcome = controller.run(workload.threads());
    EXPECT_TRUE(outcome.completed())
        << controller.seed_banner() << ": " << outcome.diagnosis;
  }
  // The resolver tears down after the session: main never synchronized
  // with the schedule's threads.
  return checker.reports();
}

TEST(SchedExploration, UnlockedSecondResolverCallerIsReported) {
  for (const auto& policy : sweep_policies(20, 10)) {
    const auto reports = second_caller_reports(policy, false);
    ASSERT_FALSE(reports.empty()) << "seed " << policy.seed;
    const std::string text = reports[0].to_string();
    EXPECT_NE(text.find("sharded_resolver.cpp"), std::string::npos) << text;
  }
}

TEST(SchedExploration, OrderedHandoffToASecondCallerIsClean) {
  // The same threads, with every registration before the handoff: the
  // report above comes from the missing order, not from the workload.
  for (const auto& policy : sweep_policies(20, 10)) {
    const auto reports = second_caller_reports(policy, true);
    EXPECT_TRUE(reports.empty())
        << "seed " << policy.seed << ": " << reports[0].to_string();
  }
}

}  // namespace
}  // namespace nexuspp

#endif  // NEXUSPP_SCHEDCHECK
