#pragma once
// ShardedResolver: the exec-threads master's dependence resolver, built
// from the simulator's own untimed structures.
//
// One monolithic resolver stack — core::TaskPool + core::DependenceTable +
// core::Resolver — driven verbatim: same Listing-2 semantics, same
// dummy-entry mechanics, same `busy`-flag protocol as the simulated
// Maestro. A global task (dense id in submission order) owns at most one
// descriptor in the pool; two flat arrays map global ids to pool ids and
// back. Param-less tasks bypass the tables: they are ready at once and
// take no descriptor slot.
//
// One owner, no lock. ThreadedExecutor's master thread is the only caller,
// as the paper's Maestro is the only reader and writer of its Task Pool
// and Dependence Table, so the tables need no synchronization. Both entry
// points (SubmitSession::advance and finish) annotate the resolver as a
// plain write: the schedcheck race checker, and TSan, report any second
// thread that touches it.
//
// The name is historical: the resolver once split its tables into
// lock-guarded shards. The benchmark (perfbench/) still builds and drives
// this class by name.
//
// Capacity behaviour mirrors the timed Maestro: a full pool/table yields a
// resumable stall (SubmitSession keeps its cursor; a retry never
// re-registers processed parameters), and structural failures (kick-off
// overflow with dummies disabled, oversized descriptors) are permanent and
// reported as such.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"

namespace nexuspp::exec {

struct ShardedResolverConfig {
  core::MatchMode match_mode = core::MatchMode::kBaseAddr;
  std::uint32_t pool_capacity = 16384;   ///< Task Pool descriptor slots
  std::uint32_t table_capacity = 65536;  ///< Dependence Table entries
  std::uint32_t kick_off_capacity = 8;   ///< ids per kick-off list
  bool allow_dummies = true;  ///< dummy tasks + dummy entries

  /// Throws std::invalid_argument on a zero capacity or an unusable table
  /// or pool configuration.
  void validate() const;
};

class ShardedResolver {
 public:
  /// Dense task index assigned by the caller in submission order.
  using GlobalId = std::uint64_t;
  static constexpr GlobalId kNoGlobal = ~0ull;

  /// `expected_tasks` sizes the global -> pool id map.
  ShardedResolver(const ShardedResolverConfig& config,
                  std::uint64_t expected_tasks);

  ShardedResolver(const ShardedResolver&) = delete;
  ShardedResolver& operator=(const ShardedResolver&) = delete;

  enum class Progress : std::uint8_t {
    kDone,        ///< fully registered; query session.ready()
    kStalled,     ///< pool or table out of space — retry after a finish
    kStructural,  ///< permanent failure; see session.failure()
  };

  /// Resumable registration of one task. On kStalled all completed work
  /// stays registered and the cursor resumes exactly where it stopped, so
  /// no parameter is ever processed twice.
  class SubmitSession {
   public:
    [[nodiscard]] Progress advance();

    /// True once the task has no unresolved dependencies — set either at
    /// kDone or never (a later finish() reports the task ready instead).
    /// Exactly one of the two paths fires per task.
    [[nodiscard]] bool ready() const noexcept { return ready_; }
    [[nodiscard]] const std::string& failure() const noexcept {
      return failure_;
    }

   private:
    friend class ShardedResolver;
    SubmitSession(ShardedResolver* owner, GlobalId gid, std::uint64_t serial,
                  std::uint64_t fn, std::vector<core::Param> params)
        : owner_(owner), gid_(gid), serial_(serial), fn_(fn),
          params_(std::move(params)), ready_(params_.empty()) {}

    ShardedResolver* owner_;
    GlobalId gid_;
    std::uint64_t serial_;
    std::uint64_t fn_;
    std::vector<core::Param> params_;
    core::TaskId local_ = core::kInvalidTask;  ///< pool id once inserted
    std::size_t param_ = 0;  ///< next parameter to register
    std::string failure_;
    bool ready_;
  };

  /// Starts registration of task `gid` (in gid order; gid <
  /// expected_tasks). Takes the parameter list by value and moves it into
  /// the session: registration allocates nothing.
  [[nodiscard]] SubmitSession begin_submit(GlobalId gid, std::uint64_t serial,
                                           std::uint64_t fn,
                                           std::vector<core::Param> params);

  /// Releases every access of completed task `gid`, frees its descriptor,
  /// and fills `now_ready` (cleared first) with the global tasks that
  /// became ready. The buffer is caller-owned so the release hot path
  /// never allocates — callers reuse one buffer; the first call on a
  /// buffer sizes it once to the pool capacity, the most grants one
  /// release can produce. Never needs new table space.
  void finish(GlobalId gid, std::vector<GlobalId>& now_ready);

  // --- Telemetry (exact only when quiescent) ----------------------------------

  [[nodiscard]] core::Resolver::Stats resolver_stats() const {
    return resolver_.stats();
  }

  struct TableStats {
    std::uint64_t lookups = 0;
    std::uint64_t lookup_probes = 0;
    std::uint32_t max_live_slots = 0;
    std::uint32_t longest_hash_chain = 0;
    std::uint64_t ko_dummy_allocations = 0;
    std::uint64_t tp_dummy_slots = 0;
    std::uint32_t tp_max_used = 0;
  };
  [[nodiscard]] TableStats table_stats() const;

 private:
  core::TaskPool pool_;
  core::DependenceTable table_;
  core::Resolver resolver_;
  /// Global id -> pool id (kInvalidTask until registered, and for
  /// param-less tasks, which hold no descriptor).
  std::vector<core::TaskId> local_of_;
  /// Pool id -> owning global id (kNoGlobal while the slot is free).
  std::vector<GlobalId> global_of_;
  /// Pool ids one release granted; sized for a whole pool, so the release
  /// path never grows it.
  std::vector<core::TaskId> ready_scratch_;
};

}  // namespace nexuspp::exec
