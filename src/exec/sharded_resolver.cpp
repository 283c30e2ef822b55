#include "exec/sharded_resolver.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "obs/timeline.hpp"
#include "util/invariant.hpp"

namespace nexuspp::exec {

void ShardedResolverConfig::validate() const {
  bank::BankPartition{shards, region_bytes}.validate();
  if (pool_capacity < shards) {
    throw std::invalid_argument(
        "ShardedResolver: pool_capacity must be >= shards");
  }
  if (table_capacity < shards) {
    throw std::invalid_argument(
        "ShardedResolver: table_capacity must be >= shards");
  }
  core::DependenceTableConfig{std::max(1u, table_capacity / shards),
                              kick_off_capacity, allow_dummies, match_mode}
      .validate();
}

/// One shard: a complete monolithic resolver stack plus the local->global
/// id mapping, and the mutex that serializes every registration and
/// release on it. Plain (non-atomic) tables: only the bodies below touch
/// them, each under the lock.
class ShardedResolver::Shard {
 public:
  Shard(const ShardedResolverConfig& cfg, std::uint32_t shard_id,
        std::uint32_t pool_capacity, std::uint32_t table_capacity)
      : pool_({pool_capacity, 8, cfg.allow_dummies}),
        table_({table_capacity, cfg.kick_off_capacity, cfg.allow_dummies,
                cfg.match_mode}),
        resolver_(pool_, table_),
        local_to_global_(pool_capacity, kNoGlobal),
        shard_id_(shard_id) {
    ready_scratch_.reserve(pool_capacity);
  }

  struct SubmitResult {
    Progress progress = Progress::kDone;
    /// finalize said the shard holds nothing against the task (its vote
    /// on the pending counter is released by the session).
    bool shard_ready = false;
    std::string failure;  ///< set when kStructural
  };

  /// Resumable registration of one shard group (semantics identical to
  /// the simulated Maestro: busy-flag protocol, dummy entries, resumable
  /// stalls). `local` and `param_cursor` are the session's cursors,
  /// updated in place so a retry after kStalled resumes exactly where it
  /// stopped.
  SubmitResult submit_group(GlobalId gid, std::uint64_t serial,
                            std::uint64_t fn,
                            const std::vector<core::Param>& params,
                            core::TaskId& local, std::size_t& param_cursor) {
    const auto lock = lock_shard();
    // Schedcheck: this body mutates plain shard state; the write below
    // asserts every entry happens-after the previous one (i.e. the lock
    // really did serialize the critical sections).
    chk::plain_write(this);
    SubmitResult out;
    if (local == core::kInvalidTask) {
      if (!pool_.can_ever_insert(params.size())) {
        out.progress = Progress::kStructural;
        out.failure = "task " + std::to_string(serial) + " needs " +
                      std::to_string(pool_.slots_needed(params.size())) +
                      " descriptor slots, shard pool holds " +
                      std::to_string(pool_.capacity()) +
                      " (dummy tasks disabled or pool too small)";
        return out;
      }
      const auto inserted = pool_.insert(fn, serial, params);
      if (!inserted.has_value()) {
        out.progress = Progress::kStalled;
        return out;
      }
      // Schedcheck: the cursor slot is the publication point the PR 6
      // race was about — finish() readers must happen-after this write
      // via the shard lock.
      chk::plain_write(&local);
      local = inserted->id;
      param_cursor = 0;
      // The Maestro's busy-flag protocol: grants arriving while later
      // parameters are still being registered must not declare the task
      // ready — the finalize step below owns that decision.
      pool_.set_busy(local, true);
      local_to_global_[local] = gid;
    }

    while (param_cursor < params.size()) {
      const auto result = resolver_.process_param(local, params[param_cursor]);
      if (result.outcome == core::Resolver::ParamOutcome::kNeedSpace) {
        if (result.structural) {
          out.progress = Progress::kStructural;
          out.failure =
              "kick-off list overflow with dummy entries disabled "
              "(classic-Nexus structural limit) in shard " +
              std::to_string(shard_id_);
          return out;
        }
        out.progress = Progress::kStalled;
        return out;
      }
      ++param_cursor;
    }

    pool_.set_busy(local, false);
    const auto fin = resolver_.finalize_new_task(local);
    out.progress = Progress::kDone;
    out.shard_ready = fin.ready;
    return out;
  }

  /// Releases one completed shard-local task; appends the *global* ids
  /// whose shard vote this release granted (pending decrements are the
  /// caller's job).
  // NEXUS_HOT_PATH
  void finish_local(core::TaskId task, std::vector<GlobalId>& granted) {
    const auto lock = lock_shard();
    // No audited hole: the tables are fixed slabs, and both grant buffers
    // are sized for a whole pool up front, so anything that allocates here
    // trips the scope that ShardedResolver::finish opened.
    chk::plain_write(this);  // schedcheck: see submit_group
    ready_scratch_.clear();
    (void)resolver_.finish_into(task, ready_scratch_);
    for (const auto granted_local : ready_scratch_) {
      const GlobalId global = local_to_global_[granted_local];
      if (global == kNoGlobal) {
        util::AllowAllocScope allow("missing-owner diagnostic");
        throw std::logic_error(
            "ShardedResolver: granted local task has no global owner");
      }
      // Within the capacity finish() sized.  // nexus-lint: allow(hot-path-alloc)
      granted.push_back(global);
    }
    local_to_global_[task] = kNoGlobal;
    (void)pool_.free_task(task);
  }

  [[nodiscard]] SyncStats sync_stats() const {
    SyncStats out;
    out.lock_acquisitions = acquisitions_.load(std::memory_order_relaxed);
    out.lock_contentions = contentions_.load(std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] const core::TaskPool& pool() const { return pool_; }
  [[nodiscard]] const core::DependenceTable& table() const { return table_; }
  [[nodiscard]] const core::Resolver& resolver() const { return resolver_; }

 private:
  /// The mutex bundled with its checked-build rank record. Members
  /// destruct in reverse declaration order: rank retires first, then the
  /// mutex unlocks — both on the owning thread, so the tracker never
  /// claims a lock the thread no longer holds.
  struct ShardLock {
    std::unique_lock<chk::Mutex> lock;
    util::LockRankGuard rank;
  };

  /// Locks the shard, counting acquisitions and contended acquisitions.
  [[nodiscard]] ShardLock lock_shard() {
    std::unique_lock<chk::Mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      contentions_.fetch_add(1, std::memory_order_relaxed);
      // Contended path only: the timeline (when bound) gets a lock-wait
      // span; record_here is allocation-free, so this is legal inside the
      // release path's NoAllocScope.
      const double wait0 = obs::here_now_ns();
      lock.lock();
      obs::record_here(obs::EventKind::kLockWait, wait0,
                       obs::here_now_ns() - wait0, 0, shard_id_);
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return {std::move(lock), util::LockRankGuard(util::LockDomain::kShard)};
  }

  core::TaskPool pool_;
  core::DependenceTable table_;
  core::Resolver resolver_;
  /// Local TaskId -> owning global task.
  std::vector<GlobalId> local_to_global_;
  /// Local tasks one release granted; sized for a whole pool, so the
  /// release path never grows it.
  std::vector<core::TaskId> ready_scratch_;
  std::uint32_t shard_id_;
  chk::Mutex mu_;
  chk::Atomic<std::uint64_t> acquisitions_{0};
  chk::Atomic<std::uint64_t> contentions_{0};
};

// --- ShardedResolver ---------------------------------------------------------

ShardedResolver::ShardedResolver(const ShardedResolverConfig& config,
                                 std::uint64_t expected_tasks)
    : partition_{config.shards, config.region_bytes},
      match_mode_(config.match_mode),
      nodes_(expected_tasks) {
  config.validate();
  const std::uint32_t pool_per_shard =
      std::max(1u, config.pool_capacity / config.shards);
  const std::uint32_t table_per_shard =
      std::max(1u, config.table_capacity / config.shards);
  grant_capacity_ = std::size_t{pool_per_shard} * config.shards;
  shards_.reserve(config.shards);
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(config, s, pool_per_shard, table_per_shard));
  }
}

ShardedResolver::~ShardedResolver() = default;

ShardedResolver::SubmitSession ShardedResolver::begin_submit(
    GlobalId gid, std::uint64_t serial, std::uint64_t fn,
    std::vector<core::Param> params) {
  if (gid >= nodes_.size()) {
    throw std::out_of_range("ShardedResolver: gid beyond expected_tasks");
  }
  // Project the parameter list onto its touched shards (range-mode spans
  // register everywhere they reach, like the banked hardware model).
  // This is the single-threaded submit hot path — fine-grain workloads
  // are bounded by it — so grouping uses a per-resolver scratch index
  // (shard id -> group slot) instead of per-task node-based containers,
  // and single-shard parameters never materialize a bank list.
  std::vector<std::pair<std::uint32_t, std::vector<core::Param>>> groups;
  if (shards_.size() == 1) {
    if (!params.empty()) groups.emplace_back(0u, std::move(params));
  } else {
    scratch_group_of_shard_.assign(shards_.size(), -1);
    const auto add = [&](std::uint32_t shard, const core::Param& param) {
      auto& slot = scratch_group_of_shard_[shard];
      if (slot < 0) {
        slot = static_cast<std::int32_t>(groups.size());
        groups.emplace_back(shard, std::vector<core::Param>{});
      }
      groups[static_cast<std::size_t>(slot)].second.push_back(param);
    };
    for (const auto& param : params) {
      if (!partition_.param_spans_banks(param, match_mode_)) {
        add(partition_.bank_of(param.addr), param);
      } else {
        const std::uint32_t span = param.size == 0 ? 1 : param.size;
        for (const auto shard : partition_.banks_for(param.addr, span)) {
          add(shard, param);
        }
      }
    }
    // Canonical (ascending shard id) order — the discovery order above is
    // first-touch.
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  TaskNode& node = nodes_[gid];
  // Pre-size the locals (shard id now, local id written by submit_group
  // *inside* the shard's critical section): the moment a shard's finish
  // can grant this task, the granting thread — and anyone who later runs
  // finish(gid) — must already see the slot, ordered by the shard's own
  // serialization. Appending after submit_group returns would race with
  // exactly that reader.
  node.locals.clear();
  node.locals.reserve(groups.size());
  for (const auto& [shard_id, group_params] : groups) {
    (void)group_params;
    node.locals.emplace_back(shard_id, core::kInvalidTask);
  }
  // Relaxed: publication to the threads that decrement it rides each
  // shard's lock (mutex release/acquire) — no
  // thread touches this counter before entering a shard critical section
  // that happens-after the advance() that follows this store.
  node.pending.store(static_cast<std::uint32_t>(groups.size()),
                     std::memory_order_relaxed);
  SubmitSession session(this, gid, serial, fn, std::move(groups));
  session.ready_ = session.groups_.empty();  // param-less tasks run at once
  return session;
}

ShardedResolver::Progress ShardedResolver::SubmitSession::advance() {
  TaskNode& node = owner_->nodes_[gid_];
  while (group_ < groups_.size()) {
    const auto& [shard_id, params] = groups_[group_];
    Shard& shard = *owner_->shards_[shard_id];
    // The cursor *is* the task's locals slot (pre-sized by begin_submit):
    // submit_group writes the inserted local id through it inside the
    // shard's critical section, so the entry is published before any
    // finish in that shard can possibly grant the task. kInvalidTask in
    // the slot doubles as the "descriptor not inserted yet" resume state.
    core::TaskId& local = node.locals[group_].second;
    Shard::SubmitResult result;
    if (chk::Faults::publish_local_id_late() && local == core::kInvalidTask) {
      // Compiled-in mutant (schedcheck harness only; constant-false and
      // folded away in normal builds): reintroduces the PR 6 publication
      // race by registering through a session-local cursor and copying it
      // into the task node only after the critical section is left — the
      // window where a concurrent finish can grant the task and read
      // kInvalidTask.
      core::TaskId staged = local;
      result = shard.submit_group(gid_, serial_, fn_, params, staged, param_);
      chk::plain_write(&local);
      local = staged;
    } else {
      result = shard.submit_group(gid_, serial_, fn_, params, local, param_);
    }
    if (result.progress == Progress::kStalled) return Progress::kStalled;
    if (result.progress == Progress::kStructural) {
      failure_ = std::move(result.failure);
      return Progress::kStructural;
    }
    ++group_;
    if (result.shard_ready) {
      // This shard holds nothing against the task; release its vote now.
      // Acq_rel: the decrement that observes 1 claims sole ownership of
      // reporting the task ready and must see every other shard's writes
      // (their release halves), ordered before anything the winner does.
      if (node.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ready_ = true;
      }
    }
  }
  return Progress::kDone;
}

// NEXUS_HOT_PATH
void ShardedResolver::finish(GlobalId gid, std::vector<GlobalId>& now_ready) {
  // Checked builds abort on any unaudited allocation in this call's
  // dynamic extent; AllowAllocScope at the reviewed interior sites
  // (first grant-buffer sizing, diagnostics on the throw paths) opens the
  // audited holes. See docs/CORRECTNESS.md.
  util::NoAllocScope no_alloc("ShardedResolver::finish");
  now_ready.clear();
  if (now_ready.capacity() < grant_capacity_) {
    util::AllowAllocScope allow("grant buffer sizing (once per buffer)");
    now_ready.reserve(grant_capacity_);  // nexus-lint: allow(hot-path-alloc)
  }
  TaskNode& node = nodes_[gid];
  for (const auto& [shard_id, local] : node.locals) {
    // Schedcheck: reader side of the local-id publication (see
    // Shard::submit_group) — the racing pair the PR 6 mutant recreates.
    chk::plain_read(&local);
    if (local == core::kInvalidTask) {
      // A grant can only reach this task after every touched shard wrote
      // its local id (the publication the shard lock orders
      // before any finish). Seeing the sentinel here means that ordering
      // was lost — fail with a diagnosis instead of indexing the pool
      // with the sentinel.
      util::AllowAllocScope allow("invalid-local diagnostic");
      throw std::logic_error(
          "ShardedResolver::finish: task " + std::to_string(gid) +
          " granted before shard " + std::to_string(shard_id) +
          " published its local id (lost publication)");
    }
    shards_[shard_id]->finish_local(local, now_ready);
  }
  // The collected entries are per-shard votes; keep only the tasks whose
  // final vote this release supplied (in-place compaction — this path
  // must not allocate).
  std::size_t keep = 0;
  for (const GlobalId granted : now_ready) {
    // Acq_rel: same vote protocol as advance() — zero-winner owns the
    // ready report and must observe the losers' preceding shard work.
    if (nodes_[granted].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      now_ready[keep++] = granted;
    }
  }
  // Shrink only — never reallocates.  // nexus-lint: allow(hot-path-alloc)
  now_ready.resize(keep);
}

ShardedResolver::SyncStats ShardedResolver::sync_stats() const {
  SyncStats out;
  for (const auto& shard : shards_) {
    const auto s = shard->sync_stats();
    out.lock_acquisitions += s.lock_acquisitions;
    out.lock_contentions += s.lock_contentions;
  }
  return out;
}

core::Resolver::Stats ShardedResolver::resolver_stats() const {
  core::Resolver::Stats out;
  for (const auto& shard : shards_) {
    const auto& s = shard->resolver().stats();
    out.granted += s.granted;
    out.queued += s.queued;
    out.stalls += s.stalls;
    out.war_hazards += s.war_hazards;
    out.waw_hazards += s.waw_hazards;
    out.raw_hazards += s.raw_hazards;
    out.defensive_drains += s.defensive_drains;
  }
  return out;
}

ShardedResolver::TableStats ShardedResolver::table_stats() const {
  TableStats out;
  for (const auto& shard : shards_) {
    const auto& dt = shard->table().stats();
    out.lookups += dt.lookups;
    out.lookup_probes += dt.lookup_probes;
    out.max_live_slots += dt.max_live_slots;
    out.longest_hash_chain =
        std::max(out.longest_hash_chain, dt.longest_hash_chain);
    out.ko_dummy_allocations += dt.ko_dummy_allocations;
    const auto& tp = shard->pool().stats();
    out.tp_dummy_slots += tp.dummy_slots_allocated;
    out.tp_max_used += tp.max_used_slots;
  }
  return out;
}

}  // namespace nexuspp::exec
