#include "exec/sharded_resolver.hpp"

#include <stdexcept>

#include "chk/chk.hpp"
#include "util/invariant.hpp"

namespace nexuspp::exec {

namespace {

/// Parameters per descriptor slot; wider tasks spill into dummy tasks.
constexpr std::uint32_t kMaxParams = 8;

core::TaskPoolConfig pool_config(const ShardedResolverConfig& cfg) {
  return {cfg.pool_capacity, kMaxParams, cfg.allow_dummies};
}

core::DependenceTableConfig table_config(const ShardedResolverConfig& cfg) {
  return {cfg.table_capacity, cfg.kick_off_capacity, cfg.allow_dummies,
          cfg.match_mode};
}

/// Listing 2 for one parameter. Base-address registration allocates
/// nothing. Range mode is an audited hole: core::DependenceTable's
/// interval index (a by-base multimap and a size census) is node-based,
/// and its overlap scan returns a vector.
core::Resolver::ParamResult register_param(core::Resolver& resolver,
                                           const core::DependenceTable& table,
                                           core::TaskId task,
                                           const core::Param& param) {
  if (table.match_mode() == core::MatchMode::kRange) {
    const util::AllowAllocScope allow("range-mode interval index");
    return resolver.process_param(task, param);
  }
  return resolver.process_param(task, param);
}

}  // namespace

void ShardedResolverConfig::validate() const {
  pool_config(*this).validate();
  table_config(*this).validate();
}

ShardedResolver::ShardedResolver(const ShardedResolverConfig& config,
                                 std::uint64_t expected_tasks)
    : pool_(pool_config(config)),
      table_(table_config(config)),
      resolver_(pool_, table_),
      local_of_(expected_tasks, core::kInvalidTask),
      global_of_(config.pool_capacity, kNoGlobal) {
  ready_scratch_.reserve(config.pool_capacity);
}

ShardedResolver::SubmitSession ShardedResolver::begin_submit(
    GlobalId gid, std::uint64_t serial, std::uint64_t fn,
    std::vector<core::Param> params) {
  if (gid >= local_of_.size()) {
    throw std::out_of_range("ShardedResolver: gid beyond expected_tasks");
  }
  const util::NoAllocScope no_alloc("ShardedResolver::begin_submit");
  return SubmitSession(this, gid, serial, fn, std::move(params));
}

ShardedResolver::Progress ShardedResolver::SubmitSession::advance() {
  // Checked builds abort on any allocation in this call's dynamic extent
  // except the audited holes: the structural-failure diagnostics below and
  // range mode's interval index (register_param).
  const util::NoAllocScope no_alloc("ShardedResolver::SubmitSession::advance");
  if (params_.empty()) return Progress::kDone;  // param-less: ready at once
  ShardedResolver& owner = *owner_;
  // Schedcheck: the resolver is plain single-owner state. A second thread
  // entering here or in finish() without a happens-before edge to the
  // owner is reported as a race.
  chk::plain_write(&owner);
  if (local_ == core::kInvalidTask) {
    if (!owner.pool_.can_ever_insert(params_.size())) {
      util::AllowAllocScope allow("structural-failure diagnostic");
      failure_ = "task " + std::to_string(serial_) + " needs " +
                 std::to_string(owner.pool_.slots_needed(params_.size())) +
                 " descriptor slots, task pool holds " +
                 std::to_string(owner.pool_.capacity()) +
                 " (dummy tasks disabled or pool too small)";
      return Progress::kStructural;
    }
    const auto inserted = owner.pool_.insert(fn_, serial_, params_);
    if (!inserted.has_value()) return Progress::kStalled;
    local_ = inserted->id;
    // The Maestro's busy-flag protocol: grants arriving while later
    // parameters are still being registered must not declare the task
    // ready — the finalize step below owns that decision.
    owner.pool_.set_busy(local_, true);
    owner.local_of_[gid_] = local_;
    owner.global_of_[local_] = gid_;
  }

  while (param_ < params_.size()) {
    const auto result = register_param(owner.resolver_, owner.table_, local_,
                                       params_[param_]);
    if (result.outcome == core::Resolver::ParamOutcome::kNeedSpace) {
      if (result.structural) {
        util::AllowAllocScope allow("structural-failure diagnostic");
        failure_ =
            "kick-off list overflow with dummy entries disabled "
            "(classic-Nexus structural limit)";
        return Progress::kStructural;
      }
      return Progress::kStalled;
    }
    ++param_;
  }

  owner.pool_.set_busy(local_, false);
  ready_ = owner.resolver_.finalize_new_task(local_).ready;
  return Progress::kDone;
}

// NEXUS_HOT_PATH
void ShardedResolver::finish(GlobalId gid, std::vector<GlobalId>& now_ready) {
  // Checked builds abort on any unaudited allocation in this call's
  // dynamic extent; AllowAllocScope at the reviewed interior sites
  // (first grant-buffer sizing, the missing-owner diagnostic) opens the
  // audited holes. See docs/CORRECTNESS.md.
  util::NoAllocScope no_alloc("ShardedResolver::finish");
  chk::plain_write(this);  // schedcheck: see SubmitSession::advance
  now_ready.clear();
  if (now_ready.capacity() < ready_scratch_.capacity()) {
    util::AllowAllocScope allow("grant buffer sizing (once per buffer)");
    // nexus-lint: allow(hot-path-alloc)
    now_ready.reserve(ready_scratch_.capacity());
  }
  const core::TaskId local = local_of_[gid];
  if (local == core::kInvalidTask) return;  // param-less: holds no slot
  ready_scratch_.clear();
  (void)resolver_.finish_into(local, ready_scratch_);
  for (const core::TaskId granted : ready_scratch_) {
    const GlobalId global = global_of_[granted];
    if (global == kNoGlobal) {
      util::AllowAllocScope allow("missing-owner diagnostic");
      throw std::logic_error(
          "ShardedResolver: granted pool task has no global owner");
    }
    // Within the capacity sized above.  // nexus-lint: allow(hot-path-alloc)
    now_ready.push_back(global);
  }
  global_of_[local] = kNoGlobal;
  (void)pool_.free_task(local);
}

ShardedResolver::TableStats ShardedResolver::table_stats() const {
  const auto& dt = table_.stats();
  const auto& tp = pool_.stats();
  TableStats out;
  out.lookups = dt.lookups;
  out.lookup_probes = dt.lookup_probes;
  out.max_live_slots = dt.max_live_slots;
  out.longest_hash_chain = dt.longest_hash_chain;
  out.ko_dummy_allocations = dt.ko_dummy_allocations;
  out.tp_dummy_slots = tp.dummy_slots_allocated;
  out.tp_max_used = tp.max_used_slots;
  return out;
}

}  // namespace nexuspp::exec
