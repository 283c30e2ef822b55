#pragma once
// Task Controller channels: the master <-> worker links of exec-threads.
//
// In Nexus++ the Maestro sends each ready task's descriptor straight to a
// per-core Task Controller, which double-buffers it (one task running,
// one waiting) and reports "finished" back on its own link. TaskChannel
// is that link for one worker thread:
//
//   inbox  — master -> worker ring of kDepth = 2 task ids: the running
//            task plus one buffered task;
//   outbox — worker -> master ring of kDepth finished ids.
//
// Each ring has exactly one producer and one consumer and is published by
// one monotonically increasing counter: `sent` (master-written) for the
// inbox, `posted` (worker-written) for the outbox. The producer writes
// the slot, then stores the counter; the consumer loads the counter
// (acquire), then reads the slot. No lock is taken on this path.
//
// Slot reuse needs no second counter. The master sends only while the
// worker holds fewer than kDepth tasks whose completion the master has
// not drained (held() < kDepth), so:
//   * inbox slot n % kDepth is rewritten for task n only after the master
//     drained the completion of task n - kDepth, which the worker posted
//     after reading that slot;
//   * outbox slot n % kDepth is rewritten for completion n only after the
//     worker took task n, which the master sent after draining completion
//     n - kDepth.
// Neither ring can overflow, so neither side ever waits for space.
//
// Waiting. A thread with nothing to do — a worker with an empty inbox,
// the master with no completion posted — waits through its Parker: a
// bounded pause-spin (only when every pool thread can have a core of its
// own), then a short bounded yield phase, then a park on the Parker's
// mutex/condvar. The park handshake is Dekker-style: the waiter stores
// `sleeping`, then re-checks its condition; the producer stores its
// counter, then loads `sleeping`. All four are seq_cst, so at least one
// side sees the other's store and a wake-up is never lost.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>

#include "chk/chk.hpp"
#include "util/invariant.hpp"

namespace nexuspp::exec {

/// Cache-line size the channel layout assumes (x86-64 and most ARM cores).
inline constexpr std::size_t kCacheLine = 64;

/// How long a thread with nothing to do polls before it parks.
struct WaitPolicy {
  std::uint32_t spins = 0;   ///< pause-polls before the yield phase
  std::uint32_t yields = 0;  ///< yield-polls before parking

  /// The executor's policy for `workers` worker threads plus the master:
  /// spin only when they all fit on the host's hardware threads (a
  /// spinning thread would otherwise steal the core of the thread it
  /// waits for), then always a short yield phase.
  [[nodiscard]] static WaitPolicy for_pool(std::uint32_t workers);
};

/// One pause instruction: tells the core this is a spin-wait loop.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// One waiting thread's parking spot. wait() is called only by the owning
/// thread; wake() by any thread after it published what the owner's
/// condition reads (with a seq_cst store).
class Parker {
 public:
  /// Returns once `ready()` holds. `ready` must read the producers'
  /// counters with seq_cst loads (the handshake's second half).
  template <class Ready>
  void wait(const WaitPolicy& policy, const Ready& ready) {
    for (std::uint32_t i = 0; i < policy.spins; ++i) {
      if (ready()) return;
      if (!chk::spin_yield()) cpu_relax();
    }
    for (std::uint32_t i = 0; i < policy.yields; ++i) {
      if (ready()) return;
      if (!chk::spin_yield()) std::this_thread::yield();
    }
    sleeping_.store(true, std::memory_order_seq_cst);
    if (!ready()) {
      std::unique_lock<chk::Mutex> lock(mu_);
      const util::LockRankGuard rank(util::LockDomain::kPark);
      cv_.wait(lock, ready);
    }
    // Relaxed: a stale `true` only costs a waker one spare notify.
    sleeping_.store(false, std::memory_order_relaxed);
  }

  /// Wakes the owner if it is parked or about to park.
  void wake() {
    if (!sleeping_.load(std::memory_order_seq_cst)) return;
    {
      // Empty critical section: the owner either has not yet taken the
      // mutex to re-check (and will see the published state) or is
      // inside cv_.wait (and gets the notify below).
      const std::lock_guard<chk::Mutex> lock(mu_);
      const util::LockRankGuard rank(util::LockDomain::kPark);
    }
    cv_.notify_one();
  }

  /// Hint: the owner is parked (or about to). Relaxed, so possibly stale.
  [[nodiscard]] bool sleeping() const {
    return sleeping_.load(std::memory_order_relaxed);
  }

 private:
  chk::Atomic<bool> sleeping_{false};
  chk::Mutex mu_;
  chk::CondVar cv_;
};

class TaskChannel {
 public:
  /// Tasks a worker holds at most: the running one plus one buffered.
  static constexpr std::uint32_t kDepth = 2;

  // --- Master side -------------------------------------------------------

  /// Tasks sent whose completion the master has not drained yet.
  [[nodiscard]] std::uint32_t held() const noexcept {
    return static_cast<std::uint32_t>(sent_count_ - drained_);
  }

  /// Hint: the worker is parked (see Parker::sleeping).
  [[nodiscard]] bool worker_sleeping() const { return parker_.sleeping(); }

  /// Sends task `gid` and wakes the worker if it is parked. Requires
  /// held() < kDepth.
  // NEXUS_HOT_PATH
  void send(std::uint64_t gid) {
    const std::uint64_t n = sent_count_;
    std::uint64_t& slot = inbox_[n % kDepth];
    if (chk::Faults::send_before_write()) {
      // Compiled-in mutant (schedcheck harness only; constant-false and
      // folded away in normal builds): publishes the slot before writing
      // it, so the worker can read the slot's previous task.
      sent_.store(n + 1, std::memory_order_seq_cst);
      chk::plain_write(&slot);
      slot = gid;
    } else {
      chk::plain_write(&slot);
      slot = gid;
      // seq_cst: publishes the slot (release) and orders this store
      // before wake()'s load of `sleeping` (the park handshake).
      sent_.store(n + 1, std::memory_order_seq_cst);
    }
    sent_count_ = n + 1;
    parker_.wake();
  }

  /// Calls `fn(gid)` for every completion posted since the last drain, in
  /// posting order; returns how many there were.
  // NEXUS_HOT_PATH
  template <class Fn>
  std::uint32_t drain(Fn&& fn) {
    // Acquire: pairs with post()'s store, so the slots below are written.
    const std::uint64_t posted = posted_.load(std::memory_order_acquire);
    const auto count = static_cast<std::uint32_t>(posted - drained_);
    for (; drained_ < posted; ++drained_) {
      const std::uint64_t& slot = outbox_[drained_ % kDepth];
      chk::plain_read(&slot);
      fn(slot);
    }
    return count;
  }

  /// True when a completion is posted but not drained. seq_cst: this is
  /// the master's park condition (see Parker::wait).
  [[nodiscard]] bool has_posts() const {
    return posted_.load(std::memory_order_seq_cst) != drained_;
  }

  /// Tells the worker to exit once its inbox is empty.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    parker_.wake();
  }

  // --- Worker side -------------------------------------------------------

  /// Waits for the next task and takes it into `gid`. Returns false once
  /// the channel is closed with the inbox empty.
  bool receive(std::uint64_t& gid, const WaitPolicy& policy) {
    const auto ready = [this] {
      return sent_.load(std::memory_order_seq_cst) != taken_ ||
             closed_.load(std::memory_order_seq_cst);
    };
    if (!ready()) parker_.wait(policy, ready);
    // Acquire: pairs with send()'s store, so the slot below is written.
    if (sent_.load(std::memory_order_acquire) == taken_) return false;
    const std::uint64_t& slot = inbox_[taken_ % kDepth];
    chk::plain_read(&slot);
    gid = slot;
    ++taken_;
    return true;
  }

  /// Posts finished task `gid` and wakes the master if it is parked.
  // NEXUS_HOT_PATH
  void post(std::uint64_t gid, Parker& master) {
    const util::NoAllocScope no_alloc("TaskChannel::post");
    std::uint64_t& slot = outbox_[posted_count_ % kDepth];
    chk::plain_write(&slot);
    slot = gid;
    ++posted_count_;
    // seq_cst: publishes the slot (release) and orders this store before
    // wake()'s load of the master's `sleeping` (the park handshake).
    posted_.store(posted_count_, std::memory_order_seq_cst);
    master.wake();
  }

 private:
  // Each group below sits on its own cache line, so a thread polling the
  // other side's counter is invalidated only by real publications.

  // Written by the master, read by the worker (closed_: once, at shutdown).
  alignas(kCacheLine) chk::Atomic<std::uint64_t> sent_{0};
  chk::Atomic<bool> closed_{false};
  std::uint64_t inbox_[kDepth] = {};

  // Written by the worker, read by the master.
  alignas(kCacheLine) chk::Atomic<std::uint64_t> posted_{0};
  std::uint64_t outbox_[kDepth] = {};

  // Master-private: its copy of sent_, and the completions it consumed.
  alignas(kCacheLine) std::uint64_t sent_count_ = 0;
  std::uint64_t drained_ = 0;

  // Worker-private: its copy of posted_, and the inbox entries it took.
  alignas(kCacheLine) std::uint64_t posted_count_ = 0;
  std::uint64_t taken_ = 0;

  alignas(kCacheLine) Parker parker_;  ///< where the worker parks
};

/// Master: returns once some channel has a completion to drain, waiting
/// on `master` per `policy`. Call only with tasks in hand somewhere.
void await_posts(std::span<const TaskChannel> channels, Parker& master,
                 const WaitPolicy& policy);

}  // namespace nexuspp::exec
