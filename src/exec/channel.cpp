#include "exec/channel.hpp"

namespace nexuspp::exec {

namespace {

// Polls before a waiting thread gives up its core. The spin phase covers
// the master's per-task cadence on fine-grained graphs (a few
// microseconds), so a worker between two tasks rarely parks; the yield
// phase lets an oversubscribed host run the thread being waited for
// before the waiter pays for a futex sleep and wake-up.
constexpr std::uint32_t kSpinPolls = 4096;
constexpr std::uint32_t kYieldPolls = 16;

}  // namespace

WaitPolicy WaitPolicy::for_pool(std::uint32_t workers) {
  // 0 means "unknown": assume the host is oversubscribed.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  WaitPolicy policy;
  policy.spins = workers + 1 <= hw_threads ? kSpinPolls : 0;
  policy.yields = kYieldPolls;
  return policy;
}

void await_posts(std::span<const TaskChannel> channels, Parker& master,
                 const WaitPolicy& policy) {
  const auto ready = [channels] {
    for (const TaskChannel& channel : channels) {
      if (channel.has_posts()) return true;
    }
    return false;
  };
  if (!ready()) master.wait(policy, ready);
}

}  // namespace nexuspp::exec
