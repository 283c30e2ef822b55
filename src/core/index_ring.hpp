#pragma once
// Fixed-capacity FIFO rings — the storage shape of the hardware's
// free-index lists and kick-off lists. Storage is allocated once, at
// construction; push and pop only move a head and a count.

#include <cassert>
#include <cstdint>
#include <vector>

namespace nexuspp::core {

/// Ring position `k` entries after `head` in a ring of `capacity` entries
/// (head < capacity, k <= capacity). Written so that it cannot overflow for
/// any 32-bit capacity.
[[nodiscard]] constexpr std::uint32_t ring_pos(
    std::uint32_t head, std::uint32_t k, std::uint32_t capacity) noexcept {
  return k < capacity - head ? head + k : k - (capacity - head);
}

/// FIFO of 32-bit indices with a fixed capacity: the "TP Free indices" list
/// of the Task Pool and the free-slot list of the Dependence Table.
class IndexRing {
 public:
  /// Holds at most `capacity` indices; starts full with 0 .. capacity-1 in
  /// ascending order (every slot free, lowest index handed out first).
  explicit IndexRing(std::uint32_t capacity)
      : buf_(capacity), count_(capacity) {
    for (std::uint32_t i = 0; i < capacity; ++i) buf_[i] = i;
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Appends at the tail. The caller never pushes more than capacity.
  void push(std::uint32_t value) noexcept {
    assert(count_ < buf_.size());
    buf_[ring_pos(head_, count_, capacity())] = value;
    ++count_;
  }

  /// Removes and returns the oldest index. The ring must not be empty.
  std::uint32_t pop() noexcept {
    assert(count_ > 0);
    const std::uint32_t value = buf_[head_];
    head_ = ring_pos(head_, 1, capacity());
    --count_;
    return value;
  }

 private:
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(buf_.size());
  }

  std::vector<std::uint32_t> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace nexuspp::core
