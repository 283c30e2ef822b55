#pragma once
// Checked-build invariant layer (second defense layer — see
// docs/CORRECTNESS.md). Compiled to nothing unless NEXUSPP_CHECKED is
// defined (CMake option of the same name), so the hooks below can sit
// directly on hot paths at zero release-build cost.
//
// Two families of run-time invariants, each a discipline the execution
// layer (sharded_resolver.cpp, executor.cpp) relies on but no compiler
// checks:
//
//   Lock rank — every mutex the execution layer takes carries a rank
//   (LockDomain). A thread-local tracker asserts that (a) park mutexes
//   never nest (each guards one thread's sleep handshake and is held only
//   for that handshake), and (b) the schedcheck runtime's internal lock
//   (kChk) is a leaf: instrumentation hooks fire *inside* park critical
//   sections, so kChk may be taken while one is held, but never the
//   reverse and never recursively.
//
//   No-alloc tripwire — NoAllocScope replaces the global operator new
//   family with an aborting hook for the enclosing dynamic extent. The
//   resolver's registration (begin_submit, SubmitSession::advance) and
//   release (finish) wrap themselves in one: both hot paths are
//   documented never to allocate, and every *audited* interior allocation
//   (first grant-buffer sizing, diagnostics on the failure paths)
//   re-enables allocation through an AllowAllocScope naming its reason.
//   A new allocation sneaking onto the path trips the hook and aborts
//   with the offending scope's label.
//
// All violations funnel into invariant_fail(), which prints one
// "nexuspp-checked: <what> (<where>)" line on stderr and aborts — the
// checked_invariant_test death tests match on that prefix.

#include <cstddef>

namespace nexuspp::util {

/// Lock ranks for the execution layer. Values are informational (the
/// checked rules are the two above).
enum class LockDomain : int {
  kPark = 0,  ///< an exec::Parker mutex (one thread's sleep handshake)
  kChk = 1,   ///< schedcheck runtime internals (src/chk session state)
};

#if defined(NEXUSPP_CHECKED)

/// Prints "nexuspp-checked: <what> (<where>)" to stderr and aborts.
[[noreturn]] void invariant_fail(const char* what, const char* where);

/// RAII record of one held lock; construct immediately after acquiring,
/// destroy when releasing (member order next to the std::unique_lock it
/// shadows takes care of both). Asserts the no-two-locks rules on entry.
class LockRankGuard {
 public:
  explicit LockRankGuard(LockDomain domain);
  ~LockRankGuard();
  LockRankGuard(const LockRankGuard&) = delete;
  LockRankGuard& operator=(const LockRankGuard&) = delete;
  LockRankGuard(LockRankGuard&& other) noexcept;
  LockRankGuard& operator=(LockRankGuard&&) = delete;

 private:
  LockDomain domain_;
  bool engaged_ = true;
};

/// While alive, any allocation through global operator new on this thread
/// aborts (unless an AllowAllocScope is also alive). Nestable.
class NoAllocScope {
 public:
  explicit NoAllocScope(const char* label);
  ~NoAllocScope();
  NoAllocScope(const NoAllocScope&) = delete;
  NoAllocScope& operator=(const NoAllocScope&) = delete;

 private:
  const char* prev_label_;
};

/// Audited hole in an enclosing NoAllocScope; `reason` documents why the
/// allocation is acceptable (it is printed nowhere on success — the point
/// is the reviewer reading the call site). Nestable.
class AllowAllocScope {
 public:
  explicit AllowAllocScope(const char* reason);
  ~AllowAllocScope();
  AllowAllocScope(const AllowAllocScope&) = delete;
  AllowAllocScope& operator=(const AllowAllocScope&) = delete;
};

#else  // !NEXUSPP_CHECKED — everything below must optimize to nothing.

class LockRankGuard {
 public:
  explicit LockRankGuard(LockDomain) noexcept {}
  LockRankGuard(LockRankGuard&&) noexcept = default;
};

class NoAllocScope {
 public:
  explicit NoAllocScope(const char*) noexcept {}
};

class AllowAllocScope {
 public:
  explicit AllowAllocScope(const char*) noexcept {}
};

#endif  // NEXUSPP_CHECKED

}  // namespace nexuspp::util
