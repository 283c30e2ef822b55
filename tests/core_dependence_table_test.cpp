// Tests for the Dependence Table: hash chains, entry lifecycle, kick-off
// lists, dummy-entry extension and promotion, and capacity behaviour.

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/dependence_table.hpp"

namespace nexuspp {
namespace {

using core::Addr;
using core::DependenceTable;
using core::DependenceTableConfig;
using core::TaskId;
using Index = DependenceTable::Index;

TEST(DependenceTableConfig, Validation) {
  EXPECT_THROW((DependenceTableConfig{0, 8}.validate()),
               std::invalid_argument);
  EXPECT_THROW((DependenceTableConfig{16, 1}.validate()),
               std::invalid_argument);
  EXPECT_NO_THROW((DependenceTableConfig{16, 2}.validate()));
}

TEST(DependenceTableConfig, RejectsKickoffArrayBeyond32BitIndex) {
  // 65536 × 65536 ids is one past the largest 32-bit index; one slot fewer
  // fits. Only validate() runs: nothing is allocated.
  try {
    DependenceTableConfig{65536, 65536}.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((DependenceTableConfig{0x1000'0000, 32}.validate()),
               std::invalid_argument);
  EXPECT_NO_THROW((DependenceTableConfig{65535, 65536}.validate()));
}

TEST(DependenceTable, InsertLookupEraseRoundTrip) {
  DependenceTable dt({64, 8});
  auto miss = dt.lookup(0x1A);
  EXPECT_FALSE(miss.index.has_value());
  EXPECT_EQ(miss.cost.reads, 1u);  // even a miss costs one access

  auto ins = dt.insert(0x1A, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  EXPECT_EQ(dt.addr_of(*ins.index), 0x1Au);
  EXPECT_EQ(dt.size_of(*ins.index), 4u);
  EXPECT_TRUE(dt.is_out(*ins.index));
  EXPECT_EQ(dt.readers(*ins.index), 0u);
  EXPECT_FALSE(dt.writer_waits(*ins.index));

  auto hit = dt.lookup(0x1A);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_EQ(*hit.index, *ins.index);

  dt.erase(*ins.index);
  EXPECT_FALSE(dt.lookup(0x1A).index.has_value());
  EXPECT_TRUE(dt.empty());
}

TEST(DependenceTable, FieldUpdates) {
  DependenceTable dt({16, 8});
  auto ins = dt.insert(0x2C, 16, false);
  ASSERT_TRUE(ins.index.has_value());
  const Index i = *ins.index;
  dt.set_readers(i, 1);
  dt.add_reader(i);
  EXPECT_EQ(dt.readers(i), 2u);
  dt.remove_reader(i);
  dt.remove_reader(i);
  EXPECT_EQ(dt.readers(i), 0u);
  EXPECT_THROW(dt.remove_reader(i), std::logic_error);
  dt.set_writer_waits(i, true);
  EXPECT_TRUE(dt.writer_waits(i));
  dt.set_is_out(i, true);
  EXPECT_TRUE(dt.is_out(i));
}

TEST(DependenceTable, ManyAddressesChainAndResolve) {
  // 16-slot table with 16 live addresses: every slot used; all lookups must
  // still find the right entry through the chains.
  DependenceTable dt({16, 8});
  std::vector<Index> idx;
  for (Addr a = 0; a < 16; ++a) {
    auto ins = dt.insert(0x1000 + a * 0x40, 4, false);
    ASSERT_TRUE(ins.index.has_value()) << a;
    idx.push_back(*ins.index);
  }
  EXPECT_EQ(dt.live_slot_count(), 16u);
  for (Addr a = 0; a < 16; ++a) {
    auto hit = dt.lookup(0x1000 + a * 0x40);
    ASSERT_TRUE(hit.index.has_value());
    EXPECT_EQ(dt.addr_of(*hit.index), 0x1000 + a * 0x40);
  }
  auto ins = dt.insert(0x9999, 4, false);
  EXPECT_FALSE(ins.index.has_value());  // full
  EXPECT_EQ(dt.stats().insert_failures, 1u);
}

TEST(DependenceTable, EraseMiddleOfHashChain) {
  // Force collisions by using a 1-slot... capacity must cover entries, so
  // use a table of 8 slots and insert addresses until two share a bucket.
  DependenceTable dt({8, 8});
  std::vector<Addr> addrs;
  std::vector<Index> indices;
  for (Addr a = 1; a <= 8; ++a) {
    const Addr addr = a * 0x33;
    auto ins = dt.insert(addr, 4, false);
    ASSERT_TRUE(ins.index.has_value());
    addrs.push_back(addr);
    indices.push_back(*ins.index);
  }
  // Erase in an interleaved order; all remaining entries must stay findable.
  for (std::size_t victim : {1u, 3u, 5u}) {
    dt.erase(indices[victim]);
  }
  std::set<std::size_t> gone{1u, 3u, 5u};
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    auto hit = dt.lookup(addrs[i]);
    if (gone.count(i)) {
      EXPECT_FALSE(hit.index.has_value()) << i;
    } else {
      ASSERT_TRUE(hit.index.has_value()) << i;
      EXPECT_EQ(dt.addr_of(*hit.index), addrs[i]);
    }
  }
}

TEST(DependenceTable, KickoffBasicFifo) {
  DependenceTable dt({16, 8});
  auto ins = dt.insert(0xAA, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  EXPECT_TRUE(dt.kickoff_empty(i));
  for (TaskId t = 10; t < 15; ++t) {
    auto app = dt.kickoff_append(i, t);
    EXPECT_TRUE(app.ok);
  }
  EXPECT_EQ(dt.kickoff_length(i), 5u);
  EXPECT_FALSE(dt.kickoff_empty(i));
  auto front = dt.kickoff_front(i);
  ASSERT_TRUE(front.task.has_value());
  EXPECT_EQ(*front.task, 10u);
  for (TaskId t = 10; t < 15; ++t) {
    auto pop = dt.kickoff_pop(i);
    ASSERT_TRUE(pop.task.has_value());
    EXPECT_EQ(*pop.task, t);
    i = pop.parent;
  }
  EXPECT_TRUE(dt.kickoff_empty(i));
  auto empty_pop = dt.kickoff_pop(i);
  EXPECT_FALSE(empty_pop.task.has_value());
}

TEST(DependenceTable, KickoffOverflowAllocatesDummyEntries) {
  DependenceTable dt({16, 4});  // kick-off holds 4 ids per slot
  auto ins = dt.insert(0x1C, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  // 4 ids fit in the parent; the 5th spills into a dummy entry.
  for (TaskId t = 0; t < 4; ++t) EXPECT_TRUE(dt.kickoff_append(i, t).ok);
  EXPECT_EQ(dt.live_slot_count(), 1u);
  EXPECT_TRUE(dt.kickoff_append(i, 4).ok);
  EXPECT_EQ(dt.live_slot_count(), 2u);
  EXPECT_EQ(dt.stats().ko_dummy_allocations, 1u);
  EXPECT_EQ(dt.kickoff_length(i), 5u);
  EXPECT_EQ(dt.kickoff_chain_slots(i), 2u);

  // Pop everything back in FIFO order across the chain.
  for (TaskId t = 0; t < 5; ++t) {
    auto pop = dt.kickoff_pop(i);
    ASSERT_TRUE(pop.task.has_value());
    EXPECT_EQ(*pop.task, t);
    i = pop.parent;
  }
  EXPECT_TRUE(dt.kickoff_empty(i));
}

TEST(DependenceTable, LongKickoffChainGrowsAndDrains) {
  DependenceTable dt({64, 4});
  auto ins = dt.insert(0x1C, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  constexpr TaskId kTasks = 50;
  for (TaskId t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(dt.kickoff_append(i, t).ok) << t;
  }
  EXPECT_EQ(dt.kickoff_length(i), kTasks);
  EXPECT_GT(dt.kickoff_chain_slots(i), 10u);
  EXPECT_GE(dt.stats().max_ko_chain_slots, dt.kickoff_chain_slots(i));

  for (TaskId t = 0; t < kTasks; ++t) {
    auto pop = dt.kickoff_pop(i);
    ASSERT_TRUE(pop.task.has_value());
    ASSERT_EQ(*pop.task, t);
    i = pop.parent;
  }
  EXPECT_TRUE(dt.kickoff_empty(i));
  EXPECT_GT(dt.stats().promotions, 0u);
  // Only the (possibly promoted) parent remains live.
  EXPECT_EQ(dt.live_slot_count(), 1u);
  dt.erase(i);
  EXPECT_TRUE(dt.empty());
}

// Seeded random append/pop on one parent, checked against a std::deque
// model: every pop, the front and the length must match while the kick-off
// rings wrap, dummy entries are added and the first dummy is promoted.
void run_kickoff_model(std::uint32_t kick_off_capacity, std::uint32_t seed) {
  SCOPED_TRACE("kick_off_capacity " + std::to_string(kick_off_capacity) +
               " seed " + std::to_string(seed));
  DependenceTable dt({256, kick_off_capacity});
  auto ins = dt.insert(0x40, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index parent = *ins.index;
  std::deque<TaskId> model;
  TaskId next_id = 0;

  const auto append = [&] {
    ASSERT_TRUE(dt.kickoff_append(parent, next_id).ok);
    model.push_back(next_id++);
  };
  const auto pop = [&] {
    const auto popped = dt.kickoff_pop(parent);
    parent = popped.parent;
    if (model.empty()) {
      ASSERT_FALSE(popped.task.has_value());
      return;
    }
    ASSERT_TRUE(popped.task.has_value());
    ASSERT_EQ(*popped.task, model.front());
    model.pop_front();
  };

  // Deterministic prefix: fill the parent's ring, pop one so its head
  // moves, then append one more — that id lands at the wrapped position.
  for (std::uint32_t i = 0; i < kick_off_capacity; ++i) append();
  pop();
  append();
  ASSERT_EQ(dt.kickoff_chain_slots(parent), 1u);

  // Random phases: grow (appends favoured, so dummy chains form) then
  // shrink (pops favoured, so dummies drain and get promoted).
  std::mt19937 rng(seed);
  for (int phase = 0; phase < 12; ++phase) {
    const bool grow = phase % 2 == 0;
    for (int op = 0; op < 60; ++op) {
      const bool do_append = (rng() % 4 != 0) == grow;
      if (do_append && model.size() < 100) {
        append();
      } else {
        pop();
      }
      ASSERT_EQ(dt.kickoff_length(parent), model.size());
      const auto front = dt.kickoff_front(parent);
      ASSERT_EQ(front.task.has_value(), !model.empty());
      if (!model.empty()) {
        ASSERT_EQ(*front.task, model.front());
      }
    }
  }
  while (!model.empty()) pop();
  pop();  // popping an empty list returns nothing

  EXPECT_GT(dt.stats().ko_dummy_allocations, 0u);
  EXPECT_GT(dt.stats().promotions, 0u);
  EXPECT_TRUE(dt.kickoff_empty(parent));
  EXPECT_EQ(dt.addr_of(parent), 0x40u);
  dt.erase(parent);
  EXPECT_TRUE(dt.empty());  // every dummy slot went back to the free ring
}

TEST(DependenceTable, KickoffRingsMatchDequeModel) {
  for (const std::uint32_t k : {2u, 3u, 8u}) {
    for (const std::uint32_t seed : {1u, 7u, 42u}) {
      run_kickoff_model(k, seed);
    }
  }
}

TEST(DependenceTable, PromotionFreesParentSlotEarly) {
  // Paper: "DT[0xC] can now be reused by other memory segments, even before
  // memory segment 0x1C is totally removed."
  DependenceTable dt({3, 2});  // tiny: parent + 2 extension slots max
  auto ins = dt.insert(0x1C, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  // With K=2 a slot keeps 1 id + continuation pointer once extended:
  // appends build parent=[0] -> d1=[1] -> d2=[2,3].
  ASSERT_TRUE(dt.kickoff_append(i, 0).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 1).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 2).ok);  // allocates first dummy slot
  EXPECT_EQ(dt.live_slot_count(), 2u);
  ASSERT_TRUE(dt.kickoff_append(i, 3).ok);  // allocates second dummy slot
  EXPECT_EQ(dt.live_slot_count(), 3u);
  EXPECT_EQ(dt.free_slot_count(), 0u);
  EXPECT_EQ(dt.kickoff_length(i), 4u);

  // Draining the parent's own list promotes eagerly and frees its slot.
  auto pop = dt.kickoff_pop(i);
  ASSERT_TRUE(pop.task.has_value());
  EXPECT_EQ(*pop.task, 0u);
  const Index promoted = pop.parent;
  EXPECT_NE(promoted, i);  // promotion happened on the first pop
  EXPECT_EQ(dt.free_slot_count(), 1u);

  // The promoted entry must still be findable by address.
  auto hit = dt.lookup(0x1C);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_EQ(*hit.index, promoted);

  // A different address can use the freed slot immediately.
  auto other = dt.insert(0x7777, 4, false);
  EXPECT_TRUE(other.index.has_value());
}

TEST(DependenceTable, PromotionPreservesEntryFields) {
  DependenceTable dt({8, 2});
  auto ins = dt.insert(0x1C, 64, false);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  dt.set_readers(i, 3);
  dt.set_writer_waits(i, true);
  ASSERT_TRUE(dt.kickoff_append(i, 0).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 1).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 2).ok);  // spills

  auto pop = dt.kickoff_pop(i);
  pop = dt.kickoff_pop(pop.parent);  // drains parent -> promotes
  const Index promoted = pop.parent;
  EXPECT_EQ(dt.addr_of(promoted), 0x1Cu);
  EXPECT_EQ(dt.size_of(promoted), 64u);
  EXPECT_EQ(dt.readers(promoted), 3u);
  EXPECT_TRUE(dt.writer_waits(promoted));
  EXPECT_FALSE(dt.is_out(promoted));
}

TEST(DependenceTable, KickoffAppendFailsWhenPoolExhausted) {
  DependenceTable dt({2, 2});
  auto a = dt.insert(0x10, 4, true);
  auto b = dt.insert(0x20, 4, true);
  ASSERT_TRUE(a.index && b.index);
  // Parent list of 0x10 fills with 2 ids; third append needs a dummy slot
  // but the table is full.
  ASSERT_TRUE(dt.kickoff_append(*a.index, 1).ok);
  ASSERT_TRUE(dt.kickoff_append(*a.index, 2).ok);
  auto fail = dt.kickoff_append(*a.index, 3);
  EXPECT_FALSE(fail.ok);
  EXPECT_EQ(dt.stats().ko_append_failures, 1u);
  // Failed append leaves the list untouched.
  EXPECT_EQ(dt.kickoff_length(*a.index), 2u);
  // After space frees, the same append succeeds (retry semantics).
  dt.erase(*b.index);
  EXPECT_TRUE(dt.kickoff_append(*a.index, 3).ok);
  EXPECT_EQ(dt.kickoff_length(*a.index), 3u);
}

TEST(DependenceTable, EraseNonEmptyKickoffThrows) {
  DependenceTable dt({8, 8});
  auto ins = dt.insert(0x10, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  ASSERT_TRUE(dt.kickoff_append(*ins.index, 1).ok);
  EXPECT_THROW(dt.erase(*ins.index), std::logic_error);
}

TEST(DependenceTable, BadIndexThrows) {
  DependenceTable dt({8, 8});
  EXPECT_THROW((void)dt.addr_of(0), std::out_of_range);   // invalid slot
  EXPECT_THROW((void)dt.addr_of(99), std::out_of_range);  // out of range
}

TEST(DependenceTable, LongestChainStatGrowsUnderLoad) {
  DependenceTable dt({256, 8});
  for (Addr a = 0; a < 200; ++a) {
    auto ins = dt.insert(0x4000 + a * 8, 4, false);
    ASSERT_TRUE(ins.index.has_value());
  }
  for (Addr a = 0; a < 200; ++a) {
    ASSERT_TRUE(dt.lookup(0x4000 + a * 8).index.has_value());
  }
  // 200 entries in 256 buckets: collisions are certain.
  EXPECT_GE(dt.stats().longest_hash_chain, 2u);
  EXPECT_EQ(dt.stats().max_live_slots, 200u);
}

TEST(DependenceTable, CostReceiptsAreSane) {
  DependenceTable dt({16, 8});
  auto ins = dt.insert(0x10, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  EXPECT_GE(ins.cost.writes, 1u);
  auto hit = dt.lookup(0x10);
  EXPECT_GE(hit.cost.reads, 1u);
  auto app = dt.kickoff_append(*hit.index, 5);
  EXPECT_GE(app.cost.total(), 1u);
  auto pop = dt.kickoff_pop(*hit.index);
  EXPECT_GE(pop.cost.total(), 1u);
}

/// Regression: lookup records telemetry but is semantically const — it
/// must be callable on a genuinely-const table (the old implementation
/// const_cast its way around a non-mutable stats member: UB on a const
/// object).
TEST(DependenceTable, LookupOnConstTable) {
  DependenceTable dt({16, 8});
  ASSERT_TRUE(dt.insert(0x20, 4, false).index.has_value());
  const DependenceTable& view = dt;
  auto hit = view.lookup(0x20);
  EXPECT_TRUE(hit.index.has_value());
  EXPECT_TRUE(view.lookup(0x999).index == std::nullopt);
  EXPECT_EQ(view.stats().lookups, 2u);
  EXPECT_GE(view.stats().lookup_probes, 2u);
  EXPECT_GE(view.stats().longest_hash_chain, 1u);
}

// --- Range mode ---------------------------------------------------------------

DependenceTableConfig range_cfg(std::uint32_t capacity = 64) {
  DependenceTableConfig cfg;
  cfg.capacity = capacity;
  cfg.match_mode = core::MatchMode::kRange;
  return cfg;
}

TEST(DependenceTableRange, OverlappingFindsPartialOverlaps) {
  DependenceTable dt(range_cfg());
  auto a = dt.insert(0x1000, 64, true, 1);   // [0x1000, 0x1040)
  auto b = dt.insert(0x1040, 64, false, 2);  // [0x1040, 0x1080)
  auto c = dt.insert(0x2000, 64, true, 3);   // far away
  ASSERT_TRUE(a.index && b.index && c.index);

  // Query straddling the tail of `a` only.
  auto hit = dt.overlapping(0x1020, 32);
  ASSERT_EQ(hit.indices.size(), 1u);
  EXPECT_EQ(hit.indices[0], *a.index);
  EXPECT_GE(hit.cost.reads, 1u);

  // Query spanning both adjacent entries.
  hit = dt.overlapping(0x1030, 0x20);
  ASSERT_EQ(hit.indices.size(), 2u);  // ascending base order
  EXPECT_EQ(hit.indices[0], *a.index);
  EXPECT_EQ(hit.indices[1], *b.index);

  // Adjacency is not overlap.
  EXPECT_TRUE(dt.overlapping(0x1080, 64).indices.empty());
  EXPECT_TRUE(dt.overlapping(0x0FC0, 0x40).indices.empty());
}

TEST(DependenceTableRange, DuplicateBasesCoexistAndOwnerLookupResolves) {
  DependenceTable dt(range_cfg());
  ASSERT_TRUE(dt.insert(0x5000, 64, true, 7).index.has_value());
  ASSERT_TRUE(dt.insert(0x5000, 32, false, 9).index.has_value());

  auto o7 = dt.lookup_owned(0x5000, 7);
  auto o9 = dt.lookup_owned(0x5000, 9);
  ASSERT_TRUE(o7.index && o9.index);
  EXPECT_NE(*o7.index, *o9.index);
  EXPECT_EQ(dt.size_of(*o7.index), 64u);
  EXPECT_EQ(dt.size_of(*o9.index), 32u);
  EXPECT_EQ(dt.owner_of(*o7.index), 7u);
  EXPECT_FALSE(dt.lookup_owned(0x5000, 8).index.has_value());

  // Both show up in an overlap query; erasing one leaves the other.
  EXPECT_EQ(dt.overlapping(0x5000, 8).indices.size(), 2u);
  dt.erase(*o9.index);
  auto hit = dt.overlapping(0x5000, 8);
  ASSERT_EQ(hit.indices.size(), 1u);
  EXPECT_EQ(hit.indices[0], *o7.index);
}

TEST(DependenceTableRange, IntervalIndexSurvivesDummyPromotion) {
  DependenceTableConfig cfg = range_cfg();
  cfg.kick_off_capacity = 2;
  DependenceTable dt(cfg);
  auto ins = dt.insert(0x6000, 64, true, 1);
  ASSERT_TRUE(ins.index.has_value());
  // Overflow the 2-slot kick-off list so a dummy entry chains on.
  for (TaskId t = 10; t < 15; ++t) {
    ASSERT_TRUE(dt.kickoff_append(*ins.index, t).ok);
  }
  ASSERT_GT(dt.stats().ko_dummy_allocations, 0u);

  // Drain the parent's own list: the first pop that empties it promotes
  // the dummy, and the interval index must follow the move.
  auto idx = *ins.index;
  for (int pops = 0; pops < 5; ++pops) {
    auto pop = dt.kickoff_pop(idx);
    ASSERT_TRUE(pop.task.has_value());
    idx = pop.parent;
    auto hit = dt.overlapping(0x6000, 8);
    ASSERT_EQ(hit.indices.size(), 1u);
    EXPECT_EQ(hit.indices[0], idx);
    EXPECT_EQ(dt.owner_of(idx), 1u);  // owner survives promotion
  }
  dt.erase(idx);
  EXPECT_TRUE(dt.overlapping(0x6000, 8).indices.empty());
  EXPECT_TRUE(dt.empty());
}

TEST(DependenceTableRange, AppendNeedPredictsAppendOutcome) {
  DependenceTableConfig cfg = range_cfg(8);
  cfg.kick_off_capacity = 2;
  DependenceTable dt(cfg);
  auto ins = dt.insert(0x7000, 64, true, 1);
  ASSERT_TRUE(ins.index.has_value());

  auto need = dt.kickoff_append_need(*ins.index);
  EXPECT_FALSE(need.needs_slot);
  ASSERT_TRUE(dt.kickoff_append(*ins.index, 2).ok);
  ASSERT_TRUE(dt.kickoff_append(*ins.index, 3).ok);
  need = dt.kickoff_append_need(*ins.index);
  EXPECT_TRUE(need.needs_slot);  // list full: next append allocates a dummy
  EXPECT_FALSE(need.structural_fail);

  DependenceTableConfig classic = cfg;
  classic.allow_dummy_entries = false;
  DependenceTable nx(classic);
  auto ins2 = nx.insert(0x7000, 64, true, 1);
  ASSERT_TRUE(ins2.index.has_value());
  ASSERT_TRUE(nx.kickoff_append(*ins2.index, 2).ok);
  ASSERT_TRUE(nx.kickoff_append(*ins2.index, 3).ok);
  EXPECT_TRUE(nx.kickoff_append_need(*ins2.index).structural_fail);
}

TEST(DependenceTableRange, OverlappingThrowsInBaseAddrMode) {
  DependenceTable dt({16, 8});
  EXPECT_THROW((void)dt.overlapping(0x1000, 64), std::logic_error);
}

}  // namespace
}  // namespace nexuspp
