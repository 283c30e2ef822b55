// Kernel-body unit model (exec/kernels.hpp): name round-trips, config
// validation, calibration, the structural monotonicity of the work-unit
// mapping, MEMORY_BOUND buffer coverage, deterministic LOAD_IMBALANCE
// skew, and oracle-validated multithreaded execution with every kernel
// kind swapped in for the spin. Runs under the ThreadSanitizer CI job
// (exec_ prefix), which is what makes the per-worker-state claim checked
// rather than asserted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "exec/executor.hpp"
#include "exec/kernels.hpp"
#include "trace/trace.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

using exec::KernelBody;
using exec::KernelConfig;
using exec::KernelKind;

const std::vector<KernelKind>& all_kinds() {
  static const std::vector<KernelKind> kinds = {
      KernelKind::kSpin, KernelKind::kComputeBound, KernelKind::kMemoryBound,
      KernelKind::kLoadImbalance, KernelKind::kComputeDgemm};
  return kinds;
}

// --- Names and config ----------------------------------------------------

TEST(KernelNames, RoundTripAndRejection) {
  for (const auto kind : all_kinds()) {
    EXPECT_EQ(exec::kernel_kind_from_string(exec::to_string(kind)), kind);
  }
  try {
    (void)exec::kernel_kind_from_string("fpu");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("imbalance"), std::string::npos)
        << e.what();
  }
}

TEST(KernelConfigTest, ValidateRejectsDegenerateValues) {
  KernelConfig cfg;
  cfg.buffer_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.tile = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.imbalance = 0.5;  // multipliers below 1 would *shrink* tasks
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- Calibration and the work-unit mapping -------------------------------

TEST(KernelCalibration, PositiveStableAndZeroForSpin) {
  EXPECT_EQ(exec::kernel_unit_ns(KernelKind::kSpin), 0u);
  for (const auto kind : all_kinds()) {
    if (kind == KernelKind::kSpin) continue;
    const auto first = exec::kernel_unit_ns(kind);
    EXPECT_GE(first, 1u) << exec::to_string(kind);
    // Magic-static: the second call must return the cached measurement.
    EXPECT_EQ(exec::kernel_unit_ns(kind), first) << exec::to_string(kind);
  }
  // Compute and imbalance share one compute-unit calibration.
  EXPECT_EQ(exec::kernel_unit_ns(KernelKind::kComputeBound),
            exec::kernel_unit_ns(KernelKind::kLoadImbalance));
}

TEST(KernelUnits, MappingIsStructurallyMonotonic) {
  for (const auto kind : all_kinds()) {
    SCOPED_TRACE(exec::to_string(kind));
    KernelConfig cfg;
    cfg.kind = kind;
    const KernelBody body(cfg, 0);
    if (kind == KernelKind::kSpin) {
      EXPECT_EQ(body.unit_ns(), 0u);
      EXPECT_EQ(body.units_for(0), 0u);
      EXPECT_EQ(body.units_for(1'000'000'000), 0u);
      continue;
    }
    EXPECT_GE(body.unit_ns(), 1u);
    EXPECT_EQ(body.units_for(0), 0u);
    // A nonzero request always does work, however small.
    EXPECT_EQ(body.units_for(1), std::max<std::uint64_t>(
                                     1, 1 / body.unit_ns()));
    // Non-decreasing along the granularity axis (pure arithmetic: no
    // execution involved), and strictly increasing across a 1000x gap.
    std::uint64_t prev = 0;
    for (const std::uint64_t ns :
         {0ull, 1ull, 100ull, 10'000ull, 1'000'000ull, 100'000'000ull}) {
      const auto units = body.units_for(ns);
      EXPECT_GE(units, prev) << ns;
      prev = units;
    }
    EXPECT_LT(body.units_for(1'000'000), body.units_for(1'000'000'000));
  }
}

TEST(KernelUnits, DgemmUnitScalesCubicallyWithTile) {
  const auto base = exec::kernel_unit_ns(KernelKind::kComputeDgemm);
  KernelConfig cfg;
  cfg.kind = KernelKind::kComputeDgemm;
  cfg.tile = 48;  // 2x the default edge => 8x the flops per unit
  const KernelBody body(cfg, 0);
  EXPECT_EQ(body.unit_ns(),
            static_cast<std::uint64_t>(static_cast<double>(base) * 8.0));
}

// --- MEMORY_BOUND buffer coverage ----------------------------------------

TEST(MemoryKernel, ChunksCoverTheWholeBufferExactly) {
  KernelConfig cfg;
  cfg.kind = KernelKind::kMemoryBound;
  cfg.buffer_bytes = 16'384;  // 2048 elements = 4 chunks of 512
  KernelBody body(cfg, 0);
  ASSERT_EQ(body.buffer().size(), 2048u);

  body.run_units(4);
  for (const auto touches : body.buffer()) EXPECT_EQ(touches, 1u);
  // The cursor wraps: another full cycle touches everything again.
  body.run_units(4);
  for (const auto touches : body.buffer()) EXPECT_EQ(touches, 2u);
}

TEST(MemoryKernel, TinyBufferIsRoundedUpToOneChunk) {
  KernelConfig cfg;
  cfg.kind = KernelKind::kMemoryBound;
  cfg.buffer_bytes = 1;
  KernelBody body(cfg, 0);
  ASSERT_EQ(body.buffer().size(),
            KernelBody::kChunkBytes / sizeof(std::uint64_t));
  body.run_units(1);
  for (const auto touches : body.buffer()) EXPECT_EQ(touches, 1u);
}

TEST(MemoryKernel, OtherKindsCarryNoBuffer) {
  for (const auto kind : all_kinds()) {
    if (kind == KernelKind::kMemoryBound) continue;
    KernelConfig cfg;
    cfg.kind = kind;
    EXPECT_TRUE(KernelBody(cfg, 0).buffer().empty())
        << exec::to_string(kind);
  }
}

// --- LOAD_IMBALANCE skew -------------------------------------------------

TEST(ImbalanceSkew, DeterministicBoundedAndActuallySkewed) {
  KernelConfig cfg;
  cfg.kind = KernelKind::kLoadImbalance;
  cfg.imbalance = 4.0;
  cfg.seed = 99;
  const KernelBody body(cfg, 0);
  const KernelBody twin(cfg, 3);  // worker index must not change the skew

  double lo = 1e9;
  double hi = 0.0;
  for (std::uint64_t serial = 0; serial < 1000; ++serial) {
    const double s = body.skew(serial);
    EXPECT_GE(s, 1.0);
    EXPECT_LT(s, 4.0);
    EXPECT_EQ(s, twin.skew(serial)) << serial;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  // A uniform draw over [1, 4) that never leaves a narrow band would make
  // the imbalance axis a no-op.
  EXPECT_LT(lo, 1.5);
  EXPECT_GT(hi, 3.5);

  KernelConfig other = cfg;
  other.seed = 100;
  const KernelBody reseeded(other, 0);
  bool any_difference = false;
  for (std::uint64_t serial = 0; serial < 100; ++serial) {
    any_difference |= reseeded.skew(serial) != body.skew(serial);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ImbalanceSkew, ExactlyOneForEveryOtherKind) {
  for (const auto kind : all_kinds()) {
    if (kind == KernelKind::kLoadImbalance) continue;
    KernelConfig cfg;
    cfg.kind = kind;
    const KernelBody body(cfg, 0);
    for (std::uint64_t serial = 0; serial < 16; ++serial) {
      EXPECT_EQ(body.skew(serial), 1.0) << exec::to_string(kind);
    }
  }
}

// --- run(): the executor-facing entry point ------------------------------

TEST(KernelRun, ReturnsTheUnitsTheMappingPrescribes) {
  for (const auto kind : all_kinds()) {
    SCOPED_TRACE(exec::to_string(kind));
    KernelConfig cfg;
    cfg.kind = kind;
    KernelBody body(cfg, 0);
    EXPECT_EQ(body.run(0, 0), 0u);
    if (kind == KernelKind::kSpin) {
      EXPECT_EQ(body.run(1000, 0), 0u);
      continue;
    }
    const auto unit = body.unit_ns();
    EXPECT_EQ(body.run(3 * unit, 0),
              body.units_for(static_cast<std::uint64_t>(
                  static_cast<double>(3 * unit) * body.skew(0))));
    // Skew >= 1: an imbalanced task never does less than its base request.
    EXPECT_GE(body.run(2 * unit, 7), body.units_for(2 * unit));
  }
}

// --- Multithreaded executor with each kernel body ------------------------

TEST(ExecKernels, OracleValidatedExecutionPerKind) {
  workloads::RandomDagConfig dag;
  dag.seed = 11;
  dag.num_tasks = 200;
  dag.addr_space = 24;
  const auto tasks = *workloads::make_random_dag_trace(dag);

  std::vector<std::vector<core::Param>> params;
  std::unordered_map<std::uint64_t, std::uint64_t> index_of;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    params.push_back(tasks[i].params);
    index_of.emplace(tasks[i].serial, i);
  }

  for (const auto kind : all_kinds()) {
    SCOPED_TRACE(exec::to_string(kind));
    core::CompletionRecorder recorder;
    exec::ExecConfig cfg;
    cfg.threads = 4;
    cfg.kernel.kind = kind;
    cfg.kernel.buffer_bytes = 1u << 16;  // keep per-worker state cheap
    cfg.duration_scale = 0.02;
    cfg.observer = &recorder;
    exec::ThreadedExecutor executor(cfg);
    const auto report = executor.run(std::make_unique<trace::VectorStream>(
        std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
    ASSERT_FALSE(report.deadlocked) << report.diagnosis;
    EXPECT_EQ(report.tasks_completed, tasks.size());
    EXPECT_EQ(report.kernel, kind);
    if (kind == KernelKind::kSpin) {
      EXPECT_EQ(report.kernel_work_units, 0u);
    } else {
      // Every task with a nonzero duration executes at least one unit.
      EXPECT_GT(report.kernel_work_units, 0u);
    }

    std::vector<std::uint64_t> order;
    for (const auto serial : recorder.order()) {
      const auto it = index_of.find(serial);
      ASSERT_NE(it, index_of.end()) << serial;
      order.push_back(it->second);
    }
    const auto violation = core::GraphOracle::validate_completion_order(
        cfg.match_mode, params, order);
    EXPECT_TRUE(violation.empty()) << violation;
  }
}

}  // namespace
}  // namespace nexuspp
