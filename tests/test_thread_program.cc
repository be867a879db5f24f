/**
 * @file
 * Unit and property tests for the workload generator: strong-scaling
 * work conservation, sequential-program purity, warmup/RoI structure,
 * determinism, and the parallelism cap.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/system.hh"
#include "test_util.hh"
#include "workload/thread_program.hh"

namespace sst {
namespace {

/** Consume a whole program; returns op-type counts. */
std::map<OpType, std::uint64_t>
consume(ThreadProgram &prog, std::uint64_t cap = 10'000'000)
{
    std::map<OpType, std::uint64_t> counts;
    for (std::uint64_t i = 0; i < cap; ++i) {
        const Op op = prog.nextOp();
        ++counts[op.type];
        if (op.type == OpType::kEnd)
            break;
    }
    return counts;
}

TEST(ThreadProgram, SequentialProgramHasNoSyncOps)
{
    const BenchmarkProfile p = test::lockHeavyProfile();
    ThreadProgram prog(p, 0, 1);
    const auto counts = consume(prog);
    EXPECT_EQ(counts.count(OpType::kLockAcquire), 0u);
    EXPECT_EQ(counts.count(OpType::kLockRelease), 0u);
    EXPECT_EQ(counts.count(OpType::kBarrier), 0u);
    EXPECT_EQ(counts.at(OpType::kEnd), 1u);
    EXPECT_EQ(counts.at(OpType::kRoiBegin), 1u);
}

TEST(ThreadProgram, ParallelProgramBalancesLockOps)
{
    const BenchmarkProfile p = test::lockHeavyProfile();
    ThreadProgram prog(p, 0, 4);
    const auto counts = consume(prog);
    EXPECT_GT(counts.at(OpType::kLockAcquire), 0u);
    EXPECT_EQ(counts.at(OpType::kLockAcquire),
              counts.at(OpType::kLockRelease));
}

TEST(ThreadProgram, BarrierPerPhasePlusWarmup)
{
    BenchmarkProfile p = test::barrierHeavyProfile();
    ThreadProgram prog(p, 1, 4);
    const auto counts = consume(prog);
    // 16 phase barriers (incl. final) + 1 warmup barrier.
    EXPECT_EQ(counts.at(OpType::kBarrier),
              static_cast<std::uint64_t>(p.barrierPhases) + 1);
}

TEST(ThreadProgram, NoFinalBarrierWhenDisabled)
{
    BenchmarkProfile p = test::barrierHeavyProfile();
    p.finalBarrier = false;
    ThreadProgram prog(p, 0, 4);
    const auto counts = consume(prog);
    EXPECT_EQ(counts.at(OpType::kBarrier),
              static_cast<std::uint64_t>(p.barrierPhases - 1) + 1);
}

TEST(ThreadProgram, DeterministicStreams)
{
    const BenchmarkProfile p = test::sharingProfile();
    ThreadProgram a(p, 2, 8), b(p, 2, 8);
    for (int i = 0; i < 50000; ++i) {
        const Op oa = a.nextOp();
        const Op ob = b.nextOp();
        ASSERT_EQ(static_cast<int>(oa.type), static_cast<int>(ob.type));
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.count, ob.count);
        if (oa.type == OpType::kEnd)
            break;
    }
}

TEST(ThreadProgram, EndIsSticky)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.totalIters = 10;
    ThreadProgram prog(p, 0, 1);
    consume(prog);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(prog.nextOp().type, OpType::kEnd);
    EXPECT_TRUE(prog.finished());
}

/** Property: total iterations are conserved across thread counts. */
class WorkConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(WorkConservation, PlannedItersSumToTotal)
{
    const int nthreads = GetParam();
    for (const BenchmarkProfile &p :
         {test::computeOnlyProfile(), test::barrierHeavyProfile(),
          test::sharingProfile()}) {
        std::uint64_t total = 0;
        for (int t = 0; t < nthreads; ++t) {
            ThreadProgram prog(p, t, nthreads);
            total += prog.plannedIters();
        }
        EXPECT_EQ(total, p.totalIters) << p.name << " @ " << nthreads;
    }
}

TEST_P(WorkConservation, CappedProfilesConserveWorkToo)
{
    const int nthreads = GetParam();
    BenchmarkProfile p = test::computeOnlyProfile();
    p.parallelismCap = 3.0;
    p.capJitter = 0.3;
    p.barrierPhases = 10;
    p.imbalanceSkew = 0.25;
    std::uint64_t total = 0;
    for (int t = 0; t < nthreads; ++t) {
        ThreadProgram prog(p, t, nthreads);
        total += prog.plannedIters();
    }
    EXPECT_EQ(total, p.totalIters);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkConservation,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(ThreadProgram, ParallelismCapLimitsActiveThreads)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.parallelismCap = 4.0;
    p.capJitter = 0.0;
    p.capScale = 0.0;
    p.barrierPhases = 8;
    for (int phase = 0; phase < 8; ++phase) {
        EXPECT_EQ(ThreadProgram::activeThreads(p, 16, phase), 4);
        // With fewer threads than the cap, everyone is active.
        EXPECT_EQ(ThreadProgram::activeThreads(p, 2, phase), 2);
    }
    // Exactly `active` threads get work: with a single phase there is
    // no rotation, so precisely `parallelismCap` of the 16 threads plan
    // any iterations at all.
    BenchmarkProfile single = p;
    single.barrierPhases = 1;
    int with_work = 0;
    for (int t = 0; t < 16; ++t) {
        ThreadProgram prog(single, t, 16);
        with_work += prog.plannedIters() > 0;
    }
    EXPECT_EQ(with_work, 4);
}

TEST(ThreadProgram, InstructionsGrowWithParallelOverhead)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.parOverheadFrac = 0.25;
    // Program instructions the cores committed (totalInstructions
    // already excludes spin-loop instructions).
    auto programInstrs = [&](int nthreads) {
        return static_cast<double>(
            simulate(SimParams{}, p, nthreads).totalInstructions);
    };
    // Parallel runs >= ~20% more instructions than sequential.
    EXPECT_GT(programInstrs(4), 1.15 * programInstrs(1));
}

TEST(ThreadProgram, WarmupSweepsPrivateRegion)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.privateBytes = 4096; // 64 lines
    ThreadProgram prog(p, 0, 1);
    int warmup_loads = 0;
    for (;;) {
        const Op op = prog.nextOp();
        if (op.type == OpType::kRoiBegin)
            break;
        if (op.type == OpType::kLoad)
            ++warmup_loads;
    }
    EXPECT_GE(warmup_loads, 64);
}

TEST(ThreadProgram, WarmupSweepOrderSurvivesChunkedEmission)
{
    // Sweeps longer than one refill: private region, private hot
    // re-touch, shared hot window, two lock data regions, then the
    // warmup barrier and RoI start, each sweep line by line in order.
    BenchmarkProfile p = test::computeOnlyProfile();
    p.privateBytes = 64 * 1024; // 1024 lines
    p.privateHotBytes = 4 * 1024;
    p.sharedBytes = 128 * 1024;
    p.sharedHotBytes = 8 * 1024;
    p.sharedFrac = 0.1;
    p.numLocks = 2;
    p.lockFreq = 0.1;
    ThreadProgram prog(p, 1, 2);

    struct Sweep
    {
        Addr base;
        std::uint64_t lines;
        PC pc;
    };
    const Sweep sweeps[] = {
        {addrmap::privateBase(1), 1024, 0x30000},
        {addrmap::privateBase(1), 64, 0x30001},
        {addrmap::kSharedBase, 128, 0x30010},
        {addrmap::lockDataBase(0), 64, 0x30020},
        {addrmap::lockDataBase(1), 64, 0x30020},
    };
    for (const Sweep &sw : sweeps) {
        for (std::uint64_t l = 0; l < sw.lines; ++l) {
            const Op op = prog.nextOp();
            ASSERT_EQ(op.type, OpType::kLoad)
                << "pc " << sw.pc << " line " << l;
            ASSERT_EQ(op.addr, sw.base + l * kLineBytes);
            ASSERT_EQ(op.pc, sw.pc);
        }
    }
    const Op barrier = prog.nextOp();
    EXPECT_EQ(barrier.type, OpType::kBarrier);
    EXPECT_EQ(barrier.id, static_cast<int>(kWarmupBarrierId));
    EXPECT_EQ(prog.nextOp().type, OpType::kRoiBegin);
}

} // namespace
} // namespace sst
