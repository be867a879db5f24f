/**
 * @file
 * End-to-end trace round-trip tests: recording a job through the
 * driver's record directory and replaying it from the binary trace must
 * reproduce the live results bit for bit — execution times,
 * speedup-stack components and every per-thread accounting counter —
 * across profiles and thread counts. Also covers the driver's
 * --trace-dir mode: replayed batches match live batches, missing
 * traces fall back to generation, and stale traces fail loudly.
 */

#include <filesystem>
#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "driver/driver.hh"
#include "trace/trace_run.hh"
#include "tests/test_util.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

std::string
freshTempDir(const char *name)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "sst_trace_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
expectSameCounters(const ThreadCounters &a, const ThreadCounters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.spinInstructions, b.spinInstructions);
    EXPECT_EQ(a.llcLoadMissStall, b.llcLoadMissStall);
    EXPECT_EQ(a.llcLoadMisses, b.llcLoadMisses);
    EXPECT_EQ(a.negLlcSampledStall, b.negLlcSampledStall);
    EXPECT_EQ(a.interThreadMissesSampled, b.interThreadMissesSampled);
    EXPECT_EQ(a.interThreadHitsSampled, b.interThreadHitsSampled);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.atdSampledAccesses, b.atdSampledAccesses);
    EXPECT_EQ(a.busWaitOther, b.busWaitOther);
    EXPECT_EQ(a.bankWaitOther, b.bankWaitOther);
    EXPECT_EQ(a.pageConflictOther, b.pageConflictOther);
    EXPECT_EQ(a.spinDetectedTian, b.spinDetectedTian);
    EXPECT_EQ(a.spinDetectedLi, b.spinDetectedLi);
    EXPECT_EQ(a.yieldCycles, b.yieldCycles);
    EXPECT_EQ(a.coherencyMisses, b.coherencyMisses);
    EXPECT_EQ(a.gtLockSpin, b.gtLockSpin);
    EXPECT_EQ(a.gtBarrierSpin, b.gtBarrierSpin);
    EXPECT_EQ(a.gtLockYield, b.gtLockYield);
    EXPECT_EQ(a.gtBarrierYield, b.gtBarrierYield);
    EXPECT_EQ(a.gtPreemptYield, b.gtPreemptYield);
    EXPECT_EQ(a.gtMemWaitOther, b.gtMemWaitOther);
    EXPECT_EQ(a.finishTime, b.finishTime);
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.nthreads, b.nthreads);
    EXPECT_EQ(a.ncores, b.ncores);
    EXPECT_EQ(a.executionTime, b.executionTime);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.totalSpinInstructions, b.totalSpinInstructions);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t)
        expectSameCounters(a.threads[t], b.threads[t]);
    EXPECT_EQ(a.regions.size(), b.regions.size());
}

void
expectSameExperiment(const SpeedupExperiment &a,
                     const SpeedupExperiment &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.nthreads, b.nthreads);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.tp, b.tp);
    // Bit-identical, not approximately equal: replay is exact.
    EXPECT_EQ(a.actualSpeedup, b.actualSpeedup);
    EXPECT_EQ(a.estimatedSpeedup, b.estimatedSpeedup);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.parOverheadMeasured, b.parOverheadMeasured);
    EXPECT_EQ(a.stack.baseSpeedup, b.stack.baseSpeedup);
    EXPECT_EQ(a.stack.posLlc, b.stack.posLlc);
    EXPECT_EQ(a.stack.negLlc, b.stack.negLlc);
    EXPECT_EQ(a.stack.negMem, b.stack.negMem);
    EXPECT_EQ(a.stack.spin, b.stack.spin);
    EXPECT_EQ(a.stack.yield, b.stack.yield);
    EXPECT_EQ(a.stack.imbalance, b.stack.imbalance);
    EXPECT_EQ(a.stack.coherency, b.stack.coherency);
    expectSameRun(a.single, b.single);
    expectSameRun(a.parallel, b.parallel);
}

/**
 * Record -> replay for one (profile, nthreads) point and demand
 * bit-identical results everywhere.
 */
void
roundTrip(const std::string &dir, const BenchmarkProfile &profile,
          int nthreads)
{
    SCOPED_TRACE(profile.label() + " @" + std::to_string(nthreads));
    const std::string path = tracePathFor(dir, profile, nthreads);
    const SimParams params;

    const SpeedupExperiment live =
        test::recordJob(JobSpec::forProfile(profile, nthreads), dir);
    ASSERT_TRUE(std::filesystem::exists(path));
    const SpeedupExperiment replayed = replaySpeedupTrace(params, TraceReader(path));
    expectSameExperiment(live, replayed);

    // The recording shim must also be transparent: the experiment
    // measured while recording equals a plain run without the shim.
    expectSameExperiment(
        live, runSpeedupExperiment(params, profile, nthreads));
}

// Three Figure-6 profiles spanning the behaviour classes (good /
// lock-spin / barrier-imbalance scaling), each at 1, 4 and 16 threads
// — the satellite's ">= 3 profiles x {1, 4, 16}" matrix.
TEST(TraceRoundTrip, CholeskyMatchesLiveBitForBit)
{
    const std::string dir = freshTempDir("rt_cholesky");
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("cholesky"), n);
    std::filesystem::remove_all(dir);
}

TEST(TraceRoundTrip, RadixMatchesLiveBitForBit)
{
    const std::string dir = freshTempDir("rt_radix");
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("radix"), n);
    std::filesystem::remove_all(dir);
}

TEST(TraceRoundTrip, FftMatchesLiveBitForBit)
{
    const std::string dir = freshTempDir("rt_fft");
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("fft"), n);
    std::filesystem::remove_all(dir);
}

// ---- driver --trace-dir ----------------------------------------------------

TEST(DriverTrace, BatchReplaysFromTraceDirAndMatchesLive)
{
    const std::string dir = freshTempDir("driver_replay");
    const std::vector<JobSpec> specs = {
        JobSpec::forProfile(test::computeOnlyProfile(), 2),
        JobSpec::forProfile(test::lockHeavyProfile(), 4),
        JobSpec::forProfile(test::barrierHeavyProfile(), 2)};

    for (const JobSpec &s : specs)
        test::recordJob(s, dir);

    DriverOptions live;
    live.jobs = 2;
    const std::vector<JobResult> fresh = runExperimentBatch(specs, live);

    DriverOptions traced = live;
    traced.traceDir = dir;
    BatchStats stats;
    const std::vector<JobResult> replayed =
        runExperimentBatch(specs, traced, &stats);

    EXPECT_EQ(stats.traceReplays, specs.size());
    EXPECT_EQ(stats.executed, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(replayed[i].ok()) << replayed[i].error;
        EXPECT_TRUE(replayed[i].tracedReplay);
        expectSameExperiment(replayed[i].exp, fresh[i].exp);
    }
    std::filesystem::remove_all(dir);
}

TEST(DriverTrace, MissingTraceFallsBackToLiveGeneration)
{
    const std::string dir = freshTempDir("driver_fallback");
    DriverOptions opts;
    opts.traceDir = dir; // exists but holds no recordings
    BatchStats stats;
    const std::vector<JobResult> results = runExperimentBatch(
        {JobSpec::forProfile(test::computeOnlyProfile(), 2)}, opts, &stats);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_FALSE(results[0].tracedReplay);
    EXPECT_EQ(stats.traceReplays, 0u);
    EXPECT_EQ(stats.executed, 1u);
    std::filesystem::remove_all(dir);
}

TEST(DriverTrace, SeedOffsetLooksUpItsOwnRecording)
{
    // An offset-0 recording must not be picked up by an offset-1 job
    // (different op streams): the job falls back to live generation.
    const std::string dir = freshTempDir("driver_seed_offset");
    const BenchmarkProfile profile = test::computeOnlyProfile();
    test::recordJob(JobSpec::forProfile(profile, 2), dir);

    JobSpec offset = JobSpec::forProfile(profile, 2);
    offset.seedOffset = 1;
    DriverOptions opts;
    opts.traceDir = dir;
    BatchStats stats;
    const std::vector<JobResult> results =
        runExperimentBatch({offset}, opts, &stats);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_FALSE(results[0].tracedReplay);
    EXPECT_EQ(stats.traceReplays, 0u);
    std::filesystem::remove_all(dir);
}

TEST(DriverTrace, StaleTraceFailsTheJobLoudly)
{
    const std::string dir = freshTempDir("driver_stale");
    BenchmarkProfile profile = test::computeOnlyProfile();
    test::recordJob(JobSpec::forProfile(profile, 2), dir);

    // Same label, different op streams: the recording is now stale.
    profile.seed += 1;
    DriverOptions opts;
    opts.traceDir = dir;
    const std::vector<JobResult> results =
        runExperimentBatch({JobSpec::forProfile(profile, 2)}, opts);
    ASSERT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("profile mismatch"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sst
