/**
 * @file
 * Shared helpers for the test suite: small controlled benchmark profiles
 * that exercise one mechanism at a time, and trace recording through
 * the experiment driver.
 */

#ifndef SST_TESTS_TEST_UTIL_HH
#define SST_TESTS_TEST_UTIL_HH

#include <stdexcept>
#include <string>

#include "driver/driver.hh"
#include "workload/profile.hh"

namespace sst {
namespace test {

/** A tiny compute-only profile (no sync, no sharing). */
inline BenchmarkProfile
computeOnlyProfile()
{
    BenchmarkProfile p;
    p.name = "t-compute";
    p.suite = "test";
    p.totalIters = 2000;
    p.computePerIter = 100;
    p.memPerIter = 4;
    p.privateBytes = 8 * 1024;
    p.barrierPhases = 1;
    p.seed = 7;
    return p;
}

/** One hot lock, every iteration enters a short critical section. */
inline BenchmarkProfile
lockHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-lock";
    p.totalIters = 3000;
    p.numLocks = 1;
    p.lockFreq = 1.0;
    p.csCompute = 60;
    p.csMem = 1;
    return p;
}

/** Many short barrier phases with skewed work. */
inline BenchmarkProfile
barrierHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-barrier";
    p.totalIters = 4000;
    p.barrierPhases = 16;
    p.imbalanceSkew = 0.3;
    return p;
}

/** Shared-heavy profile with a moving hot window (positive interf.). */
inline BenchmarkProfile
sharingProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-sharing";
    p.totalIters = 4000;
    p.memPerIter = 12;
    p.sharedBytes = 512 * 1024;
    p.sharedFrac = 0.5;
    p.sharedHotFrac = 0.5;
    p.sharedHotBytes = 32 * 1024;
    p.sharedWindowPhases = 2;
    p.barrierPhases = 8;
    return p;
}

/** Footprint far beyond the LLC: steady DRAM traffic. */
inline BenchmarkProfile
memoryHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-memory";
    p.totalIters = 2000;
    p.memPerIter = 16;
    p.privateBytes = 4 * 1024 * 1024;
    p.privateHotBytes = 16 * 1024;
    p.privateHotFrac = 0.9;
    return p;
}

/**
 * Record @p job's op streams into @p dir the way `sst trace record`
 * does — a one-job batch with a record directory and no result cache —
 * and return the experiment measured while recording. The trace lands
 * at tracePathFor(dir, job.effectiveWorkload(), ...).
 */
inline SpeedupExperiment
recordJob(const JobSpec &job, const std::string &dir)
{
    DriverOptions opts;
    opts.recordDir = dir;
    const JobResult result = runExperimentBatch({job}, opts).at(0);
    if (!result.ok() || !result.traceRecorded)
        throw std::runtime_error("recording " + job.label() +
                                 " failed: " + result.error);
    return result.exp;
}

} // namespace test
} // namespace sst

#endif // SST_TESTS_TEST_UTIL_HH
