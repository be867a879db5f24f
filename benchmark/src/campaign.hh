/**
 * @file
 * The benchmark's workloads and the campaign lifecycle around the
 * library's public entry points: set-up (profile lookup, WDL compile,
 * grid expansion, fresh result-cache directory), one timed
 * ExperimentDriver::runBatch, a deterministic summary of the results,
 * and the correctness checks on them.
 */

#ifndef SSTBENCH_CAMPAIGN_HH
#define SSTBENCH_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "driver/job.hh"

namespace sstbench {

/** The benchmark workloads (see README.md for why each exists). */
enum class WorkloadKind {
    kFig04Grid,     ///< Fig. 4: 28 profiles x threads {2,4,8,16}
    kScale64,       ///< 4 profiles x 64 threads on {16,32,64} cores,
                    ///< 4 RNG streams
    kTxnContention, ///< generated WDL txn loops, zipf x threads
};

/** Resolve a workload name; throws std::invalid_argument. */
WorkloadKind workloadByName(const std::string &name);

/** What one run of the benchmark executes. */
struct WorkloadConfig
{
    WorkloadKind kind = WorkloadKind::kFig04Grid;
    std::uint64_t seed = 0;
    int workers = 4;
    /** txn_contention: the generated `.wdl` sources (writeTxnSources). */
    std::vector<std::string> wdlFiles;
};

/**
 * Write txn_contention's `.wdl` sources for @p seed into @p dir: a
 * DBx1000/YCSB-style txn loop over a 64-lock table for every zipf
 * theta in {0.0, 0.9, 0.99} and thread count in {4, 16}. Seed 0 gives
 * examples/workloads/txn_high.wdl's seed. Returns the file paths.
 */
std::vector<std::string> writeTxnSources(const std::string &dir,
                                         std::uint64_t seed);

/** One campaign, ready to hand to the driver. */
struct Campaign
{
    std::vector<sst::JobSpec> specs;
    std::string cacheDir;
    std::unique_ptr<sst::ExperimentDriver> driver;
    double compileS = 0.0; ///< WDL parse + compile
    double expandS = 0.0;  ///< profile lookup + grid expansion
    double setupS = 0.0;   ///< everything up to the first runBatch
};

/**
 * Set a campaign up: WDL compile, profile lookup and grid expansion,
 * and a driver over a fresh result-cache directory @p cacheDir (which
 * must not exist yet). While the telemetry tracer is on, the WDL
 * compile and the expansion are recorded as "wdl" and "spec" spans.
 */
Campaign setUp(const WorkloadConfig &cfg, const std::string &cacheDir);

/** The outcome of one timed runBatch. */
struct CampaignRun
{
    std::vector<sst::JobResult> results;
    sst::BatchStats stats;
    double wallS = 0.0; ///< wall time of runBatch
    double cpuS = 0.0;  ///< process user + sys CPU time over runBatch
};

CampaignRun runCampaign(Campaign &campaign);

/**
 * Deterministic sums over a campaign's runs: every parallel run and
 * every distinct 1-thread baseline run (shared baselines count once).
 */
struct Summary
{
    std::size_t jobs = 0;
    std::size_t failedJobs = 0;
    std::size_t stackViolations = 0; ///< base + components != N
    std::size_t baselines = 0;       ///< distinct baseline runs

    std::uint64_t instructions = 0; ///< committed, spin included
    std::uint64_t parallelInstructions = 0; ///< parallel runs only
    std::uint64_t spinInstructions = 0;
    std::uint64_t events = 0;
    std::uint64_t heapOps = 0;
    std::uint64_t wakes = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t cycles = 0; ///< simulated execution cycles

    std::uint64_t l1Accesses = 0, l1Hits = 0;
    std::uint64_t llcAccesses = 0, llcHits = 0;
    std::uint64_t coherencyMisses = 0, invalidations = 0, writebacks = 0;

    std::uint64_t dramAccesses = 0, rowHits = 0;
    std::uint64_t busWaitOther = 0, bankWaitOther = 0;

    std::uint64_t lockSpin = 0, lockYield = 0;
    std::uint64_t barrierSpin = 0, barrierYield = 0;
    std::uint64_t spinDetected = 0, gtSpin = 0;
    std::uint64_t yieldCycles = 0, gtYield = 0;

    double parOverheadMean = 0.0;
    std::vector<double> absErrorPct; ///< |Eq. 6 error| x 100, per job
    std::map<int, std::vector<double>> absErrorPctByThreads;

    std::vector<std::string> rows; ///< sweep CSV row per job
    std::uint64_t digest = 0;      ///< over rows (status aside) + counts
};

Summary summarize(const std::vector<sst::JobSpec> &specs,
                  const CampaignRun &run);

/**
 * Correctness failures of one executed campaign: failed jobs, jobs not
 * freshly executed, and stacks whose components do not sum to N.
 */
std::vector<std::string> checkCampaign(const Summary &summary,
                                       const CampaignRun &run);

/**
 * Compare the rows of the golden CSV at @p goldenPath with the
 * matching rows of @p summary, status column aside. Every golden row
 * must be present and equal.
 */
std::vector<std::string> checkGolden(const Summary &summary,
                                     const std::string &goldenPath);

/**
 * Re-run @p campaign's jobs against its filled result cache and check
 * every job is a cache hit whose row equals the fresh row, status
 * aside, with status `cached`. @p seconds receives the re-run's wall
 * time.
 */
std::vector<std::string> checkCachedRerun(const WorkloadConfig &cfg,
                                          const Campaign &campaign,
                                          const Summary &fresh,
                                          double &seconds);

} // namespace sstbench

#endif // SSTBENCH_CAMPAIGN_HH
