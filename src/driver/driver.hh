/**
 * @file
 * The parallel experiment driver: executes a declarative batch of
 * speedup-experiment jobs on worker threads that claim jobs from a
 * shared index, runs a job listed twice in one batch once, shares
 * single-threaded baseline runs between jobs that only differ in thread
 * count, memoizes completed jobs in a content-addressed on-disk cache,
 * and isolates failures so one bad spec never poisons a batch.
 *
 * Determinism contract: a job's result is a pure function of its
 * JobSpec. The simulator keeps all state per-System instance and every
 * RNG stream is seeded from the spec alone, so a batch produces
 * bit-identical results whether it runs with 1 worker or N, in any
 * interleaving, and results are returned in submission order.
 */

#ifndef SST_DRIVER_DRIVER_HH
#define SST_DRIVER_DRIVER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "driver/job.hh"

namespace sst {

/** Batch execution configuration. */
struct DriverOptions
{
    /** Worker threads; <= 0 selects std::thread::hardware_concurrency. */
    int jobs = 1;

    /** Result cache directory; empty disables on-disk memoization. */
    std::string cacheDir;

    /** Re-execute and overwrite even on a cache hit. */
    bool refresh = false;

    /**
     * Directory of recorded op traces (see src/trace/). When a job's
     * canonical trace file (tracePathFor) exists there, its runs replay
     * from the recording — op-stream generation is skipped entirely.
     * Jobs without a recording fall back to live generation; a present
     * but stale/incompatible trace fails the job loudly rather than
     * silently regenerating.
     */
    std::string traceDir;

    /**
     * Capture `.sstt` op traces of live jobs into this directory as
     * the batch runs (`sst sweep --record-dir`, and `sst trace record`
     * as a one-job batch). Each freshly
     * executed, non-oversubscribed job writes its canonical trace file
     * (tracePathFor) via the RecordingSource shim around its parallel
     * run; baseline streams are filled by pure generation, so shared
     * baselines stay shared. Cache hits and trace replays skip
     * capture. Mutually exclusive with traceDir.
     */
    std::string recordDir;
};

/** Aggregate counters of one runBatch() call. */
struct BatchStats
{
    std::size_t total = 0;    ///< jobs in the batch
    std::size_t executed = 0; ///< freshly simulated
    std::size_t cached = 0;   ///< replayed from the result cache
    std::size_t failed = 0;   ///< rejected spec or execution error
    std::size_t deduped = 0;  ///< intra-batch fingerprint duplicates
    std::size_t baselinesComputed = 0; ///< distinct 1-thread runs
    std::size_t traceReplays = 0; ///< executed jobs driven from a trace
    std::size_t tracesRecorded = 0; ///< jobs captured via --record-dir
};

/** Executes job batches; reusable across batches (stats reset per run). */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(DriverOptions opts = DriverOptions());
    ~ExperimentDriver();

    /**
     * Execute @p specs and return one JobResult per spec, in input
     * order. Never throws for per-job failures: a job that fails spec
     * validation or raises during execution yields a kFailed result with
     * the error message, and every other job still completes.
     */
    std::vector<JobResult> runBatch(const std::vector<JobSpec> &specs);

    /** Counters of the most recent runBatch() call. */
    const BatchStats &stats() const { return stats_; }

    /** Resolved worker count (after hardware_concurrency defaulting). */
    int workerCount() const;

  private:
    DriverOptions opts_;
    BatchStats stats_;
    std::unique_ptr<class ResultCache> cache_;
};

/**
 * Convenience wrapper: run @p specs with @p options in one call.
 * @param[out] stats batch counters when non-null
 */
std::vector<JobResult> runExperimentBatch(const std::vector<JobSpec> &specs,
                                          const DriverOptions &options,
                                          BatchStats *stats = nullptr);

} // namespace sst

#endif // SST_DRIVER_DRIVER_HH
