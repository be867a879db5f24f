/**
 * @file
 * Standalone per-layer measurements of one executed job, timed from
 * outside through each layer's public functions:
 *
 *  - workload: drain every thread's op stream (ThreadProgram, or the
 *    WDL emitter via wdl::workloadSources) with no simulator attached;
 *  - cache: replay the drained loads/stores through a fresh
 *    CacheHierarchy::access, threads interleaved round-robin, thread t
 *    on core t mod ncores;
 *  - mem: send that replay's LLC misses to DramModel::access,
 *    closed-loop (see replayJob);
 *  - core: re-run assembleExperiment on the job's recorded runs.
 *
 * Each step runs inside a telemetry span ("opgen", "cache-replay",
 * "mem-replay", "assemble"; category = layer), so its host time is read
 * from the traced run's spans.
 *
 * The replays exist for host cost. Their interleaving is not the
 * simulator's schedule, so their hit and miss counts differ from the
 * in-run RunResult counts; the benchmark reports the latter.
 */

#ifndef SSTBENCH_LAYERS_HH
#define SSTBENCH_LAYERS_HH

#include <cstdint>

#include "driver/job.hh"

namespace sstbench {

/** Work summed over replayed jobs. */
struct ReplayTotals
{
    std::uint64_t ops = 0; ///< ops drained, kEnd included
    std::uint64_t cacheAccesses = 0;
    std::uint64_t memAccesses = 0;
};

/**
 * Drain @p spec's parallel op streams standalone, then replay them
 * through the cache and memory models. The memory replay issues closed-loop: each
 * access issues no earlier than the previous one and no earlier than
 * the previous completion minus a few hundred cycles, which keeps the
 * bus backlog bounded.
 */
void replayJob(const sst::JobSpec &spec, ReplayTotals &totals);

/**
 * Re-assemble @p result's experiment from its recorded baseline and
 * parallel runs. Returns false when the re-assembled speedups, error or
 * stack differ from the driver's.
 */
bool reassembleJob(const sst::JobSpec &spec, const sst::JobResult &result);

} // namespace sstbench

#endif // SSTBENCH_LAYERS_HH
