/**
 * @file
 * High-level trace workflows tying the capture/replay primitives to the
 * experiment machinery: the trace header and canonical file name of a
 * workload, baseline streams filled by pure generation, and replay of
 * a recorded trace into a bit-identical experiment without
 * constructing a single ThreadProgram. Recording itself runs through
 * the experiment driver (DriverOptions::recordDir), so a trace is
 * always captured exactly as a batch job runs it.
 */

#ifndef SST_TRACE_TRACE_RUN_HH
#define SST_TRACE_TRACE_RUN_HH

#include <string>

#include "core/experiment.hh"
#include "sim/params.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

namespace sst {

/**
 * Content hash identifying the workload a trace captures: FNV-1a over
 * the canonical profile serialization (the driver fingerprint encoding,
 * so every op-stream-relevant knob participates).
 */
std::uint64_t traceProfileHash(const BenchmarkProfile &profile);

/**
 * Content hash of a whole workload. Equals traceProfileHash() of the
 * single profile for homogeneous specs; heterogeneous specs fold the
 * role and every group's thread count + profile encoding.
 */
std::uint64_t traceWorkloadHash(const WorkloadSpec &workload);

/** Per-group trace identities of @p workload (header / compat check). */
std::vector<trace::TraceGroup> traceGroupsOf(const WorkloadSpec &workload);

/** Trace header describing @p workload recorded under @p params. */
trace::TraceMeta traceMetaFor(const WorkloadSpec &workload,
                              const SimParams &params);

/**
 * Canonical path of @p workload's trace in @p dir: the workload label
 * (a .wdl workload adds a short IR hash, so two files sharing a name
 * never collide) and `_t<threads>`. A nonzero replication stream
 * (@p seed_offset, see JobSpec) gets its own `_sK` suffix, a
 * non-default scheduler policy a `_<policy>` suffix, and a
 * random-policy RNG stream a further `_ssK` suffix — so recordings of
 * different configurations coexist instead of silently overwriting
 * each other, and a sweep at a different configuration falls back to
 * live generation instead of tripping over the wrong recording.
 */
std::string tracePathFor(const std::string &dir,
                         const WorkloadSpec &workload,
                         std::uint64_t seed_offset = 0,
                         SchedPolicy policy = SchedPolicy::kAffinityFifo,
                         std::uint64_t sched_seed = 0);

/** As above for @p nthreads threads of @p profile ("cholesky_t4"). */
std::string tracePathFor(const std::string &dir,
                         const BenchmarkProfile &profile, int nthreads,
                         std::uint64_t seed_offset = 0,
                         SchedPolicy policy = SchedPolicy::kAffinityFifo,
                         std::uint64_t sched_seed = 0);

/**
 * Append group @p group's 1-thread sequential reference program to
 * @p writer's corresponding baseline stream by pure generation — an op
 * stream is a deterministic function of the workload (its profile or
 * compiled WDL IR), so no simulation is needed and the bytes equal
 * what a recorded live baseline run would capture. This is how the
 * driver's recordDir mode fills baseline streams without re-running
 * baselines every job.
 */
void appendGeneratedBaseline(TraceWriter &writer,
                             const WorkloadSpec &workload, int group);

/** Replay the parallel run of @p reader (cores pinned like simulate();
 *  the recorded workload's barrier quorums and affinity hints are
 *  reconstructed from the header's group table). */
RunResult replayParallel(const SimParams &params,
                         const TraceReader &reader);

/** Replay group @p group's sequential reference run of @p reader. */
RunResult replayBaseline(const SimParams &params,
                         const TraceReader &reader, int group = 0);

/**
 * Re-simulate both recorded runs of @p reader's trace and assemble the
 * speedup experiment. The scheduler policy recorded in the trace
 * header overrides @p params.schedPolicy (recorded stacks only
 * reproduce under the schedule they were captured with). Bit-identical
 * to the experiment measured at record time when @p params matches; no
 * workload generation happens on this path.
 */
SpeedupExperiment replaySpeedupTrace(const SimParams &params,
                                     const TraceReader &reader);

} // namespace sst

#endif // SST_TRACE_TRACE_RUN_HH
