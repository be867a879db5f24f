/**
 * @file
 * Trace replay: TraceReader parses and validates a recorded trace
 * container (header, stream table, and a full decode pass over every
 * stream, so truncation or corruption fails at open time with a clean
 * TraceError); TraceProgram is the OpSource replay frontend that feeds
 * a recorded stream back into the simulator — no ThreadProgram, no
 * workload generation, just byte decoding on the hot path.
 */

#ifndef SST_TRACE_TRACE_READER_HH
#define SST_TRACE_TRACE_READER_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/trace_format.hh"
#include "workload/op_source.hh"

namespace sst {

/** Parsed, validated trace container. Cheap to copy (shares the data). */
class TraceReader
{
  public:
    /** Parse @p path. Throws TraceError on IO error or malformed data. */
    explicit TraceReader(const std::string &path);

    /** Parse an in-memory image (tests, future network transports). */
    static TraceReader fromBytes(std::string bytes);

    const trace::TraceMeta &meta() const { return meta_; }

    /** Streams in the file: nthreads parallel + ngroups baselines. */
    int nstreams() const { return static_cast<int>(streams_.size()); }

    /** Program groups of the recorded workload (1 for v1/v2 files). */
    int ngroups() const { return static_cast<int>(meta_.groups.size()); }

    std::uint64_t opCount(int stream) const;
    std::uint64_t streamBytes(int stream) const;

    /**
     * Replay source for parallel-run thread @p tid. Throws TraceError
     * when @p tid is outside the recorded thread count.
     */
    std::unique_ptr<OpSource> parallelSource(ThreadId tid) const;

    /** Replay source for group @p group's sequential reference
     *  program. Throws TraceError on an out-of-range group. */
    std::unique_ptr<OpSource> baselineSource(int group = 0) const;

    /**
     * Validate that this trace records exactly the workload described
     * by @p role and the expected @p groups (per-group thread counts
     * and profile fingerprints, in order) under @p policy /
     * @p sched_seed. Throws TraceError naming the first mismatched
     * group and axis — a recording of different per-thread profiles
     * never silently replays.
     */
    void requireCompatibleWorkload(WorkloadRole role,
                                   const std::vector<trace::TraceGroup> &groups,
                                   SchedPolicy policy,
                                   std::uint64_t sched_seed) const;

    /**
     * Validate only the scheduler-policy axis (the trace CLI's
     * `replay --sched` check, where profile/thread identity comes from
     * the file itself). Throws TraceError on mismatch.
     */
    void requireSchedPolicy(SchedPolicy policy) const;

  private:
    struct StreamIndex
    {
        std::size_t offset = 0; ///< into data_
        std::size_t length = 0;
        std::uint64_t ops = 0;
    };

    TraceReader() = default;
    void parse();
    std::unique_ptr<OpSource> sourceFor(int stream) const;

    std::shared_ptr<const std::string> data_;
    trace::TraceMeta meta_;
    std::vector<StreamIndex> streams_;
};

/**
 * OpSource decoding one recorded stream. Holds a share of the trace
 * image, so it stays valid after the TraceReader is gone.
 */
class TraceProgram : public OpSource
{
  public:
    TraceProgram(std::shared_ptr<const std::string> data,
                 std::size_t offset, std::size_t length,
                 std::uint64_t ops);

    Op nextOp() override;
    bool finished() const override { return finished_; }

  private:
    std::shared_ptr<const std::string> data_;
    trace::OpDecoder decoder_;
    std::uint64_t opsLeft_;
    bool finished_ = false;
};

} // namespace sst

#endif // SST_TRACE_TRACE_READER_HH
