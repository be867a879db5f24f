/**
 * @file
 * OpSource: the abstract per-thread op-stream interface the CMP
 * simulator consumes. The simulator is workload-agnostic — it pulls one
 * Op at a time and never inspects how the stream is produced — so any
 * frontend that can emit the op DSL plugs in here: the two synthetic
 * generators (ThreadProgram for the registered profiles and the WDL
 * interpreter), which share the buffered OpEmitter core
 * (workload/op_emitter.hh), and the binary-trace replay frontend
 * (TraceProgram).
 *
 * Contract: nextOp() delivers the stream in order and returns the kEnd
 * op exactly once as the final element (then Op::end() forever);
 * finished() turns true once kEnd has been delivered. The simulator
 * calls nextOp() exactly once per executed op, which is what makes a
 * recording wrapper around any source an exact capture.
 */

#ifndef SST_WORKLOAD_OP_SOURCE_HH
#define SST_WORKLOAD_OP_SOURCE_HH

#include <functional>
#include <memory>

#include "util/types.hh"
#include "workload/op.hh"

namespace sst {

/** Abstract producer of one simulated thread's op stream. */
class OpSource
{
  public:
    virtual ~OpSource() = default;

    /** Next op of the stream; returns Op::end() forever once finished. */
    virtual Op nextOp() = 0;

    /** True once the stream has delivered its kEnd op. */
    virtual bool finished() const = 0;
};

/**
 * Factory producing the op source of thread @p tid in an @p nthreads
 * run. The System constructs one source per software thread; a factory
 * plus a thread count fully describes a workload.
 */
using OpSourceFactory =
    std::function<std::unique_ptr<OpSource>(ThreadId tid, int nthreads)>;

} // namespace sst

#endif // SST_WORKLOAD_OP_SOURCE_HH
