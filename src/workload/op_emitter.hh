/**
 * @file
 * OpEmitter: the buffered emission core of the synthetic op generators
 * (ThreadProgram for the registered profiles, the WDL interpreter for
 * `.wdl` scenarios). It owns the op buffer behind nextOp(), the pre-RoI
 * warmup (an ordered list of line sweeps, then the warmup barrier in
 * parallel streams and kRoiBegin) and memory-reference emission with
 * the rotating synthetic PC. A generator registers its sweeps in its
 * constructor and implements step(), which emits the next small piece
 * of its body.
 *
 * Refill bound: the buffer holds kRefillTarget ops. A refill emits
 * warmup loads and starts steps only while more than kStepSlack slots
 * are free (room()), and no step overruns that mark by more: a
 * ThreadProgram step is one loop iteration, at most 32 ops for every
 * registered profile; a WDL step checks room() between references and
 * overruns by at most 2. Neither a warmup region nor a long statement
 * is ever buffered whole.
 */

#ifndef SST_WORKLOAD_OP_EMITTER_HH
#define SST_WORKLOAD_OP_EMITTER_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"
#include "workload/op.hh"
#include "workload/op_source.hh"

namespace sst {

/** Buffered op-stream core shared by the synthetic generators. */
class OpEmitter : public OpSource
{
  public:
    /** Capacity of the op buffer: the most ops one refill holds. */
    static constexpr std::size_t kRefillTarget = 256;

    /** Free slots a refill keeps for the step it starts last. */
    static constexpr std::size_t kStepSlack = 32;

    Op nextOp() final;

    bool finished() const final { return finished_; }

  protected:
    /** @p parallel streams close the warmup with barrier
     *  kWarmupBarrierId + @p barrier_offset and carry sync ops. */
    OpEmitter(bool parallel, int barrier_offset)
        : parallel_(parallel), barrierOffset_(barrier_offset)
    {
        buf_.reserve(kRefillTarget);
    }

    bool parallel() const { return parallel_; }

    /** Warmup sweep, run in the order added: loads of @p lines
     *  consecutive cache lines from @p base at @p pc. */
    void
    addSweep(Addr base, std::uint64_t lines, PC pc)
    {
        sweeps_.push_back({base, lines, pc});
    }

    /** Emit the next piece of the body after the warmup. Returns false
     *  once the body is exhausted (ops emitted by that call still
     *  count); step() is not called again afterwards. */
    virtual bool step() = 0;

    void emit(const Op &op) { buf_.push_back(op); }

    /** One load or store at the next rotating synthetic PC. */
    void emitMemRef(Addr addr, bool store);

    /** True while the current refill has room for another step. */
    bool room() const { return buf_.size() + kStepSlack < kRefillTarget; }

  private:
    struct Sweep
    {
        Addr base;
        std::uint64_t lines;
        PC pc;
    };

    void refill();
    void emitWarmup();

    std::vector<Op> buf_;
    std::size_t cursor_ = 0;
    std::vector<Sweep> sweeps_;
    std::size_t sweep_ = 0;  ///< current warmup sweep
    std::uint64_t line_ = 0; ///< next line of sweeps_[sweep_]
    bool roiOpen_ = false;   ///< warmup rendezvous emitted
    bool bodyDone_ = false;
    bool finished_ = false;
    const bool parallel_;
    const int barrierOffset_;
    std::uint64_t memSlot_ = 0;
};

} // namespace sst

#endif // SST_WORKLOAD_OP_EMITTER_HH
