#include "op_emitter.hh"

namespace sst {

Op
OpEmitter::nextOp()
{
    if (cursor_ == buf_.size() && !finished_)
        refill();
    return finished_ ? Op::end() : buf_[cursor_++];
}

void
OpEmitter::refill()
{
    buf_.clear();
    cursor_ = 0;
    if (!roiOpen_)
        emitWarmup();
    while (!bodyDone_ && room())
        bodyDone_ = !step();
    finished_ = buf_.empty();
}

void
OpEmitter::emitWarmup()
{
    // Pre-RoI warmup, mirroring SPLASH-2/PARSEC methodology: sweep the
    // regions the RoI touches so it starts from warm caches (the
    // paper's results are gathered from the parallel fraction with the
    // same property). A barrier aligns the threads, then kRoiBegin
    // resets the measurements. Sweeps run to hundreds of thousands of
    // loads (an 8 MB region is 131,072 lines), so each refill emits one
    // buffer's worth of them and resumes at (sweep_, line_).
    for (; sweep_ < sweeps_.size(); ++sweep_, line_ = 0) {
        const Sweep &sw = sweeps_[sweep_];
        for (; line_ < sw.lines; ++line_) {
            if (!room())
                return;
            buf_.push_back(Op::load(sw.base + line_ * kLineBytes, sw.pc));
        }
    }
    std::vector<Sweep>().swap(sweeps_);
    if (parallel_)
        buf_.push_back(Op::barrier(kWarmupBarrierId + barrierOffset_));
    buf_.push_back(Op::roiBegin());
    roiOpen_ = true;
}

void
OpEmitter::emitMemRef(Addr addr, bool store)
{
    const PC pc = 0x40000 + (memSlot_++ % 64) * 4;
    buf_.push_back(store ? Op::store(addr, pc) : Op::load(addr, pc));
}

} // namespace sst
