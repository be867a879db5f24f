#include "layers.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/experiment.hh"
#include "mem/dram.hh"
#include "telemetry/span.hh"
#include "workload/op_source.hh"
#include "workload/workload_spec.hh"

namespace sstbench {
namespace {

/** Memory references buffered per thread between replay rounds. */
constexpr std::size_t kChunk = 8192;

/** Bound on how far the memory replay may issue ahead of completions. */
constexpr sst::Cycles kBacklogCycles = 256;

struct MemRef
{
    sst::Addr addr;
    bool write;
};

struct Miss
{
    sst::CoreId core;
    sst::Addr addr;
};

} // namespace

void
replayJob(const sst::JobSpec &spec, ReplayTotals &totals)
{
    const sst::WorkloadSpec workload = spec.effectiveWorkload();
    // Dispatches to wdl::workloadSources for WDL-backed workloads.
    const sst::OpSourceFactory sources = sst::workloadOpSources(workload);
    const int nthreads = workload.nthreads();
    const int ncores = spec.ncoresEffective();

    {
        sst::telemetry::ScopedSpan span("opgen", "workload");
        std::uint64_t ops = 0;
        for (int tid = 0; tid < nthreads; ++tid) {
            const std::unique_ptr<sst::OpSource> src = sources(tid, nthreads);
            for (;;) {
                const sst::Op op = src->nextOp();
                ++ops;
                if (op.type == sst::OpType::kEnd)
                    break;
            }
        }
        totals.ops += ops;
    }

    sst::CacheHierarchy cache(ncores, spec.params.cache);
    sst::DramModel dram(ncores, spec.params.dram);
    std::vector<std::unique_ptr<sst::OpSource>> streams;
    for (int tid = 0; tid < nthreads; ++tid)
        streams.push_back(sources(tid, nthreads));
    std::vector<std::vector<MemRef>> bufs(
        static_cast<std::size_t>(nthreads));
    std::vector<Miss> misses;
    sst::Cycles issue = 0;
    for (;;) {
        std::size_t longest = 0;
        {
            sst::telemetry::ScopedSpan fill("fill", "bench");
            for (int t = 0; t < nthreads; ++t) {
                std::vector<MemRef> &buf = bufs[static_cast<std::size_t>(t)];
                sst::OpSource &src = *streams[static_cast<std::size_t>(t)];
                buf.clear();
                while (buf.size() < kChunk && !src.finished()) {
                    const sst::Op op = src.nextOp();
                    if (op.type == sst::OpType::kLoad ||
                        op.type == sst::OpType::kStore)
                        buf.push_back(
                            {op.addr, op.type == sst::OpType::kStore});
                }
                longest = std::max(longest, buf.size());
            }
        }
        if (longest == 0)
            break;

        misses.clear();
        {
            sst::telemetry::ScopedSpan span("cache-replay", "cache");
            std::uint64_t accesses = 0;
            for (std::size_t i = 0; i < longest; ++i) {
                for (int t = 0; t < nthreads; ++t) {
                    const std::vector<MemRef> &buf =
                        bufs[static_cast<std::size_t>(t)];
                    if (i >= buf.size())
                        continue;
                    const sst::CoreId core = t % ncores;
                    const sst::AccessOutcome out =
                        cache.access(core, buf[i].addr, buf[i].write);
                    ++accesses;
                    if (out.dramAccess())
                        misses.push_back({core, buf[i].addr});
                }
            }
            totals.cacheAccesses += accesses;
        }

        {
            sst::telemetry::ScopedSpan span("mem-replay", "mem");
            for (const Miss &m : misses) {
                const sst::DramResult r = dram.access(m.core, m.addr, issue);
                if (r.completeAt > issue + kBacklogCycles)
                    issue = r.completeAt - kBacklogCycles;
            }
            totals.memAccesses += misses.size();
        }
    }
}

bool
reassembleJob(const sst::JobSpec &spec, const sst::JobResult &result)
{
    const sst::SpeedupExperiment &ran = result.exp;
    sst::RunResult parallel = ran.parallel;
    const sst::SpeedupExperiment again = [&] {
        sst::telemetry::ScopedSpan span("assemble", "core");
        return sst::assembleExperiment(ran.label, ran.nthreads, spec.params,
                                       ran.single, std::move(parallel));
    }();
    const sst::SpeedupStack &a = again.stack;
    const sst::SpeedupStack &b = ran.stack;
    return again.ts == ran.ts && again.tp == ran.tp &&
           again.actualSpeedup == ran.actualSpeedup &&
           again.estimatedSpeedup == ran.estimatedSpeedup &&
           again.error == ran.error && a.baseSpeedup == b.baseSpeedup &&
           a.posLlc == b.posLlc && a.negLlc == b.negLlc &&
           a.negMem == b.negMem && a.spin == b.spin &&
           a.yield == b.yield && a.imbalance == b.imbalance &&
           a.coherency == b.coherency;
}

} // namespace sstbench
