/**
 * @file
 * google-benchmark microbenchmarks of the toolkit's building blocks:
 * tag array probes, ATD accesses, DRAM scheduling, spin detection, the
 * workload generator and a complete small simulation. Useful to keep
 * the simulator fast enough for the 140-run validation sweeps.
 */

#include <benchmark/benchmark.h>

#include "cache/atd.hh"
#include "cache/hierarchy.hh"
#include "cache/set_assoc.hh"
#include "core/experiment.hh"
#include "mem/dram.hh"
#include "sync/spin_detect.hh"
#include "util/rng.hh"
#include "workload/profile.hh"
#include "workload/thread_program.hh"

namespace {

void
BM_SetAssocAccess(benchmark::State &state)
{
    sst::SetAssocArray array(2 * 1024 * 1024, 16);
    sst::Rng rng(42);
    for (auto _ : state) {
        const sst::Addr line = rng.below(1 << 16);
        sst::SetAssocArray::Slot fill = sst::SetAssocArray::kNoSlot;
        const sst::SetAssocArray::Slot s = array.probe(line, &fill);
        if (s != sst::SetAssocArray::kNoSlot && array.valid(s))
            array.touch(s);
        else
            benchmark::DoNotOptimize(array.fill(fill, line));
    }
}
BENCHMARK(BM_SetAssocAccess);

void
BM_AtdAccess(benchmark::State &state)
{
    sst::Atd atd(2 * 1024 * 1024, 16,
                 static_cast<int>(state.range(0)));
    sst::Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(atd.access(rng.below(1 << 16)));
}
BENCHMARK(BM_AtdAccess)->Arg(1)->Arg(32);

void
BM_HierarchyAccess(benchmark::State &state)
{
    sst::CacheHierarchy hier(16, sst::CacheParams{});
    sst::Rng rng(42);
    for (auto _ : state) {
        const sst::CoreId core = static_cast<int>(rng.below(16));
        benchmark::DoNotOptimize(
            hier.access(core, rng.below(1 << 22) * 64, rng.chance(0.1)));
    }
}
BENCHMARK(BM_HierarchyAccess);

void
BM_DramAccess(benchmark::State &state)
{
    sst::DramModel dram(16, sst::DramParams{});
    sst::Rng rng(42);
    sst::Cycles now = 0;
    for (auto _ : state) {
        now += 20;
        benchmark::DoNotOptimize(dram.access(
            static_cast<int>(rng.below(16)), rng.below(1 << 28), now));
    }
}
BENCHMARK(BM_DramAccess);

void
BM_TianObserveLoad(benchmark::State &state)
{
    sst::TianSpinDetector tian;
    sst::Rng rng(42);
    sst::Cycles now = 0;
    for (auto _ : state) {
        now += 5;
        benchmark::DoNotOptimize(tian.observeLoad(
            0x40000 + rng.below(16) * 4, rng.below(256), 0, false, now));
    }
}
BENCHMARK(BM_TianObserveLoad);

void
BM_ThreadProgramNextOp(benchmark::State &state)
{
    const sst::BenchmarkProfile &profile =
        sst::profileByLabel("cholesky");
    sst::ThreadProgram prog(profile, 0, 16);
    for (auto _ : state) {
        sst::Op op = prog.nextOp();
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_ThreadProgramNextOp);

void
BM_FullSimulation4Threads(benchmark::State &state)
{
    const sst::BenchmarkProfile &profile =
        sst::profileByLabel("blackscholes_small");
    for (auto _ : state) {
        sst::SimParams params;
        params.ncores = 4;
        benchmark::DoNotOptimize(sst::simulate(params, profile, 4));
    }
}
BENCHMARK(BM_FullSimulation4Threads)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
