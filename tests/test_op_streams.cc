/**
 * @file
 * Pinned op streams. Every figure, golden CSV and trace replay rests on
 * the generators emitting the same ops in the same order, so this test
 * hashes whole streams (FNV-1a over every op field, kEnd included) and
 * compares them with digests captured before the emitters shared one
 * core. It covers every shipped .wdl file, the emission stress input
 * under tests/data, a fig08 mix, a ferret pipeline, and profiles with
 * critical-section references, a parallelism cap and an 8 MB private
 * sweep, each at 1 and 4 threads. A workload's digest folds each
 * thread's parallel stream and each group's 1-thread baseline stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "spec/registries.hh"
#include "wdl/wdl.hh"
#include "workload/op_source.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace {

/** Longest stream any pinned workload produces, with headroom. */
constexpr std::uint64_t kStreamCap = 4'000'000;

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

/** Fold one source's whole stream into @p fnv; kEnd must end it. */
void
hashStream(Fnv &fnv, OpSource &src)
{
    for (std::uint64_t i = 0; i < kStreamCap; ++i) {
        const Op op = src.nextOp();
        fnv.add(static_cast<std::uint64_t>(op.type));
        fnv.add(op.count);
        fnv.add(op.addr);
        fnv.add(op.pc);
        fnv.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(op.id)));
        if (op.type == OpType::kEnd) {
            EXPECT_TRUE(src.finished());
            return;
        }
    }
    ADD_FAILURE() << "stream longer than " << kStreamCap << " ops";
}

/** Digest of every parallel stream, then every group baseline. */
std::string
workloadDigest(const WorkloadSpec &w)
{
    Fnv fnv;
    const OpSourceFactory par = workloadOpSources(w);
    for (int tid = 0; tid < w.nthreads(); ++tid)
        hashStream(fnv, *par(tid, w.nthreads()));
    for (int g = 0; g < w.ngroups(); ++g)
        hashStream(fnv, *workloadGroupBaselineSources(w, g)(0, 1));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv.h));
    return buf;
}

std::string
repoPath(const std::string &rel)
{
    return std::string(SST_TESTS_DATA_DIR) + "/../../" + rel;
}

struct Pinned
{
    const char *name;
    const char *digest;
};

TEST(OpStreams, ShippedWorkloadFilesArePinned)
{
    const Pinned cases[] = {
        {"examples/workloads/contention.wdl", "11de3101d97e153b"},
        {"examples/workloads/fig01_style.wdl", "b47d539c994a6ea8"},
        {"examples/workloads/txn_high.wdl", "ed1d730af268c57d"},
        {"examples/workloads/txn_low.wdl", "c2e063358385d7d5"},
        {"tests/data/wdl_emit_stress.wdl", "689e287ed0a312de"},
    };
    for (const Pinned &c : cases) {
        EXPECT_EQ(workloadDigest(wdl::loadWorkloadFile(repoPath(c.name))),
                  c.digest)
            << c.name;
    }
}

TEST(OpStreams, MixAndPipelineArePinned)
{
    const Pinned cases[] = {
        {"fig08_cholesky", "2cd8c64c5bd38439"},
        {"ferret4", "8728d76ad65e41c3"},
    };
    for (const Pinned &c : cases)
        EXPECT_EQ(workloadDigest(*mixRegistry().find(c.name)), c.digest)
            << c.name;
}

TEST(OpStreams, ProfilesArePinned)
{
    // cholesky: one hot lock with a CS reference; water-nsquared: 16
    // locks, two CS references, a parallelism cap; radix: 8 MB
    // private region, a 131,072-line warmup sweep per thread.
    const struct
    {
        const char *label;
        int threads;
        const char *digest;
    } cases[] = {
        {"cholesky", 1, "ada101cc8da66d3b"},
        {"cholesky", 4, "b8c9bc4c243b67cc"},
        {"water-nsquared", 1, "1287defa972d58a3"},
        {"water-nsquared", 4, "1ae46e1fbdd3c341"},
        {"radix", 1, "288eef5a79b98823"},
        {"radix", 4, "a97bfadc57eb9f90"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(workloadDigest(WorkloadSpec::homogeneous(
                      profileByLabel(c.label), c.threads)),
                  c.digest)
            << c.label << " @ " << c.threads;
    }
}

} // namespace
} // namespace sst
