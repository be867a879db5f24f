/**
 * @file
 * Deterministic mutation driver for recorded op traces. A fixed-seed
 * fuzzer mutates a seed corpus of `.sstt` containers — recordings made
 * here through the experiment driver (a lock-heavy and a barrier-heavy
 * profile, a two-program mix) plus the checked-in
 * `.sstt` files under tests/data — and runs every mutant through
 * TraceReader::fromBytes followed by replaySpeedupTrace. Half of the
 * mutants are byte edits, which mostly exercise the decoder; the other
 * half edit decoded ops (drop, duplicate, retag a sync op, change its
 * id, stretch a compute op) and re-encode them, so the container stays
 * well formed and the simulator meets the edit. The simulator
 * runs on the calling thread, so the ASan+UBSan and TSan ctest jobs
 * cover it as they are.
 *
 * Every mutant must either be rejected with a TraceError or replay to a
 * finished experiment. Anything else — another exception type, a panic
 * (the process aborts), a sanitizer report, a hang — fails the test;
 * check such an input in under tests/data as a minimal regression case
 * (the seed corpus picks it up from there).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "driver/job.hh"
#include "tests/fuzz_util.hh"
#include "tests/test_util.hh"
#include "trace/trace_run.hh"
#include "trace/trace_writer.hh"

namespace sst {
namespace {

constexpr std::uint64_t kSeed = 0x7ace5eed;
constexpr int kMutants = 600;
/** Mutants grow by duplication; keep each replay small. */
constexpr std::size_t kMaxMutantBytes = 256 * 1024;

/** Every byte value, so overwrites reach every op tag and varint. */
std::string
allBytes()
{
    std::string bytes;
    for (int b = 0; b < 256; ++b)
        bytes += static_cast<char>(b);
    return bytes;
}

const test::FuzzDictionary kTraceDictionary = {
    allBytes(),
    {"0", "1", "2", "64", "65", "4096", "4097"},
    // Op tags (compute .. end) and varint boundary encodings.
    {std::string(1, '\0'), "\x01", "\x02", "\x03", "\x04", "\x05", "\x06",
     "\x07", "\x08", "\x7f", "\x80\x01", "\xff\xff\xff\xff\x0f",
     "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "\x03\x00", "\x04\x00",
     "\x05\x00", "\x03\x01\x04\x01"}};

/** A profile cut down so that one replay takes milliseconds. */
BenchmarkProfile
small(BenchmarkProfile p, std::uint64_t iters)
{
    p.totalIters = iters;
    return p;
}

/** Serialized recordings of a few small workloads, made through the
 *  driver exactly as `sst trace record` makes them. */
std::vector<std::string>
recordCorpus()
{
    const std::string dir = ::testing::TempDir() + "sst_trace_fuzz";
    std::filesystem::remove_all(dir);
    std::vector<JobSpec> jobs = {
        JobSpec::forProfile(small(test::lockHeavyProfile(), 240), 2),
        JobSpec::forProfile(small(test::barrierHeavyProfile(), 320), 3)};
    JobSpec mix;
    mix.workload = WorkloadSpec::mix(
        {WorkloadGroup{small(test::computeOnlyProfile(), 160), 1},
         WorkloadGroup{small(test::lockHeavyProfile(), 160), 2}});
    jobs.push_back(mix);
    std::vector<std::string> corpus;
    for (const JobSpec &job : jobs) {
        test::recordJob(job, dir);
        const std::string path = tracePathFor(
            dir, job.effectiveWorkload(), job.seedOffset,
            job.params.schedPolicy, job.params.schedSeed);
        std::ifstream in(path, std::ios::binary);
        corpus.emplace_back(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
    }
    for (std::string &bytes :
         test::loadCorpus({SST_TESTS_DATA_DIR}, ".sstt"))
        corpus.push_back(std::move(bytes));
    std::filesystem::remove_all(dir);
    return corpus;
}

/** The ops of stream @p s of @p reader, kEnd included. */
std::vector<Op>
streamOps(const TraceReader &reader, int s)
{
    const int nthreads = reader.meta().nthreads;
    const std::unique_ptr<OpSource> src =
        s < nthreads ? reader.parallelSource(s)
                     : reader.baselineSource(s - nthreads);
    std::vector<Op> ops;
    do
        ops.push_back(src->nextOp());
    while (ops.back().type != OpType::kEnd);
    return ops;
}

/** One op-level edit of @p ops, whose last op (kEnd) stays put. */
void
editOps(std::vector<Op> &ops, Rng &rng)
{
    const std::size_t body = ops.size() - 1;
    if (body == 0)
        return;
    const auto at = [&](std::size_t n) {
        return ops.begin() + static_cast<std::ptrdiff_t>(rng.below(n));
    };
    Op &op = ops[rng.below(body)];
    const OpType kSync[] = {OpType::kLockAcquire, OpType::kLockRelease,
                            OpType::kBarrier, OpType::kRoiBegin};
    const int kIds[] = {0, 1, 2, 63, kWarmupBarrierId, kGroupSyncStride};
    switch (rng.below(5)) {
    case 0:
        ops.erase(at(body));
        break;
    case 1: {
        const Op copy = op;
        ops.insert(at(body + 1), copy);
        break;
    }
    case 2:
        op.type = kSync[rng.below(4)];
        break;
    case 3:
        op.id = kIds[rng.below(6)];
        break;
    default:
        if (op.type == OpType::kCompute)
            op.count = ~std::uint32_t(0);
        break;
    }
}

/**
 * Re-encode @p bytes with one op-level edit, so the container stays
 * well formed and the replay rather than the decoder meets the edit.
 * Leaves @p bytes alone when it does not open.
 */
void
mutateOps(std::string &bytes, Rng &rng)
{
    try {
        const TraceReader reader = TraceReader::fromBytes(bytes);
        TraceWriter writer(reader.meta());
        const int target = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(reader.nstreams())));
        for (int s = 0; s < reader.nstreams(); ++s) {
            std::vector<Op> ops = streamOps(reader, s);
            if (s == target)
                editOps(ops, rng);
            for (const Op &op : ops)
                writer.append(s, op);
        }
        bytes = writer.serialize();
    } catch (const TraceError &) {
    }
}

struct Tally
{
    int rejected = 0; ///< TraceError at open or during replay
    int replayed = 0; ///< replayed to a finished experiment
};

/** Open and replay @p bytes; returns an error description, or "" when
 *  the input was rejected with a TraceError or replayed. */
std::string
check(std::string bytes, Tally &tally)
{
    try {
        const TraceReader reader = TraceReader::fromBytes(std::move(bytes));
        const SpeedupExperiment e = replaySpeedupTrace(SimParams{}, reader);
        if (e.tp == 0 || e.parallel.nthreads != reader.meta().nthreads)
            return "replay returned an unfinished run";
        ++tally.replayed;
    } catch (const TraceError &) {
        ++tally.rejected;
    } catch (const std::exception &e) {
        return std::string("threw a non-TraceError: ") + e.what();
    }
    return "";
}

TEST(TraceFuzz, SeedCorpusReplays)
{
    const std::vector<std::string> corpus = recordCorpus();
    ASSERT_GE(corpus.size(), 4u);
    Tally tally;
    for (const std::string &bytes : corpus)
        EXPECT_EQ(check(bytes, tally), "");
    EXPECT_EQ(tally.rejected, 0);
}

TEST(TraceFuzz, MutantsAreRejectedOrReplay)
{
    const std::vector<std::string> corpus = recordCorpus();
    ASSERT_FALSE(corpus.empty());
    Rng rng(kSeed);
    Tally tally;
    for (int i = 0; i < kMutants; ++i) {
        std::string bytes = corpus[rng.below(corpus.size())];
        const int edits = 1 + static_cast<int>(rng.below(3));
        const bool op_level = rng.below(2) == 0;
        for (int e = 0; e < edits && bytes.size() < kMaxMutantBytes; ++e) {
            if (op_level)
                mutateOps(bytes, rng);
            else
                test::mutate(bytes, corpus, rng, kTraceDictionary);
        }
        const std::string err = check(bytes, tally);
        ASSERT_EQ(err, "") << "mutant " << i;
    }
    // The driver must exercise both outcomes or it checks nothing.
    EXPECT_GT(tally.rejected, kMutants / 10);
    EXPECT_GT(tally.replayed, kMutants / 20);
    std::printf("%d rejected, %d replayed\n", tally.rejected,
                tally.replayed);
}

} // namespace
} // namespace sst
