/**
 * @file
 * Deterministic mutation driver for WDL input. A fixed-seed fuzzer
 * mutates the seed corpus (the .wdl files under examples/workloads and
 * tests/data) and runs every mutant through parse -> compile -> drain: each thread's op source and each group's baseline source is
 * drained directly, up to a per-stream op cap. No simulator runs and no
 * OS thread is started, so the ASan+UBSan and TSan ctest jobs cover it
 * as they are.
 *
 * Every mutant must either be rejected with a "file:line: ..."
 * diagnostic, or compile and drain cleanly: kEnd exactly once, as the
 * last op, with finished() true from then on (a stream cut at the cap
 * must not have finished). Anything else — another exception type, a
 * diagnostic without a line, a malformed stream, a sanitizer report —
 * fails the test and prints the mutant; check such an input in under
 * tests/data as a minimal regression case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "wdl/wdl.hh"
#include "workload/op_source.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace {

constexpr std::uint64_t kSeed = 0x5eed0f3d1;
constexpr int kMutants = 2000;
/** Ops drained per stream before it is cut. */
constexpr int kStreamCap = 8192;
/** Mutants grow by duplication; keep them well inside kMaxFileBytes. */
constexpr std::size_t kMaxMutantBytes = 64 * 1024;
const char *const kFile = "mutant.wdl";

std::vector<std::string>
loadCorpus()
{
    namespace fs = std::filesystem;
    const fs::path data(SST_TESTS_DATA_DIR);
    std::vector<fs::path> paths;
    for (const fs::path &dir : {data / ".." / ".." / "examples" / "workloads",
                                data}) {
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.path().extension() == ".wdl")
                paths.push_back(entry.path());
    }
    // Directory order is unspecified; sort for a fixed mutant sequence.
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> corpus;
    for (const fs::path &p : paths) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        corpus.push_back(text.str());
    }
    return corpus;
}

std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Apply one random edit to @p text. */
void
mutate(std::string &text, const std::vector<std::string> &corpus, Rng &rng)
{
    static const char kAlphabet[] =
        "0123456789{}[]()=,.#\"\n _-Kabcdeghiklmnoprstuwyz";
    static const char *const kNumbers[] = {
        "0", "1", "2", "3", "7", "16", "63", "64", "65", "1023", "1024",
        "1025", "1048576", "1048577", "67108864", "67108865", "4294967295",
        "4294967296", "18446744073709551615", "18446744073709551616",
        "0.5", "1.0", "1.5", "1K", "8M", "64M", "65M"};
    static const char *const kTokens[] = {
        "loop 3 ", "loop 2 each ", "{ ", "} ", "lock ", "phase { ",
        "yield\n", "barrier ", "memory 5 ", "memory 3 data ",
        "memory 2 shared ", "txn ", "compute 0\n", "each ", "shared ",
        "data ", "store=0.5 ", "uniform(1, 9) ", "zipf(0.5) ",
        "locks=keys ", "txn_ops=3 ", "memory=4 ", "rw_ratio=0.5 ",
        "threads=3 ", "private=1K ", "shared=4K ", "role pipeline\n",
        "role mix\n", "group g2 threads=2 { compute 5 }\n",
        "lock extra[4]\n", "barrier b2\n", "\n"};
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.below(n));
    };
    auto pos = [&] { return pick(text.size() + 1); };

    switch (rng.below(6)) {
    case 0: // overwrite one byte
        if (!text.empty())
            text[pick(text.size())] = kAlphabet[pick(sizeof(kAlphabet) - 1)];
        break;
    case 1: { // delete a short span
        const std::size_t at = pos();
        text.erase(at, 1 + pick(16));
        break;
    }
    case 2: { // duplicate a span somewhere else
        const std::size_t at = pos();
        const std::string span = text.substr(at, 1 + pick(48));
        text.insert(pos(), span);
        break;
    }
    case 3: { // replace a number with a boundary value
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (std::isdigit(static_cast<unsigned char>(text[i])) &&
                (i == 0 || !std::isalnum(static_cast<unsigned char>(
                               text[i - 1]))))
                starts.push_back(i);
        }
        if (starts.empty())
            break;
        const std::size_t at = starts[pick(starts.size())];
        std::size_t end = at;
        while (end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[end])) ||
                text[end] == '.'))
            ++end;
        text.replace(at, end - at,
                     kNumbers[pick(sizeof(kNumbers) / sizeof(*kNumbers))]);
        break;
    }
    case 4: // insert a dictionary token
        text.insert(pos(), kTokens[pick(sizeof(kTokens) / sizeof(*kTokens))]);
        break;
    default: { // splice in a line of another corpus file
        std::vector<std::string> lines = linesOf(text);
        const std::vector<std::string> donor =
            linesOf(corpus[pick(corpus.size())]);
        if (lines.empty() || donor.empty())
            break;
        lines[pick(lines.size())] = donor[pick(donor.size())];
        text.clear();
        for (const std::string &line : lines)
            text += line + '\n';
        break;
    }
    }
}

/** A "mutant.wdl:<line>: ..." diagnostic. */
bool
hasFileLine(const std::string &msg)
{
    const std::string prefix = std::string(kFile) + ':';
    return msg.compare(0, prefix.size(), prefix) == 0 &&
           msg.size() > prefix.size() &&
           std::isdigit(static_cast<unsigned char>(msg[prefix.size()]));
}

struct Tally
{
    int rejected = 0;
    int compiled = 0;
    int streamsEnded = 0;
    int streamsCut = 0;
};

/** Drain @p src up to kStreamCap ops; returns an error or "". */
std::string
drain(OpSource &src, Tally &tally)
{
    for (int i = 0; i < kStreamCap; ++i) {
        if (src.finished())
            return "finished() before kEnd";
        if (src.nextOp().type == OpType::kEnd) {
            if (!src.finished())
                return "kEnd delivered but finished() is false";
            if (src.nextOp().type != OpType::kEnd)
                return "ops after kEnd";
            ++tally.streamsEnded;
            return "";
        }
    }
    if (src.finished())
        return "finished() without delivering kEnd";
    ++tally.streamsCut;
    return "";
}

/** Run one input through parse -> compile -> drain; returns an error
 *  description, or "" when the input behaved. */
std::string
check(const std::string &text, Tally &tally)
{
    std::shared_ptr<const wdl::Program> prog;
    try {
        prog = std::make_shared<const wdl::Program>(
            wdl::parseProgram(text, kFile));
    } catch (const std::invalid_argument &e) {
        ++tally.rejected;
        return hasFileLine(e.what())
                   ? ""
                   : std::string("diagnostic without file:line: ") +
                         e.what();
    } catch (const std::exception &e) {
        return std::string("parse threw a non-diagnostic: ") + e.what();
    }
    try {
        const WorkloadSpec spec = wdl::toWorkloadSpec(prog, kFile);
        ++tally.compiled;
        const OpSourceFactory par = workloadOpSources(spec);
        for (int tid = 0; tid < spec.nthreads(); ++tid) {
            const std::string err = drain(*par(tid, spec.nthreads()), tally);
            if (!err.empty())
                return "thread " + std::to_string(tid) + ": " + err;
        }
        for (int g = 0; g < spec.ngroups(); ++g) {
            const std::string err =
                drain(*workloadGroupBaselineSources(spec, g)(0, 1), tally);
            if (!err.empty())
                return "baseline " + std::to_string(g) + ": " + err;
        }
    } catch (const std::exception &e) {
        return std::string("accepted input threw: ") + e.what();
    }
    return "";
}

TEST(WdlFuzz, SeedCorpusBehaves)
{
    const std::vector<std::string> corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 5u);
    Tally tally;
    for (const std::string &text : corpus) {
        const std::string err = check(text, tally);
        EXPECT_EQ(err, "") << text;
    }
}

TEST(WdlFuzz, MutantsAreRejectedOrDrainCleanly)
{
    const std::vector<std::string> corpus = loadCorpus();
    ASSERT_FALSE(corpus.empty());
    Rng rng(kSeed);
    Tally tally;
    for (int i = 0; i < kMutants; ++i) {
        std::string text = corpus[rng.below(corpus.size())];
        const int edits = 1 + static_cast<int>(rng.below(3));
        for (int e = 0; e < edits && text.size() < kMaxMutantBytes; ++e)
            mutate(text, corpus, rng);
        const std::string err = check(text, tally);
        ASSERT_EQ(err, "") << "mutant " << i << ":\n" << text;
    }
    // The driver must exercise both outcomes, and drain some streams
    // all the way to kEnd, or it checks nothing.
    EXPECT_GT(tally.rejected, kMutants / 10);
    EXPECT_GT(tally.compiled, kMutants / 10);
    EXPECT_GT(tally.streamsEnded, 0);
    std::printf("%d rejected, %d compiled, %d streams ended, %d cut at %d "
                "ops\n",
                tally.rejected, tally.compiled, tally.streamsEnded,
                tally.streamsCut, kStreamCap);
}

} // namespace
} // namespace sst
