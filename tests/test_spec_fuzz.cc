/**
 * @file
 * Deterministic mutation driver for experiment spec files. A fixed-seed
 * fuzzer mutates the seed corpus (the .spec files under examples/specs)
 * and runs every mutant through parseSpec -> validateSpec. No grid is
 * expanded, no workload file is read and no job runs, so the
 * ASan+UBSan and TSan ctest jobs cover it as they are.
 *
 * Every mutant must either parse and validate, or be rejected with
 * std::invalid_argument — a parse error naming its line. A spec that
 * parses must also survive its canonical round trip: serializeSpec
 * either refuses the value or yields text that parses back to an equal
 * spec. Anything else (another exception type, a parse error without a
 * line, a round trip that changes the spec, a sanitizer report) fails
 * the test and prints the mutant.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "spec/spec.hh"
#include "tests/fuzz_util.hh"

namespace sst {
namespace {

constexpr std::uint64_t kSeed = 0x5bec0f3d2;
constexpr int kMutants = 5000;
/** Mutants grow by duplication; keep them small. */
constexpr std::size_t kMaxMutantBytes = 16 * 1024;

std::vector<std::string>
loadCorpus()
{
    return test::loadCorpus({std::filesystem::path(SST_TESTS_DATA_DIR) /
                             ".." / ".." / "examples" / "specs"},
                            ".spec");
}

const test::FuzzDictionary kSpecDictionary = {
    "0123456789=,.:+>#\n _-KMGabcdefhiklmnoprstuvwy",
    {"0", "1", "2", "16", "64", "65", "1024", "1048576", "1048577",
     "4294967295", "4294967296", "18446744073709551615",
     "18446744073709551616", "-1", "1K", "2M", "4G", "0M", "0.5"},
    {"profiles = ", "workload = ", "workload-file = ", "threads = ",
     "cores = ", "llc = ", "seed-offset = ", "trace-dir = ", "sched = ",
     "sched-seed = ", "output.csv = ", "output.json = ",
     "output.quiet = ", "machine.llc-bytes = ", "machine.l1-ways = ",
     "machine.stack-detector = ", "machine.oracle-atds = ",
     "machine.nope = ", "frontend = ", "all", "cholesky", "facesim",
     "fig08_cholesky", "ferret16", "cholesky:8+fft:8", "a:1>b:2",
     "cholesky+fft:4", "random", "round-robin", "true", "li", "tian",
     "a.wdl", "2, 4", " # note", "=", ",", ":", "\n"}};

struct Tally
{
    int rejected = 0;  ///< parse errors
    int invalid = 0;   ///< parsed, rejected by validateSpec
    int accepted = 0;  ///< parsed and validated
};

/** Run one input through parse -> validate (and the canonical round
 *  trip); returns an error description, or "" when it behaved. */
std::string
check(const std::string &text, Tally &tally)
{
    ExperimentSpec spec;
    try {
        spec = parseSpec(text);
    } catch (const std::invalid_argument &e) {
        ++tally.rejected;
        const std::string msg = e.what();
        return msg.compare(0, 5, "line ") == 0
                   ? ""
                   : "parse error without a line: " + msg;
    } catch (const std::exception &e) {
        return std::string("parse threw a non-diagnostic: ") + e.what();
    }
    try {
        std::string canonical;
        try {
            canonical = serializeSpec(spec);
        } catch (const std::invalid_argument &) {
            // A value that would re-parse as a comment: refused.
        }
        if (!canonical.empty() && parseSpec(canonical) != spec)
            return "canonical round trip changed the spec:\n" + canonical;
    } catch (const std::exception &e) {
        return std::string("canonical text failed to parse: ") + e.what();
    }
    try {
        validateSpec(spec);
        ++tally.accepted;
    } catch (const std::invalid_argument &) {
        ++tally.invalid;
    } catch (const std::exception &e) {
        return std::string("validation threw a non-diagnostic: ") +
               e.what();
    }
    return "";
}

TEST(SpecFuzz, SeedCorpusValidates)
{
    const std::vector<std::string> corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 6u);
    for (const std::string &text : corpus) {
        Tally tally;
        EXPECT_EQ(check(text, tally), "") << text;
        EXPECT_EQ(tally.accepted, 1) << text;
    }
}

TEST(SpecFuzz, MutantsParseOrAreRejected)
{
    const std::vector<std::string> corpus = loadCorpus();
    ASSERT_FALSE(corpus.empty());
    Rng rng(kSeed);
    Tally tally;
    for (int i = 0; i < kMutants; ++i) {
        std::string text = corpus[rng.below(corpus.size())];
        const int edits = 1 + static_cast<int>(rng.below(3));
        for (int e = 0; e < edits && text.size() < kMaxMutantBytes; ++e)
            test::mutate(text, corpus, rng, kSpecDictionary);
        const std::string err = check(text, tally);
        ASSERT_EQ(err, "") << "mutant " << i << ":\n" << text;
    }
    // The driver must exercise every outcome or it checks nothing.
    EXPECT_GT(tally.rejected, kMutants / 10);
    EXPECT_GT(tally.invalid, kMutants / 100);
    EXPECT_GT(tally.accepted, kMutants / 10);
    std::printf("%d rejected at parse, %d rejected by validation, %d "
                "accepted\n",
                tally.rejected, tally.invalid, tally.accepted);
}

} // namespace
} // namespace sst
