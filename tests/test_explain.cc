/**
 * @file
 * Tests of the `sst explain` report (renderExplainReport): its ablation
 * rows are the stack re-accounted from the same run's counters, every
 * thread and core of the run appears, WDL and trace-replayed jobs
 * render through the driver, and a cached result (no per-thread
 * counters) is refused rather than rendered as zeros.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/render.hh"
#include "driver/driver.hh"
#include "tests/test_util.hh"
#include "util/format.hh"
#include "wdl/wdl.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

const char *const kSections[] = {
    "-- cache/DRAM per core: single-threaded run --",
    "-- cache/DRAM per core: parallel run --",
    "-- per-thread counters: parallel run --",
    "-- speedup stack --",
    "-- ablations: same run, re-accounted --",
    "-- region stacks:",
    "-- accounting hardware cost (Sec. 4.7) --"};

JobResult
runOne(const JobSpec &job, const DriverOptions &opts = DriverOptions())
{
    const JobResult r = runExperimentBatch({job}, opts).at(0);
    EXPECT_TRUE(r.ok()) << r.error;
    return r;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

std::vector<std::string>
words(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/** The first column of every data row of the table under @p heading. */
std::vector<std::string>
firstColumn(const std::string &report, const std::string &heading)
{
    const std::vector<std::string> all = lines(report);
    std::size_t i = 0;
    while (i < all.size() && all[i] != heading)
        ++i;
    std::vector<std::string> keys;
    // heading, column header, rule, then rows up to the blank line.
    for (i += 3; i < all.size() && !all[i].empty(); ++i)
        keys.push_back(words(all[i]).at(0));
    return keys;
}

std::vector<std::string>
numbered(int n)
{
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i)
        out.push_back(std::to_string(i));
    return out;
}

/** The row of the ablation table whose name is @p name. */
std::vector<std::string>
ablationRow(const std::string &report, const std::string &name)
{
    for (const std::string &line : lines(report))
        if (line.compare(0, name.size(), name) == 0)
            return words(line.substr(name.size()));
    return {};
}

void
expectAllSections(const std::string &report)
{
    for (const char *section : kSections)
        EXPECT_NE(report.find(section), std::string::npos) << section;
}

TEST(Explain, AblationRowsReaccountTheSameRun)
{
    const JobSpec job = JobSpec::forProfile(profileByLabel("cholesky"), 4);
    const JobResult r = runOne(job);
    const std::string report = renderExplainReport(job, r.exp);
    expectAllSections(report);

    const ReportOptions paper = defaultReportOptions(job.params);
    ReportOptions coherency = paper;
    coherency.accountCoherency = true;
    ReportOptions li = paper;
    li.useLiDetector = true;
    const std::pair<std::string, ReportOptions> rows[] = {
        {"paper (Tian)", paper},
        {"coherency accounted", coherency},
        {"Li detector", li}};
    for (const auto &[name, opts] : rows) {
        const SpeedupStack s = buildSpeedupStack(
            computeComponents(r.exp.parallel.threads, r.exp.tp, opts),
            r.exp.tp);
        const std::vector<std::string> row = ablationRow(report, name);
        ASSERT_EQ(row.size(), 4u) << name;
        EXPECT_EQ(row[0], fmtDouble(s.spin, 3)) << name;
        EXPECT_EQ(row[1], fmtDouble(s.coherency, 3)) << name;
        EXPECT_EQ(row[2], fmtDouble(s.estimatedSpeedup, 3)) << name;
        EXPECT_EQ(row[3],
                  fmtPercent(speedupError(s.estimatedSpeedup,
                                          r.exp.actualSpeedup, 4)))
            << name;
    }
    // The paper row is the run's own stack; both ablations move it.
    EXPECT_EQ(ablationRow(report, "paper (Tian)")[2],
              fmtDouble(r.exp.stack.estimatedSpeedup, 3));
    EXPECT_NE(ablationRow(report, "coherency accounted")[1], "0.000");
    EXPECT_NE(ablationRow(report, "Li detector")[0],
              ablationRow(report, "paper (Tian)")[0]);
}

TEST(Explain, EveryThreadAndCoreAppears)
{
    JobSpec job = JobSpec::forProfile(test::barrierHeavyProfile(), 5);
    job.ncores = 3; // oversubscribed: threads and cores differ
    const JobResult r = runOne(job);
    const std::string report = renderExplainReport(job, r.exp);
    EXPECT_EQ(firstColumn(report, kSections[0]), numbered(1));
    EXPECT_EQ(firstColumn(report, kSections[1]), numbered(3));
    EXPECT_EQ(firstColumn(report, kSections[2]), numbered(5));
    EXPECT_NE(report.find("@ 5 threads on 3 cores"), std::string::npos);
}

TEST(Explain, WdlJobRendersThroughTheDriver)
{
    const std::string path =
        ::testing::TempDir() + "sst_explain_contention.wdl";
    std::ofstream(path) << "wdl 1\n"
                           "workload \"t-explain\"\n"
                           "seed 5\n"
                           "lock keys[8]\n"
                           "barrier sync\n"
                           "group hot threads=2 private=16K {\n"
                           "  loop 60 {\n"
                           "    txn txn_ops=3 rw_ratio=0.5 locks=keys "
                           "zipf(0.9) compute=10 memory=1\n"
                           "  }\n"
                           "}\n"
                           "group cold threads=3 private=16K {\n"
                           "  loop 2 each {\n"
                           "    phase { loop 30 { compute 40\n"
                           "                      memory 2 } }\n"
                           "    barrier sync\n"
                           "  }\n"
                           "}\n";
    JobSpec job;
    job.workload = wdl::loadWorkloadFile(path);
    const JobResult r = runOne(job);
    const std::string report = renderExplainReport(job, r.exp);
    expectAllSections(report);
    // A mix's baseline is the sum of per-program runs: no core table.
    EXPECT_NE(report.find("(sum of per-program runs"), std::string::npos);
    EXPECT_EQ(firstColumn(report, kSections[1]), numbered(5));
    EXPECT_EQ(firstColumn(report, kSections[2]), numbered(5));
    std::filesystem::remove(path);
}

TEST(Explain, ReplayedJobRendersLikeTheLiveRun)
{
    const std::string dir = ::testing::TempDir() + "sst_explain_traces";
    std::filesystem::remove_all(dir);
    const JobSpec job = JobSpec::forProfile(test::lockHeavyProfile(), 3);
    const std::string live = renderExplainReport(job, runOne(job).exp);
    test::recordJob(job, dir);

    DriverOptions opts;
    opts.traceDir = dir;
    const JobResult replayed = runOne(job, opts);
    EXPECT_TRUE(replayed.tracedReplay);
    EXPECT_EQ(renderExplainReport(job, replayed.exp), live);
    std::filesystem::remove_all(dir);
}

TEST(Explain, CachedResultIsRefused)
{
    const std::string dir = ::testing::TempDir() + "sst_explain_cache";
    std::filesystem::remove_all(dir);
    const JobSpec job = JobSpec::forProfile(test::computeOnlyProfile(), 2);
    DriverOptions opts;
    opts.cacheDir = dir;
    runOne(job, opts);
    const JobResult hit = runOne(job, opts);
    ASSERT_TRUE(hit.fromCache());
    EXPECT_TRUE(hit.exp.parallel.threads.empty());
    try {
        renderExplainReport(job, hit.exp);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("without the result cache"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sst
