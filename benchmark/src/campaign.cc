#include "campaign.hh"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "driver/fingerprint.hh"
#include "driver/sweep.hh"
#include "telemetry/span.hh"
#include "wdl/wdl.hh"
#include "workload/profile.hh"

namespace sstbench {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** RNG streams (seed offsets) per scale64 campaign; see setUp(). */
constexpr std::uint64_t kScale64Replications = 4;

/** Column index of `status` in sweepCsvRow(). */
constexpr std::size_t kStatusColumn = 6;

/** Split a CSV row (no quoting: labels and numbers only). */
std::vector<std::string>
splitRow(const std::string &row)
{
    std::vector<std::string> cols;
    std::stringstream ss(row);
    std::string col;
    while (std::getline(ss, col, ','))
        cols.push_back(col);
    return cols;
}

/** @p row with its status column removed. */
std::string
withoutStatus(const std::string &row)
{
    std::vector<std::string> cols = splitRow(row);
    if (cols.size() > kStatusColumn)
        cols.erase(cols.begin() + kStatusColumn);
    std::string out;
    for (std::size_t i = 0; i < cols.size(); ++i)
        out += (i ? "," : "") + cols[i];
    return out;
}

/** The row's key: benchmark .. seed_offset (the columns before status). */
std::string
rowKey(const std::string &row)
{
    const std::vector<std::string> cols = splitRow(row);
    std::string key;
    for (std::size_t i = 0; i < kStatusColumn && i < cols.size(); ++i)
        key += cols[i] + ",";
    return key;
}

void
fnv(std::uint64_t &h, const std::string &s)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
}

/** Fold one run's deterministic counters into @p s. */
void
addRun(Summary &s, const sst::RunResult &r)
{
    s.instructions += r.totalInstructions + r.totalSpinInstructions;
    s.spinInstructions += r.totalSpinInstructions;
    s.events += r.engineEvents;
    s.heapOps += r.engineHeapOps;
    s.wakes += r.engineWakes;
    s.preemptions += r.enginePreemptions;
    s.cycles += r.executionTime;
    for (const sst::CacheStats &c : r.cacheStats) {
        s.l1Accesses += c.l1Accesses;
        s.l1Hits += c.l1Hits;
        s.llcAccesses += c.llcAccesses;
        s.llcHits += c.llcHits;
        s.coherencyMisses += c.coherencyMisses;
        s.invalidations += c.invalidationsReceived;
        s.writebacks += c.writebacks;
    }
    for (const sst::DramStats &d : r.dramStats) {
        s.dramAccesses += d.accesses;
        s.rowHits += d.rowHits;
        s.busWaitOther += d.busWaitOther;
        s.bankWaitOther += d.bankWaitOther;
    }
    for (const sst::ThreadCounters &t : r.threads) {
        s.lockSpin += t.gtLockSpin;
        s.lockYield += t.gtLockYield;
        s.barrierSpin += t.gtBarrierSpin;
        s.barrierYield += t.gtBarrierYield;
        s.spinDetected += t.spinDetectedTian;
        s.gtSpin += t.gtSpin();
        s.yieldCycles += t.yieldCycles;
        s.gtYield += t.gtYield();
    }
}

std::string
countsText(const Summary &s)
{
    std::ostringstream os;
    os << s.baselines << ' ' << s.instructions << ' ' << s.spinInstructions
       << ' ' << s.events << ' ' << s.heapOps << ' ' << s.wakes << ' '
       << s.preemptions << ' ' << s.cycles << ' ' << s.l1Accesses << ' '
       << s.l1Hits << ' ' << s.llcAccesses << ' ' << s.llcHits << ' '
       << s.coherencyMisses << ' ' << s.invalidations << ' '
       << s.writebacks << ' ' << s.dramAccesses << ' ' << s.rowHits << ' '
       << s.busWaitOther << ' ' << s.bankWaitOther << ' ' << s.lockSpin
       << ' ' << s.lockYield << ' ' << s.barrierSpin << ' '
       << s.barrierYield << ' ' << s.spinDetected << ' ' << s.gtSpin << ' '
       << s.yieldCycles << ' ' << s.gtYield;
    return os.str();
}

std::string
thetaText(double theta)
{
    std::ostringstream os;
    os << theta;
    return os.str();
}

} // namespace

WorkloadKind
workloadByName(const std::string &name)
{
    if (name == "fig04_grid")
        return WorkloadKind::kFig04Grid;
    if (name == "scale64")
        return WorkloadKind::kScale64;
    if (name == "txn_contention")
        return WorkloadKind::kTxnContention;
    throw std::invalid_argument("unknown workload '" + name +
                                "'; valid: fig04_grid, scale64, "
                                "txn_contention");
}

std::vector<std::string>
writeTxnSources(const std::string &dir, std::uint64_t seed)
{
    std::filesystem::create_directories(dir);
    // deriveJobSeed(x, 0) == x: seed 0 keeps txn_high.wdl's seed 7.
    const std::uint64_t wdlSeed = sst::deriveJobSeed(7, seed);
    std::vector<std::string> paths;
    for (const double theta : {0.0, 0.9, 0.99}) {
        for (const int threads : {4, 16}) {
            const std::string name = "txn_z" + thetaText(theta) + "_t" +
                                     std::to_string(threads);
            std::ostringstream os;
            os << "wdl 1\n"
               << "workload \"" << name << "\"\n"
               << "seed " << wdlSeed << "\n"
               << "lock keys[64]\n\n"
               << "group clients threads=" << threads
               << " private=128K {\n"
               << "  loop 16000 {\n"
               << "    txn txn_ops=16 rw_ratio=0.5 locks=keys zipf("
               << thetaText(theta)
               << ") compute=uniform(10, 30) memory=2\n"
               << "  }\n"
               << "}\n";
            const std::string path = dir + "/" + name + ".wdl";
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << os.str();
            if (!out)
                throw std::runtime_error("cannot write " + path);
            paths.push_back(path);
        }
    }
    return paths;
}

Campaign
setUp(const WorkloadConfig &cfg, const std::string &cacheDir)
{
    Campaign c;
    std::optional<sst::telemetry::ScopedSpan> span;
    const Clock::time_point t0 = Clock::now();
    if (cfg.kind == WorkloadKind::kTxnContention) {
        span.emplace("wdl-compile", "wdl");
        std::vector<sst::WorkloadSpec> workloads;
        for (const std::string &path : cfg.wdlFiles)
            workloads.push_back(sst::wdl::loadWorkloadFile(path));
        c.compileS = secondsSince(t0);
        span.emplace("expand", "spec");
        const Clock::time_point t1 = Clock::now();
        for (sst::WorkloadSpec &w : workloads) {
            sst::JobSpec spec;
            spec.workload = std::move(w);
            c.specs.push_back(std::move(spec));
        }
        c.expandS = secondsSince(t1);
    } else {
        span.emplace("expand", "spec");
        const Clock::time_point t1 = Clock::now();
        sst::SweepGrid grid;
        // scale64's Eq. 6 error swings with the RNG stream (cholesky at
        // 64 threads ranges from -21% to +11%), so each of its campaigns
        // runs kScale64Replications streams to keep the fidelity
        // metrics steady across seeds.
        std::uint64_t replications = 1;
        if (cfg.kind == WorkloadKind::kFig04Grid) {
            grid.profiles = sst::allProfileLabels();
            grid.threads = {2, 4, 8, 16};
        } else {
            grid.profiles = {"cholesky", "facesim_medium", "canneal_medium",
                             "ferret_medium"};
            grid.threads = {64};
            grid.cores = {16, 32, 64};
            replications = kScale64Replications;
        }
        for (std::uint64_t r = 0; r < replications; ++r) {
            grid.seedOffset = cfg.seed * replications + r;
            const std::vector<sst::JobSpec> jobs = sst::expandGrid(grid);
            c.specs.insert(c.specs.end(), jobs.begin(), jobs.end());
        }
        c.expandS = secondsSince(t1);
    }
    span.reset();
    if (std::filesystem::exists(cacheDir))
        throw std::logic_error("result cache dir " + cacheDir +
                               " already exists");
    sst::DriverOptions opts;
    opts.jobs = cfg.workers;
    opts.cacheDir = cacheDir;
    c.cacheDir = cacheDir;
    c.driver = std::make_unique<sst::ExperimentDriver>(opts);
    c.setupS = secondsSince(t0);
    return c;
}

CampaignRun
runCampaign(Campaign &campaign)
{
    CampaignRun run;
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    run.results = campaign.driver->runBatch(campaign.specs);
    run.wallS = secondsSince(t0);
    run.cpuS = processCpuSeconds() - cpu0;
    run.stats = campaign.driver->stats();
    return run;
}

Summary
summarize(const std::vector<sst::JobSpec> &specs, const CampaignRun &run)
{
    Summary s;
    s.jobs = specs.size();
    std::set<std::string> baselines;
    double overhead = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sst::JobSpec &spec = specs[i];
        const sst::JobResult &r = run.results[i];
        s.rows.push_back(sst::sweepCsvRow(spec, r));
        if (!r.ok()) {
            ++s.failedJobs;
            continue;
        }
        const sst::SpeedupExperiment &e = r.exp;
        if (!e.stack.sumsToHeight(1e-9))
            ++s.stackViolations;
        const double err = std::fabs(e.error) * 100.0;
        s.absErrorPct.push_back(err);
        s.absErrorPctByThreads[e.nthreads].push_back(err);
        overhead += e.parOverheadMeasured;
        addRun(s, e.parallel);
        s.parallelInstructions += e.parallel.totalInstructions +
                                  e.parallel.totalSpinInstructions;
        const std::string key =
            sst::fingerprintWorkloadGroupBaseline(
                spec.params, spec.effectiveWorkload(), 0)
                .canonical;
        if (baselines.insert(key).second)
            addRun(s, e.single);
    }
    s.baselines = baselines.size();
    const std::size_t ok = s.jobs - s.failedJobs;
    s.parOverheadMean = ok ? overhead / static_cast<double>(ok) : 0.0;

    s.digest = 1469598103934665603ull;
    for (const std::string &row : s.rows)
        fnv(s.digest, withoutStatus(row));
    fnv(s.digest, countsText(s));
    return s;
}

std::vector<std::string>
checkCampaign(const Summary &summary, const CampaignRun &run)
{
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const sst::JobResult &r = run.results[i];
        if (r.status != sst::JobStatus::kOk)
            failures.push_back("job " + std::to_string(i) +
                               " did not execute fresh: " +
                               (r.ok() ? "cached" : r.error));
    }
    if (summary.stackViolations)
        failures.push_back(std::to_string(summary.stackViolations) +
                           " stacks do not sum to N within 1e-9");
    if (run.stats.executed != summary.jobs)
        failures.push_back("driver executed " +
                           std::to_string(run.stats.executed) + " of " +
                           std::to_string(summary.jobs) + " jobs");
    return failures;
}

std::vector<std::string>
checkGolden(const Summary &summary, const std::string &goldenPath)
{
    std::ifstream in(goldenPath);
    if (!in)
        return {"cannot read golden file " + goldenPath};
    std::map<std::string, std::string> ours;
    for (const std::string &row : summary.rows)
        ours[rowKey(row)] = withoutStatus(row);
    std::vector<std::string> failures;
    std::string line;
    std::getline(in, line); // header
    std::size_t compared = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++compared;
        const auto it = ours.find(rowKey(line));
        if (it == ours.end())
            failures.push_back("golden row missing: " + rowKey(line));
        else if (it->second != withoutStatus(line))
            failures.push_back("golden row differs: " + rowKey(line));
    }
    if (compared == 0)
        failures.push_back("golden file " + goldenPath + " has no rows");
    return failures;
}

std::vector<std::string>
checkCachedRerun(const WorkloadConfig &cfg, const Campaign &campaign,
                 const Summary &fresh, double &seconds)
{
    sst::DriverOptions opts;
    opts.jobs = cfg.workers;
    opts.cacheDir = campaign.cacheDir;
    sst::ExperimentDriver driver(opts);
    const Clock::time_point t0 = Clock::now();
    const std::vector<sst::JobResult> results =
        driver.runBatch(campaign.specs);
    seconds = secondsSince(t0);

    std::vector<std::string> failures;
    if (driver.stats().cached != campaign.specs.size())
        failures.push_back(
            "cached re-run hit " + std::to_string(driver.stats().cached) +
            " of " + std::to_string(campaign.specs.size()) + " jobs");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string row = sst::sweepCsvRow(campaign.specs[i],
                                                 results[i]);
        const std::vector<std::string> cols = splitRow(row);
        if (cols.size() <= kStatusColumn || cols[kStatusColumn] != "cached")
            failures.push_back("cached re-run row " + std::to_string(i) +
                               " status is not 'cached'");
        if (withoutStatus(row) != withoutStatus(fresh.rows[i]))
            failures.push_back("cached re-run row " + std::to_string(i) +
                               " differs from the fresh row");
    }
    return failures;
}

} // namespace sstbench
