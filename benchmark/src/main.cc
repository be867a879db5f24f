/**
 * @file
 * sst_bench: the repository benchmark. Runs one workload through the
 * library's public entry points for a fixed time budget and prints
 * every metric by name with its unit and sample count; the last line of
 * standard output is the JSON result. See README.md.
 *
 * Usage: sst_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                  [--root DIR] [--out DIR]
 *
 * --trace 0 times campaigns with tracing off and reports the end-to-end
 * metrics; --trace 1 runs untraced/traced campaign pairs and the
 * standalone layer replays and reports the per-layer metrics. Exits 1
 * when a correctness check fails, 2 on bad arguments or errors.
 */

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hh"
#include "layers.hh"
#include "reference.hh"
#include "report.hh"
#include "spans.hh"
#include "telemetry/span.hh"

namespace fs = std::filesystem;
using namespace sstbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Campaigns per run at least, whatever the time budget. */
constexpr int kMinCampaigns = 3;

/** Time spent setting up before each campaign (see setUpTimed). */
constexpr double kSetupWindowS = 0.1;

/** Set-ups per batch on one CPU (see setUpTimed). */
constexpr int kSetupsPerBatch = 7;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20.0;
    bool trace = false;
    std::string root = ".";
    std::string out = ".bench_build/out";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = std::stoi(val) != 0;
        else if (key == "--root")
            a.root = val;
        else if (key == "--out")
            a.out = val;
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    workloadByName(a.workload); // validate early
    return a;
}

double
elapsedS(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Reset the kernel's peak-RSS mark so peakRssMiB() covers only what
 * follows. Where /proc/self/clear_refs is unavailable the mark keeps
 * the process-lifetime peak.
 */
void
resetPeakRss()
{
    malloc_trim(0); // hand freed memory back so every campaign starts alike
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since the last resetPeakRss() (or process start). */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Everything a run accumulates across its campaigns. */
struct Run
{
    Run(const Args &args, WorkloadConfig cfg, std::string workDir)
        : args_(args), cfg_(std::move(cfg)), workDir_(std::move(workDir))
    {
    }

    /**
     * Set a campaign up over and over for kSetupWindowS, in batches of
     * kSetupsPerBatch pinned to each CPU the process may use in turn,
     * and keep the last set-up. A set-up runs for tens of microseconds
     * on one thread, and on a shared host a CPU runs it up to twice as
     * slow for tens of milliseconds at a time, so a median over set-ups
     * moves with how busy the host was during the run. The sample this
     * call adds to setup_s is the fastest batch's median: the set-up's
     * cost on an unloaded CPU.
     */
    Campaign
    setUpTimed()
    {
        cpu_set_t allowed;
        if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
            throw std::runtime_error("sched_getaffinity failed");
        // Flush the previous campaign's cache writes first: pending
        // journal work slows creating the cache directory 2-5x.
        syncWorkDir();
        std::optional<Campaign> kept;
        double fastest = 0.0;
        const Clock::time_point t0 = Clock::now();
        while (!kept || elapsedS(t0) < kSetupWindowS) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (!CPU_ISSET(cpu, &allowed))
                    continue;
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpu, &one);
                ::sched_setaffinity(0, sizeof(one), &one);
                std::vector<double> batch;
                for (int i = 0; i < kSetupsPerBatch; ++i) {
                    if (kept)
                        fs::remove_all(kept->cacheDir);
                    kept = setUp(cfg_, nextCacheDir());
                    batch.push_back(kept->setupS);
                    expandS_.push_back(kept->expandS);
                    compileS_.push_back(kept->compileS);
                }
                const double m = median(batch);
                fastest = fastest > 0.0 ? std::min(fastest, m) : m;
            }
        }
        // Driver workers inherit the affinity of the thread that
        // starts them.
        ::sched_setaffinity(0, sizeof(allowed), &allowed);
        setupS_.push_back(fastest);
        return std::move(*kept);
    }

    /** A fresh result-cache directory name. */
    std::string
    nextCacheDir()
    {
        return workDir_ + "/cache-" + std::to_string(nextCacheDir_++);
    }

    void
    syncWorkDir() const
    {
        const int fd = ::open(workDir_.c_str(), O_RDONLY | O_DIRECTORY);
        if (fd >= 0) {
            ::syncfs(fd);
            ::close(fd);
        }
    }

    /** Run @p c, check it, and fold it into the run's records. */
    CampaignRun
    execute(Campaign &c)
    {
        CampaignRun run = runCampaign(c);
        Summary s = summarize(c.specs, run);
        attempted_ += s.jobs;
        fail(checkCampaign(s, run));
        if (!first_) {
            if (cfg_.kind == WorkloadKind::kFig04Grid && cfg_.seed == 0)
                fail(checkGolden(s, args_.root +
                                        "/tests/data/golden_fig01.csv"));
            first_ = std::move(s);
        } else if (s.digest != first_->digest) {
            fail({"results digest of campaign " +
                  std::to_string(wallS_.size() + 1) +
                  " differs from campaign 1"});
        }
        return run;
    }

    /** Check the cached re-run of @p c (the run's last campaign). */
    void
    cachedRerun(const Campaign &c)
    {
        attempted_ += c.specs.size();
        fail(checkCachedRerun(cfg_, c, *first_, cachedRerunS_));
    }

    /**
     * Compare the digest with the one an earlier run of this build
     * stored for the same workload and seed, or store it.
     */
    void
    checkStoredDigest()
    {
        const std::string dir = args_.out + "/digests";
        fs::create_directories(dir);
        const std::string path = dir + "/" + args_.workload + "-seed" +
                                 std::to_string(args_.seed) + ".txt";
        char hex[24];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(first_->digest));
        std::ifstream in(path);
        std::string stored;
        if (in >> stored) {
            if (stored != hex)
                fail({"results digest " + std::string(hex) +
                      " differs from an earlier run's " + stored});
            return;
        }
        std::ofstream(path) << hex << "\n";
    }

    void
    fail(const std::vector<std::string> &msgs)
    {
        failures_.insert(failures_.end(), msgs.begin(), msgs.end());
    }

    const Args &args_;
    WorkloadConfig cfg_;
    std::string workDir_;
    int nextCacheDir_ = 0;

    std::vector<double> setupS_, expandS_, compileS_;
    std::vector<double> wallS_, cpuS_, peakRssMiB_;
    /** Untraced runs: reference time per campaign, and the ratios. */
    std::vector<double> refS_, wallRef_, cpuRef_;
    std::optional<Summary> first_;
    double cachedRerunS_ = 0.0;
    std::size_t attempted_ = 0;
    std::vector<std::string> failures_;
};

double
maxOf(const std::vector<double> &xs)
{
    double m = 0.0;
    for (const double x : xs)
        m = std::max(m, x);
    return m;
}

double
meanOf(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return ratio(sum, static_cast<double>(xs.size()));
}

/**
 * End-to-end metrics of an untraced run: the ones BENCHMARK.json gates
 * into @p rep, the ungated ones README.md lists (plain seconds, the
 * reference time, the largest error, the failed ratio) into @p info.
 */
void
addEndToEnd(Report &rep, Report &info, const Run &run)
{
    const Summary &s = *run.first_;
    const double wall = median(run.wallS_);
    const std::size_t n = run.wallS_.size();
    rep.add("setup_s", "s", median(run.setupS_), run.setupS_.size());
    rep.add("wall_ref", "ref", median(run.wallRef_), n);
    rep.add("cpu_ref", "ref", median(run.cpuRef_), n);
    rep.add("peak_rss_mb", "MiB", median(run.peakRssMiB_),
            run.peakRssMiB_.size());
    rep.add("mean_abs_error_pct", "%", meanOf(s.absErrorPct),
            s.absErrorPct.size());
    info.add("wall_s", "s", wall, n);
    info.add("cpu_s", "s", median(run.cpuS_), n);
    info.add("sim_instr_per_s", "instr/s",
             ratio(static_cast<double>(s.instructions), wall), n);
    info.add("reference_s", "s", median(run.refS_), n);
    info.add("max_abs_error_pct", "%", maxOf(s.absErrorPct),
             s.absErrorPct.size());
    info.add("failed_ratio", "ratio",
             std::min(1.0, ratio(static_cast<double>(run.failures_.size()),
                                 static_cast<double>(run.attempted_))),
             run.attempted_);
}

/**
 * Per-layer metrics of a traced run; @p spans are the traced campaign's
 * and the replays' (parseTrace).
 */
void
addPerLayer(Report &rep, const Run &run, const Spans &spans,
            const ReplayTotals &rt, double untracedWall, double tracedWall,
            double untracedCpu)
{
    const Summary &s = *run.first_;
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    // Driver spans of the traced campaign only, not the cached re-run's.
    const Spans campaign = during(spans, findSpan(spans, "campaign"));
    const auto driverSpan = [&](const char *metric, const char *name) {
        rep.add(metric, "s", totalSeconds(campaign, name),
                durations(campaign, name).size());
    };
    const std::vector<double> jobs = durations(campaign, "job");
    double busy = 0.0;
    for (const double d : jobs)
        busy += d;

    rep.add("driver.jobs", "count", n(s.jobs), 1);
    rep.add("driver.baselines", "count", n(s.baselines), 1);
    rep.add("driver.baseline_share", "ratio",
            ratio(n(s.jobs - s.baselines), n(s.jobs)), s.jobs);
    rep.add("driver.cache_stores", "count",
            n(durations(campaign, "cache-store").size()), 1);
    driverSpan("driver.validate_s", "validate");
    driverSpan("driver.baseline_s", "baseline");
    driverSpan("driver.simulate_s", "simulate");
    driverSpan("driver.cache_store_s", "cache-store");
    rep.add("driver.job_p50_s", "s", quantile(jobs, 0.5), jobs.size());
    rep.add("driver.job_p90_s", "s", quantile(jobs, 0.9), jobs.size());
    rep.add("driver.worker_busy_ratio", "ratio",
            ratio(busy, tracedWall * run.cfg_.workers), jobs.size());
    rep.add("driver.cached_rerun_s", "s", run.cachedRerunS_, 1);
    rep.add("driver.trace_overhead_s", "s", tracedWall - untracedWall,
            run.wallS_.size());

    rep.add("spec.expand_s", "s", median(run.expandS_),
            run.expandS_.size());
    rep.add("wdl.compile_s", "s", median(run.compileS_),
            run.compileS_.size());

    rep.add("workload.ops", "count", n(rt.ops), 1);
    const double opgenS = totalSeconds(spans, "opgen");
    rep.add("workload.opgen_s", "s", opgenS, s.jobs);
    rep.add("workload.ns_per_op", "ns", ratio(opgenS * 1e9, n(rt.ops)),
            rt.ops);

    rep.add("sim.events", "count", n(s.events), 1);
    rep.add("sim.heap_ops", "count", n(s.heapOps), 1);
    rep.add("sim.cycles", "cycles", n(s.cycles), 1);
    rep.add("sim.events_per_cpu_s", "1/s", ratio(n(s.events), untracedCpu),
            run.cpuS_.size());

    rep.add("sched.wakes", "count", n(s.wakes), 1);
    rep.add("sched.preemptions", "count", n(s.preemptions), 1);

    rep.add("cache.l1_accesses", "count", n(s.l1Accesses), 1);
    rep.add("cache.l1_hit_ratio", "ratio", ratio(n(s.l1Hits), n(s.l1Accesses)),
            s.l1Accesses);
    rep.add("cache.llc_accesses", "count", n(s.llcAccesses), 1);
    rep.add("cache.llc_hit_ratio", "ratio",
            ratio(n(s.llcHits), n(s.llcAccesses)), s.llcAccesses);
    rep.add("cache.coherency_misses", "count", n(s.coherencyMisses), 1);
    rep.add("cache.invalidations", "count", n(s.invalidations), 1);
    rep.add("cache.writebacks", "count", n(s.writebacks), 1);
    const double cacheS = totalSeconds(spans, "cache-replay");
    rep.add("cache.replay_s", "s", cacheS, s.jobs);
    rep.add("cache.ns_per_access", "ns",
            ratio(cacheS * 1e9, n(rt.cacheAccesses)), rt.cacheAccesses);

    rep.add("mem.dram_accesses", "count", n(s.dramAccesses), 1);
    rep.add("mem.row_hit_ratio", "ratio",
            ratio(n(s.rowHits), n(s.dramAccesses)), s.dramAccesses);
    rep.add("mem.bus_wait_other_cycles", "cycles", n(s.busWaitOther), 1);
    rep.add("mem.bank_wait_other_cycles", "cycles", n(s.bankWaitOther), 1);
    const double memS = totalSeconds(spans, "mem-replay");
    rep.add("mem.replay_s", "s", memS, s.jobs);
    rep.add("mem.ns_per_access", "ns", ratio(memS * 1e9, n(rt.memAccesses)),
            rt.memAccesses);

    rep.add("sync.spin_instr_ratio", "ratio",
            ratio(n(s.spinInstructions), n(s.parallelInstructions)), 1);
    rep.add("sync.lock_spin_cycles", "cycles", n(s.lockSpin), 1);
    rep.add("sync.lock_yield_cycles", "cycles", n(s.lockYield), 1);
    rep.add("sync.barrier_spin_cycles", "cycles", n(s.barrierSpin), 1);
    rep.add("sync.barrier_yield_cycles", "cycles", n(s.barrierYield), 1);

    rep.add("accounting.spin_detect_ratio", "ratio",
            ratio(n(s.spinDetected), n(s.gtSpin)), 1);
    rep.add("accounting.yield_match_ratio", "ratio",
            ratio(n(s.yieldCycles), n(s.gtYield)), 1);
    rep.add("accounting.par_overhead", "ratio", s.parOverheadMean, s.jobs);

    rep.add("core.assemble_s", "s", totalSeconds(spans, "assemble"), s.jobs);
    rep.add("core.max_abs_error_pct", "%", maxOf(s.absErrorPct),
            s.absErrorPct.size());
    for (const int t : {2, 4, 8, 16, 64}) {
        const auto it = s.absErrorPctByThreads.find(t);
        const std::vector<double> none;
        const std::vector<double> &errs =
            it == s.absErrorPctByThreads.end() ? none : it->second;
        rep.add("core.abs_error_pct_t" + std::to_string(t), "%",
                meanOf(errs), errs.size());
    }
}

/**
 * --trace 0: timed campaigns, end-to-end metrics. The reference kernel
 * runs right before and right after each campaign (outside the
 * peak-RSS window); their mean is the campaign's reference time. Each
 * campaign's figures also go to standard error.
 */
void
untracedRun(Run &run, Report &rep, Report &info)
{
    const Clock::time_point t0 = Clock::now();
    std::optional<Campaign> last;
    double longest = 0.0;
    while (static_cast<int>(run.wallS_.size()) < kMinCampaigns ||
           elapsedS(t0) + longest < run.args_.seconds) {
        const Clock::time_point c0 = Clock::now();
        if (last)
            fs::remove_all(last->cacheDir);
        last = run.setUpTimed();
        const double refBefore = referenceSeconds(run.cfg_.workers);
        resetPeakRss();
        const CampaignRun r = run.execute(*last);
        run.peakRssMiB_.push_back(peakRssMiB());
        const double ref =
            0.5 * (refBefore + referenceSeconds(run.cfg_.workers));
        run.wallS_.push_back(r.wallS);
        run.cpuS_.push_back(r.cpuS);
        run.refS_.push_back(ref);
        run.wallRef_.push_back(r.wallS / ref);
        run.cpuRef_.push_back(r.cpuS / ref);
        std::fprintf(stderr,
                     "campaign %zu: wall %.4f s  cpu %.4f s  ref %.4f s  "
                     "setup %.2f us\n",
                     run.wallS_.size(), r.wallS, r.cpuS, ref,
                     run.setupS_.back() * 1e6);
        longest = std::max(longest, elapsedS(c0));
    }
    run.cachedRerun(*last);
    run.checkStoredDigest();
    addEndToEnd(rep, info, run);
}

/**
 * --trace 1: untraced/traced pairs, replays, per-layer metrics. The
 * telemetry tracer records from the last traced campaign's set-up
 * through the replays under one epoch; parseTrace reads it back.
 */
void
tracedRun(Run &run, Report &rep, Report &info)
{
    sst::telemetry::SpanTracer &tracer = sst::telemetry::SpanTracer::global();
    const Clock::time_point t0 = Clock::now();
    std::vector<double> tracedWall;
    std::optional<Campaign> last;
    CampaignRun lastRun;
    double longest = 0.0;
    auto plainCampaign = [&] {
        tracer.setEnabled(false);
        Campaign plain = run.setUpTimed();
        const CampaignRun r = run.execute(plain);
        run.wallS_.push_back(r.wallS);
        run.cpuS_.push_back(r.cpuS);
        fs::remove_all(plain.cacheDir);
    };
    // Leaves the tracer on, so a traced campaign that ends the pairs
    // and the replays after it share one trace.
    auto tracedCampaign = [&] {
        tracer.setEnabled(false);
        tracer.clear();
        if (last)
            fs::remove_all(last->cacheDir);
        tracer.setEnabled(true);
        {
            sst::telemetry::ScopedSpan span("setup", "bench");
            last = setUp(run.cfg_, run.nextCacheDir());
        }
        sst::telemetry::ScopedSpan span("campaign", "bench");
        lastRun = run.execute(*last);
        tracedWall.push_back(lastRun.wallS);
    };
    // A process's first campaign runs up to a second slower on
    // fig04_grid (cold heap and page cache): run one, checked but not
    // timed, before the pairs. Half the budget goes to the pairs, which
    // alternate which campaign runs first; the rest goes to the replays.
    {
        Campaign warm = run.setUpTimed();
        run.execute(warm);
        fs::remove_all(warm.cacheDir);
    }
    while (tracedWall.empty() || elapsedS(t0) + longest <
                                     0.5 * run.args_.seconds) {
        const Clock::time_point c0 = Clock::now();
        if (tracedWall.size() % 2 == 0) {
            plainCampaign();
            tracedCampaign();
        } else {
            tracedCampaign();
            plainCampaign();
        }
        longest = std::max(longest, elapsedS(c0));
    }
    if (!tracer.enabled())
        tracedCampaign();
    {
        sst::telemetry::ScopedSpan span("cached-rerun", "driver");
        run.cachedRerun(*last);
    }
    run.checkStoredDigest();

    ReplayTotals rt;
    for (std::size_t i = 0; i < last->specs.size(); ++i) {
        sst::telemetry::ScopedSpan span("job-replay", "bench");
        replayJob(last->specs[i], rt);
        if (!reassembleJob(last->specs[i], lastRun.results[i]))
            run.fail({"re-assembled experiment of job " +
                      std::to_string(i) + " differs from the driver's"});
    }
    tracer.setEnabled(false);
    if (tracer.dropped() > 0)
        throw std::runtime_error("the span tracer dropped " +
                                 std::to_string(tracer.dropped()) +
                                 " spans");
    const Spans spans = parseTrace(tracer.chromeTraceJson());

    const double untracedWall = median(run.wallS_);
    const double traced = median(tracedWall);
    addPerLayer(rep, run, spans, rt, untracedWall, traced,
                median(run.cpuS_));

    std::string other = "{\"workload\":" + jsonString(run.args_.workload) +
                        ",\"seed\":" + std::to_string(run.args_.seed) +
                        ",\"untraced_wall_s\":" + jsonNumber(untracedWall) +
                        ",\"traced_wall_s\":" + jsonNumber(traced) +
                        ",\"trace_overhead_s\":" +
                        jsonNumber(traced - untracedWall) +
                        ",\"self_time_s\":{";
    bool first = true;
    for (const auto &layer : layerSelfSeconds(spans)) {
        other += (first ? "" : ",") + jsonString(layer.first) + ":" +
                 jsonNumber(layer.second);
        first = false;
        info.add("self_time." + layer.first, "s", layer.second, 1);
    }
    other += "}}";
    const std::string path = run.args_.out + "/" + run.args_.workload +
                             "-seed" + std::to_string(run.args_.seed) +
                             ".trace.json";
    std::ofstream(path) << chromeTraceJson(spans, other);
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                spans.size());
}

int
benchMain(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    fs::create_directories(args.out);
    const std::string workDir =
        args.out + "/work-" + std::to_string(::getpid());
    fs::remove_all(workDir);
    fs::create_directories(workDir);

    WorkloadConfig cfg;
    cfg.kind = workloadByName(args.workload);
    cfg.seed = args.seed;
    cfg.workers = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    if (cfg.kind == WorkloadKind::kTxnContention)
        cfg.wdlFiles = writeTxnSources(workDir + "/wdl", args.seed);

    Run run(args, cfg, workDir);
    Report rep;  // the metrics BENCHMARK.json names for this mode
    Report info; // reported, not gated
    if (args.trace)
        tracedRun(run, rep, info);
    else
        untracedRun(run, rep, info);
    fs::remove_all(workDir);

    const bool correct = run.failures_.empty();
    std::printf("workload %s  seed %llu  trace %d  campaigns %zu  "
                "workers %d  digest %016llx\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, run.wallS_.size(), cfg.workers,
                static_cast<unsigned long long>(run.first_->digest));
    std::printf("%s%s", rep.table().c_str(), info.table().c_str());
    for (const std::string &f : run.failures_)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    const std::string resultPath = args.out + "/" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   "-trace" + (args.trace ? "1" : "0") +
                                   ".json";
    std::string failures = "[";
    for (std::size_t i = 0; i < run.failures_.size(); ++i)
        failures += (i ? "," : "") + jsonString(run.failures_[i]);
    std::ofstream(resultPath)
        << "{\"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
        << ", \"campaigns\": " << run.wallS_.size()
        << ", \"failures\": " << failures << "]"
        << ", \"metrics\": " << rep.json(true)
        << ", \"reported\": " << info.json(true) << "}\n";

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", run.attempted_,
                run.failures_.size(), rep.json(false).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sst_bench: %s\n", e.what());
        return 2;
    }
}
