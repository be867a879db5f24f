#include "driver.hh"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/experiment.hh"
#include "driver/fingerprint.hh"
#include "driver/result_cache.hh"
#include "telemetry/span.hh"
#include "trace/trace_run.hh"

namespace sst {
namespace {

/**
 * Per-batch cache of parsed trace containers. Jobs that differ only in
 * machine parameters share one trace file; parsing (whole-file read +
 * full validation decode of every stream) should happen once per path,
 * not once per job. Parsing runs outside the lock; a racing duplicate
 * parse is harmless — the first insert wins.
 */
class TraceReaderCache
{
  public:
    std::shared_ptr<const TraceReader>
    get(const std::string &path)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = readers_.find(path);
            if (it != readers_.end())
                return it->second;
        }
        auto reader = std::make_shared<const TraceReader>(path);
        std::lock_guard<std::mutex> lock(mutex_);
        return readers_.emplace(path, std::move(reader)).first->second;
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<const TraceReader>>
        readers_;
};

/**
 * Reject specs the simulator would abort on. The driver turns these
 * into per-job failures instead of process death so a batch survives
 * one bad entry.
 */
void
validateSpec(const JobSpec &spec)
{
    spec.workload.validate(); // structure: groups, counts, role rules
    const std::string label = spec.label();
    const int nthreads = spec.nthreads();
    if (nthreads < 1)
        throw std::invalid_argument(
            "job '" + label + "': nthreads must be >= 1, got " +
            std::to_string(nthreads));
    if (spec.ncores < 0)
        throw std::invalid_argument(
            "job '" + label + "': ncores must be >= 0 "
            "(0 = match nthreads), got " + std::to_string(spec.ncores));
    if (spec.ncores > nthreads)
        throw std::invalid_argument(
            "job '" + label + "': ncores " + std::to_string(spec.ncores) +
            " exceeds nthreads " + std::to_string(nthreads) +
            " (idle cores cannot speed up the run)");
    // simulate() runs nthreads threads on ncoresEffective() cores, and
    // the cache hierarchy's sharers bitmap caps the core count (not the
    // thread count): reject here so an oversized machine fails cleanly
    // instead of panicking the whole process.
    if (spec.ncoresEffective() > kMaxSimCores)
        throw std::invalid_argument(
            "job '" + label + "': " +
            std::to_string(spec.ncoresEffective()) + " cores exceed the " +
            std::to_string(kMaxSimCores) + "-core simulator limit");
    for (const WorkloadGroup &g : spec.workload.groups) {
        if (g.profile.totalIters == 0)
            throw std::invalid_argument(
                "job '" + label + "': profile '" + g.profile.label() +
                "' has no work (totalIters == 0)");
        if (g.profile.name.empty())
            throw std::invalid_argument("job: profile has no name");
    }
    if (spec.params.cache.llcBytes == 0 || spec.params.cache.l1Bytes == 0)
        throw std::invalid_argument("job '" + label +
                                    "': cache sizes must be non-zero");
}

/**
 * Per-batch claim set for --record-dir trace paths. Jobs that differ
 * only in machine parameters share one canonical trace name (op
 * streams are machine-independent); the first job to claim a path
 * records it, the rest skip — two workers never write one file.
 */
class TraceRecordClaims
{
  public:
    bool
    claim(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return claimed_.insert(path).second;
    }

  private:
    std::mutex mutex_;
    std::set<std::string> claimed_;
};

/**
 * What the jobs of one runBatch() call share: 1-thread baselines,
 * parsed traces and --record-dir claims. Each store locks internally,
 * so worker threads use one context concurrently.
 */
struct BatchContext
{
    const DriverOptions &opts;
    ResultCache *cache; ///< null when memoization is disabled
    BaselineStore baselines;
    TraceReaderCache traces;
    TraceRecordClaims records;
};

/**
 * Execute one job (validation, cache, trace replay or live runs). Never
 * throws: a rejected spec or an execution error yields a kFailed result
 * carrying the message.
 */
JobResult
runOneJob(const JobSpec &spec, BatchContext &ctx)
{
    const DriverOptions &opts = ctx.opts;
    telemetry::ScopedSpan jobSpan("job", "driver");
    JobResult res;
    try {
        {
            telemetry::ScopedSpan span("validate", "driver");
            validateSpec(spec);
        }
        const Fingerprint fp = fingerprintJob(spec);
        if (ctx.cache && !opts.refresh) {
            SpeedupExperiment hit;
            if (ctx.cache->lookup(fp, hit)) {
                // Cache hits never re-simulate, so they also never
                // record: --record-dir captures only fresh runs.
                res.status = JobStatus::kCached;
                res.exp = std::move(hit);
                return res;
            }
        }

        const WorkloadSpec workload = spec.effectiveWorkload();
        const int nthreads = workload.nthreads();

        // Trace replay: when the job's canonical recording exists, all
        // runs re-simulate from the recorded op streams and no
        // ThreadProgram is ever constructed. A missing file falls back
        // to live generation; an incompatible file (stale profile,
        // wrong thread count, corruption) throws and fails the job —
        // silently regenerating would hide a stale trace directory.
        // Recorded op streams embed the schedule they ran under, and a
        // trace header carries no core count — an oversubscribed job
        // (ncores < nthreads) always generates live.
        std::shared_ptr<const TraceReader> reader;
        if (!opts.traceDir.empty() &&
            spec.ncoresEffective() == nthreads) {
            const std::string path = tracePathFor(
                opts.traceDir, workload, spec.seedOffset,
                spec.params.schedPolicy, spec.params.schedSeed);
            if (std::filesystem::exists(path)) {
                reader = ctx.traces.get(path);
                reader->requireCompatibleWorkload(
                    workload.role, traceGroupsOf(workload),
                    spec.params.schedPolicy, spec.params.schedSeed);
            }
        }

        // Trace capture (--record-dir): fresh, non-oversubscribed jobs
        // write their canonical recording while they run. Jobs that
        // differ only in machine parameters share one trace name (op
        // streams are machine-independent); the claim set makes the
        // first such job the recorder.
        std::unique_ptr<TraceWriter> writer;
        std::string record_path;
        if (!opts.recordDir.empty() && !reader &&
            spec.ncoresEffective() == nthreads) {
            record_path = tracePathFor(opts.recordDir, workload,
                                       spec.seedOffset,
                                       spec.params.schedPolicy,
                                       spec.params.schedSeed);
            if (ctx.records.claim(record_path)) {
                writer = std::make_unique<TraceWriter>(
                    traceMetaFor(workload, spec.params));
                // Baseline streams are a pure function of the workload
                // — fill them by generation so the 1-thread runs can
                // still come from the shared BaselineStore.
                for (int g = 0; g < workload.ngroups(); ++g)
                    appendGeneratedBaseline(*writer, workload, g);
            }
        }

        // Per-group 1-thread reference runs. Keys are the full
        // canonical baseline text (not the hash) so two distinct
        // baselines can never silently share a slot; the key is
        // frontend-agnostic (a replayed baseline is bit-identical to a
        // generated one) and group-agnostic (a mix group shares its
        // baseline with homogeneous sweeps of the same profile).
        std::vector<RunResult> group_bases;
        group_bases.reserve(workload.groups.size());
        {
            telemetry::ScopedSpan baselineSpan("baseline", "driver");
            for (std::size_t g = 0; g < workload.groups.size(); ++g) {
                const int group = static_cast<int>(g);
                auto compute = [&]() -> RunResult {
                    if (reader)
                        return replayBaseline(spec.params, *reader,
                                              group);
                    return simulateSources(
                        spec.params,
                        workloadGroupBaselineSources(workload, group), 1);
                };
                group_bases.push_back(ctx.baselines.get(
                    fingerprintWorkloadGroupBaseline(spec.params, workload,
                                                     group)
                        .canonical,
                    compute));
            }
        }

        // The parallel run: recorded replay or live generation (with
        // the capture shim around it when this job records).
        RunResult parallel;
        {
            telemetry::ScopedSpan simSpan("simulate", "driver");
            if (reader) {
                parallel = replayParallel(spec.params, *reader);
            } else if (writer) {
                const OpSourceFactory inner = workloadOpSources(workload);
                const ThreadTopology topo =
                    workload.topology(spec.ncoresEffective());
                parallel = simulateSources(
                    spec.params,
                    [&](ThreadId tid,
                        int n) -> std::unique_ptr<OpSource> {
                        return std::make_unique<RecordingSource>(
                            inner(tid, n), *writer, tid);
                    },
                    nthreads, spec.ncores, &topo);
                writer->writeFile(record_path);
                res.traceRecorded = true;
            } else {
                parallel = simulateWorkload(spec.params, workload,
                                            spec.ncores);
            }
        }

        SpeedupExperiment exp = assembleExperiment(
            workload.label(), nthreads, spec.params,
            combineGroupBaselines(group_bases), std::move(parallel));
        res.tracedReplay = reader != nullptr;
        if (ctx.cache) {
            telemetry::ScopedSpan storeSpan("cache-store", "driver");
            ctx.cache->store(fp, exp);
        }
        res.status = JobStatus::kOk;
        res.exp = std::move(exp);
    } catch (const std::exception &e) {
        res.status = JobStatus::kFailed;
        res.error = e.what();
    }
    return res;
}

} // namespace

ExperimentDriver::ExperimentDriver(DriverOptions opts)
    : opts_(std::move(opts))
{
    if (!opts_.traceDir.empty() && !opts_.recordDir.empty())
        throw std::invalid_argument(
            "trace-dir (replay) and record-dir (capture) are mutually "
            "exclusive: replayed jobs have nothing new to record");
    if (!opts_.cacheDir.empty())
        cache_ = std::make_unique<ResultCache>(opts_.cacheDir);
    if (!opts_.recordDir.empty())
        std::filesystem::create_directories(opts_.recordDir);
}

ExperimentDriver::~ExperimentDriver() = default;

int
ExperimentDriver::workerCount() const
{
    if (opts_.jobs > 0)
        return opts_.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<JobResult>
ExperimentDriver::runBatch(const std::vector<JobSpec> &specs)
{
    stats_ = BatchStats{};
    stats_.total = specs.size();

    // Fingerprint dedup: a batch that lists the same job twice executes
    // it once and both rows share the result. twin[i] is the first row
    // with row i's fingerprint; the unique rows run in first-occurrence
    // order. A spec the fingerprint encoder rejects is never deduped,
    // so its failure surfaces from validation in its own row.
    std::vector<std::size_t> twin(specs.size());
    std::vector<std::size_t> unique;
    {
        std::unordered_map<std::string, std::size_t> first_row;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            twin[i] = i;
            try {
                twin[i] = first_row
                              .emplace(fingerprintJob(specs[i]).canonical,
                                       i)
                              .first->second;
            } catch (const std::exception &) {
                // Unfingerprintable: the row stays its own twin.
            }
            if (twin[i] == i)
                unique.push_back(i);
        }
    }

    // Workers claim unique rows from a shared index; each writes only
    // the result slots it claimed, and join() publishes them.
    BatchContext ctx{opts_, cache_.get(), {}, {}, {}};
    std::vector<JobResult> results(specs.size());
    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        for (std::size_t k = next.fetch_add(1); k < unique.size();
             k = next.fetch_add(1))
            results[unique[k]] = runOneJob(specs[unique[k]], ctx);
    };

    const int nworkers = workerCount();
    if (nworkers <= 1 || specs.size() <= 1) {
        work();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(nworkers));
        for (int w = 0; w < nworkers; ++w)
            threads.emplace_back(work);
        for (std::thread &t : threads)
            t.join();
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (twin[i] == i)
            continue;
        ++stats_.deduped;
        // A deduped row replays its twin's result: report it as a
        // (memoized) cache hit, never a second execution, and don't
        // double-count the twin's trace activity.
        results[i] = results[twin[i]];
        if (results[i].status == JobStatus::kOk)
            results[i].status = JobStatus::kCached;
        results[i].tracedReplay = false;
        results[i].traceRecorded = false;
    }

    for (const JobResult &r : results) {
        if (r.tracedReplay)
            ++stats_.traceReplays;
        if (r.traceRecorded)
            ++stats_.tracesRecorded;
        switch (r.status) {
        case JobStatus::kOk:
            ++stats_.executed;
            break;
        case JobStatus::kCached:
            ++stats_.cached;
            break;
        case JobStatus::kFailed:
            ++stats_.failed;
            break;
        }
    }
    stats_.baselinesComputed = ctx.baselines.computeCount();
    return results;
}

std::vector<JobResult>
runExperimentBatch(const std::vector<JobSpec> &specs,
                   const DriverOptions &options, BatchStats *stats)
{
    ExperimentDriver driver(options);
    std::vector<JobResult> results = driver.runBatch(specs);
    if (stats)
        *stats = driver.stats();
    return results;
}

} // namespace sst
