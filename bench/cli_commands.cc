#include "cli_commands.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "core/classify.hh"
#include "driver/fingerprint.hh"
#include "driver/job.hh"
#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "trace/trace_format.hh"
#include "sched/policy.hh"
#include "spec/registries.hh"
#include "spec/spec.hh"
#include "telemetry/span.hh"
#include "trace/trace_run.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "wdl/wdl.hh"
#include "workload/profile.hh"

namespace sst {
namespace cli {
namespace {

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot write " + path);
    out << content;
    std::printf("wrote %s\n", path.c_str());
}

/**
 * The per-benchmark result table every batch command prints: speedup,
 * estimation error and top stack components per job, with the optional
 * cores/LLC columns shown only when that axis is actually swept.
 */
void
printBatchTable(const std::vector<JobSpec> &jobs,
                const std::vector<JobResult> &results, bool show_cores,
                bool show_llc)
{
    TextTable table;
    std::vector<std::string> header = {"benchmark", "threads"};
    if (show_cores)
        header.push_back("cores");
    if (show_llc)
        header.push_back("llc");
    for (const char *c : {"paper", "actual", "estimated", "err", "1st",
                          "2nd", "3rd", "base", "pos", "netneg", "mem",
                          "spin", "yield"})
        header.push_back(c);
    table.setHeader(header);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec &s = jobs[i];
        const JobResult &r = results[i];
        std::vector<std::string> row = {s.label(),
                                        std::to_string(s.nthreads())};
        if (show_cores)
            row.push_back(std::to_string(s.ncoresEffective()));
        if (show_llc)
            row.push_back(fmtBytes(s.params.cache.llcBytes));
        if (!r.ok()) {
            row.push_back("FAILED: " + r.error);
            while (row.size() < header.size())
                row.push_back("-");
            table.addRow(row);
            continue;
        }
        const SpeedupExperiment &e = r.exp;
        const auto ranked = rankedDelimiters(e.stack);
        auto comp = [&](std::size_t k) {
            return k < ranked.size()
                       ? std::string(shortComponentName(ranked[k]))
                       : std::string("-");
        };
        // The paper reports 16-thread speedups per benchmark; mixes,
        // pipelines and user-authored WDL scenarios have no paper row.
        row.push_back(s.workload.isHomogeneous() && !s.workload.wdlProgram
                          ? fmtDouble(s.workload.groups[0]
                                          .profile.paperSpeedup16,
                                      2)
                          : std::string("-"));
        row.push_back(fmtDouble(e.actualSpeedup, 2));
        row.push_back(fmtDouble(e.estimatedSpeedup, 2));
        row.push_back(fmtPercent(e.error, 1));
        row.push_back(comp(0));
        row.push_back(comp(1));
        row.push_back(comp(2));
        row.push_back(fmtDouble(e.stack.baseSpeedup, 2));
        row.push_back(fmtDouble(e.stack.posLlc, 2));
        row.push_back(fmtDouble(e.stack.netNegLlc(), 2));
        row.push_back(fmtDouble(e.stack.negMem, 2));
        row.push_back(fmtDouble(e.stack.spin, 2));
        row.push_back(fmtDouble(e.stack.yield, 2));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());

    RunningStat err;
    for (const JobResult &r : results)
        if (r.ok())
            err.add(std::fabs(r.exp.error));
    if (err.count() > 0)
        std::printf("average absolute error: %.1f%%\n",
                    err.mean() * 100.0);
}

void
printBatchStats(const ExperimentDriver &driver)
{
    const BatchStats &stats = driver.stats();
    std::printf(
        "batch: %zu jobs, %zu executed, %zu cached, %zu deduped, "
        "%zu failed, %zu baselines, %zu trace replays, "
        "%zu traces recorded, %d workers\n",
        stats.total, stats.executed, stats.cached, stats.deduped,
        stats.failed, stats.baselinesComputed, stats.traceReplays,
        stats.tracesRecorded, driver.workerCount());
}

/** Run a grid, print, export — the tail shared by sweep and run.
 *  A non-empty @p trace_out enables telemetry for the batch and writes
 *  a Chrome trace_event JSON of every job/driver span afterwards;
 *  results are bit-identical either way (telemetry is write-only). */
int
executeBatch(const SweepGrid &grid, const DriverOptions &opts, bool quiet,
             const std::string &csv_path, const std::string &json_path,
             const std::string &trace_out)
{
    const bool tracing = !trace_out.empty();
    if (tracing)
        telemetry::SpanTracer::global().setEnabled(true);

    const std::vector<JobSpec> jobs = expandGrid(grid);
    ExperimentDriver driver(opts);
    const std::vector<JobResult> results = driver.runBatch(jobs);

    if (tracing) {
        telemetry::SpanTracer &tracer = telemetry::SpanTracer::global();
        tracer.setEnabled(false);
        if (tracer.dropped() > 0)
            warn("cli", std::to_string(tracer.dropped()) +
                            " spans dropped (ring buffer full)");
        writeFile(trace_out, tracer.chromeTraceJson());
    }

    if (!quiet)
        printBatchTable(jobs, results, !grid.cores.empty(),
                        !grid.llcBytes.empty());
    printBatchStats(driver);

    if (!csv_path.empty())
        writeFile(csv_path, sweepCsv(jobs, results));
    if (!json_path.empty())
        writeFile(json_path, sweepJson(jobs, results));

    return driver.stats().failed == 0 ? 0 : 2;
}

// ---- sweep ------------------------------------------------------------------

void
sweepUsage()
{
    std::printf(
        "usage: sst sweep [options]\n"
        "  --profiles all|A,B,...  benchmark labels (default: all)\n"
        "  --mix LIST              heterogeneous workloads: registered\n"
        "                          mixes/pipelines (`sst list mixes`) or\n"
        "                          inline a:8+b:8 / s1:1>s2:2 descriptors\n"
        "                          (replaces --profiles/--threads)\n"
        "  --workload-file FILE    compile a .wdl workload description\n"
        "                          (repeatable; see `sst list "
        "workloads`;\n"
        "                          replaces --profiles/--threads)\n"
        "  --threads LIST          thread counts, e.g. 2,4,8,16 "
        "(default: 16)\n"
        "  --cores LIST            core counts (default: = threads;\n"
        "                          fewer cores oversubscribes)\n"
        "  --llc LIST              LLC sizes, e.g. 1M,2M,4M,8M "
        "(default: params default)\n"
        "  --jobs N                worker threads (default: hardware)\n"
        "  --seed-offset K         replication RNG stream (default: 0)\n"
        "  --cache-dir DIR         result cache (default: .sst-cache)\n"
        "  --no-cache              disable the result cache\n"
        "  --refresh               re-run and overwrite cached results\n"
        "  --trace-dir DIR         replay recorded op traces from DIR\n"
        "                          (see `sst trace record --trace-dir`)\n"
        "  --record-dir DIR        capture .sstt traces of live jobs\n"
        "                          into DIR as the batch runs (cache\n"
        "                          hits skip capture)\n"
        "  --sched POLICY          scheduler policy (default:\n"
        "                          affinity-fifo)\n"
        "  --sched-seed K          RNG stream for --sched random\n"
        "  --csv FILE              write results as CSV\n"
        "  --json FILE             write results as JSON\n"
        "  --trace-out FILE        write a Chrome trace_event JSON of\n"
        "                          the batch (load in Perfetto /\n"
        "                          chrome://tracing)\n"
        "  --quiet                 suppress the result table\n"
        "scheduler policies: %s\n",
        allSchedPolicyLabelsJoined().c_str());
}

// ---- trace ------------------------------------------------------------------

void
traceUsage()
{
    std::printf(
        "usage: sst trace <record|replay|info> [options]\n"
        "  record --profile LABEL [--threads N] (--out FILE | "
        "--trace-dir DIR)\n"
        "         [--seed-offset K] [--sched POLICY] [--sched-seed K]\n"
        "         [--quiet]\n"
        "      run the live experiment, write the op trace\n"
        "  replay --in FILE [--sched POLICY] [--quiet]\n"
        "      re-simulate from the trace (no workload generation);\n"
        "      --sched must match the recorded policy (it documents\n"
        "      the expectation, replay always uses the recording's)\n"
        "  info --in FILE\n"
        "      print header and per-stream statistics\n"
        "scheduler policies: %s\n",
        allSchedPolicyLabelsJoined().c_str());
}

/**
 * Full-precision experiment dump: every value %.17g/%"PRIu64" so record
 * and replay output can be diffed bit for bit.
 */
void
printExperiment(const SpeedupExperiment &e)
{
    std::printf("benchmark           %s\n", e.label.c_str());
    std::printf("threads             %d\n", e.nthreads);
    std::printf("ts                  %" PRIu64 "\n", e.ts);
    std::printf("tp                  %" PRIu64 "\n", e.tp);
    std::printf("actual_speedup      %.17g\n", e.actualSpeedup);
    std::printf("estimated_speedup   %.17g\n", e.estimatedSpeedup);
    std::printf("error               %.17g\n", e.error);
    std::printf("stack.base          %.17g\n", e.stack.baseSpeedup);
    std::printf("stack.pos_llc       %.17g\n", e.stack.posLlc);
    std::printf("stack.neg_llc       %.17g\n", e.stack.negLlc);
    std::printf("stack.neg_mem       %.17g\n", e.stack.negMem);
    std::printf("stack.spin          %.17g\n", e.stack.spin);
    std::printf("stack.yield         %.17g\n", e.stack.yield);
    std::printf("stack.imbalance     %.17g\n", e.stack.imbalance);
    std::printf("stack.coherency     %.17g\n", e.stack.coherency);
    std::printf("par_overhead        %.17g\n", e.parOverheadMeasured);
}

int
traceRecord(int argc, char **argv, int first)
{
    std::string label, outPath, traceDir;
    int nthreads = 16;
    std::uint64_t seedOffset = 0;
    SimParams params;
    bool quiet = false;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile") {
            label = argValue(argc, argv, i);
        } else if (arg == "--threads") {
            // The recording runs live on nthreads cores, so the
            // simulator's core cap bounds this (the format itself
            // allows up to trace::kMaxThreads streams).
            nthreads =
                parseInt("--threads", argValue(argc, argv, i), 1,
                         static_cast<long>(kMaxSimCores));
        } else if (arg == "--out") {
            outPath = argValue(argc, argv, i);
        } else if (arg == "--trace-dir") {
            traceDir = argValue(argc, argv, i);
        } else if (arg == "--seed-offset") {
            seedOffset =
                parseU64("--seed-offset", argValue(argc, argv, i));
        } else if (arg == "--sched") {
            params.schedPolicy =
                parseSchedPolicy(argValue(argc, argv, i));
        } else if (arg == "--sched-seed") {
            params.schedSeed =
                parseU64("--sched-seed", argValue(argc, argv, i));
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            traceUsage();
            fatal("unknown record argument '" + arg + "'");
        }
    }
    if (label.empty())
        fatal("record needs --profile (one of: " +
              allProfileLabelsJoined() + ")");
    if (params.schedSeed != 0 &&
        params.schedPolicy != SchedPolicy::kRandom) {
        fatal("--sched-seed only affects --sched random; the "
              "seed would be silently ignored");
    }
    if (outPath.empty() == traceDir.empty())
        fatal("record needs exactly one of --out or --trace-dir");

    BenchmarkProfile profile = profileByLabel(label);
    profile.seed = deriveJobSeed(profile.seed, seedOffset);

    if (!traceDir.empty()) {
        std::filesystem::create_directories(traceDir);
        outPath = tracePathFor(traceDir, profile, nthreads, seedOffset,
                               params.schedPolicy, params.schedSeed);
    }

    std::uint64_t ops = 0;
    const SpeedupExperiment exp =
        recordSpeedupTrace(params, profile, nthreads, outPath, &ops);
    printExperiment(exp);
    if (!quiet) {
        const auto bytes = std::filesystem::file_size(outPath);
        std::printf("wrote %s: %" PRIu64 " ops in %ju bytes "
                    "(%.2f bytes/op)\n",
                    outPath.c_str(), ops,
                    static_cast<std::uintmax_t>(bytes),
                    static_cast<double>(bytes) /
                        static_cast<double>(ops));
    }
    return 0;
}

int
traceReplay(int argc, char **argv, int first)
{
    std::string inPath;
    bool quiet = false;
    bool schedGiven = false;
    SchedPolicy sched = SchedPolicy::kAffinityFifo;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--in") {
            inPath = argValue(argc, argv, i);
        } else if (arg == "--sched") {
            sched = parseSchedPolicy(argValue(argc, argv, i));
            schedGiven = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            traceUsage();
            fatal("unknown replay argument '" + arg + "'");
        }
    }
    if (inPath.empty())
        fatal("replay needs --in FILE");

    const TraceReader reader(inPath);
    if (schedGiven)
        reader.requireSchedPolicy(sched); // TraceError -> fatal in main

    const SpeedupExperiment exp =
        replaySpeedupTrace(SimParams{}, reader);
    printExperiment(exp);
    if (!quiet)
        std::printf("replayed %s\n", inPath.c_str());
    return 0;
}

int
traceInfo(int argc, char **argv, int first)
{
    std::string inPath;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--in") {
            inPath = argValue(argc, argv, i);
        } else {
            traceUsage();
            fatal("unknown info argument '" + arg + "'");
        }
    }
    if (inPath.empty())
        fatal("info needs --in FILE");

    const TraceReader reader(inPath);
    const trace::TraceMeta &meta = reader.meta();
    std::printf("file                %s\n", inPath.c_str());
    std::printf("format_version      %u\n", meta.version);
    std::printf("benchmark           %s\n", meta.label.c_str());
    std::printf("threads             %d\n", meta.nthreads);
    std::printf("profile_hash        %016" PRIx64 "\n", meta.profileHash);
    std::printf("sched_policy        %s\n",
                schedPolicyLabel(meta.schedPolicy));
    std::printf("sched_seed          %" PRIu64 "\n", meta.schedSeed);
    std::printf("workload_role       %s\n", workloadRoleName(meta.role));
    for (std::size_t g = 0; g < meta.groups.size(); ++g) {
        std::printf("group %-2zu            %s: %d threads, profile "
                    "%016" PRIx64 "\n",
                    g, meta.groups[g].label.c_str(),
                    meta.groups[g].nthreads, meta.groups[g].profileHash);
    }
    std::uint64_t total_ops = 0, total_bytes = 0;
    for (int s = 0; s < reader.nstreams(); ++s) {
        const bool baseline = s >= meta.nthreads;
        std::printf("stream %-3d %s  %12" PRIu64 " ops  %12" PRIu64
                    " bytes\n",
                    s, baseline ? "(baseline)" : "          ",
                    reader.opCount(s), reader.streamBytes(s));
        total_ops += reader.opCount(s);
        total_bytes += reader.streamBytes(s);
    }
    std::printf("total               %" PRIu64 " ops, %" PRIu64
                " encoded bytes (%.2f bytes/op)\n",
                total_ops, total_bytes,
                static_cast<double>(total_bytes) /
                    static_cast<double>(total_ops));
    return 0;
}

// ---- run --------------------------------------------------------------------

void
runUsage()
{
    std::printf(
        "usage: sst run --spec FILE [options]\n"
        "execute a declarative experiment spec (see examples/specs/)\n"
        "  --spec FILE             the spec file (required)\n"
        "  --set KEY=VALUE         override one spec key (repeatable;\n"
        "                          same keys as the file format)\n"
        "  --sched POLICY          shorthand for --set sched=POLICY\n"
        "  --sched-seed K          shorthand for --set sched-seed=K\n"
        "  --print-spec            print the canonical form and exit\n"
        "  --jobs N                worker threads (default: hardware)\n"
        "  --cache-dir DIR         result cache (default: .sst-cache)\n"
        "  --no-cache              disable the result cache\n"
        "  --refresh               re-run and overwrite cached results\n"
        "  --csv FILE              write CSV (overrides output.csv)\n"
        "  --json FILE             write JSON (overrides output.json)\n"
        "  --trace-out FILE        write a Chrome trace_event JSON of\n"
        "                          the batch (load in Perfetto /\n"
        "                          chrome://tracing)\n"
        "  --quiet                 suppress the result table\n"
        "spec keys: %s\n",
        specKeyNamesJoined().c_str());
}

// ---- list -------------------------------------------------------------------

int
listProfiles()
{
    TextTable table;
    table.setHeader({"label", "suite", "paper speedup @16", "class"});
    for (const std::string &name : profileRegistry().names()) {
        const BenchmarkProfile &p = **profileRegistry().find(name);
        table.addRow({name, p.suite, fmtDouble(p.paperSpeedup16, 2),
                      p.paperClass});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
listScheds()
{
    for (const std::string &name : schedulerRegistry().names())
        std::printf("%s\n", name.c_str());
    return 0;
}

int
listFrontends()
{
    TextTable table;
    table.setHeader({"frontend", "description"});
    for (const std::string &name : opSourceRegistry().names()) {
        const OpSourceFrontend &f = *opSourceRegistry().find(name);
        table.addRow({name, f.description});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
listMixes()
{
    TextTable table;
    table.setHeader({"mix", "role", "threads", "groups"});
    for (const std::string &name : mixRegistry().names()) {
        const WorkloadSpec &w = *mixRegistry().find(name);
        table.addRow({name, workloadRoleName(w.role),
                      std::to_string(w.nthreads()), w.descriptor()});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

/** Directory `sst list workloads` scans for example .wdl files. */
constexpr const char *kExampleWorkloadDir = "examples/workloads";

int
listWorkloads()
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    std::error_code ec;
    for (fs::directory_iterator it(kExampleWorkloadDir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".wdl")
            files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::printf("no .wdl files under %s/\n\n", kExampleWorkloadDir);
    } else {
        TextTable table;
        table.setHeader({"file", "workload", "role", "threads",
                         "groups"});
        for (const fs::path &path : files) {
            std::string workload = "-", role = "-", threads = "-",
                        groups;
            try {
                const wdl::Program prog = wdl::loadProgram(path.string());
                int total = 0;
                for (const wdl::GroupIR &g : prog.groups) {
                    total += g.nthreads;
                    if (!groups.empty())
                        groups += '+';
                    groups += g.name + ":" + std::to_string(g.nthreads);
                }
                if (!prog.name.empty())
                    workload = prog.name;
                role = workloadRoleName(prog.role);
                threads = std::to_string(total);
            } catch (const std::exception &e) {
                groups = std::string("parse error: ") + e.what();
            }
            table.addRow({path.filename().string(), workload, role,
                          threads, groups});
        }
        std::printf("%s\n", table.render().c_str());
    }
    // The frontends table completes the picture: which engine runs the
    // files (`workload-file =`) next to the other workload sources.
    return listFrontends();
}

/** The list subcommands, table-driven like the registries themselves:
 *  usage text and the unknown-registry error enumerate this table. */
struct ListCommand
{
    const char *name;
    const char *description;
    int (*run)();
};

constexpr ListCommand kListCommands[] = {
    {"profiles", "the Figure 6 benchmark suite", listProfiles},
    {"scheds", "OS scheduler policies (--sched)", listScheds},
    {"frontends", "workload frontends (frontend =)", listFrontends},
    {"mixes", "named heterogeneous workloads (workload =)", listMixes},
    {"workloads", "example .wdl files + frontends (workload-file =)",
     listWorkloads},
};

std::string
listCommandNamesJoined()
{
    std::string out;
    for (const ListCommand &c : kListCommands) {
        if (!out.empty())
            out += ", ";
        out += c.name;
    }
    return out;
}

int
listUsage()
{
    TextTable table;
    table.setHeader({"registry", "contents"});
    for (const ListCommand &c : kListCommands)
        table.addRow({c.name, c.description});
    std::printf("usage: sst list <%s>\n%s\n",
                listCommandNamesJoined().c_str(),
                table.render().c_str());
    return 0;
}

} // namespace

int
sweepMain(int argc, char **argv, int first)
{
    SweepGrid grid;
    grid.profiles = allProfileLabels();
    bool profiles_given = false;
    bool threads_given = false;

    DriverOptions opts;
    opts.jobs = 0; // hardware concurrency
    opts.cacheDir = ".sst-cache";
    std::string csvPath, jsonPath, traceOutPath;
    bool quiet = false;

    try {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--profiles") {
                const std::string v = argValue(argc, argv, i);
                profiles_given = true;
                if (v != "all")
                    grid.profiles = parseLabelList(v);
            } else if (arg == "--mix") {
                grid.workloads = parseLabelList(argValue(argc, argv, i));
            } else if (arg == "--workload-file") {
                grid.workloadFiles.push_back(argValue(argc, argv, i));
            } else if (arg == "--threads") {
                grid.threads = parseIntList(argValue(argc, argv, i));
                threads_given = true;
            } else if (arg == "--cores") {
                grid.cores = parseIntList(argValue(argc, argv, i));
            } else if (arg == "--llc") {
                grid.llcBytes = parseSizeList(argValue(argc, argv, i));
            } else if (arg == "--jobs") {
                opts.jobs = parseInt("--jobs", argValue(argc, argv, i),
                                     0, 1 << 20);
            } else if (arg == "--seed-offset") {
                grid.seedOffset =
                    parseU64("--seed-offset", argValue(argc, argv, i));
            } else if (arg == "--cache-dir") {
                opts.cacheDir = argValue(argc, argv, i);
            } else if (arg == "--no-cache") {
                opts.cacheDir.clear();
            } else if (arg == "--refresh") {
                opts.refresh = true;
            } else if (arg == "--trace-dir") {
                opts.traceDir = argValue(argc, argv, i);
            } else if (arg == "--record-dir") {
                opts.recordDir = argValue(argc, argv, i);
            } else if (arg == "--sched") {
                grid.baseParams.schedPolicy =
                    parseSchedPolicy(argValue(argc, argv, i));
            } else if (arg == "--sched-seed") {
                grid.baseParams.schedSeed =
                    parseU64("--sched-seed", argValue(argc, argv, i));
            } else if (arg == "--csv") {
                csvPath = argValue(argc, argv, i);
            } else if (arg == "--json") {
                jsonPath = argValue(argc, argv, i);
            } else if (arg == "--trace-out") {
                traceOutPath = argValue(argc, argv, i);
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                sweepUsage();
                return 0;
            } else {
                sweepUsage();
                fatal("unknown argument '" + arg + "'");
            }
        }

        if (grid.baseParams.schedSeed != 0 &&
            grid.baseParams.schedPolicy != SchedPolicy::kRandom) {
            fatal("--sched-seed only affects --sched random; the "
                  "seed would be silently ignored");
        }
        // --mix replaces the profile and thread axes; an explicit
        // --profiles next to it is a contradiction expandGrid rejects,
        // and an explicit --threads would be silently ignored — fatal.
        if ((!grid.workloads.empty() || !grid.workloadFiles.empty()) &&
            threads_given) {
            fatal("--threads does not apply to --mix/--workload-file "
                  "(each workload carries its own thread counts)");
        }
        if ((!grid.workloads.empty() || !grid.workloadFiles.empty()) &&
            !profiles_given)
            grid.profiles.clear();

        return executeBatch(grid, opts, quiet, csvPath, jsonPath,
                            traceOutPath);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
traceMain(int argc, char **argv, int first)
{
    if (first >= argc) {
        traceUsage();
        return 1;
    }
    const std::string cmd = argv[first];
    try {
        if (cmd == "record")
            return traceRecord(argc, argv, first + 1);
        if (cmd == "replay")
            return traceReplay(argc, argv, first + 1);
        if (cmd == "info")
            return traceInfo(argc, argv, first + 1);
        if (cmd == "--help" || cmd == "-h") {
            traceUsage();
            return 0;
        }
        traceUsage();
        fatal("unknown subcommand '" + cmd + "'");
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
runMain(int argc, char **argv, int first)
{
    std::string specPath;
    // (key, value) overrides in command-line order; applied through the
    // same applySpecValue path the file parser uses.
    std::vector<std::pair<std::string, std::string>> overrides;
    bool printSpec = false;
    bool quiet = false;
    std::string csvPath, jsonPath, traceOutPath;

    DriverOptions opts;
    opts.jobs = 0; // hardware concurrency
    opts.cacheDir = ".sst-cache";

    try {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--spec") {
                specPath = argValue(argc, argv, i);
            } else if (arg == "--set") {
                const std::string kv = argValue(argc, argv, i);
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    fatal("--set needs KEY=VALUE, got '" + kv + "'");
                overrides.emplace_back(kv.substr(0, eq),
                                       kv.substr(eq + 1));
            } else if (arg == "--sched") {
                overrides.emplace_back("sched", argValue(argc, argv, i));
            } else if (arg == "--sched-seed") {
                overrides.emplace_back("sched-seed",
                                       argValue(argc, argv, i));
            } else if (arg == "--print-spec") {
                printSpec = true;
            } else if (arg == "--jobs") {
                opts.jobs = parseInt("--jobs", argValue(argc, argv, i),
                                     0, 1 << 20);
            } else if (arg == "--cache-dir") {
                opts.cacheDir = argValue(argc, argv, i);
            } else if (arg == "--no-cache") {
                opts.cacheDir.clear();
            } else if (arg == "--refresh") {
                opts.refresh = true;
            } else if (arg == "--csv") {
                csvPath = argValue(argc, argv, i);
            } else if (arg == "--json") {
                jsonPath = argValue(argc, argv, i);
            } else if (arg == "--trace-out") {
                traceOutPath = argValue(argc, argv, i);
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                runUsage();
                return 0;
            } else {
                runUsage();
                fatal("unknown argument '" + arg + "'");
            }
        }
        if (specPath.empty()) {
            runUsage();
            fatal("run needs --spec FILE");
        }

        ExperimentSpec spec = parseSpecFile(specPath);
        for (const auto &kv : overrides)
            applySpecValue(spec, kv.first, kv.second);

        if (printSpec) {
            std::fputs(serializeSpec(spec).c_str(), stdout);
            return 0;
        }

        const SweepGrid grid = specGrid(spec); // validates
        applySpecToDriverOptions(spec, opts);

        return executeBatch(grid, opts, quiet || spec.quiet,
                            csvPath.empty() ? spec.csvPath : csvPath,
                            jsonPath.empty() ? spec.jsonPath : jsonPath,
                            traceOutPath);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
listMain(int argc, char **argv, int first)
{
    if (first >= argc) {
        listUsage();
        return 1; // missing registry argument is an error, like before
    }
    const std::string what = argv[first];
    for (const ListCommand &c : kListCommands)
        if (what == c.name)
            return c.run();
    if (what == "--help" || what == "-h")
        return listUsage();
    listUsage();
    fatal("unknown registry '" + what + "'; valid registries: " +
          listCommandNamesJoined());
}

int
versionMain()
{
    std::printf("sst format versions:\n"
                "  fingerprint     %d (homogeneous schema %d)\n"
                "  trace           %u (oldest readable %u)\n"
                "  result cache    %d\n"
                "  wdl language    %d\n",
                kFingerprintVersion, kHomogeneousSchemaVersion,
                trace::kTraceVersion, trace::kMinTraceVersion,
                kResultCacheVersion, wdl::kWdlVersion);
    return 0;
}

} // namespace cli
} // namespace sst
