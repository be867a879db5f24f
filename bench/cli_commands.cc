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

/** Run a validated spec's grid, print, export.
 *  A non-empty @p trace_out enables telemetry for the batch and writes
 *  a Chrome trace_event JSON of every job/driver span afterwards;
 *  results are bit-identical either way (telemetry is write-only). */
int
executeBatch(const ExperimentSpec &spec, const DriverOptions &opts,
             const std::string &trace_out)
{
    const bool tracing = !trace_out.empty();
    if (tracing)
        telemetry::SpanTracer::global().setEnabled(true);

    const std::vector<JobSpec> jobs = expandGrid(spec.grid);
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

    if (!spec.quiet)
        printBatchTable(jobs, results, !spec.grid.cores.empty(),
                        !spec.grid.llcBytes.empty());
    const BatchStats &stats = driver.stats();
    std::printf(
        "batch: %zu jobs, %zu executed, %zu cached, %zu deduped, "
        "%zu failed, %zu baselines, %zu trace replays, "
        "%zu traces recorded, %d workers\n",
        stats.total, stats.executed, stats.cached, stats.deduped,
        stats.failed, stats.baselinesComputed, stats.traceReplays,
        stats.tracesRecorded, driver.workerCount());

    if (!spec.csvPath.empty())
        writeFile(spec.csvPath, sweepCsv(jobs, results));
    if (!spec.jsonPath.empty())
        writeFile(spec.jsonPath, sweepJson(jobs, results));

    return stats.failed == 0 ? 0 : 2;
}

// ---- run / sweep -----------------------------------------------------------

/** Flags that set one spec key: `--threads 2,4` is `--set threads=2,4`. */
struct SpecFlag
{
    const char *flag;
    const char *key;
    const char *arg;
    const char *help;
};

constexpr SpecFlag kSpecFlags[] = {
    {"--profiles", "profiles", "all|A,B,...", "benchmark labels (default: all)"},
    {"--mix", "workload", "LIST", "mixes/pipelines (`sst list mixes`), a:8+b:8"},
    {"--workload-file", "workload-file", "FILE", "a .wdl file (repeatable)"},
    {"--threads", "threads", "LIST", "thread counts (default: 16)"},
    {"--cores", "cores", "LIST", "core counts (default: = threads)"},
    {"--llc", "llc", "LIST", "LLC sizes, e.g. 1M,2M,4M,8M"},
    {"--seed-offset", "seed-offset", "K", "replication RNG stream"},
    {"--sched", "sched", "POLICY", "scheduler policy"},
    {"--sched-seed", "sched-seed", "K", "RNG stream for --sched random"},
    {"--trace-dir", "trace-dir", "DIR", "replay recorded op traces from DIR"},
    {"--csv", "output.csv", "FILE", "write results as CSV"},
    {"--json", "output.json", "FILE", "write results as JSON"},
};

void
batchUsage(const char *cmd)
{
    std::printf("usage: sst %s [--spec FILE] [options]\n"
                "run an experiment grid given by a spec file (see\n"
                "examples/specs/), by flags, or both: flags apply after\n"
                "the file, in command-line order\n"
                "  --spec FILE             start from this spec file\n"
                "  --set KEY=VALUE         set one spec key (repeatable)\n",
                cmd);
    for (const SpecFlag &f : kSpecFlags) {
        const std::string lhs = std::string(f.flag) + " " + f.arg;
        std::printf("  %-23s %s\n", lhs.c_str(), f.help);
    }
    std::printf(
        "  --quiet                 suppress the result table\n"
        "  --print-spec            print the canonical spec and exit\n"
        "  --jobs N                worker threads (default: hardware)\n"
        "  --cache-dir DIR         result cache (default: .sst-cache)\n"
        "  --no-cache              disable the result cache\n"
        "  --refresh               re-run and overwrite cached results\n"
        "  --record-dir DIR        capture .sstt traces of fresh jobs\n"
        "  --trace-out FILE        write a Chrome trace_event JSON\n"
        "spec keys: %s\n"
        "scheduler policies: %s\n",
        specKeyNamesJoined().c_str(),
        allSchedPolicyLabelsJoined().c_str());
}

// ---- trace ------------------------------------------------------------------

void
traceUsage()
{
    std::printf(
        "usage: sst trace <record|replay|info> [options]\n"
        "  record --profile LABEL [--threads N] --trace-dir DIR\n"
        "         [--seed-offset K] [--sched POLICY] [--sched-seed K]\n"
        "         [--quiet]\n"
        "      run the experiment as a one-job batch and write its op\n"
        "      trace under its canonical name in DIR, where\n"
        "      `sst sweep --trace-dir DIR` finds it\n"
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
    ExperimentSpec spec;
    DriverOptions opts; // one worker, no result cache
    bool have_profile = false;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile") {
            applySpecValue(spec, "profiles", argValue(argc, argv, i));
            have_profile = true;
        } else if (arg == "--trace-dir") {
            opts.recordDir = argValue(argc, argv, i);
        } else if (arg == "--threads" || arg == "--seed-offset" ||
                   arg == "--sched" || arg == "--sched-seed") {
            applySpecValue(spec, arg.substr(2), argValue(argc, argv, i));
        } else if (arg == "--quiet") {
            spec.quiet = true;
        } else {
            traceUsage();
            fatal("unknown record argument '" + arg + "'");
        }
    }
    if (!have_profile)
        fatal("record needs --profile (one of: " +
              allProfileLabelsJoined() + ")");
    if (opts.recordDir.empty())
        fatal("record needs --trace-dir DIR");
    validateSpec(spec);
    const std::vector<JobSpec> jobs = expandGrid(spec.grid);
    if (jobs.size() != 1)
        fatal("record takes one profile and one thread count");

    ExperimentDriver driver(opts);
    const JobResult result = driver.runBatch(jobs)[0];
    if (!result.ok())
        fatal(result.error);
    printExperiment(result.exp);
    if (!spec.quiet) {
        const JobSpec &job = jobs[0];
        const std::string path = tracePathFor(
            opts.recordDir, job.effectiveWorkload(), job.seedOffset,
            job.params.schedPolicy, job.params.schedSeed);
        const TraceReader reader(path);
        std::uint64_t ops = 0;
        for (int s = 0; s < reader.nstreams(); ++s)
            ops += reader.opCount(s);
        const auto bytes = std::filesystem::file_size(path);
        std::printf("wrote %s: %" PRIu64 " ops in %ju bytes "
                    "(%.2f bytes/op)\n",
                    path.c_str(), ops,
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
    std::printf("run one with `sst sweep --workload-file FILE` or the "
                "spec key `workload-file = FILE`\n");
    return 0;
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
    {"mixes", "named heterogeneous workloads (workload =)", listMixes},
    {"workloads", "example .wdl files (workload-file =)", listWorkloads},
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
batchMain(int argc, char **argv, int first)
{
    const char *cmd = argv[first - 1];
    std::string specPath;
    // (key, value) assignments in command-line order, applied after the
    // spec file through the same applySpecValue path the file uses.
    std::vector<std::pair<std::string, std::string>> sets;
    std::size_t workloadFileSet = 0; // 1 + index of the --workload-file set
    bool printSpec = false;
    std::string traceOutPath;

    DriverOptions opts;
    opts.jobs = 0; // hardware concurrency
    opts.cacheDir = ".sst-cache";

    try {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            const SpecFlag *flag = nullptr;
            for (const SpecFlag &f : kSpecFlags)
                if (arg == f.flag)
                    flag = &f;
            if (flag && arg == "--workload-file" && workloadFileSet) {
                // Repeats extend the first occurrence's path list.
                sets[workloadFileSet - 1].second +=
                    std::string(", ") + argValue(argc, argv, i);
            } else if (flag) {
                sets.emplace_back(flag->key, argValue(argc, argv, i));
                if (arg == "--workload-file")
                    workloadFileSet = sets.size();
            } else if (arg == "--spec") {
                specPath = argValue(argc, argv, i);
            } else if (arg == "--set") {
                const std::string kv = argValue(argc, argv, i);
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    fatal("--set needs KEY=VALUE, got '" + kv + "'");
                sets.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
            } else if (arg == "--quiet") {
                sets.emplace_back("output.quiet", "true");
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
            } else if (arg == "--record-dir") {
                opts.recordDir = argValue(argc, argv, i);
            } else if (arg == "--trace-out") {
                traceOutPath = argValue(argc, argv, i);
            } else if (arg == "--help" || arg == "-h") {
                batchUsage(cmd);
                return 0;
            } else {
                batchUsage(cmd);
                fatal("unknown argument '" + arg + "'");
            }
        }

        ExperimentSpec spec =
            specPath.empty() ? ExperimentSpec{} : parseSpecFile(specPath);
        for (const auto &kv : sets)
            applySpecValue(spec, kv.first, kv.second);

        if (printSpec) {
            std::fputs(serializeSpec(spec).c_str(), stdout);
            return 0;
        }
        validateSpec(spec);
        opts.traceDir = spec.traceDir;
        return executeBatch(spec, opts, traceOutPath);
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
