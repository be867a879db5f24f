#include "render.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "accounting/hw_cost.hh"
#include "core/experiment.hh"
#include "core/region_stacks.hh"
#include "driver/job.hh"
#include "util/format.hh"

namespace sst {

namespace {

/** Fill characters for the vertical bars, indexed like
 *  allStackComponents(). */
char
fillChar(StackComponent comp)
{
    switch (comp) {
      case StackComponent::kBase:
        return '#'; // base speedup (the paper's black component)
      case StackComponent::kPosLlc:
        return '+'; // positive LLC interference (dark gray)
      case StackComponent::kNegLlcNet:
        return '.'; // net negative LLC interference (white)
      case StackComponent::kNegMem:
        return 'm';
      case StackComponent::kSpin:
        return 's';
      case StackComponent::kYield:
        return 'y';
      case StackComponent::kImbalance:
        return 'i';
      case StackComponent::kCoherency:
        return 'c';
    }
    return '?';
}

/** printf into a std::string (report lines). */
[[gnu::format(printf, 1, 2)]] std::string
strprintf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/** Decimal text of a counter (table cells). */
std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
hitRate(std::uint64_t hits, std::uint64_t accesses)
{
    return fmtPercent(accesses ? static_cast<double>(hits) /
                                     static_cast<double>(accesses)
                               : 0.0);
}

/** Per-core cache and DRAM ground truth of one run. */
std::string
renderCoreTable(const char *title, const RunResult &run)
{
    const std::string head =
        std::string("-- cache/DRAM per core: ") + title + " --\n";
    if (run.cacheStats.empty()) // a mix's summed per-program baselines
        return head + "(sum of per-program runs; no per-core stats)\n\n";
    TextTable t;
    t.setHeader({"core", "l1acc", "l1hit%", "llcacc", "llchit%", "dram",
                 "rowhit", "rowconf", "coher", "wb"});
    for (std::size_t c = 0; c < run.cacheStats.size(); ++c) {
        const CacheStats &cs = run.cacheStats[c];
        const DramStats &ds = run.dramStats.at(c);
        t.addRow({u64(c), u64(cs.l1Accesses),
                  hitRate(cs.l1Hits, cs.l1Accesses), u64(cs.llcAccesses),
                  hitRate(cs.llcHits, cs.llcAccesses), u64(ds.accesses),
                  u64(ds.rowHits), u64(ds.rowConflicts),
                  u64(cs.coherencyMisses), u64(cs.writebacks)});
    }
    return head + t.render() + "\n";
}

/** Raw accounting counters of every thread, ground truth included. */
std::string
renderThreadTable(const RunResult &run)
{
    TextTable t;
    t.setHeader({"tid", "instr", "spinInstr", "missStall", "misses",
                 "negSampStall", "itHits", "busO", "bankO", "pageO",
                 "tian", "li", "yield", "gtSpin", "gtYield", "finish"});
    for (std::size_t i = 0; i < run.threads.size(); ++i) {
        const ThreadCounters &c = run.threads[i];
        t.addRow({u64(i), u64(c.instructions), u64(c.spinInstructions),
                  u64(c.llcLoadMissStall), u64(c.llcLoadMisses),
                  u64(c.negLlcSampledStall), u64(c.interThreadHitsSampled),
                  u64(c.busWaitOther), u64(c.bankWaitOther),
                  u64(c.pageConflictOther), u64(c.spinDetectedTian),
                  u64(c.spinDetectedLi), u64(c.yieldCycles), u64(c.gtSpin()),
                  u64(c.gtYield()), u64(c.finishTime)});
    }
    return "-- per-thread counters: parallel run --\n" + t.render() + "\n";
}

/**
 * The paper's accounting next to two ablations re-accounted from the
 * same counters (no re-simulation): coherency misses charged at a fixed
 * penalty (Sec. 4.5) and the Li et al. spin detector (Sec. 4.3).
 */
std::string
renderAblations(const SpeedupExperiment &exp, const ReportOptions &paper)
{
    ReportOptions coherency = paper, li = paper;
    coherency.accountCoherency = true;
    li.useLiDetector = true;
    const std::pair<const char *, ReportOptions> rows[] = {
        {"paper (Tian)", paper}, {"coherency accounted", coherency},
        {"Li detector", li}};

    TextTable t;
    t.setHeader({"accounting", "spin", "coherency", "estimated", "err"});
    for (const auto &[name, opts] : rows) {
        const SpeedupStack s = buildSpeedupStack(
            computeComponents(exp.parallel.threads, exp.tp, opts), exp.tp);
        t.addRow({name, fmtDouble(s.spin, 3), fmtDouble(s.coherency, 3),
                  fmtDouble(s.estimatedSpeedup, 3),
                  fmtPercent(speedupError(s.estimatedSpeedup,
                                          exp.actualSpeedup,
                                          exp.nthreads))});
    }
    const double tp = static_cast<double>(exp.tp);
    double gt = 0, tian = 0, li_spin = 0;
    unsigned long long misses = 0;
    for (const ThreadCounters &c : exp.parallel.threads) {
        gt += static_cast<double>(c.gtSpin()) / tp;
        tian += static_cast<double>(c.spinDetectedTian) / tp;
        li_spin += static_cast<double>(c.spinDetectedLi) / tp;
        misses += c.coherencyMisses;
    }
    return "-- ablations: same run, re-accounted --\n" + t.render() +
           strprintf("spin in speedup units: ground truth %.3f, Tian "
                     "%.3f, Li %.3f; coherency misses %llu\n\n",
                     gt, tian, li_spin, misses);
}

/** Per-region stacks: the first eight regions and the last. */
std::string
renderRegions(const SpeedupExperiment &exp, const ReportOptions &opts)
{
    const std::vector<RegionStack> regions =
        buildRegionStacks(exp.parallel, opts);
    std::string out = strprintf("-- region stacks: %zu barrier regions --\n",
                                regions.size());
    if (regions.empty())
        return out + "\n";
    TextTable t;
    t.setHeader({"region", "span (cycles)", "base", "yield", "spin",
                 "netneg", "mem", "estimated"});
    double weighted_yield = 0.0, span_sum = 0.0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const RegionStack &r = regions[i];
        const double span = static_cast<double>(r.end - r.begin);
        weighted_yield += r.stack.yield * span;
        span_sum += span;
        if (i < 8 || i + 1 == regions.size())
            t.addRow({u64(i), u64(r.end - r.begin),
                      fmtDouble(r.stack.baseSpeedup, 2),
                      fmtDouble(r.stack.yield, 2),
                      fmtDouble(r.stack.spin, 2),
                      fmtDouble(r.stack.netNegLlc(), 2),
                      fmtDouble(r.stack.negMem, 2),
                      fmtDouble(r.stack.estimatedSpeedup, 2)});
    }
    return out + t.render() +
           strprintf("time-weighted region yield = %.2f vs whole-run "
                     "yield = %.2f\n\n",
                     weighted_yield / span_sum, exp.stack.yield);
}

/** Accounting hardware bytes at the job's LLC geometry, and the cost
 *  side of the ATD sampling trade-off. */
std::string
renderHwCost(const SimParams &params, int ncores)
{
    HwCostConfig cfg;
    cfg.llcBytes = params.cache.llcBytes;
    cfg.llcWays = params.cache.llcWays;
    cfg.atdSamplingFactor = params.cache.atdSamplingFactor;
    cfg.nbanks = params.dram.nbanks;
    cfg.tian = params.accounting.tian;
    const HwCostBreakdown b = computeHwCost(cfg);

    TextTable t;
    t.setHeader({"structure", "bytes/core", "paper (2M LLC, 1/128 sets)"});
    t.addRow({"ATD (sampled)", u64(b.atdBytes()), "-"});
    t.addRow({"ORA", u64(b.oraBytes()), "-"});
    t.addRow({"event counters", u64(b.counterBytes()), "-"});
    t.addRow({"interference accounting subtotal",
              u64(b.interferenceBytesPerCore()), "952"});
    t.addRow({"spin detection load table", u64(b.spinTableBytes()), "217"});
    t.addRule();
    t.addRow({"total per core", u64(b.totalBytesPerCore()), "~1.1KB"});
    t.addRow({"total " + std::to_string(ncores) + "-core CMP",
              u64(b.totalBytesChip(ncores)), "~18KB @ 16"});

    const std::uint64_t sets = cfg.llcBytes / kLineBytes /
                               static_cast<std::uint64_t>(cfg.llcWays);
    TextTable sweep;
    sweep.setHeader({"sampling factor", "monitored sets", "ATD bytes/core",
                     "total bytes/core"});
    for (const int f : {1, 8, 16, 32, 64, 128, 256}) {
        if (sets % static_cast<std::uint64_t>(f) != 0)
            continue;
        HwCostConfig at = cfg;
        at.atdSamplingFactor = f;
        const HwCostBreakdown c = computeHwCost(at);
        sweep.addRow({std::to_string(f) +
                          (f == cfg.atdSamplingFactor ? " (this run)" : ""),
                      u64(sets / static_cast<std::uint64_t>(f)),
                      u64(c.atdBytes()), u64(c.totalBytesPerCore())});
    }
    return "-- accounting hardware cost (Sec. 4.7) --\n" + t.render() +
           "\nATD sampling factor sweep (cost side):\n" + sweep.render();
}

} // namespace

std::string
renderStackTable(const SpeedupStack &stack, double actual_speedup)
{
    TextTable table;
    table.setHeader({"component", "speedup units"});
    for (const StackComponent comp : allStackComponents()) {
        const double v = stack.componentValue(comp);
        if (comp != StackComponent::kBase && std::fabs(v) < 1e-9)
            continue;
        table.addRow({stackComponentName(comp), fmtDouble(v, 3)});
    }
    table.addRule();
    table.addRow({"estimated speedup",
                  fmtDouble(stack.estimatedSpeedup, 3)});
    if (actual_speedup >= 0.0)
        table.addRow({"actual speedup", fmtDouble(actual_speedup, 3)});
    table.addRow({"stack height (N)",
                  fmtDouble(static_cast<double>(stack.nthreads), 0)});
    return table.render();
}

std::string
renderStackBars(const std::vector<SpeedupStack> &stacks,
                const std::vector<std::string> &labels, int height)
{
    if (stacks.empty())
        return "";

    int max_n = 1;
    for (const auto &s : stacks)
        max_n = std::max(max_n, s.nthreads);

    const int bar_width = 7;
    const std::size_t nbars = stacks.size();

    // Build each bar as a bottom-up vector of fill characters.
    std::vector<std::vector<char>> bars(nbars);
    for (std::size_t b = 0; b < nbars; ++b) {
        const SpeedupStack &s = stacks[b];
        std::vector<char> col;
        for (const StackComponent comp : allStackComponents()) {
            const double v = std::max(0.0, s.componentValue(comp));
            const int rows = static_cast<int>(
                std::lround(v / max_n * height));
            for (int r = 0; r < rows; ++r)
                col.push_back(fillChar(comp));
        }
        // Rounding can over/undershoot the exact height of this stack.
        const int want = static_cast<int>(
            std::lround(static_cast<double>(s.nthreads) / max_n * height));
        while (static_cast<int>(col.size()) > want)
            col.pop_back();
        while (static_cast<int>(col.size()) < want)
            col.push_back(fillChar(StackComponent::kYield));
        bars[b] = std::move(col);
    }

    std::string out;
    for (int row = height - 1; row >= 0; --row) {
        // Y axis: speedup value at this row.
        const double yval = static_cast<double>(max_n) * (row + 1) / height;
        out += padLeft(fmtDouble(yval, 1), 5) + " |";
        for (std::size_t b = 0; b < nbars; ++b) {
            const char fill =
                row < static_cast<int>(bars[b].size()) ? bars[b][static_cast<std::size_t>(row)] : ' ';
            out += ' ';
            out += std::string(static_cast<std::size_t>(bar_width) - 1,
                               fill == ' ' ? ' ' : fill);
        }
        out += '\n';
    }
    out += "      +" +
           std::string(nbars * static_cast<std::size_t>(bar_width), '-') +
           '\n';
    out += "       ";
    for (std::size_t b = 0; b < nbars; ++b) {
        std::string lab = b < labels.size() ? labels[b] : "";
        if (lab.size() > static_cast<std::size_t>(bar_width - 1))
            lab.resize(static_cast<std::size_t>(bar_width - 1));
        out += padRight(lab, static_cast<std::size_t>(bar_width));
    }
    out += '\n';

    out += "legend: ";
    for (const StackComponent comp : allStackComponents()) {
        bool used = false;
        for (const auto &s : stacks) {
            if (s.componentValue(comp) > 1e-9)
                used = true;
        }
        if (!used && comp != StackComponent::kBase)
            continue;
        out += std::string(1, fillChar(comp)) + "=" +
               stackComponentName(comp) + "  ";
    }
    out += '\n';
    return out;
}

std::string
renderStacksCsv(const std::vector<SpeedupStack> &stacks,
                const std::vector<std::string> &labels)
{
    TextTable table;
    table.setHeader({"label", "nthreads", "base", "pos_llc", "net_neg_llc",
                     "neg_mem", "spin", "yield", "imbalance", "coherency",
                     "estimated"});
    for (std::size_t i = 0; i < stacks.size(); ++i) {
        const SpeedupStack &s = stacks[i];
        table.addRow({i < labels.size() ? labels[i] : "",
                      std::to_string(s.nthreads),
                      fmtDouble(s.baseSpeedup, 4), fmtDouble(s.posLlc, 4),
                      fmtDouble(s.netNegLlc(), 4), fmtDouble(s.negMem, 4),
                      fmtDouble(s.spin, 4), fmtDouble(s.yield, 4),
                      fmtDouble(s.imbalance, 4),
                      fmtDouble(s.coherency, 4),
                      fmtDouble(s.estimatedSpeedup, 4)});
    }
    return table.renderCsv();
}

std::string
renderExplainReport(const JobSpec &job, const SpeedupExperiment &exp)
{
    if (exp.parallel.threads.empty())
        throw std::invalid_argument(
            "no per-thread counters for '" + job.label() +
            "' (a cached result keeps only the summary): re-run it "
            "without the result cache");
    const ReportOptions paper = defaultReportOptions(job.params);
    const RunResult &st = exp.single, &mt = exp.parallel;
    std::string out = strprintf(
        "== %s @ %d threads on %d cores (seed offset %llu) ==\n",
        job.label().c_str(), exp.nthreads, mt.ncores,
        static_cast<unsigned long long>(job.seedOffset));
    out += strprintf("Ts=%llu Tp=%llu actual=%.2f estimated=%.2f "
                     "err=%.1f%%\n",
                     static_cast<unsigned long long>(exp.ts),
                     static_cast<unsigned long long>(exp.tp),
                     exp.actualSpeedup, exp.estimatedSpeedup,
                     exp.error * 100.0);
    out += strprintf("instr ST=%llu MT=%llu spin=%llu parOv=%.1f%%\n\n",
                     static_cast<unsigned long long>(st.totalInstructions),
                     static_cast<unsigned long long>(mt.totalInstructions),
                     static_cast<unsigned long long>(mt.totalSpinInstructions),
                     exp.parOverheadMeasured * 100.0);
    out += renderCoreTable("single-threaded run", st);
    out += renderCoreTable("parallel run", mt);
    out += renderThreadTable(mt);
    out += "-- speedup stack --\n" +
           renderStackTable(exp.stack, exp.actualSpeedup) + "\n";
    // Estimated-vs-ground-truth components per job (an error ledger) and
    // epoch stacks belong here, next to the ablations, once they exist.
    out += renderAblations(exp, paper);
    out += renderRegions(exp, paper);
    out += renderHwCost(job.params, mt.ncores);
    return out;
}

} // namespace sst
