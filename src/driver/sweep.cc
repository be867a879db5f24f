#include "sweep.hh"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "spec/registries.hh"
#include "util/logging.hh"
#include "wdl/wdl.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::string cur;
    for (const char c : text) {
        if (c == ',') {
            parts.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

std::string
f64(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** CSV/JSON `suite` column: the profile's suite for homogeneous jobs
 *  (bit-identical to the pre-WorkloadSpec output), the workload role
 *  for mixes and pipelines. */
std::string
jobSuite(const JobSpec &s)
{
    if (s.workload.isHomogeneous())
        return s.workload.groups[0].profile.suite;
    return workloadRoleName(s.workload.role);
}

const char *
statusName(JobStatus s)
{
    switch (s) {
    case JobStatus::kOk:
        return "ok";
    case JobStatus::kCached:
        return "cached";
    case JobStatus::kFailed:
        return "failed";
    }
    return "?";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** One JSON object (no trailing newline/comma) for @p s / @p r. */
std::string
sweepJsonRow(const JobSpec &s, const JobResult &r)
{
    std::ostringstream os;
    os << "{\"benchmark\": \"" << jsonEscape(s.label())
       << "\", \"suite\": \"" << jsonEscape(jobSuite(s))
       << "\", \"nthreads\": " << s.nthreads()
       << ", \"ncores\": " << s.ncoresEffective()
       << ", \"llc_bytes\": " << s.params.cache.llcBytes
       << ", \"seed_offset\": " << s.seedOffset << ", \"status\": \""
       << statusName(r.status) << '"';
    if (r.ok()) {
        const SpeedupExperiment &e = r.exp;
        os << ", \"ts\": " << e.ts << ", \"tp\": " << e.tp
           << ", \"actual_speedup\": " << f64(e.actualSpeedup)
           << ", \"estimated_speedup\": " << f64(e.estimatedSpeedup)
           << ", \"error\": " << f64(e.error)
           << ", \"stack\": {\"base\": " << f64(e.stack.baseSpeedup)
           << ", \"pos_llc\": " << f64(e.stack.posLlc)
           << ", \"neg_llc\": " << f64(e.stack.negLlc)
           << ", \"neg_mem\": " << f64(e.stack.negMem)
           << ", \"spin\": " << f64(e.stack.spin)
           << ", \"yield\": " << f64(e.stack.yield)
           << ", \"imbalance\": " << f64(e.stack.imbalance)
           << ", \"coherency\": " << f64(e.stack.coherency) << '}'
           << ", \"par_overhead\": " << f64(e.parOverheadMeasured);
    } else {
        os << ", \"error_message\": \"" << jsonEscape(r.error) << '"';
    }
    os << '}';
    return os.str();
}

} // namespace

std::vector<int>
parseIntList(const std::string &text)
{
    std::vector<int> out;
    for (const std::string &part : splitCommas(text)) {
        if (part.empty())
            throw std::invalid_argument("empty entry in list '" + text +
                                        "'");
        errno = 0;
        char *end = nullptr;
        const long v = std::strtol(part.c_str(), &end, 10);
        if (errno != 0 || !end || *end != '\0' || v <= 0 || v > 1 << 20)
            throw std::invalid_argument("bad integer '" + part + "'");
        out.push_back(static_cast<int>(v));
    }
    return out;
}

std::vector<std::string>
parseLabelList(const std::string &text)
{
    std::vector<std::string> out = splitCommas(text);
    for (const std::string &label : out)
        if (label.empty())
            throw std::invalid_argument("empty entry in list '" + text +
                                        "'");
    return out;
}

std::uint64_t
parseSize(const std::string &text)
{
    if (text.empty())
        throw std::invalid_argument("empty size");
    std::uint64_t mult = 1;
    std::string digits = text;
    const char suffix =
        static_cast<char>(std::toupper(static_cast<unsigned char>(
            text.back())));
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
        mult = suffix == 'K' ? 1024ULL
                             : suffix == 'M' ? 1024ULL * 1024
                                             : 1024ULL * 1024 * 1024;
        digits = text.substr(0, text.size() - 1);
    }
    if (digits.empty())
        throw std::invalid_argument("bad size '" + text + "'");
    // Digits only: strtoull silently wraps "-5" to a huge value.
    for (const char c : digits)
        if (c < '0' || c > '9')
            throw std::invalid_argument("bad size '" + text + "'");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0' || v == 0)
        throw std::invalid_argument("bad size '" + text + "'");
    return v * mult;
}

std::vector<std::uint64_t>
parseSizeList(const std::string &text)
{
    std::vector<std::uint64_t> out;
    for (const std::string &part : splitCommas(text))
        out.push_back(parseSize(part));
    return out;
}

void
validateGrid(const SweepGrid &grid)
{
    const int axes = !grid.profiles.empty() + !grid.workloads.empty() +
                     !grid.workloadFiles.empty();
    if (axes > 1) {
        throw std::invalid_argument(
            "profiles, workload and workload-file are exclusive axes (a "
            "workload names its own profiles, a .wdl file declares its "
            "own groups)");
    }
    const bool workload_axis =
        !grid.workloads.empty() || !grid.workloadFiles.empty();
    if (workload_axis && !grid.threads.empty() &&
        grid.threads != std::vector<int>{16}) {
        // The default {16} is indistinguishable from an explicit
        // `threads = 16`, which is harmless either way.
        throw std::invalid_argument(
            "the threads axis does not apply to workloads (each "
            "workload carries its own thread counts); drop `threads =`");
    }
    if (!workload_axis && grid.threads.empty())
        throw std::invalid_argument("the grid selects no thread counts");
    if (grid.baseParams.schedSeed != 0 &&
        grid.baseParams.schedPolicy != SchedPolicy::kRandom) {
        throw std::invalid_argument(
            "sched-seed only affects `sched = random`; the seed would "
            "be silently ignored");
    }
    // Same semantics as profileByLabel(): label or bare name.
    for (const std::string &label : grid.profiles)
        profileRegistry().at(label); // throws, listing valid names
}

std::vector<JobSpec>
expandGrid(const SweepGrid &grid)
{
    validateGrid(grid);
    // Resolve the selected axis into one list of workloads; the job
    // construction over cores x LLC is shared below.
    std::vector<WorkloadSpec> workloads;
    if (!grid.workloadFiles.empty()) {
        workloads.reserve(grid.workloadFiles.size());
        for (const std::string &path : grid.workloadFiles)
            workloads.push_back(wdl::loadWorkloadFile(path)); // throws
    } else if (!grid.workloads.empty()) {
        workloads.reserve(grid.workloads.size());
        for (const std::string &text : grid.workloads)
            workloads.push_back(parseWorkload(text)); // throws, lists names
    } else {
        const std::vector<std::string> labels =
            grid.profiles.empty() ? allProfileLabels() : grid.profiles;
        workloads.reserve(labels.size() * grid.threads.size());
        for (const std::string &label : labels) {
            const BenchmarkProfile &profile = *profileRegistry().at(label);
            for (const int nthreads : grid.threads)
                workloads.push_back(
                    WorkloadSpec::homogeneous(profile, nthreads));
        }
    }

    const std::size_t nllc =
        grid.llcBytes.empty() ? 1 : grid.llcBytes.size();
    const std::size_t ncores = grid.cores.empty() ? 1 : grid.cores.size();
    std::vector<JobSpec> jobs;
    jobs.reserve(workloads.size() * nllc * ncores);
    for (const WorkloadSpec &workload : workloads) {
        for (std::size_t l = 0; l < nllc; ++l) {
            for (std::size_t c = 0; c < ncores; ++c) {
                JobSpec spec;
                spec.workload = workload;
                if (!grid.cores.empty())
                    spec.ncores = grid.cores[c];
                spec.params = grid.baseParams;
                if (!grid.llcBytes.empty())
                    spec.params.cache.llcBytes = grid.llcBytes[l];
                spec.seedOffset = grid.seedOffset;
                jobs.push_back(std::move(spec));
            }
        }
    }
    return jobs;
}

std::string
sweepCsvHeader()
{
    return "benchmark,suite,nthreads,ncores,llc_bytes,seed_offset,status,"
           "ts,tp,"
           "actual_speedup,estimated_speedup,error,base,pos_llc,neg_llc,"
           "net_neg_llc,neg_mem,spin,yield,imbalance,coherency,"
           "par_overhead";
}

std::string
sweepCsvRow(const JobSpec &s, const JobResult &r)
{
    std::ostringstream os;
    os << s.label() << ',' << jobSuite(s) << ','
       << s.nthreads() << ',' << s.ncoresEffective() << ','
       << s.params.cache.llcBytes << ',' << s.seedOffset << ','
       << statusName(r.status);
    if (r.ok()) {
        const SpeedupExperiment &e = r.exp;
        os << ',' << e.ts << ',' << e.tp << ','
           << f64(e.actualSpeedup) << ',' << f64(e.estimatedSpeedup)
           << ',' << f64(e.error) << ',' << f64(e.stack.baseSpeedup)
           << ',' << f64(e.stack.posLlc) << ',' << f64(e.stack.negLlc)
           << ',' << f64(e.stack.netNegLlc()) << ','
           << f64(e.stack.negMem) << ',' << f64(e.stack.spin) << ','
           << f64(e.stack.yield) << ',' << f64(e.stack.imbalance)
           << ',' << f64(e.stack.coherency) << ','
           << f64(e.parOverheadMeasured);
    } else {
        for (int k = 0; k < 15; ++k)
            os << ',';
    }
    return os.str();
}

std::string
sweepCsv(const std::vector<JobSpec> &specs,
         const std::vector<JobResult> &results)
{
    sstAssert(specs.size() == results.size(),
              "sweepCsv: specs/results size mismatch");
    std::ostringstream os;
    os << sweepCsvHeader() << '\n';
    for (std::size_t i = 0; i < specs.size(); ++i)
        os << sweepCsvRow(specs[i], results[i]) << '\n';
    return os.str();
}

std::string
sweepJson(const std::vector<JobSpec> &specs,
          const std::vector<JobResult> &results)
{
    sstAssert(specs.size() == results.size(),
              "sweepJson: specs/results size mismatch");
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        os << "  " << sweepJsonRow(specs[i], results[i])
           << (i + 1 < specs.size() ? "," : "") << '\n';
    }
    os << "]\n";
    return os.str();
}

} // namespace sst
