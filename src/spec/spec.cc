#include "spec.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "spec/machine_keys.hh"
#include "spec/registries.hh"

namespace sst {
namespace {

constexpr const char *kMachinePrefix = "machine.";

/** Top-level spec keys, in canonical serialization order. */
constexpr const char *kTopKeys[] = {
    "profiles",    "workload",  "workload-file", "threads",
    "cores",       "llc",       "seed-offset",   "trace-dir",
    "sched",       "sched-seed", "output.csv",   "output.json",
    "output.quiet",
};

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** @p v's elements rendered by @p text, joined with ", ". */
template <typename T, typename Fn>
std::string
joinList(const std::vector<T> &v, Fn text)
{
    std::string out;
    for (const T &x : v) {
        if (!out.empty())
            out += ", ";
        out += text(x);
    }
    return out;
}

/**
 * Split a comma-separated path list. Unlike parseLabelList this only
 * trims the ends of each element — paths may legitimately contain
 * interior spaces — and rejects empty elements.
 */
std::vector<std::string>
splitPaths(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        const std::string item = trim(text.substr(start, end - start));
        if (item.empty())
            throw std::invalid_argument(
                "empty path in list '" + text + "'");
        out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

void
applySpecValue(ExperimentSpec &spec, const std::string &key,
               const std::string &value)
{
    SweepGrid &grid = spec.grid;
    if (key == "profiles") {
        if (value == "all" || value.empty())
            grid.profiles.clear();
        else
            grid.profiles = parseLabelList(value);
    } else if (key == "workload") {
        grid.workloads.clear();
        if (!value.empty()) {
            for (const std::string &item : parseLabelList(value))
                grid.workloads.push_back(canonicalWorkloadText(item));
        }
    } else if (key == "workload-file" || key == "workload_file") {
        grid.workloadFiles.clear();
        if (!value.empty())
            grid.workloadFiles = splitPaths(value);
    } else if (key == "threads") {
        grid.threads = value.empty() ? std::vector<int>{}
                                     : parseIntList(value);
    } else if (key == "cores") {
        grid.cores = value.empty() ? std::vector<int>{}
                                   : parseIntList(value);
    } else if (key == "llc") {
        grid.llcBytes = value.empty() ? std::vector<std::uint64_t>{}
                                      : parseSizeList(value);
    } else if (key == "seed-offset") {
        grid.seedOffset = parseU64Text("seed-offset", value);
    } else if (key == "trace-dir") {
        spec.traceDir = value;
    } else if (key == "sched") {
        grid.baseParams.schedPolicy = schedulerRegistry().at(value);
    } else if (key == "sched-seed") {
        grid.baseParams.schedSeed = parseU64Text("sched-seed", value);
    } else if (key == "output.csv") {
        spec.csvPath = value;
    } else if (key == "output.json") {
        spec.jsonPath = value;
    } else if (key == "output.quiet") {
        spec.quiet = parseBoolText("output.quiet", value);
    } else if (key.compare(0, std::string(kMachinePrefix).size(),
                           kMachinePrefix) == 0) {
        const std::string name =
            key.substr(std::string(kMachinePrefix).size());
        const MachineKey *mk = findMachineKey(name);
        if (!mk)
            throw std::invalid_argument("unknown machine key '" + key +
                                        "'; valid machine keys: " +
                                        machineKeyNamesJoined());
        setMachineValue(grid.baseParams, *mk, value);
    } else {
        throw std::invalid_argument("unknown spec key '" + key +
                                    "'; valid keys: " +
                                    specKeyNamesJoined());
    }
}

std::string
specKeyNamesJoined()
{
    std::string out;
    for (const char *k : kTopKeys) {
        if (!out.empty())
            out += ", ";
        out += k;
    }
    return out + ", " + machineKeyNamesJoined();
}

ExperimentSpec
parseSpec(const std::string &text)
{
    ExperimentSpec spec;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // '#' starts a comment only at line start or after whitespace,
        // so values like `output.csv = run#1.csv` survive intact.
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] == '#' &&
                (i == 0 || std::isspace(static_cast<unsigned char>(
                               line[i - 1])))) {
                line.erase(i);
                break;
            }
        }
        line = trim(line);
        if (line.empty())
            continue;
        // Diagnostics carry the line number AND the offending line
        // (matching the WDL compiler's file:line + near-token style),
        // so a bad key in a 50-line spec is found without counting.
        const auto fail = [&](const std::string &msg) {
            throw std::invalid_argument("line " + std::to_string(lineno) +
                                        ": " + msg + " (near '" + line +
                                        "')");
        };
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fail("expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fail("empty key");
        try {
            applySpecValue(spec, key, value);
        } catch (const std::invalid_argument &e) {
            fail(e.what());
        }
    }
    return spec;
}

ExperimentSpec
parseSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::invalid_argument("cannot read spec file " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parseSpec(buf.str());
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

std::string
serializeSpec(const ExperimentSpec &spec)
{
    std::string out = "# sst experiment spec (canonical form)\n";
    auto put = [&out](const char *key, const std::string &value) {
        // Refuse to emit text that would re-parse differently: a '#'
        // at value start or after whitespace reads back as a comment,
        // and an embedded newline would split the line. Throwing here
        // keeps parse(serialize(s)) == s exact for every serializable
        // spec instead of silently corrupting the round trip.
        for (std::size_t i = 0; i < value.size(); ++i) {
            const bool comment_start =
                value[i] == '#' &&
                (i == 0 || std::isspace(static_cast<unsigned char>(
                               value[i - 1])));
            if (comment_start || value[i] == '\n') {
                throw std::invalid_argument(
                    std::string("cannot serialize ") + key +
                    " value '" + value +
                    "': it would re-parse as a comment or line break");
            }
        }
        out += key;
        out += value.empty() ? " =" : " = ";
        out += value;
        out += '\n';
    };
    const SweepGrid &grid = spec.grid;
    const auto str = [](const std::string &x) { return x; };
    const auto num = [](int x) { return std::to_string(x); };
    put("profiles",
        grid.profiles.empty() ? "all" : joinList(grid.profiles, str));
    put("workload", joinList(grid.workloads, str));
    put("workload-file", joinList(grid.workloadFiles, str));
    put("threads", joinList(grid.threads, num));
    put("cores", joinList(grid.cores, num));
    put("llc", joinList(grid.llcBytes, sizeText));
    put("seed-offset", std::to_string(grid.seedOffset));
    put("trace-dir", spec.traceDir);
    put("sched", schedPolicyLabel(grid.baseParams.schedPolicy));
    put("sched-seed", std::to_string(grid.baseParams.schedSeed));
    encodeMachineParams(out, grid.baseParams);
    put("output.csv", spec.csvPath);
    put("output.json", spec.jsonPath);
    put("output.quiet", spec.quiet ? "true" : "false");
    return out;
}

bool
operator==(const ExperimentSpec &a, const ExperimentSpec &b)
{
    return serializeSpec(a) == serializeSpec(b);
}

bool
operator!=(const ExperimentSpec &a, const ExperimentSpec &b)
{
    return !(a == b);
}

void
validateSpec(const ExperimentSpec &spec)
{
    validateGrid(spec.grid);
    if (!spec.traceDir.empty() && !spec.grid.cores.empty())
        throw std::invalid_argument(
            "trace-dir cannot drive a cores axis: recordings embed the "
            "schedule of a #cores == #threads run, so oversubscribed "
            "jobs would silently regenerate live instead of replaying");
}

} // namespace sst
