#include "spans.hh"

#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "report.hh"

namespace sstbench {
namespace {

/** Value of `"key":` in one flat JSON event line, or "" when absent. */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    std::size_t i = at + tag.size();
    if (i < line.size() && line[i] == '"') {
        const std::size_t end = line.find('"', i + 1);
        return end == std::string::npos ? ""
                                         : line.substr(i + 1, end - i - 1);
    }
    const std::size_t end = line.find_first_of(",}", i);
    return line.substr(i, end == std::string::npos ? end : end - i);
}

/** Per span: its duration minus its children's durations (ns). */
std::vector<std::uint64_t>
selfNs(const Spans &spans)
{
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    return self;
}

double
seconds(const SpanRecord &s)
{
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

std::string
micros(std::uint64_t ns)
{
    return jsonNumber(static_cast<double>(ns) * 1e-3);
}

} // namespace

Spans
parseTrace(const std::string &chromeJson)
{
    Spans spans;
    std::map<int, std::vector<int>> stacks; // open spans per lane
    long nextJob = 0;
    std::size_t pos = 0;
    while (pos < chromeJson.size()) {
        std::size_t end = chromeJson.find('\n', pos);
        if (end == std::string::npos)
            end = chromeJson.size();
        const std::string line = chromeJson.substr(pos, end - pos);
        pos = end + 1;
        const std::string ph = field(line, "ph");
        if (ph != "B" && ph != "E")
            continue;
        const int lane = std::atoi(field(line, "tid").c_str());
        const std::uint64_t ns = static_cast<std::uint64_t>(std::llround(
            std::strtod(field(line, "ts").c_str(), nullptr) * 1000.0));
        std::vector<int> &stack = stacks[lane];
        if (ph == "E") {
            if (stack.empty())
                throw std::logic_error("unmatched E event in the trace");
            spans[static_cast<std::size_t>(stack.back())].endNs = ns;
            stack.pop_back();
            continue;
        }
        SpanRecord s;
        s.name = field(line, "name");
        s.layer = s.name == "baseline" || s.name == "simulate"
                      ? "sim"
                      : field(line, "cat");
        s.lane = lane;
        s.startNs = ns;
        s.parent = stack.empty() ? -1 : stack.back();
        if (s.name == "job" || s.name == "job-replay")
            s.job = nextJob++;
        else if (s.parent >= 0)
            s.job = spans[static_cast<std::size_t>(s.parent)].job;
        spans.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans.size() - 1));
    }
    return spans;
}

Spans
during(const Spans &spans, const SpanRecord &outer)
{
    Spans out;
    for (const SpanRecord &s : spans)
        if (s.startNs >= outer.startNs && s.endNs <= outer.endNs)
            out.push_back(s);
    return out;
}

const SpanRecord &
findSpan(const Spans &spans, const std::string &name)
{
    for (const SpanRecord &s : spans)
        if (s.name == name)
            return s;
    throw std::logic_error("no '" + name + "' span in the trace");
}

std::vector<double>
durations(const Spans &spans, const std::string &name)
{
    std::vector<double> out;
    for (const SpanRecord &s : spans)
        if (s.name == name)
            out.push_back(seconds(s));
    return out;
}

double
totalSeconds(const Spans &spans, const std::string &name)
{
    double total = 0.0;
    for (const double d : durations(spans, name))
        total += d;
    return total;
}

std::map<std::string, double>
layerSelfSeconds(const Spans &spans)
{
    const std::vector<std::uint64_t> self = selfNs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

std::string
chromeTraceJson(const Spans &spans, const std::string &otherData)
{
    const std::vector<std::uint64_t> self = selfNs(spans);
    // The lane holding the benchmark's own spans is its main thread;
    // every other lane is a driver worker thread.
    std::set<int> lanes, benchLanes;
    for (const SpanRecord &s : spans) {
        lanes.insert(s.lane);
        if (s.layer == "bench")
            benchLanes.insert(s.lane);
    }
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    for (const int lane : lanes) {
        out += first ? "" : ",\n";
        first = false;
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
               std::to_string(lane) + ",\"args\":{\"name\":" +
               jsonString(benchLanes.count(lane) ? "benchmark"
                                                 : "driver worker") +
               "}}";
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        out += first ? "" : ",\n";
        first = false;
        out += "{\"name\":" + jsonString(s.name) +
               ",\"cat\":" + jsonString(s.layer) +
               ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.lane) +
               ",\"ts\":" + micros(s.startNs) +
               ",\"dur\":" + micros(s.endNs - s.startNs) +
               ",\"args\":{\"id\":" + std::to_string(i) +
               ",\"parent\":" + std::to_string(s.parent) +
               ",\"job\":" + std::to_string(s.job) +
               ",\"self_us\":" + micros(self[i]) + "}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" + otherData +
           "}\n";
    return out;
}

} // namespace sstbench
