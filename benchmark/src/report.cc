#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sstbench {

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(q * static_cast<double>(xs.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::logic_error("metric value is not finite");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
Report::add(const std::string &name, const std::string &unit, double value,
            std::size_t samples)
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            throw std::logic_error("duplicate metric " + name);
    metrics_.push_back(Metric{name, unit, value, samples});
}

std::string
Report::table() const
{
    std::string out;
    for (const Metric &m : metrics_) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "  %-32s %16.6g %-8s n=%zu\n",
                      m.name.c_str(), m.value, m.unit.c_str(), m.samples);
        out += buf;
    }
    return out;
}

std::string
Report::json(bool samples) const
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit);
        if (samples)
            out += ", \"samples\": " + std::to_string(m.samples);
        out += "}";
    }
    return out + "}";
}

} // namespace sstbench
