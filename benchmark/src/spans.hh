/**
 * @file
 * The traced run's spans. Every span is recorded in the library's
 * telemetry tracer: the driver's existing job/validate/baseline/
 * simulate/cache-store spans on the worker threads, and the
 * benchmark's own spans (sst::telemetry::ScopedSpan, category = layer)
 * around its calls into each layer on the main thread. parseTrace()
 * reads the tracer's one Chrome export back into records with a parent
 * and a job id derived from nesting, for the per-layer self times and
 * the benchmark's trace file.
 */

#ifndef SSTBENCH_SPANS_HH
#define SSTBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sstbench {

/** One span; times are ns since the tracer's epoch. */
struct SpanRecord
{
    std::string name;
    std::string layer;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span on its lane, or -1
    long job = -1;   ///< shared by a job's spans, -1 outside jobs
    int lane = 0;    ///< the tracer's per-thread lane
};

using Spans = std::vector<SpanRecord>;

/**
 * Records of the tracer's Chrome export (B/E pairs per lane), lane
 * by lane in begin order. Each "job" (driver) and "job-replay"
 * (benchmark) span starts a new job id that the spans nested in it
 * inherit. The
 * driver's "baseline" and "simulate" spans count as layer "sim"; every
 * other span's layer is its category.
 */
Spans parseTrace(const std::string &chromeJson);

/** The spans of @p spans that lie within [@p outer start, end]. */
Spans during(const Spans &spans, const SpanRecord &outer);

/** The first span named @p name; throws std::logic_error if none. */
const SpanRecord &findSpan(const Spans &spans, const std::string &name);

/** Durations (s) of every span named @p name. */
std::vector<double> durations(const Spans &spans, const std::string &name);

/** Sum of durations (s) of spans named @p name. */
double totalSeconds(const Spans &spans, const std::string &name);

/**
 * Per-layer self time in seconds: every span's duration minus the part
 * its child spans cover, summed over the spans of each layer.
 */
std::map<std::string, double> layerSelfSeconds(const Spans &spans);

/**
 * Chrome trace_event JSON of @p spans ("X" events whose args carry the
 * span's id, parent, job and self time); @p otherData is a pre-rendered
 * JSON object for the top-level "otherData" key.
 */
std::string chromeTraceJson(const Spans &spans,
                            const std::string &otherData);

} // namespace sstbench

#endif // SSTBENCH_SPANS_HH
