/**
 * @file
 * Tests of the span tracer: Chrome trace_event export well-formedness,
 * recording only while enabled, and the contract that tracing never
 * changes simulation results (on/off CSVs are byte-identical).
 */

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "driver/sweep.hh"
#include "telemetry/span.hh"
#include "tests/test_util.hh"

namespace sst {
namespace telemetry {
namespace {

// ---- span tracer / Chrome trace export -------------------------------------

/**
 * Minimal trace_event validator: walks the exported JSON line by line
 * (one event per line by construction), checks every event carries the
 * expected fields, and simulates a per-lane span stack — every E must
 * close the most recent open B of the same name, and every lane must
 * end balanced.
 */
void
validateChromeTrace(const std::string &json, std::size_t expected_events)
{
    ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    ASSERT_NE(json.find("],\"displayTimeUnit\":\"ms\"}"),
              std::string::npos);

    std::istringstream in(json);
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // {"traceEvents":[
    std::map<std::string, std::vector<std::string>> stacks; // tid->names
    std::size_t events = 0;
    while (std::getline(in, line) && line != "]," &&
           line.rfind("],\"displayTimeUnit\"", 0) != 0) {
        if (line.empty())
            continue; // an empty export is "[\n\n]"
        if (line.back() == ',')
            line.pop_back();
        ASSERT_EQ(line.rfind("{\"name\":\"", 0), 0u) << line;
        ASSERT_EQ(line.back(), '}') << line;
        auto field = [&line](const std::string &key) {
            const std::size_t pos = line.find(key);
            EXPECT_NE(pos, std::string::npos) << line;
            const std::size_t start = pos + key.size();
            return line.substr(start,
                               line.find_first_of("\",}", start) - start);
        };
        const std::string name = field("\"name\":\"");
        const std::string ph = field("\"ph\":\"");
        const std::string tid = field("\"tid\":");
        ASSERT_FALSE(field("\"ts\":").empty()) << line;
        if (ph == "B") {
            stacks[tid].push_back(name);
        } else {
            ASSERT_EQ(ph, "E") << line;
            ASSERT_FALSE(stacks[tid].empty()) << line;
            EXPECT_EQ(stacks[tid].back(), name) << line;
            stacks[tid].pop_back();
        }
        ++events;
    }
    for (const auto &kv : stacks)
        EXPECT_TRUE(kv.second.empty())
            << "lane " << kv.first << " ended with an open span";
    EXPECT_EQ(events, expected_events);
}

TEST(SpanTrace, ChromeExportHasMatchedNestedPairs)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    tracer.clear();

    // Recorded in scope-close order, as RAII would: inner before outer.
    tracer.record("inner", "test", 200, 1000);
    tracer.record("outer", "test", 100, 4000);
    tracer.record("later", "test", 5000, 6000);
    std::thread other(
        [&tracer] { tracer.record("other-lane", "test", 0, 50); });
    other.join();
    tracer.setEnabled(false);

    const std::string json = tracer.chromeTraceJson();
    // 4 spans -> 8 events, B/E per span.
    validateChromeTrace(json, 8u);
    // The nested pair must open outer before inner.
    EXPECT_LT(json.find("\"name\":\"outer\",\"cat\":\"test\",\"ph\":\"B\""),
              json.find("\"name\":\"inner\",\"cat\":\"test\",\"ph\":\"B\""));
    EXPECT_EQ(tracer.dropped(), 0u);

    tracer.clear();
    validateChromeTrace(tracer.chromeTraceJson(), 0u);
}

TEST(SpanTrace, ScopedSpanRecordsOnlyWhenEnabled)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(false);
    tracer.clear();
    {
        ScopedSpan off("disabled-span", "test");
    }
    EXPECT_EQ(tracer.chromeTraceJson().find("disabled-span"),
              std::string::npos);

    tracer.setEnabled(true);
    {
        ScopedSpan outer("scoped-outer", "test");
        ScopedSpan inner("scoped-inner", "test");
    }
    tracer.setEnabled(false);
    const std::string json = tracer.chromeTraceJson();
    validateChromeTrace(json, 4u);
    EXPECT_NE(json.find("scoped-outer"), std::string::npos);
    EXPECT_NE(json.find("scoped-inner"), std::string::npos);
    tracer.clear();
}

// ---- determinism: telemetry is write-only ----------------------------------

TEST(TelemetryDeterminism, BatchResultsAreByteIdenticalOnOrOff)
{
    const std::vector<JobSpec> jobs = {
        JobSpec::forProfile(test::computeOnlyProfile(), 2),
        JobSpec::forProfile(test::lockHeavyProfile(), 4),
        JobSpec::forProfile(test::barrierHeavyProfile(), 2)};
    DriverOptions opts;
    opts.jobs = 2;

    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(false);
    tracer.clear();
    const std::vector<JobResult> off = runExperimentBatch(jobs, opts);

    tracer.setEnabled(true);
    const std::vector<JobResult> on = runExperimentBatch(jobs, opts);
    tracer.setEnabled(false);
    const std::string json = tracer.chromeTraceJson();
    tracer.clear();

    // The traced run must actually have recorded one job span per job...
    const std::string job_begin =
        "{\"name\":\"job\",\"cat\":\"driver\",\"ph\":\"B\"";
    std::size_t job_spans = 0;
    for (std::size_t pos = json.find(job_begin); pos != std::string::npos;
         pos = json.find(job_begin, pos + 1))
        ++job_spans;
    EXPECT_EQ(job_spans, jobs.size()) << json;

    // ...and still produce byte-identical exported results.
    EXPECT_EQ(sweepCsv(jobs, off), sweepCsv(jobs, on));
    EXPECT_EQ(sweepJson(jobs, off), sweepJson(jobs, on));
}

} // namespace
} // namespace telemetry
} // namespace sst
