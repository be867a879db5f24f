/**
 * @file
 * Named metrics of one benchmark run and the ways they are printed: a
 * human-readable table (name, value, unit, sample count) and the
 * single-line JSON result the last line of standard output carries.
 */

#ifndef SSTBENCH_REPORT_HH
#define SSTBENCH_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace sstbench {

/** One measured quantity. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0; ///< measurements the value summarizes
};

/** Median of @p xs (0 when empty); sorts a copy. */
double median(std::vector<double> xs);

/** The @p q-quantile (0..1, nearest rank) of @p xs; 0 when empty. */
double quantile(std::vector<double> xs, double q);

/** Ordered collection of metrics; names are unique. */
class Report
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value, std::size_t samples);

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** Fixed-width table, one metric per line. */
    std::string table() const;

    /**
     * `{"name": {"value": v, "unit": u}, ...}` with every value printed
     * at round-trip precision; with @p samples also a "samples" key.
     */
    std::string json(bool samples) const;

  private:
    std::vector<Metric> metrics_;
};

/** Round-trip decimal rendering of @p v (JSON-safe for finite v). */
std::string jsonNumber(double v);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

} // namespace sstbench

#endif // SSTBENCH_REPORT_HH
