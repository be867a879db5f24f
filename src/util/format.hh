/**
 * @file
 * Plain-text table and CSV formatting for the `sst` CLI and the figure
 * benches, which print the same rows/series the paper's figures plot, so
 * output legibility matters; this keeps all alignment logic in one place.
 */

#ifndef SST_UTIL_FORMAT_HH
#define SST_UTIL_FORMAT_HH

#include <string>
#include <vector>

namespace sst {

/**
 * Column-aligned ASCII table. Add a header, then rows of cells; render()
 * pads every column to its widest cell. Numeric formatting is the
 * caller's job (use fmtDouble / fmtPercent below).
 */
class TextTable
{
  public:
    /** Set the header row (also defines the column count). */
    void setHeader(std::vector<std::string> cells);

    /** Append one data row; must match the header's column count. */
    void addRow(std::vector<std::string> cells);

    /** Insert a horizontal rule before the next added row. */
    void addRule();

    /** Render the table with 2-space column gaps. */
    std::string render() const;

    /** Render the table as CSV (no padding, comma-separated). */
    std::string renderCsv() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::size_t> ruleBefore_;
};

/** Format @p v with @p prec digits after the decimal point. */
std::string fmtDouble(double v, int prec = 2);

/** Format @p v (a fraction) as a percentage, e.g. 0.051 -> "5.1%". */
std::string fmtPercent(double v, int prec = 1);

/** Format a byte count with a KB/MB suffix when divisible. */
std::string fmtBytes(std::uint64_t bytes);

/** Left-pad @p s to width @p w. */
std::string padLeft(const std::string &s, std::size_t w);

/** Right-pad @p s to width @p w. */
std::string padRight(const std::string &s, std::size_t w);

} // namespace sst

#endif // SST_UTIL_FORMAT_HH
