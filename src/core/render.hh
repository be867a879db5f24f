/**
 * @file
 * Text rendering of speedup stacks: component breakdown tables, CSV
 * export, Figure-5-style vertical ASCII stacked bars for side-by-side
 * visual comparison of benchmarks / thread counts, and the per-job
 * diagnosis report of `sst explain`.
 */

#ifndef SST_CORE_RENDER_HH
#define SST_CORE_RENDER_HH

#include <string>
#include <vector>

#include "core/speedup_stack.hh"

namespace sst {

struct JobSpec;
struct SpeedupExperiment;

/** Component table of a single stack (values in speedup units). */
std::string renderStackTable(const SpeedupStack &stack,
                             double actual_speedup = -1.0);

/**
 * Figure-5-style chart: one vertical stacked bar per entry, @p height
 * character rows tall, scaled to the tallest stack's N. Each component
 * renders with a distinct fill character, explained in a legend.
 */
std::string renderStackBars(const std::vector<SpeedupStack> &stacks,
                            const std::vector<std::string> &labels,
                            int height = 24);

/** CSV header + rows, one row per stack (for external plotting). */
std::string renderStacksCsv(const std::vector<SpeedupStack> &stacks,
                            const std::vector<std::string> &labels);

/**
 * The `sst explain` report of one job, a pure function of the job and
 * its freshly simulated experiment: run vitals, per-core cache/DRAM
 * ground truth of both runs, per-thread counters (simulator ground
 * truth included), the stack, ablation rows re-accounted from the same
 * run's counters (coherency accounted, Sec. 4.5; Li detector, Sec.
 * 4.3), per-region stacks (Sec. 4.6) and the accounting hardware cost
 * at the job's LLC geometry and ATD sampling factor (Sec. 4.7).
 * Throws std::invalid_argument when @p exp carries no per-thread
 * counters, as a result-cache hit does.
 */
std::string renderExplainReport(const JobSpec &job,
                                const SpeedupExperiment &exp);

} // namespace sst

#endif // SST_CORE_RENDER_HH
