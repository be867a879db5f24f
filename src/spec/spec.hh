/**
 * @file
 * ExperimentSpec: a fully declarative description of one speedup-stack
 * study — the sweep grid (workload selection, threads/cores/LLC axes,
 * machine parameters, scheduler policy + seed, replication stream), an
 * optional recorded-trace directory and output options — that parses
 * from and serializes to a canonical `key = value` text format.
 *
 * The op source of every job follows from the inputs, never from a
 * separate switch: `trace-dir` set replays recordings, `workload-file`
 * compiles .wdl files, a pipeline workload (`workload = ferret16`) runs
 * its barrier-coupled stages, and everything else generates profile
 * streams live.
 *
 * Guarantees:
 *  - round trip: parseSpec(serializeSpec(s)) == s for every valid s;
 *  - canonical form: serializeSpec emits every key in one fixed order
 *    with normalized values, so equal specs produce byte-identical
 *    text (ExperimentSpec equality IS canonical-text equality);
 *  - fingerprint sharing: the machine section is rendered by the same
 *    table the driver's job fingerprint uses (fingerprint v3), so a
 *    spec-driven run and the equivalent flag-driven run hit the same
 *    result-cache entries by construction.
 *
 * Spec files are plain text: one `key = value` per line, `#` comments
 * (a '#' at line start or after whitespace; `run#1.csv` is a value),
 * blank lines ignored, later keys override earlier ones. All names
 * (profiles, mixes, scheduler policies, machine keys) resolve through
 * registries/tables, so every unknown-label error lists the valid
 * names.
 */

#ifndef SST_SPEC_SPEC_HH
#define SST_SPEC_SPEC_HH

#include <string>

#include "driver/sweep.hh"

namespace sst {

/** One declarative experiment description. See file comment. */
struct ExperimentSpec
{
    /**
     * The sweep grid. Spec keys map onto it one to one: `profiles`
     * (empty = the whole Figure 6 suite), `workload`, `workload-file`,
     * `threads`, `cores`, `llc`, `seed-offset`, and the machine
     * section (`sched`, `sched-seed`, `machine.*`) in grid.baseParams.
     * Workload descriptors are stored canonicalized.
     */
    SweepGrid grid;

    /**
     * Recorded-trace directory. When set, every job whose canonical
     * recording exists there replays it instead of generating ops.
     */
    std::string traceDir;

    // ---- output options ---------------------------------------------------
    std::string csvPath;  ///< write the batch as CSV when non-empty
    std::string jsonPath; ///< write the batch as JSON when non-empty
    bool quiet = false;   ///< suppress the result table
};

/** Equality is canonical-form equality. */
bool operator==(const ExperimentSpec &a, const ExperimentSpec &b);
bool operator!=(const ExperimentSpec &a, const ExperimentSpec &b);

/**
 * Apply one `key = value` assignment to @p spec. This is the single
 * mutation path shared by the file parser and the CLI flag layer (a
 * `--sched X` flag is applySpecValue(spec, "sched", "X")), so flags and
 * spec files can never drift apart. Throws std::invalid_argument on an
 * unknown key (listing every valid key) or a malformed value. Checks
 * that involve more than one key wait for validateSpec().
 */
void applySpecValue(ExperimentSpec &spec, const std::string &key,
                    const std::string &value);

/** All valid spec keys joined with ", " (generated, for errors/help). */
std::string specKeyNamesJoined();

/**
 * Parse spec text (see file comment for the format). Errors carry the
 * 1-based line number. Starts from a default-constructed spec.
 */
ExperimentSpec parseSpec(const std::string &text);

/** Parse the spec file at @p path; errors name the file and line. */
ExperimentSpec parseSpecFile(const std::string &path);

/** Canonical serialization: every key, fixed order, normalized values. */
std::string serializeSpec(const ExperimentSpec &spec);

/**
 * Validate cross-field constraints: the grid's (validateGrid) plus a
 * trace directory only without a cores axis. Throws
 * std::invalid_argument with registry-sourced messages.
 */
void validateSpec(const ExperimentSpec &spec);

} // namespace sst

#endif // SST_SPEC_SPEC_HH
