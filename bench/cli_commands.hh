/**
 * @file
 * Implementations of the `sst` CLI commands (dispatched by
 * bench/sst_main.cc).
 *
 * Every *Main takes (argc, argv, first) where argv[first] is the first
 * command-specific argument (2 behind the `sst <command>` dispatcher).
 */

#ifndef SST_BENCH_CLI_COMMANDS_HH
#define SST_BENCH_CLI_COMMANDS_HH

namespace sst {
namespace cli {

/**
 * `sst run` / `sst sweep`: one parser for both — an optional `--spec`
 * file, then every grid flag applied through applySpecValue().
 */
int batchMain(int argc, char **argv, int first);

/** `sst trace`: record / replay / info on op traces. */
int traceMain(int argc, char **argv, int first);

/** `sst list profiles|scheds|mixes|workloads`: enumerate the registries. */
int listMain(int argc, char **argv, int first);

/** `sst --version`: print every persisted-format version. */
int versionMain();

} // namespace cli
} // namespace sst

#endif // SST_BENCH_CLI_COMMANDS_HH
