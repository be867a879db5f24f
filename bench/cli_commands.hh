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

/** `sst sweep`: flag-driven experiment grids. */
int sweepMain(int argc, char **argv, int first);

/** `sst trace`: record / replay / info on op traces. */
int traceMain(int argc, char **argv, int first);

/** `sst run --spec FILE`: execute a declarative experiment spec. */
int runMain(int argc, char **argv, int first);

/** `sst list profiles|scheds|frontends`: enumerate the registries. */
int listMain(int argc, char **argv, int first);

/** `sst --version`: print every persisted-format version. */
int versionMain();

} // namespace cli
} // namespace sst

#endif // SST_BENCH_CLI_COMMANDS_HH
