/**
 * @file
 * The unified `sst` CLI: one binary for every experiment workflow.
 *
 *   sst run --spec examples/specs/fig01.spec   declarative experiments
 *   sst sweep --profiles all --threads 16      the same, by flags
 *   sst trace record|replay|info               op-trace workflows
 *   sst list profiles|scheds|mixes|workloads   enumerate the registries
 *
 * The commands live in bench/cli_commands.cc. The dispatcher is
 * table-driven: usage text and the unknown-command error enumerate the
 * same table, so a new command cannot be half-registered.
 */

#include <cstdio>
#include <string>

#include "cli_commands.hh"

namespace {

struct Command
{
    const char *name;
    const char *description;
    int (*run)(int argc, char **argv, int first);
};

constexpr Command kCommands[] = {
    {"run", "execute an experiment spec file (flags may override it)",
     sst::cli::batchMain},
    {"sweep", "express an experiment grid with flags (= run)",
     sst::cli::batchMain},
    {"trace", "record / replay / inspect binary op traces",
     sst::cli::traceMain},
    {"list", "enumerate registered profiles, scheds, mixes, workloads",
     sst::cli::listMain},
};

void
usage()
{
    std::printf("usage: sst <command> [options]\n");
    for (const Command &c : kCommands)
        std::printf("  %-7s %s\n", c.name, c.description);
    std::printf("`sst <command> --help` shows the command's options;\n"
                "`sst --version` prints every persisted-format "
                "version\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    for (const Command &c : kCommands)
        if (cmd == c.name)
            return c.run(argc, argv, 2);
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }
    if (cmd == "--version" || cmd == "-V")
        return sst::cli::versionMain();
    usage();
    std::fprintf(stderr, "fatal: unknown command '%s'\n", cmd.c_str());
    return 1;
}
