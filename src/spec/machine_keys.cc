#include "machine_keys.hh"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "driver/sweep.hh" // parseSize

namespace sst {
namespace {

/** Table row with field accessors generated from the member expression. */
#define SST_MACHINE_KEY(key_name, key_kind, field)                            \
    MachineKey                                                                \
    {                                                                         \
        key_name, MachineKey::Kind::key_kind,                                 \
            [](const SimParams &p) {                                          \
                return static_cast<std::uint64_t>(p.field);                   \
            },                                                                \
            [](SimParams &p, std::uint64_t v) {                               \
                p.field = static_cast<decltype(p.field)>(v);                  \
            }                                                                 \
    }

std::vector<MachineKey>
buildTable()
{
    return {
        // ---- core timing model ------------------------------------------
        SST_MACHINE_KEY("dispatch-width", kU64, dispatchWidth),
        SST_MACHINE_KEY("llc-hit-cycles", kU64, llcHitCycles),
        SST_MACHINE_KEY("c2c-transfer-cycles", kU64, c2cTransferCycles),
        SST_MACHINE_KEY("rob-overlap-cycles", kU64, robOverlapCycles),
        SST_MACHINE_KEY("coherency-miss-cycles", kU64, coherencyMissCycles),
        // ---- spin / yield policy ----------------------------------------
        SST_MACHINE_KEY("spin-check-cycles", kU64, spinCheckCycles),
        SST_MACHINE_KEY("spin-loop-instrs", kU64, spinLoopInstrs),
        SST_MACHINE_KEY("lock-spin-threshold", kU64, lockSpinThreshold),
        SST_MACHINE_KEY("barrier-spin-threshold", kU64,
                        barrierSpinThreshold),
        // ---- OS scheduler mechanism -------------------------------------
        SST_MACHINE_KEY("ctx-switch-cycles", kU64, ctxSwitchCycles),
        SST_MACHINE_KEY("wake-latency-cycles", kU64, wakeLatencyCycles),
        SST_MACHINE_KEY("sched-per-core-overhead", kU64,
                        schedPerCoreOverhead),
        SST_MACHINE_KEY("time-slice-cycles", kU64, timeSliceCycles),
        SST_MACHINE_KEY("migration-flushes-l1", kBool, migrationFlushesL1),
        // ---- cache hierarchy --------------------------------------------
        SST_MACHINE_KEY("l1-bytes", kSize, cache.l1Bytes),
        SST_MACHINE_KEY("l1-ways", kU64, cache.l1Ways),
        SST_MACHINE_KEY("llc-bytes", kSize, cache.llcBytes),
        SST_MACHINE_KEY("llc-ways", kU64, cache.llcWays),
        SST_MACHINE_KEY("atd-sampling-factor", kU64,
                        cache.atdSamplingFactor),
        SST_MACHINE_KEY("oracle-atds", kBool, cache.oracleAtds),
        // ---- DRAM --------------------------------------------------------
        SST_MACHINE_KEY("dram-banks", kU64, dram.nbanks),
        SST_MACHINE_KEY("dram-bus-cycles", kU64, dram.busCycles),
        SST_MACHINE_KEY("dram-data-cycles", kU64, dram.dataCycles),
        SST_MACHINE_KEY("dram-row-hit-cycles", kU64, dram.rowHitCycles),
        SST_MACHINE_KEY("dram-row-empty-cycles", kU64, dram.rowEmptyCycles),
        SST_MACHINE_KEY("dram-row-conflict-cycles", kU64,
                        dram.rowConflictCycles),
        SST_MACHINE_KEY("dram-row-bytes", kSize, dram.rowBytes),
        // ---- accounting hardware ----------------------------------------
        SST_MACHINE_KEY("tian-table-entries", kU64,
                        accounting.tian.tableEntries),
        SST_MACHINE_KEY("tian-mark-threshold", kU64,
                        accounting.tian.markThreshold),
        SST_MACHINE_KEY("li-table-entries", kU64,
                        accounting.li.tableEntries),
    };
}

#undef SST_MACHINE_KEY

} // namespace

const std::vector<MachineKey> &
machineKeys()
{
    static const std::vector<MachineKey> table = buildTable();
    return table;
}

const MachineKey *
findMachineKey(const std::string &name)
{
    for (const MachineKey &k : machineKeys())
        if (name == k.name)
            return &k;
    return nullptr;
}

std::string
machineKeyNamesJoined()
{
    std::string out;
    for (const MachineKey &k : machineKeys()) {
        if (!out.empty())
            out += ", ";
        out += "machine.";
        out += k.name;
    }
    return out;
}

std::string
sizeText(std::uint64_t bytes)
{
    constexpr std::uint64_t K = 1024, M = K * K, G = M * K;
    if (bytes >= G && bytes % G == 0)
        return std::to_string(bytes / G) + "G";
    if (bytes >= M && bytes % M == 0)
        return std::to_string(bytes / M) + "M";
    if (bytes >= K && bytes % K == 0)
        return std::to_string(bytes / K) + "K";
    return std::to_string(bytes);
}

std::string
machineValueText(const MachineKey &key, const SimParams &params)
{
    const std::uint64_t v = key.get(params);
    switch (key.kind) {
    case MachineKey::Kind::kU64:
        return std::to_string(v);
    case MachineKey::Kind::kSize:
        return sizeText(v);
    case MachineKey::Kind::kBool:
        return v ? "true" : "false";
    }
    return std::to_string(v); // unreachable
}

std::uint64_t
parseU64Text(const char *what, const std::string &text)
{
    // Digits only: strtoull would silently wrap "-1" to 2^64-1, so a
    // character check is the only safe strictness.
    if (text.empty() || text.size() > 20)
        throw std::invalid_argument(std::string("bad value for ") +
                                    what + ": '" + text + "'");
    for (const char c : text)
        if (c < '0' || c > '9')
            throw std::invalid_argument(
                std::string("bad value for ") + what + ": '" + text +
                "' (expected an unsigned integer)");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0')
        throw std::invalid_argument(std::string("bad value for ") +
                                    what + ": '" + text + "'");
    return v;
}

bool
parseBoolText(const char *what, const std::string &text)
{
    if (text == "true" || text == "1")
        return true;
    if (text == "false" || text == "0")
        return false;
    throw std::invalid_argument(std::string("bad value for ") + what +
                                ": '" + text +
                                "' (expected true or false)");
}

void
setMachineValue(SimParams &params, const MachineKey &key,
                const std::string &text)
{
    std::uint64_t v = 0;
    switch (key.kind) {
    case MachineKey::Kind::kU64:
        v = parseU64Text(key.name, text);
        break;
    case MachineKey::Kind::kSize:
        v = parseSize(text);
        break;
    case MachineKey::Kind::kBool:
        v = parseBoolText(key.name, text) ? 1 : 0;
        break;
    }
    key.set(params, v);
}

void
encodeMachineParams(std::string &out, const SimParams &params)
{
    for (const MachineKey &k : machineKeys()) {
        out += "machine.";
        out += k.name;
        out += " = ";
        out += machineValueText(k, params);
        out += '\n';
    }
}

} // namespace sst
