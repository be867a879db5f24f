#include "reference.hh"

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace sstbench {
namespace {

constexpr int kL1Sets = 64;
constexpr int kL1Ways = 8;
constexpr int kL2Sets = 16384;
constexpr int kL2Ways = 16;
constexpr int kReferences = 2000000;
constexpr std::uint64_t kHotLines = 256;
constexpr std::uint64_t kColdLines = 1024 * 1024;

/** One set-associative LRU array of line addresses. */
struct Level
{
    Level(int sets, int ways)
        : sets(sets), ways(ways), tags(sets * ways, ~0ull),
          stamps(sets * ways, 0)
    {
    }

    /** Look @p line up at time @p now; on a miss, fill the LRU way. */
    bool
    access(std::uint64_t line, std::uint32_t now)
    {
        const std::size_t base = (line % sets) * ways;
        std::size_t victim = base;
        for (int w = 0; w < ways; ++w) {
            if (tags[base + w] == line) {
                stamps[base + w] = now;
                return true;
            }
            if (stamps[base + w] < stamps[victim])
                victim = base + w;
        }
        tags[victim] = line;
        stamps[victim] = now;
        return false;
    }

    int sets;
    int ways;
    std::vector<std::uint64_t> tags;
    std::vector<std::uint32_t> stamps;
};

void
kernel()
{
    Level l1(kL1Sets, kL1Ways);
    Level l2(kL2Sets, kL2Ways);
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t hits = 0;
    for (std::uint32_t now = 1; now <= kReferences; ++now) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t line =
            (x & 3) ? (x >> 8) % kHotLines : (x >> 8) % kColdLines;
        if (l1.access(line, now) || l2.access(line, now))
            ++hits;
    }
    volatile std::uint64_t sink = hits; // keep the loop
    (void)sink;
}

} // namespace

double
referenceSeconds(int threads)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i)
        pool.emplace_back(kernel);
    for (std::thread &t : pool)
        t.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace sstbench
