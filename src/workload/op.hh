/**
 * @file
 * The workload op DSL. A simulated thread is a stream of ops: bundles of
 * compute instructions, loads/stores with explicit addresses and PCs, and
 * synchronization events (lock acquire/release, barrier). The CMP
 * simulator consumes this stream; spin loops are *not* part of the
 * stream — they are executed by the core model when a lock or barrier
 * acquisition fails, so the spin detectors observe genuine load streams.
 */

#ifndef SST_WORKLOAD_OP_HH
#define SST_WORKLOAD_OP_HH

#include <cstdint>

#include "util/types.hh"

namespace sst {

/** Kind of a workload op. */
enum class OpType : std::uint8_t {
    kCompute,       ///< `count` back-to-back ALU instructions
    kLoad,          ///< one load from `addr` at program counter `pc`
    kStore,         ///< one store to `addr` at program counter `pc`
    kLockAcquire,   ///< acquire lock `id` (may spin / yield)
    kLockRelease,   ///< release lock `id`
    kBarrier,       ///< arrive at barrier `id`, wait for all threads
    kRoiBegin,      ///< region-of-interest start: reset measurements
    kEnd,           ///< thread has finished its program
};

/**
 * One element of a thread's op stream. Plain aggregate: the generator
 * fills only the fields relevant to `type` (others are zero).
 */
struct Op
{
    OpType type = OpType::kEnd;
    std::uint32_t count = 0; ///< instruction count for kCompute
    Addr addr = 0;           ///< byte address for kLoad / kStore
    PC pc = 0;               ///< program counter for kLoad / kStore
    int id = 0;              ///< lock or barrier identifier

    static Op
    compute(std::uint32_t n)
    {
        Op op;
        op.type = OpType::kCompute;
        op.count = n;
        return op;
    }

    static Op
    load(Addr a, PC p)
    {
        Op op;
        op.type = OpType::kLoad;
        op.addr = a;
        op.pc = p;
        return op;
    }

    static Op
    store(Addr a, PC p)
    {
        Op op;
        op.type = OpType::kStore;
        op.addr = a;
        op.pc = p;
        return op;
    }

    static Op
    lockAcquire(LockId id)
    {
        Op op;
        op.type = OpType::kLockAcquire;
        op.id = id;
        return op;
    }

    static Op
    lockRelease(LockId id)
    {
        Op op;
        op.type = OpType::kLockRelease;
        op.id = id;
        return op;
    }

    static Op
    barrier(BarrierId id)
    {
        Op op;
        op.type = OpType::kBarrier;
        op.id = id;
        return op;
    }

    static Op
    roiBegin()
    {
        Op op;
        op.type = OpType::kRoiBegin;
        return op;
    }

    static Op
    end()
    {
        return Op{};
    }
};

/** Barrier id used by the pre-RoI warmup phase. */
inline constexpr BarrierId kWarmupBarrierId = 1'000'000;

/**
 * Stride between the sync-id namespaces of a heterogeneous workload's
 * program groups: group g's lock/barrier ids are its local ids plus
 * g * kGroupSyncStride, so two co-running programs can never alias each
 * other's primitives. The stride exceeds kWarmupBarrierId, which keeps
 * `id % kGroupSyncStride == kWarmupBarrierId` a valid warmup-barrier
 * test for every group (including group 0, whose ids are the plain
 * local ids — the homogeneous encoding, unchanged).
 */
inline constexpr int kGroupSyncStride = 0x20'0000; // 2'097'152

/** True when @p id is some group's pre-RoI warmup barrier. */
constexpr bool
isWarmupBarrier(BarrierId id)
{
    return id % kGroupSyncStride == kWarmupBarrierId;
}

/** Most program groups one workload may co-schedule (mix programs or
 *  pipeline stages); bounds the group address/sync namespaces. */
inline constexpr int kMaxWorkloadGroups = 8;

/**
 * Fixed layout of the simulated physical address space. Regions are far
 * apart so they never alias in any cache configuration we simulate.
 * Group-0 (and homogeneous) addresses are the historical layout,
 * bit-for-bit; ids/regions of additional workload groups live in a
 * disjoint high range far above the per-thread private regions.
 */
namespace addrmap {

/** Base of thread @p tid's private data region (256MB apart, above the
 *  4GB line so they can never alias the shared/lock/barrier regions).
 *  Threads are numbered globally across a workload's groups, so private
 *  working sets of co-running programs are disjoint by construction. */
constexpr Addr
privateBase(ThreadId tid)
{
    return 0x1'0000'0000ULL + static_cast<Addr>(tid) * 0x1000'0000ULL;
}

/** Base of the application-wide shared data region (group 0). */
inline constexpr Addr kSharedBase = 0x8000'0000ULL;

/** Base of workload group @p group's shared data region (64GB apart). */
constexpr Addr
groupSharedBase(int group)
{
    return group == 0 ? kSharedBase
                      : 0x6000'0000'0000ULL +
                            static_cast<Addr>(group) * 0x10'0000'0000ULL;
}

/** Bytes of lock-protected data per lock id (the lockDataBase stride). */
inline constexpr Addr kLockDataBytes = 4096;

/** Base of the lock-protected shared data region for lock @p id. */
constexpr Addr
lockDataBase(LockId id)
{
    return id < kGroupSyncStride
               ? 0xA000'0000ULL + static_cast<Addr>(id) * kLockDataBytes
               : 0x6800'0000'0000ULL +
                     static_cast<Addr>(id) * kLockDataBytes;
}

/** Address of the lock word for lock @p id (one cache line each). */
constexpr Addr
lockWord(LockId id)
{
    return id < kGroupSyncStride
               ? 0xF000'0000ULL + static_cast<Addr>(id) * kLineBytes
               : 0x7000'0000'0000ULL + static_cast<Addr>(id) * kLineBytes;
}

/** Address of the barrier word for barrier @p id. */
constexpr Addr
barrierWord(BarrierId id)
{
    return id < kGroupSyncStride
               ? 0xF800'0000ULL + static_cast<Addr>(id) * kLineBytes
               : 0x7800'0000'0000ULL + static_cast<Addr>(id) * kLineBytes;
}

/** Synthetic PC of the spin-loop load polling lock @p id. */
constexpr PC
lockSpinPc(LockId id)
{
    return 0xDEAD'0000ULL + static_cast<PC>(id) * 16;
}

/** Synthetic PC of the spin-loop load polling barrier @p id. */
constexpr PC
barrierSpinPc(BarrierId id)
{
    return 0xBEEF'0000ULL + static_cast<PC>(id) * 16;
}

} // namespace addrmap

} // namespace sst

#endif // SST_WORKLOAD_OP_HH
