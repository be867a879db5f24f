/**
 * @file
 * WDL compiler back end: lowers a validated Program to deterministic
 * per-thread OpSource streams. Each thread interprets its group's
 * statement tree with an explicit frame stack on the OpEmitter core it
 * shares with ThreadProgram (buffered refill, warmup sweeps, memory
 * references), drawing every stochastic choice from a per-thread Rng
 * seeded by (group seed, local tid) so streams are pure functions of
 * the compiled IR and thread placement.
 *
 * Parallel streams (any workload with > 1 total thread) emit warmup
 * sweeps, a warmup barrier, lock/barrier ops and an end-of-run
 * rendezvous; the 1-thread baseline stream is the sequential program —
 * full undivided loop counts, critical-section bodies kept, sync ops
 * elided — exactly the serial reference the paper's Ts means.
 */

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "wdl/wdl.hh"
#include "workload/op.hh"
#include "workload/op_emitter.hh"

namespace sst {
namespace wdl {

namespace {

/** SplitMix64-style finalizer mixing a group seed with a thread id. */
std::uint64_t
threadSeed(std::uint64_t seed, std::uint64_t tid)
{
    std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL + tid * 0xbf58476d1ce4e5b9ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Zipfian key generator over [0, n) — the YCSB/Gray formulation also
 * used by DBx1000's contention knobs. theta in [0, 1); theta == 0 is
 * uniform, 0.9 is the classic highly-skewed setting.
 */
struct ZipfGen
{
    std::uint64_t n = 1;
    double theta = 0.0;
    double alpha = 0.0;
    double zetan = 0.0;
    double eta = 0.0;

    static double
    zeta(std::uint64_t count, double th)
    {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= count; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), th);
        return sum;
    }

    void
    init(std::uint64_t count, double th)
    {
        n = count;
        theta = th;
        if (n <= 1)
            return;
        alpha = 1.0 / (1.0 - theta);
        zetan = zeta(n, theta);
        const double zeta2 = zeta(2, theta);
        eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
              (1.0 - zeta2 / zetan);
    }

    std::uint64_t
    draw(Rng &rng) const
    {
        if (n <= 1)
            return 0;
        const double u = rng.uniform();
        const double uz = u * zetan;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta))
            return 1;
        const std::uint64_t key = static_cast<std::uint64_t>(
            static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
        return key >= n ? n - 1 : key;
    }
};

/**
 * One thread's interpreter over the statement tree, on the OpEmitter
 * core. `memory` and `txn` statements are resumable: each draws its
 * count when it starts, then emits one reference at a time, so a
 * refill stops when its buffer is full, mid-statement.
 */
class ProgramSource final : public OpEmitter
{
  public:
    ProgramSource(std::shared_ptr<const Program> prog, int group,
                  int local_tid, ThreadId data_tid, int group_threads,
                  std::uint64_t seed, bool parallel, int barrier_offset)
        : OpEmitter(parallel, barrier_offset), prog_(std::move(prog)),
          group_(prog_->groups[static_cast<std::size_t>(group)]),
          groupIndex_(group), localTid_(local_tid), dataTid_(data_tid),
          groupThreads_(group_threads), barrierOffset_(barrier_offset),
          rng_(threadSeed(seed, static_cast<std::uint64_t>(local_tid)))
    {
        precomputeZipf(group_.body);
        addWarmupSweeps();
        stack_.push_back(Frame{&group_.body, 0, 1, nullptr, 0});
    }

  private:
    struct Frame
    {
        const std::vector<Stmt> *body;
        std::size_t idx = 0;
        std::uint64_t trips = 1;      ///< body passes left (loops)
        const Stmt *owner = nullptr;  ///< lock/phase that opened the frame
        LockId lockId = 0;            ///< resolved key for lock owners
    };

    void
    precomputeZipf(const std::vector<Stmt> &body)
    {
        for (const Stmt &s : body) {
            if (s.kind == Stmt::Kind::kLock &&
                s.sel.kind == LockSel::Kind::kZipf) {
                ZipfGen z;
                z.init(prog_->locks[static_cast<std::size_t>(s.lock)].size,
                       s.sel.theta);
                zipf_.emplace(&s, z);
            } else if (s.kind == Stmt::Kind::kTxn) {
                ZipfGen z;
                z.init(prog_->locks[static_cast<std::size_t>(s.lock)].size,
                       s.theta);
                zipf_.emplace(&s, z);
            }
            if (!s.body.empty())
                precomputeZipf(s.body);
        }
    }

    /** Pre-RoI warmup: the private and group-shared regions, rounded
     *  up to whole lines, then every lock's protected data. Lock ids
     *  are dense from 0, so their adjacent regions form one sweep. */
    void
    addWarmupSweeps()
    {
        auto lines = [](std::uint64_t bytes) {
            return (bytes + kLineBytes - 1) / kLineBytes;
        };
        addSweep(addrmap::privateBase(dataTid_), lines(group_.privateBytes),
                 0x30000);
        addSweep(addrmap::groupSharedBase(groupIndex_),
                 lines(group_.sharedBytes), 0x30010);
        std::uint64_t ids = 0;
        for (const LockDecl &l : prog_->locks)
            ids += l.size;
        addSweep(addrmap::lockDataBase(0),
                 ids * lines(addrmap::kLockDataBytes), 0x30020);
    }

    /** Advance the interpreter by one statement/frame event, or resume
     *  the memory/txn statement in progress. Past the end of the group
     *  body, emits the end-of-run rendezvous and returns false. */
    bool
    step() override
    {
        if (cur_) {
            // Until the refill is full or the statement ends (cur_ = null).
            if (cur_->kind == Stmt::Kind::kMemory)
                resumeMemory(*cur_);
            else
                resumeTxn(*cur_);
            return true;
        }
        while (!stack_.empty()) {
            Frame &f = stack_.back();
            if (f.idx >= f.body->size()) {
                if (f.trips > 1) {
                    --f.trips;
                    f.idx = 0;
                    continue;
                }
                const Stmt *owner = f.owner;
                const LockId lockId = f.lockId;
                stack_.pop_back();
                if (owner) {
                    if (owner->kind == Stmt::Kind::kLock) {
                        lockStack_.pop_back();
                        if (parallel())
                            emit(Op::lockRelease(lockId));
                    } else if (owner->kind == Stmt::Kind::kPhase) {
                        if (parallel())
                            emit(Op::barrier(owner->barrier + barrierOffset_));
                    }
                }
                if (!stack_.empty())
                    ++stack_.back().idx;
                return true;
            }

            const Stmt &s = (*f.body)[f.idx];
            switch (s.kind) {
            case Stmt::Kind::kCompute: {
                const std::uint64_t n = s.count.draw(rng_);
                if (n > 0)
                    emit(Op::compute(clampCount(n)));
                ++f.idx;
                break;
            }
            case Stmt::Kind::kMemory:
            case Stmt::Kind::kTxn:
                ++f.idx;
                cur_ = &s; // emitted by the next steps
                left_ = s.count.draw(rng_);
                if (s.kind == Stmt::Kind::kTxn)
                    txnGen_ = &zipf_.at(&s);
                break;
            case Stmt::Kind::kBarrier:
            case Stmt::Kind::kYield:
                if (parallel())
                    emit(Op::barrier(s.barrier + barrierOffset_));
                ++f.idx;
                break;
            case Stmt::Kind::kLoop: {
                const std::uint64_t trips = tripsFor(s);
                if (trips == 0) {
                    ++f.idx;
                    break;
                }
                stack_.push_back(Frame{&s.body, 0, trips, nullptr, 0});
                break; // parent idx advances when the frame pops
            }
            case Stmt::Kind::kLock: {
                const LockId id = resolveLock(s);
                if (parallel())
                    emit(Op::lockAcquire(id));
                lockStack_.push_back(id);
                stack_.push_back(Frame{&s.body, 0, 1, &s, id});
                break;
            }
            case Stmt::Kind::kPhase:
                stack_.push_back(Frame{&s.body, 0, 1, &s, 0});
                break;
            }
            return true;
        }
        if (parallel())
            emit(Op::barrier(prog_->barrierSlots + barrierOffset_));
        return false;
    }

    /** Per-thread trips of a loop: divided over the group's threads
     *  (remainder to the low local tids) unless `each`. */
    std::uint64_t
    tripsFor(const Stmt &s)
    {
        const std::uint64_t n = s.count.draw(rng_);
        if (s.each)
            return n;
        const std::uint64_t t = static_cast<std::uint64_t>(groupThreads_);
        return n / t +
               (static_cast<std::uint64_t>(localTid_) < n % t ? 1 : 0);
    }

    LockId
    resolveLock(const Stmt &s)
    {
        const LockDecl &decl = prog_->locks[static_cast<std::size_t>(s.lock)];
        std::uint64_t key = 0;
        switch (s.sel.kind) {
        case LockSel::Kind::kFixed:
            key = s.sel.index;
            break;
        case LockSel::Kind::kUniform:
            key = rng_.below(decl.size);
            break;
        case LockSel::Kind::kZipf:
            key = zipf_.at(&s).draw(rng_);
            break;
        }
        return static_cast<LockId>(static_cast<std::uint64_t>(decl.firstId) +
                                   key);
    }

    static std::uint32_t
    clampCount(std::uint64_t n)
    {
        return n > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(n);
    }

    /** `memory`: one reference per element, address drawn first. */
    void
    resumeMemory(const Stmt &s)
    {
        Addr base = 0;
        std::uint64_t span = 0;
        switch (s.region) {
        case Region::kPrivate:
            base = addrmap::privateBase(dataTid_);
            span = group_.privateBytes;
            break;
        case Region::kShared:
            base = addrmap::groupSharedBase(groupIndex_);
            span = group_.sharedBytes;
            break;
        case Region::kData:
            base = addrmap::lockDataBase(lockStack_.back());
            span = addrmap::kLockDataBytes;
            break;
        }
        for (; left_ > 0 && room(); --left_) {
            const Addr addr = span ? base + rng_.below(span) : base;
            emitMemRef(addr, rng_.chance(s.storeFrac));
        }
        if (left_ == 0)
            cur_ = nullptr;
    }

    /** `txn`: each operation opens with its key, read/write, compute
     *  and reference-count draws (acquire + compute), then emits its
     *  references one at a time, then the release. */
    void
    resumeTxn(const Stmt &s)
    {
        while (room()) {
            if (txnTail_ == 0) {
                if (left_ == 0) {
                    cur_ = nullptr;
                    return;
                }
                --left_;
                const LockDecl &decl =
                    prog_->locks[static_cast<std::size_t>(s.lock)];
                txnLock_ = static_cast<LockId>(
                    static_cast<std::uint64_t>(decl.firstId) +
                    txnGen_->draw(rng_));
                txnWrite_ = !rng_.chance(s.rwRatio);
                if (parallel())
                    emit(Op::lockAcquire(txnLock_));
                const std::uint64_t c = s.csCompute.draw(rng_);
                if (c > 0)
                    emit(Op::compute(clampCount(c)));
                // Ops open only when txn_ops > 0, and then the parser
                // caps memory= at kMaxStatementOps: the +1 cannot wrap.
                txnTail_ = s.csMemory.draw(rng_) + 1;
            } else if (--txnTail_ > 0) {
                emitMemRef(addrmap::lockDataBase(txnLock_) +
                               rng_.below(addrmap::kLockDataBytes),
                           txnWrite_);
            } else if (parallel()) {
                emit(Op::lockRelease(txnLock_));
            }
        }
    }

    std::shared_ptr<const Program> prog_;
    const GroupIR &group_;
    int groupIndex_;
    int localTid_;
    ThreadId dataTid_;
    int groupThreads_;
    int barrierOffset_;
    Rng rng_;
    std::unordered_map<const Stmt *, ZipfGen> zipf_;

    std::vector<LockId> lockStack_;
    std::vector<Frame> stack_;

    // The memory/txn statement in progress (null between statements).
    const Stmt *cur_ = nullptr;
    std::uint64_t left_ = 0;          ///< references / txn ops not started
    const ZipfGen *txnGen_ = nullptr; ///< txn: key generator
    LockId txnLock_ = 0;              ///< txn: the open op's lock
    bool txnWrite_ = false;
    std::uint64_t txnTail_ = 0; ///< txn: open op's references + release
};

/** Strip directory and a trailing ".wdl" from @p path for display. */
std::string
pathStem(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string ext = ".wdl";
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0)
        stem.resize(stem.size() - ext.size());
    return stem.empty() ? std::string("workload") : stem;
}

} // namespace

WorkloadSpec
toWorkloadSpec(std::shared_ptr<const Program> program, std::string source_path)
{
    if (!program)
        throw std::invalid_argument("toWorkloadSpec: null program");
    WorkloadSpec spec;
    spec.role = program->role;
    spec.name =
        program->name.empty() ? pathStem(source_path) : program->name;
    for (const GroupIR &g : program->groups) {
        WorkloadGroup wg;
        // Placeholder profile: carries the per-group label, suite and
        // seed through the driver/trace/CSV layers. The op streams and
        // fingerprints come from the compiled IR, never from these
        // knobs.
        wg.profile.name = g.name;
        wg.profile.suite = "wdl";
        wg.profile.seed = g.seed;
        wg.profile.totalIters = 1;
        wg.profile.barrierPhases = 1;
        wg.profile.finalBarrier = true;
        wg.nthreads = g.nthreads;
        spec.groups.push_back(std::move(wg));
    }
    spec.wdlProgram = std::move(program);
    spec.wdlPath = std::move(source_path);
    spec.validate();
    return spec;
}

WorkloadSpec
loadWorkloadFile(const std::string &path)
{
    return toWorkloadSpec(
        std::make_shared<const Program>(loadProgram(path)), path);
}

OpSourceFactory
workloadSources(const WorkloadSpec &spec)
{
    const std::shared_ptr<const Program> prog = spec.wdlProgram;
    if (!prog)
        throw std::invalid_argument(
            "workloadSources: spec has no compiled WDL program");
    struct GroupCtx
    {
        int first;
        int threads;
        std::uint64_t seed;
        int barrierOffset;
    };
    std::vector<GroupCtx> ctx;
    int first = 0;
    for (std::size_t g = 0; g < spec.groups.size(); ++g) {
        const int offset = spec.role == WorkloadRole::kMix
                               ? static_cast<int>(g) * kGroupSyncStride
                               : 0;
        ctx.push_back(GroupCtx{first, spec.groups[g].nthreads,
                               spec.groups[g].profile.seed, offset});
        first += spec.groups[g].nthreads;
    }
    const bool parallel = spec.nthreads() > 1;
    return [prog, ctx, parallel](ThreadId tid,
                                 int nthreads) -> std::unique_ptr<OpSource> {
        (void)nthreads;
        for (std::size_t g = 0; g < ctx.size(); ++g) {
            const GroupCtx &c = ctx[g];
            if (static_cast<int>(tid) < c.first + c.threads) {
                return std::make_unique<ProgramSource>(
                    prog, static_cast<int>(g),
                    static_cast<int>(tid) - c.first, tid, c.threads, c.seed,
                    parallel, c.barrierOffset);
            }
        }
        throw std::out_of_range("workloadSources: thread id out of range");
    };
}

OpSourceFactory
groupBaselineSources(const WorkloadSpec &spec, int group)
{
    const std::shared_ptr<const Program> prog = spec.wdlProgram;
    if (!prog)
        throw std::invalid_argument(
            "groupBaselineSources: spec has no compiled WDL program");
    if (group < 0 || group >= spec.ngroups())
        throw std::out_of_range("groupBaselineSources: bad group index");
    const std::uint64_t seed =
        spec.groups[static_cast<std::size_t>(group)].profile.seed;
    return [prog, group, seed](ThreadId tid,
                               int nthreads) -> std::unique_ptr<OpSource> {
        (void)tid;
        (void)nthreads;
        return std::make_unique<ProgramSource>(prog, group, /*local_tid=*/0,
                                               /*data_tid=*/0,
                                               /*group_threads=*/1, seed,
                                               /*parallel=*/false,
                                               /*barrier_offset=*/0);
    };
}

} // namespace wdl
} // namespace sst
