#include "sim/gpu.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/stats.hpp"

namespace lmi {

namespace {

/** Physical base used to interleave per-thread local memory for timing. */
constexpr uint64_t kLocalPhysBase = uint64_t(1) << 50;

/**
 * Cap on a lane's dense stack-frame window: one page, the storage a lane
 * touching its frame cost when local memory was page-granular. A
 * block's shared window is capped by the SM's scratchpad
 * (kSharedCapacity). Bytes past a cap spill to the window's
 * SparseMemory (same contents, slower), so a huge declared size cannot
 * inflate the arenas.
 */
constexpr uint64_t kFrameWindowCap = SparseMemory::kPageBytes;

double
asDouble(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

uint64_t
asBits(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

} // namespace

unsigned
resolveSimThreads(const GpuConfig& config)
{
    if (config.sim_threads)
        return config.sim_threads;
    const char* env = std::getenv("LMI_SIM_THREADS");
    if (!env || !*env)
        return 1;
    uint64_t v = 0;
    if (!parseCount("LMI_SIM_THREADS", env, UINT_MAX, &v))
        lmi_fatal("LMI_SIM_THREADS must be a thread count");
    return v ? unsigned(v) : 1;
}

// ---------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------

/**
 * One SM's view of global memory during a slice: the memory committed
 * at the last slice barrier plus this SM's own stores of the slice.
 *
 * Reads of a page the SM has not stored to this slice come straight
 * from the frozen base SparseMemory (via the const peekPage path — the
 * base is never mutated while workers run). The first store to a page
 * in a slice copies the page from the base into a private overlay;
 * stores land there (so the SM reads its own writes) and append to a
 * byte-accurate log that the slice barrier replays into the base in
 * canonical SM order.
 *
 * Overlays live for one slice. By the next slice the base holds every
 * commit through the barrier — this SM's stores, every other SM's and
 * every global atomic — so a fresh copy is exactly what a kept overlay
 * would have to be brought up to. Page buffers return to a per-SM pool
 * instead of the heap.
 */
class GpuSim::GlobalMemView
{
  public:
    /** One deferred store, replayed at the slice barrier. */
    struct StoreRec
    {
        uint64_t addr;
        uint64_t value;
        uint32_t width;
    };

    void init(const SparseMemory* base) { base_ = base; }

    /** Drop every overlay: the barrier committed their stores. */
    void
    beginSlice()
    {
        for (auto& [page, buf] : overlays_)
            pool_.push_back(std::move(buf));
        overlays_.clear();
        r_idx_ = kNoPage;
        w_idx_ = kNoPage;
    }

    uint64_t
    read(uint64_t addr, unsigned n)
    {
        const uint64_t off = addr % SparseMemory::kPageBytes;
        if (off + n <= SparseMemory::kPageBytes) {
            const uint8_t* p = readablePage(addr / SparseMemory::kPageBytes);
            if (!p)
                return 0;
            uint64_t v = 0;
            std::memcpy(&v, p + off, n);
            return v;
        }
        // Page-crossing read (rare): assemble byte-wise.
        uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t a = addr + i;
            const uint8_t* p = readablePage(a / SparseMemory::kPageBytes);
            const uint8_t b = p ? p[a % SparseMemory::kPageBytes] : 0;
            v |= uint64_t(b) << (8 * i);
        }
        return v;
    }

    void
    write(uint64_t addr, uint64_t value, unsigned n)
    {
        const uint64_t off = addr % SparseMemory::kPageBytes;
        if (off + n <= SparseMemory::kPageBytes) {
            std::memcpy(writablePage(addr / SparseMemory::kPageBytes) + off,
                        &value, n);
        } else {
            for (unsigned i = 0; i < n; ++i) {
                const uint64_t a = addr + i;
                writablePage(a / SparseMemory::kPageBytes)
                    [a % SparseMemory::kPageBytes] =
                        uint8_t(value >> (8 * i));
            }
        }
        log_.push_back({addr, value, n});
    }

    const std::vector<StoreRec>& log() const { return log_; }
    void clearLog() { log_.clear(); }

  private:
    using PageBuf =
        std::unique_ptr<std::array<uint8_t, SparseMemory::kPageBytes>>;

    static constexpr uint64_t kNoPage = ~uint64_t(0);

    const uint8_t*
    readablePage(uint64_t page)
    {
        if (page != r_idx_) {
            auto it = overlays_.find(page);
            r_ptr_ = it != overlays_.end() ? it->second->data()
                                           : base_->peekPage(page);
            r_idx_ = page;
        }
        return r_ptr_;
    }

    uint8_t*
    writablePage(uint64_t page)
    {
        if (page == w_idx_)
            return w_ptr_;
        auto [it, fresh] = overlays_.try_emplace(page);
        if (fresh) {
            if (pool_.empty()) {
                // The copy below overwrites every byte: skip the zero-fill.
                it->second = std::make_unique_for_overwrite<
                    std::array<uint8_t, SparseMemory::kPageBytes>>();
            } else {
                it->second = std::move(pool_.back());
                pool_.pop_back();
            }
            if (const uint8_t* bp = base_->peekPage(page))
                std::memcpy(it->second->data(), bp, SparseMemory::kPageBytes);
            else
                std::memset(it->second->data(), 0, SparseMemory::kPageBytes);
        }
        w_idx_ = page;
        w_ptr_ = it->second->data();
        // Reads of this page must now see the overlay.
        r_idx_ = page;
        r_ptr_ = w_ptr_;
        return w_ptr_;
    }

    const SparseMemory* base_ = nullptr;
    /** This slice's overlays, by page number. */
    std::unordered_map<uint64_t, PageBuf> overlays_;
    /** Page buffers of earlier slices' overlays, for reuse. */
    std::vector<PageBuf> pool_;
    std::vector<StoreRec> log_;
    /** One-entry page caches, valid within a slice. */
    uint64_t r_idx_ = kNoPage;
    uint64_t w_idx_ = kNoPage;
    const uint8_t* r_ptr_ = nullptr;
    uint8_t* w_ptr_ = nullptr;
};

struct GpuSim::Warp
{
    uint32_t block = 0;        ///< global block id
    uint32_t warp_in_block = 0;
    uint32_t first_gtid = 0;
    uint32_t lanes = 32;       ///< threads in this warp
    uint64_t pc = 0;
    uint32_t active = 0;       ///< current-path mask
    uint32_t exited = 0;
    uint16_t rstride = 32;     ///< value-row stride (= warp size)
    /** Residency slot: indexes the per-SM local-memory and register
     *  arenas. */
    uint32_t local_slot = 0;
    WindowedMemory* shared = nullptr; ///< this block's shared-arena slot
    /** Value rows (RegLayout), register-major (SoA): row r holds all
     *  lanes of the registers mapped to r, so the per-instruction lane
     *  loop walks contiguous memory. Points into SmCtx::reg_store. */
    uint64_t* regs = nullptr;
    std::array<uint32_t, kNumPredRegs> preds{};
    /** Ready cycle per scoreboard slot (RegLayout), in SmCtx::reg_store
     *  next to the rows. */
    uint64_t* reg_ready = nullptr;
    std::array<uint64_t, kNumPredRegs> pred_ready{};
    std::vector<std::pair<uint64_t, uint32_t>> stack; ///< (pc, mask)
    uint64_t stall_until = 0;
    bool at_barrier = false;
    /** Parked on a device malloc/free or a global atomic until the
     *  slice barrier executes the deferred operation. */
    bool heap_pending = false;
    /** PC of the BAR this warp is parked on (valid while at_barrier). */
    uint64_t barrier_pc = 0;
    bool done = false;

    uint64_t* regRow(unsigned row) { return regs + size_t(row) * rstride; }

    const uint64_t*
    regRow(unsigned row) const
    {
        return regs + size_t(row) * rstride;
    }
};

struct GpuSim::BlockCtx
{
    uint32_t block_id = 0;
    unsigned num_warps = 0;
    unsigned done_warps = 0;
    uint32_t first_warp = 0;   ///< index of the block's first warp in SmCtx
    uint32_t shared_slot = 0;  ///< shared-arena slot backing this block
};

struct GpuSim::SmCtx
{
    /** A device malloc/free, deferred to the slice barrier (the heap
     *  allocator is shared, order-dependent state). */
    struct HeapOp
    {
        bool is_malloc = false;
        uint32_t warp = 0;        ///< index into SmCtx::warps
        uint64_t cycle = 0;       ///< issue cycle
        uint64_t seq = 0;         ///< per-SM event order
        int16_t dst_row = -1;     ///< malloc result: value row
        int16_t dst_slot = -1;    ///< malloc result: scoreboard slot
        uint32_t active = 0;      ///< active mask at issue
        /** Per-lane operand: requested size (malloc) or pointer (free). */
        std::array<uint64_t, 32> vals{};
    };

    /** A global-memory atomic (ATOMG/CASG), deferred to the slice
     *  barrier: per-SM overlays would lose cross-SM read-modify-write
     *  atomicity within a slice, so the operation executes against the
     *  base memory in canonical (sm, seq) order. Addresses are already
     *  mechanism-checked and translated at issue. */
    struct AtomOp
    {
        bool is_cas = false;
        AtomicOp aop = AtomicOp::Add;
        uint8_t width = 4;
        uint32_t warp = 0;        ///< index into SmCtx::warps
        uint64_t cycle = 0;       ///< issue cycle
        uint64_t seq = 0;         ///< per-SM event order
        int16_t dst_row = -1;     ///< old-value result row (-1: none)
        int16_t dst_slot = -1;    ///< old-value result scoreboard slot
        uint32_t active = 0;      ///< active mask at issue
        std::array<uint64_t, 32> addrs{}; ///< translated per-lane address
        std::array<uint64_t, 32> vals{};  ///< RMW operand / CAS desired
        std::array<uint64_t, 32> cmps{};  ///< CAS expected
    };

    /** A fault raised during the slice; the barrier picks the winner by
     *  (cycle, sm_id, seq). */
    struct PendingFault
    {
        uint64_t cycle = 0;
        uint64_t seq = 0;
        Fault fault;
    };

    /** Per-SM result counters, summed in SM order at run end. */
    struct Counters
    {
        uint64_t instructions = 0;
        uint64_t thread_instructions = 0;
        uint64_t ldg = 0, stg = 0, lds = 0, sts = 0, ldl = 0, stl = 0;
        uint64_t l1_hits = 0, l1_misses = 0;
        uint64_t l2_hits = 0, l2_misses = 0;
        uint64_t dram_accesses = 0;
    };

    unsigned sm_id = 0;
    uint64_t cycle = 0;
    /** LSU port occupancy: memory instructions serialize here. */
    uint64_t lsu_busy_until = 0;
    CacheModel l1;
    /** This SM's share of HBM bandwidth (own queue, so SM clocks stay
     *  decoupled). */
    std::unique_ptr<DramModel> dram;
    std::vector<uint32_t> pending_blocks; ///< global block ids to run
    size_t next_block = 0;
    std::vector<Warp> warps;              ///< resident warps
    std::vector<BlockCtx> blocks;         ///< resident blocks
    std::vector<int> last_issued;         ///< per scheduler: warp index
    /** Per-scheduler ascending indices of not-yet-done warps. Done
     *  entries are skipped during scans and pruned at block retirement,
     *  so scheduler walks stay O(resident) instead of O(ever admitted). */
    std::vector<std::vector<uint32_t>> sched_live;
    /**
     * Per warp (indexed like `warps`): the cached warpReadyAt(), which
     * the scheduler scans read instead of the scoreboard. Only the warp
     * itself changes its readiness by issuing, except for barrier
     * release, block admission and the slice barrier's heap/atomic
     * unparking. So the entry is refreshed after the warp issues, in
     * releaseBarriers for the released warps, in admitBlocks for new
     * warps, at the start of every detailed slice for all live warps,
     * and set to "never" in markWarpDone.
     */
    std::vector<uint64_t> ready;
    /** Per scheduler: earliest cycle any of its warps can issue, set
     *  by a full scan over `ready` that found nothing ready. While it
     *  lies in the future the scheduler is skipped outright — warp
     *  readiness only moves earlier on barrier release, block admission
     *  or heap/atomic completion, all of which clear the whole array. */
    std::vector<uint64_t> sched_sleep;
    unsigned live_warps = 0;       ///< warps admitted and not done
    unsigned at_barrier_warps = 0; ///< warps parked on a barrier
    unsigned heap_pending_warps = 0; ///< warps parked on a heap/atomic op
    bool retire_pending = false;   ///< some block completed all warps
    bool finished = false;         ///< all blocks retired
    bool stopped = false;          ///< faulted; awaiting the barrier
    uint64_t idle_guard = 0;       ///< consecutive no-progress cycles

    /** Flat memory arenas: residency bounds cap live blocks/warps, so
     *  one slot pool per SM serves its whole share of the launch. Each
     *  slot is a windowed memory over this SM's dense storage (one
     *  window per block, one per lane of a warp slot); slots are
     *  zeroed when (re)assigned, preserving "fresh memory reads zero",
     *  and only then. Per-SM (not launch-global) so worker threads
     *  never share them. */
    std::vector<WindowedMemory> shared_arena;
    std::vector<WindowedMemory> local_arena;
    std::unique_ptr<uint8_t[]> shared_store;
    std::unique_ptr<uint8_t[]> local_store;
    std::vector<uint32_t> shared_free;
    std::vector<uint32_t> local_free;
    /** Register arena, indexed by warp slot (`local_free` ids): per
     *  slot, the RegLayout value rows then the scoreboard, reg_words
     *  words in all. Uninitialised; admission zeroes the scoreboard and
     *  the rows of registers live at entry, the only rows a kernel can
     *  read before writing. */
    std::unique_ptr<uint64_t[]> reg_store;
    size_t reg_words = 0;

    /** Reusable coalescer scratch. */
    std::vector<uint64_t> lines_scratch;

    /** Private global-memory view (overlay + store log). */
    GlobalMemView gview;
    /** L1-missed line addresses in access order, replayed through the
     *  shared L2 at the barrier. */
    std::vector<uint64_t> l2_log;
    /** Lines this SM already took an L2 probe decision on this slice
     *  (present after the first touch, whatever the frozen array said). */
    LineSet own_lines;
    std::vector<HeapOp> heap_q;
    std::vector<AtomOp> atom_q;
    std::vector<PendingFault> fault_q;
    Counters cnt;
    uint64_t event_seq = 0;

    SmCtx(const GpuConfig& cfg)
        : l1(cfg.l1_size, cfg.l1_assoc, cfg.line_bytes),
          last_issued(cfg.schedulers_per_sm, -1),
          sched_live(cfg.schedulers_per_sm),
          sched_sleep(cfg.schedulers_per_sm, 0)
    {
    }

    /**
     * Size the arenas to this SM's actual share of the launch — the
     * residency caps only matter when enough blocks are pending to hit
     * them, and a kernel with no local-memory instructions needs no
     * local slot storage at all (slot ids are still handed out, they
     * just index nothing). @p shared_bytes and @p frame_bytes are the
     * (capped) window sizes, over [kSharedBase, +shared_bytes) and
     * [frame_lo, +frame_bytes); @p warp_reg_words sizes a warp's
     * register slot.
     */
    void
    initArenas(const GpuConfig& cfg, unsigned warps_per_block,
               uint64_t shared_bytes, bool uses_local, uint64_t frame_lo,
               uint64_t frame_bytes, size_t warp_reg_words)
    {
        const uint32_t resident_blocks = uint32_t(
            std::min<size_t>(cfg.max_blocks_per_sm, pending_blocks.size()));
        const uint32_t resident_warps =
            std::min(cfg.max_warps_per_sm,
                     resident_blocks * warps_per_block);
        bindArena(shared_arena, shared_store, resident_blocks, kSharedBase,
                  shared_bytes);
        shared_free.reserve(resident_blocks);
        for (uint32_t s = 0; s < resident_blocks; ++s)
            shared_free.push_back(s);
        if (uses_local)
            bindArena(local_arena, local_store,
                      size_t(resident_warps) * cfg.warp_size, frame_lo,
                      frame_bytes);
        local_free.reserve(resident_warps);
        for (uint32_t s = 0; s < resident_warps; ++s)
            local_free.push_back(s);
        reg_words = warp_reg_words;
        reg_store = std::make_unique_for_overwrite<uint64_t[]>(
            size_t(resident_warps) * reg_words);
    }

    /** @p n windows of @p bytes each over one fresh, unzeroed buffer
     *  (admitBlocks zeroes a slot when it assigns it). */
    static void
    bindArena(std::vector<WindowedMemory>& arena,
              std::unique_ptr<uint8_t[]>& store, size_t n, uint64_t lo,
              uint64_t bytes)
    {
        store = std::make_unique_for_overwrite<uint8_t[]>(n * bytes);
        arena = std::vector<WindowedMemory>(n);
        for (size_t i = 0; i < n; ++i)
            arena[i].bind(store.get() + i * bytes, lo, bytes);
    }
};

/**
 * Predecoded per-instruction metadata: operand kinds (with constant-bank
 * reads folded — the bank is written once at launch), each register
 * operand's value row and scoreboard slot (RegLayout), and the
 * destination/guard fields the readiness check needs. Built once per
 * launch so the issue path never re-inspects Operands.
 */
struct GpuSim::InstDesc
{
    struct Src
    {
        enum class K : uint8_t { Const, Reg, Special };
        K kind = K::Const;
        uint16_t row = 0; ///< value row (K::Reg)
        SpecialReg sr = SpecialReg::TidX;
        uint64_t constv = 0;
    };

    /** Issue-path dispatch class: control, memory, or ALU datapath. */
    enum class Kind : uint8_t { Ctrl, Mem, Alu };

    Src src[kMaxSrcs];
    int16_t src_slot[kMaxSrcs] = {-1, -1, -1}; ///< scoreboard reads
    int16_t dst_row = -1;  ///< destination register's value row
    int16_t dst_slot = -1; ///< destination register's scoreboard slot
    int16_t dst_pred = -1; ///< ISETP's destination predicate
    int16_t guard_pred = -1;
    Kind kind = Kind::Alu;
    bool is_isetp = false;
    bool is_mem = false;
    bool is_store = false;
    MemSpace space = MemSpace::Global; ///< valid when is_mem
    unsigned alu_latency = 0;          ///< base latency for the ALU path
};

/**
 * One source operand resolved against a concrete warp: either a pointer
 * to a register-major row, or a lane-affine value base + stride * lane
 * (every SpecialReg is affine in the lane index; immediates and c-bank
 * reads are the stride-0 case).
 */
struct GpuSim::ResolvedSrc
{
    const uint64_t* row = nullptr;
    uint64_t base = 0;
    uint64_t stride = 0;

    uint64_t
    get(unsigned lane) const
    {
        return row ? row[lane] : base + stride * lane;
    }

    /** The lanes as a row: the register row itself, or the first
     *  @p lanes values written to @p scratch. */
    const uint64_t*
    asRow(std::array<uint64_t, 32>& scratch, unsigned lanes) const
    {
        if (row)
            return row;
        for (unsigned lane = 0; lane < lanes; ++lane)
            scratch[lane] = get(lane);
        return scratch.data();
    }
};

/**
 * Epoch-based worker pool, reused across slices.
 *
 * runSlice() publishes the slice number under the mutex, wakes the
 * workers, and participates itself; every participant (workers and the
 * calling thread) pulls SM indices from one atomic ticket until the
 * list is exhausted, then the caller waits for the stragglers. Dynamic
 * ticket assignment is legal because a slice's per-SM work depends only
 * on that SM's own state and the frozen shared snapshot — which thread
 * steps which SM cannot affect results.
 */
class GpuSim::WorkerPool
{
  public:
    WorkerPool(GpuSim& sim, std::vector<SmCtx>& sms, unsigned threads)
        : sim_(sim), sms_(sms)
    {
        workers_.reserve(threads - 1);
        for (unsigned i = 1; i < threads; ++i)
            workers_.emplace_back([this] { workerMain(); });
    }

    ~WorkerPool()
    {
        shutdown();
    }

    void
    runSlice(uint64_t slice_no)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            slice_no_ = slice_no;
            ticket_.store(0, std::memory_order_relaxed);
            active_ = unsigned(workers_.size());
            ++epoch_;
        }
        cv_start_.notify_all();
        drain(slice_no);
        std::unique_lock<std::mutex> lock(m_);
        cv_done_.wait(lock, [this] { return active_ == 0; });
    }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_start_.notify_all();
        for (std::thread& t : workers_)
            if (t.joinable())
                t.join();
        workers_.clear();
    }

  private:
    void
    drain(uint64_t slice_no)
    {
        for (;;) {
            const uint32_t i =
                ticket_.fetch_add(1, std::memory_order_relaxed);
            if (i >= sms_.size())
                return;
            sim_.stepSmSlice(sms_[i], slice_no);
        }
    }

    void
    workerMain()
    {
        uint64_t seen = 0;
        for (;;) {
            uint64_t slice_no;
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_start_.wait(lock, [this, seen] {
                    return stop_ || epoch_ != seen;
                });
                if (stop_)
                    return;
                seen = epoch_;
                slice_no = slice_no_;
            }
            drain(slice_no);
            {
                std::lock_guard<std::mutex> lock(m_);
                if (--active_ == 0)
                    cv_done_.notify_one();
            }
        }
    }

    GpuSim& sim_;
    std::vector<SmCtx>& sms_;
    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable cv_start_, cv_done_;
    uint64_t epoch_ = 0;
    uint64_t slice_no_ = 0;
    unsigned active_ = 0;
    bool stop_ = false;
    std::atomic<uint32_t> ticket_{0};
};

// ---------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------

GpuSim::GpuSim(const GpuConfig& config, ProtectionMechanism& mech,
               SparseMemory& global_mem, MessageHeap& heap,
               const Program& program, Launch launch)
    : config_(config),
      mech_(mech),
      global_mem_(global_mem),
      heap_(heap),
      program_(program),
      launch_(std::move(launch)),
      l2_(config.l2_size, config.l2_assoc, config.line_bytes),
      layout_(layoutRegisters(program))
{
    // Before decoding: the decode table indexes the layout by register.
    program_.validate();

    // Constant bank: stack pointer (Fig. 7), dynamic-shared base, and
    // kernel parameters.
    cbank_.assign(Program::kParamBase + 8 * launch_.params.size() + 8, 0);
    const uint64_t stack_top = config_.stack_top;
    std::memcpy(cbank_.data() + Program::kStackPtrOffset, &stack_top, 8);
    {
        // The driver places the dynamic pool after the static buffers;
        // under pointer-encoding mechanisms it aligns the pool and hands
        // out a coarse extent over it (paper §IX-A).
        uint64_t dyn_base = program_.static_shared_bytes;
        uint64_t dyn_ptr = dyn_base;
        if (launch_.options.dynamic_shared_bytes > 0) {
            if (mech_.encodePointers()) {
                const uint64_t aligned = kDefaultCodec.alignedSize(
                    launch_.options.dynamic_shared_bytes);
                dyn_base = alignUp(dyn_base, aligned);
                dyn_ptr = kDefaultCodec.encode(
                    dyn_base, launch_.options.dynamic_shared_bytes);
            }
        }
        dyn_shared_base_ = dyn_base;
        std::memcpy(cbank_.data() + Program::kDynSharedOffset, &dyn_ptr, 8);
    }
    for (size_t i = 0; i < launch_.params.size(); ++i)
        std::memcpy(cbank_.data() + Program::kParamBase + 8 * i,
                    &launch_.params[i], 8);

    buildDecodeTable();
}

GpuSim::~GpuSim() = default;

void
GpuSim::buildDecodeTable()
{
    idesc_.resize(program_.code.size());
    for (size_t i = 0; i < program_.code.size(); ++i) {
        const Instruction& inst = program_.code[i];
        InstDesc& d = idesc_[i];
        for (unsigned s = 0; s < kMaxSrcs; ++s) {
            const Operand& op = inst.src[s];
            InstDesc::Src& ds = d.src[s];
            switch (op.kind) {
              case Operand::Kind::None:
                break; // Const 0
              case Operand::Kind::Reg: {
                const uint16_t slot = layout_.slot_of[op.value];
                ds.kind = InstDesc::Src::K::Reg;
                ds.row = layout_.row_of[slot];
                d.src_slot[s] = int16_t(slot);
                break;
              }
              case Operand::Kind::Imm:
                ds.constv = op.value;
                break;
              case Operand::Kind::CBank: {
                uint64_t v = 0;
                if (op.value + 8 <= cbank_.size())
                    std::memcpy(&v, cbank_.data() + op.value, 8);
                ds.constv = v;
                break;
              }
              case Operand::Kind::Special:
                ds.kind = InstDesc::Src::K::Special;
                ds.sr = SpecialReg(op.value);
                break;
            }
        }
        d.is_isetp = inst.op == Opcode::ISETP;
        if (d.is_isetp) {
            d.dst_pred = int16_t(inst.dst);
        } else if (inst.dst >= 0) {
            const uint16_t slot = layout_.slot_of[size_t(inst.dst)];
            d.dst_slot = int16_t(slot);
            d.dst_row = int16_t(layout_.row_of[slot]);
        }
        d.guard_pred = int16_t(inst.guard_pred);
        d.is_mem = isMemory(inst.op);
        if (d.is_mem) {
            d.is_store = isStore(inst.op);
            d.space = memSpaceOf(inst.op);
        }
        switch (inst.op) {
          case Opcode::BRA:
          case Opcode::EXIT:
          case Opcode::TRAP:
          case Opcode::BAR:
          case Opcode::NOP:
          case Opcode::RET:
          case Opcode::MALLOC:
          case Opcode::FREE:
          case Opcode::MEMBAR:
            d.kind = InstDesc::Kind::Ctrl;
            break;
          default:
            d.kind = d.is_mem ? InstDesc::Kind::Mem : InstDesc::Kind::Alu;
            break;
        }
        d.alu_latency = isFpAlu(inst.op)
                            ? (inst.op == Opcode::MUFU
                                   ? config_.sfu_latency
                                   : config_.fp_latency)
                            : config_.int_latency;
    }
}

// ---------------------------------------------------------------------
// Operand evaluation
// ---------------------------------------------------------------------

GpuSim::ResolvedSrc
GpuSim::resolveSrc(const Warp& warp, const InstDesc& d, unsigned idx) const
{
    const InstDesc::Src& s = d.src[idx];
    ResolvedSrc r;
    switch (s.kind) {
      case InstDesc::Src::K::Const:
        r.base = s.constv;
        break;
      case InstDesc::Src::K::Reg:
        r.row = warp.regRow(s.row);
        break;
      case InstDesc::Src::K::Special:
        switch (s.sr) {
          case SpecialReg::TidX:
            r.base = uint64_t(warp.warp_in_block) * config_.warp_size;
            r.stride = 1;
            break;
          case SpecialReg::TidY:      break;
          case SpecialReg::CtaIdX:    r.base = warp.block; break;
          case SpecialReg::CtaIdY:    break;
          case SpecialReg::NTidX:     r.base = launch_.block_threads; break;
          case SpecialReg::NTidY:     r.base = 1; break;
          case SpecialReg::NCtaIdX:   r.base = launch_.grid_blocks; break;
          case SpecialReg::LaneId:    r.stride = 1; break;
          case SpecialReg::WarpId:    r.base = warp.warp_in_block; break;
          case SpecialReg::SmId:      break;
          case SpecialReg::GlobalTid:
            r.base = warp.first_gtid;
            r.stride = 1;
            break;
        }
        break;
    }
    return r;
}

void
GpuSim::pendFault(SmCtx& sm, Fault fault)
{
    sm.fault_q.push_back({sm.cycle, sm.event_seq++, std::move(fault)});
    sm.stopped = true;
}

// ---------------------------------------------------------------------
// Memory execution
// ---------------------------------------------------------------------

MemEvent
GpuSim::memEvent(MemEvent::Kind kind, const SmCtx& sm, const Warp& warp,
                 uint32_t gtid, uint64_t seq, uint64_t cycle)
{
    MemEvent e;
    e.kind = kind;
    e.sm = sm.sm_id;
    e.block = warp.block;
    e.warp = warp.warp_in_block;
    e.gtid = gtid;
    e.seq = seq;
    e.cycle = cycle;
    return e;
}

MemAccess
GpuSim::memAccess(const SmCtx& sm, const Warp& warp,
                  const Instruction& inst, bool is_store,
                  const uint64_t* addr_row) const
{
    MemAccess a;
    a.space = idesc_[warp.pc].space;
    a.is_store = is_store;
    a.width = inst.width;
    a.imm_offset = inst.imm_offset;
    a.sm = sm.sm_id;
    a.frame_base = config_.stack_top - program_.frame_bytes;
    a.stack_top = config_.stack_top;
    a.shared_limit = dyn_shared_base_ + launch_.options.dynamic_shared_bytes;
    a.mask = warp.active;
    a.reg_values = addr_row;
    return a;
}

template <bool kFunctional>
void
GpuSim::executeMemory(SmCtx& sm, Warp& warp, const Instruction& inst)
{
    // One lane loop for every tier: the mechanism check, the
    // architectural load/store through the per-SM global view / shared
    // / local arenas, the memlog record and the region profile, then
    // one sanitizer call for the warp. Memory state and faults are
    // therefore identical across tiers; only the timing tail differs. The detailed tier
    // collects coalesced lines and charges the LSU and hierarchy; the
    // functional tier skips both.
    const InstDesc& d = idesc_[warp.pc];
    const MemSpace space = d.space;
    const bool is_store = d.is_store;

    std::vector<uint64_t>& lines = sm.lines_scratch;
    lines.clear();

    const uint64_t total_threads =
        uint64_t(launch_.grid_blocks) * launch_.block_threads;

    std::array<uint64_t, 32> addr_lanes;
    const uint64_t* addr_row =
        resolveSrc(warp, d, 0).asRow(addr_lanes, warp.lanes);
    const ResolvedSrc store_val =
        is_store ? resolveSrc(warp, d, 1) : ResolvedSrc{};
    uint64_t* const dst_row =
        (!is_store && d.dst_row >= 0) ? warp.regRow(unsigned(d.dst_row))
                                      : nullptr;
    WindowedMemory* const local_base =
        sm.local_arena.empty()
            ? nullptr // kernel has no local-memory instructions
            : sm.local_arena.data() +
                  size_t(warp.local_slot) * config_.warp_size;

    std::array<uint64_t, 32> addrs;
    const WarpMemCheck check = mech_.onMemAccesses(
        memAccess(sm, warp, inst, is_store, addr_row), addrs.data());
    // The check runs ahead of the accesses, and only the lanes before a
    // faulting one touch memory. That matches checking each lane just
    // before its own access because no hook reads memory contents.
    const uint32_t mask =
        check.fault ? warp.active & ((1u << check.fault_lane) - 1)
                    : warp.active;

    for (unsigned lane = 0; lane < warp.lanes; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        const uint32_t gtid = warp.first_gtid + lane;

        // Architectural access. Global goes through the SM's private
        // view (frozen base + own-store overlay); shared and local are
        // SM-private arenas accessed directly.
        const uint64_t addr = addrs[lane];
        WindowedMemory* mem = nullptr;
        switch (space) {
          case MemSpace::Global:
            break;
          case MemSpace::Shared:
            mem = warp.shared;
            break;
          case MemSpace::Local:
            mem = local_base + lane;
            break;
          case MemSpace::Constant:
            lmi_panic("constant space reached the LSU");
        }

        if (space == MemSpace::Global) {
            if (is_store)
                sm.gview.write(addr, store_val.get(lane), inst.width);
            else
                dst_row[lane] = sm.gview.read(addr, inst.width);
        } else if (is_store) {
            mem->write(addr, store_val.get(lane), inst.width);
        } else {
            dst_row[lane] = mem->read(addr, inst.width);
        }

        if (launch_.options.memlog && space == MemSpace::Global) {
            MemEvent e = memEvent(is_store ? MemEvent::Kind::Store
                                           : MemEvent::Kind::Load,
                                  sm, warp, gtid, sm.event_seq++,
                                  sm.cycle);
            e.width = inst.width;
            e.pc = warp.pc;
            e.addr = addr;
            e.value = is_store ? store_val.get(lane) : 0;
            e.value2 = is_store ? 0 : dst_row[lane];
            launch_.options.memlog->record(e);
        }

        if (!kFunctional && space != MemSpace::Shared) {
            uint64_t probe_addr = addr;
            if (space == MemSpace::Local) {
                // Interleave per-thread words so that lane-uniform
                // offsets coalesce, as the hardware's local-memory
                // mapping does.
                const uint64_t word = (addr - kLocalBase) >> 2;
                probe_addr = kLocalPhysBase +
                             (word * total_threads + gtid) * 4 + (addr & 3);
            }
            const uint64_t line = probe_addr / config_.line_bytes;
            // Coalesced warps hit the previous lane's line almost every
            // time; only fall back to the full scan when they don't.
            if (lines.empty() || lines.back() != line) {
                if (std::find(lines.begin(), lines.end(), line) ==
                    lines.end())
                    lines.push_back(line);
            }
        }
    }
    if (launch_.options.sanitizer)
        launch_.options.sanitizer->onWarpAccess(
            space, warp.block, warp.warp_in_block, warp.first_gtid, warp.pc,
            mask, addrs.data(), inst.width, is_store);

    if (check.fault) {
        pendFault(sm, *check.fault);
        return;
    }
    const unsigned extra = check.extra_cycles;
    const unsigned serialized = check.serialize_cycles;

    // Region profile (Fig. 1).
    switch (inst.op) {
      case Opcode::LDG: ++sm.cnt.ldg; break;
      case Opcode::STG: ++sm.cnt.stg; break;
      case Opcode::LDS: ++sm.cnt.lds; break;
      case Opcode::STS: ++sm.cnt.sts; break;
      case Opcode::LDL: ++sm.cnt.ldl; break;
      case Opcode::STL: ++sm.cnt.stl; break;
      default: break;
    }
    if constexpr (kFunctional)
        return;

    // Timing: the LSU port is occupied for one slot per transaction
    // plus any per-transaction check serialization (single-ported
    // bounds/check structures) — this is a throughput cost shared by
    // every warp on the SM, on top of the per-instruction latency.
    const unsigned ntrans = lines.empty() ? 1 : unsigned(lines.size());
    const uint64_t start = std::max(sm.cycle, sm.lsu_busy_until);
    sm.lsu_busy_until = start + ntrans + serialized;
    const unsigned queue_wait = unsigned(start - sm.cycle);

    unsigned latency;
    if (space == MemSpace::Shared) {
        latency = config_.shared_latency + extra + queue_wait;
    } else {
        unsigned worst = config_.l1_latency;
        for (uint64_t line : lines) {
            const uint64_t byte_addr = line * config_.line_bytes;
            unsigned lat = config_.l1_latency;
            if (sm.l1.access(byte_addr)) {
                ++sm.cnt.l1_hits;
            } else {
                ++sm.cnt.l1_misses;
                lat += config_.l2_latency;
                // L2 decision against the slice-frozen tag array, plus
                // the lines this SM itself already pulled in this
                // slice. The barrier replays l2_log through the real
                // LRU state in canonical SM order.
                sm.l2_log.push_back(byte_addr);
                const bool l2_hit = !sm.own_lines.insert(line) ||
                                    l2_.probe(byte_addr);
                if (l2_hit) {
                    ++sm.cnt.l2_hits;
                } else {
                    ++sm.cnt.l2_misses;
                    lat += sm.dram->access(sm.cycle);
                    ++sm.cnt.dram_accesses;
                }
            }
            worst = std::max(worst, lat);
        }
        latency = worst + (ntrans - 1) * config_.coalesce_serialize +
                  extra + queue_wait;
    }

    if (!is_store && d.dst_slot >= 0)
        warp.reg_ready[unsigned(d.dst_slot)] = sm.cycle + latency;
    // Stores retire through the write queue; the warp itself moves on.
}

// maskToWidth/applyAtomicRmw (arch/isa.hpp) are shared with the model
// checker so both replay the same RMW data function.

void
GpuSim::executeAtomic(SmCtx& sm, Warp& warp, const Instruction& inst,
                      bool functional)
{
    const InstDesc& d = idesc_[warp.pc];
    const MemSpace space = d.space;
    const bool is_cas =
        inst.op == Opcode::CASG || inst.op == Opcode::CASS;
    const unsigned width = inst.width ? inst.width : 4;
    // Everything except a pure atomic load writes memory.
    const bool writes = is_cas || inst.aop != AtomicOp::Ld;

    std::array<uint64_t, 32> addr_lanes;
    const uint64_t* addr_row =
        resolveSrc(warp, d, 0).asRow(addr_lanes, warp.lanes);
    // Value operands: RMW operand / CAS expected, and CAS desired.
    const ResolvedSrc v1 = inst.src[1].kind != Operand::Kind::None
                               ? resolveSrc(warp, d, 1)
                               : ResolvedSrc{};
    const ResolvedSrc v2 = is_cas ? resolveSrc(warp, d, 2) : ResolvedSrc{};
    uint64_t* const dst_row =
        d.dst_row >= 0 ? warp.regRow(unsigned(d.dst_row)) : nullptr;

    MemAccess access = memAccess(sm, warp, inst, writes, addr_row);
    access.width = width;
    std::array<uint64_t, 32> addrs;
    const WarpMemCheck check = mech_.onMemAccesses(access, addrs.data());
    // As in executeMemory: lanes before a faulting one still access.
    const uint32_t mask =
        check.fault ? warp.active & ((1u << check.fault_lane) - 1)
                    : warp.active;

    SmCtx::AtomOp op;
    if (space == MemSpace::Global) {
        op.is_cas = is_cas;
        op.aop = is_cas ? AtomicOp::Cas : inst.aop;
        op.width = uint8_t(width);
        op.warp = uint32_t(&warp - sm.warps.data());
        op.cycle = sm.cycle;
        op.seq = sm.event_seq++;
        op.dst_row = d.dst_row;
        op.dst_slot = d.dst_slot;
        op.active = warp.active;
    }

    for (unsigned lane = 0; lane < warp.lanes; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        const uint32_t gtid = warp.first_gtid + lane;
        const uint64_t addr = addrs[lane];

        if (space == MemSpace::Shared) {
            // Shared memory is SM-private: the read-modify-write is
            // already atomic with respect to everything that can see it.
            const uint64_t old = warp.shared->read(addr, width);
            if (is_cas) {
                if (maskToWidth(old, width) ==
                    maskToWidth(v1.get(lane), width))
                    warp.shared->write(addr, v2.get(lane), width);
            } else if (writes) {
                warp.shared->write(
                    addr, applyAtomicRmw(inst.aop, old, v1.get(lane),
                                         width),
                    width);
            }
            if (dst_row)
                dst_row[lane] = maskToWidth(old, width);
        } else {
            op.addrs[lane] = addr;
            op.vals[lane] = is_cas ? v2.get(lane) : v1.get(lane);
            op.cmps[lane] = is_cas ? v1.get(lane) : 0;
        }

        if (launch_.options.memlog && space == MemSpace::Global) {
            MemEvent e = memEvent(
                is_cas ? MemEvent::Kind::Cas
                : inst.aop == AtomicOp::Ld ? MemEvent::Kind::Load
                : inst.aop == AtomicOp::St ? MemEvent::Kind::Store
                                           : MemEvent::Kind::Rmw,
                sm, warp, gtid, sm.event_seq++, sm.cycle);
            e.is_atomic = true;
            e.aop = inst.aop;
            e.scope = inst.scope;
            e.order = inst.order;
            e.width = uint8_t(width);
            e.pc = warp.pc;
            e.addr = addr;
            e.value = op.vals[lane];
            e.value2 = op.cmps[lane];
            launch_.options.memlog->record(e);
        }
    }
    if (launch_.options.sanitizer)
        launch_.options.sanitizer->onWarpAccess(
            space, warp.block, warp.warp_in_block, warp.first_gtid, warp.pc,
            mask, addrs.data(), width, writes, /*is_atomic=*/true,
            inst.scope);

    if (check.fault) {
        pendFault(sm, *check.fault);
        return;
    }
    if (space == MemSpace::Shared) {
        if (!functional && d.dst_slot >= 0)
            warp.reg_ready[unsigned(d.dst_slot)] =
                sm.cycle + config_.shared_latency + check.extra_cycles;
        return;
    }

    // Global: park the warp; the slice barrier executes the operation
    // against the base memory in canonical (sm, seq) order, writes the
    // old values into the destination registers and unparks the warp.
    sm.atom_q.push_back(op);
    warp.heap_pending = true;
    ++sm.heap_pending_warps;
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

uint64_t
GpuSim::warpReadyAt(const Warp& warp) const
{
    // Earliest cycle this warp could issue its next instruction: the
    // max over its stall window and every scoreboard dependency. A
    // warp is ready on cycle c iff warpReadyAt(w) <= c, so one scan
    // serves both the GTO pick and the stall fast-forward target. The
    // single definition of readiness: SmCtx::ready caches it per warp
    // (see there for where the cache is refreshed).
    if (warp.done || warp.at_barrier || warp.heap_pending)
        return ~uint64_t(0);
    uint64_t t = warp.stall_until;
    const InstDesc& d = idesc_[warp.pc];
    for (unsigned i = 0; i < kMaxSrcs; ++i) {
        const int slot = d.src_slot[i];
        if (slot >= 0)
            t = std::max(t, warp.reg_ready[unsigned(slot)]);
    }
    if (d.dst_pred >= 0)
        t = std::max(t, warp.pred_ready[unsigned(d.dst_pred)]);
    else if (d.dst_slot >= 0)
        t = std::max(t, warp.reg_ready[unsigned(d.dst_slot)]);
    if (d.guard_pred >= 0)
        t = std::max(t, warp.pred_ready[unsigned(d.guard_pred)]);
    return t;
}

void
GpuSim::markWarpDone(SmCtx& sm, Warp& warp)
{
    warp.done = true;
    sm.ready[size_t(&warp - sm.warps.data())] = ~uint64_t(0);
    --sm.live_warps;
    // The warp's slot (local memories and registers) is free for the
    // next admitted warp; its stack is released so resident-warp scans
    // stay cache-resident across long multi-wave launches.
    sm.local_free.push_back(warp.local_slot);
    std::vector<std::pair<uint64_t, uint32_t>>().swap(warp.stack);
    for (BlockCtx& blk : sm.blocks) {
        if (blk.block_id == warp.block) {
            if (++blk.done_warps == blk.num_warps)
                sm.retire_pending = true;
            break;
        }
    }
}

template <bool kFunctional>
bool
GpuSim::issueWarpT(SmCtx& sm, Warp& warp)
{
    // Reconvergence bookkeeping: merge or switch paths as needed.
    for (;;) {
        if (warp.active == 0) {
            if (warp.stack.empty()) {
                markWarpDone(sm, warp);
                return false;
            }
            warp.pc = warp.stack.back().first;
            warp.active = warp.stack.back().second;
            warp.stack.pop_back();
            continue;
        }
        if (!warp.stack.empty()) {
            if (warp.pc == warp.stack.back().first) {
                warp.active |= warp.stack.back().second;
                warp.stack.pop_back();
                continue;
            }
            if (warp.pc > warp.stack.back().first) {
                // The live path jumped past the pending one: switch.
                std::swap(warp.pc, warp.stack.back().first);
                std::swap(warp.active, warp.stack.back().second);
                continue;
            }
        }
        break;
    }

    const Instruction& inst = program_.code[warp.pc];
    const InstDesc& d = idesc_[warp.pc];
    ++sm.cnt.instructions;
    sm.cnt.thread_instructions += popCount(warp.active);

    const uint64_t cycle = sm.cycle;
    if (launch_.options.trace) {
        TraceEvent event;
        event.sm = sm.sm_id;
        event.block = warp.block;
        event.warp = warp.warp_in_block;
        event.cycle = cycle;
        event.pc = warp.pc;
        event.op = inst.op;
        event.active_mask = warp.active;
        event.hinted = inst.hints.active;
        launch_.options.trace->record(event);
    }

    if (d.kind == InstDesc::Kind::Ctrl)
    switch (inst.op) {
      case Opcode::BRA: {
        uint32_t taken = 0;
        if (inst.guard_pred == kNoPred) {
            taken = warp.active;
        } else {
            const uint32_t p = warp.preds[unsigned(inst.guard_pred)];
            taken = warp.active & (inst.guard_neg ? ~p : p);
        }
        const uint32_t not_taken = warp.active & ~taken;
        const uint64_t target = uint64_t(inst.branch_target);
        if (not_taken == 0) {
            warp.pc = target;
        } else if (taken == 0) {
            ++warp.pc;
        } else {
            // Diverge: continue on the lower-PC path, push the other.
            if (target < warp.pc) {
                warp.stack.emplace_back(warp.pc + 1, not_taken);
                warp.pc = target;
                warp.active = taken;
            } else {
                warp.stack.emplace_back(target, taken);
                ++warp.pc;
                warp.active = not_taken;
            }
        }
        warp.stall_until = cycle + 1;
        return true;
      }

      case Opcode::EXIT: {
        warp.exited |= warp.active;
        warp.active = 0;
        if (warp.stack.empty())
            markWarpDone(sm, warp);
        // Remaining paths resume on the next issue via reconvergence.
        return true;
      }

      case Opcode::TRAP: {
        Fault fault;
        fault.kind = FaultKind(inst.src[0].value);
        fault.detail = "software check trap in " + program_.name;
        pendFault(sm, std::move(fault));
        return true;
      }

      case Opcode::BAR: {
        // Barrier divergence, lane level: every non-exited lane of the
        // warp must arrive together. A partial active mask means the
        // barrier sits under a divergent branch — undefined behaviour
        // on real hardware, a hang or silent early release in naive
        // simulators. Fail loudly instead.
        const uint32_t live_mask =
            (warp.lanes >= 32 ? ~uint32_t(0) : ((1u << warp.lanes) - 1)) &
            ~warp.exited;
        if (warp.active != live_mask) {
            Fault f;
            f.kind = FaultKind::BarrierDivergence;
            f.detail = "barrier under divergent control flow in " +
                       program_.name + ": block " +
                       std::to_string(warp.block) + " warp " +
                       std::to_string(warp.warp_in_block) +
                       " arrived with partial active mask";
            pendFault(sm, std::move(f));
            return true;
        }
        if (launch_.options.memlog) {
            MemEvent e = memEvent(MemEvent::Kind::Barrier, sm, warp,
                                  warp.first_gtid, sm.event_seq++, cycle);
            e.scope = MemScope::Cta;
            e.order = MemOrder::AcqRel;
            e.pc = warp.pc;
            launch_.options.memlog->record(e);
        }
        warp.at_barrier = true;
        warp.barrier_pc = warp.pc;
        ++sm.at_barrier_warps;
        ++warp.pc;
        return true;
      }

      case Opcode::MEMBAR: {
        // Architecturally a no-op on the slice-synchronous engine: each
        // SM issues in program order and stores commit in canonical
        // order at the slice barrier, so the machine is at least as
        // strong as the fence requests at any scope. The event is still
        // logged — the model checker replays it as an ordering edge
        // when it explores interleavings weaker than the engine's.
        if (launch_.options.memlog) {
            MemEvent e = memEvent(MemEvent::Kind::Fence, sm, warp,
                                  warp.first_gtid, sm.event_seq++, cycle);
            e.scope = inst.scope;
            e.order = inst.order;
            e.pc = warp.pc;
            launch_.options.memlog->record(e);
        }
        ++warp.pc;
        return true;
      }

      case Opcode::NOP:
      case Opcode::RET:
        ++warp.pc;
        return true;

      case Opcode::MALLOC:
      case Opcode::FREE: {
        // The device heap is shared, order-dependent state: defer the
        // call to the slice barrier (canonical (sm, seq) order) and
        // park the warp until then. Operand values are captured now —
        // register state may change before the barrier runs the op.
        SmCtx::HeapOp op;
        op.is_malloc = inst.op == Opcode::MALLOC;
        op.warp = uint32_t(&warp - sm.warps.data());
        op.cycle = cycle;
        op.seq = sm.event_seq++;
        op.dst_row = d.dst_row;
        op.dst_slot = d.dst_slot;
        op.active = warp.active;
        const ResolvedSrc v = resolveSrc(warp, d, 0);
        for (unsigned lane = 0; lane < warp.lanes; ++lane)
            if (warp.active & (1u << lane))
                op.vals[lane] = v.get(lane);
        sm.heap_q.push_back(op);
        warp.heap_pending = true;
        ++sm.heap_pending_warps;
        ++warp.pc;
        return true;
      }

      default:
        break;
    }

    if (d.is_mem) {
        if (isAtomic(inst.op))
            executeAtomic(sm, warp, inst, kFunctional);
        else
            executeMemory<kFunctional>(sm, warp, inst);
        ++warp.pc;
        return true;
    }

    // Integer / FP / MOV / S2R / ISETP / LDC path. The functional tier
    // never consults readiness, so it skips the latency query; the
    // reg_ready/pred_ready stores below are shared and simply never
    // read there.
    unsigned latency = d.alu_latency;
    if (!kFunctional && inst.hints.active)
        latency += mech_.extraIntLatency(inst);

    const ResolvedSrc s0 = resolveSrc(warp, d, 0);
    const ResolvedSrc s1 = resolveSrc(warp, d, 1);
    const ResolvedSrc s2 = resolveSrc(warp, d, 2);
    const uint32_t full_mask =
        warp.lanes >= 32 ? ~uint32_t(0) : ((1u << warp.lanes) - 1);

    if (d.is_isetp) {
        // One comparison switch per instruction; the lane loop under it
        // builds the predicate mask, and inactive lanes keep their bits.
        // Only active lanes are compared: an inactive lane's slot in a
        // value row may hold another register's value (RegLayout).
        const auto lanesWhere = [&](auto cmp) {
            const auto test = [&](unsigned lane) {
                return uint32_t(cmp(int64_t(s0.get(lane)),
                                    int64_t(s1.get(lane))))
                       << lane;
            };
            uint32_t set = 0;
            if (warp.active == full_mask) {
                for (unsigned lane = 0; lane < warp.lanes; ++lane)
                    set |= test(lane);
            } else {
                for (uint32_t m = warp.active; m != 0; m &= m - 1)
                    set |= test(unsigned(std::countr_zero(m)));
            }
            return set;
        };
        uint32_t set = 0;
        switch (inst.cmp) {
          case CmpOp::EQ: set = lanesWhere(std::equal_to<>()); break;
          case CmpOp::NE: set = lanesWhere(std::not_equal_to<>()); break;
          case CmpOp::LT: set = lanesWhere(std::less<>()); break;
          case CmpOp::LE: set = lanesWhere(std::less_equal<>()); break;
          case CmpOp::GT: set = lanesWhere(std::greater<>()); break;
          case CmpOp::GE: set = lanesWhere(std::greater_equal<>()); break;
        }
        uint32_t& pred = warp.preds[unsigned(d.dst_pred)];
        pred = (pred & ~warp.active) | set;
        warp.pred_ready[unsigned(d.dst_pred)] = cycle + latency;
        ++warp.pc;
        return true;
    }

    uint64_t* const dst_row =
        d.dst_row >= 0 ? warp.regRow(unsigned(d.dst_row)) : nullptr;
    // Hinted (pointer-producing) ops compute into a scratch row, so the
    // OCU hook sees every lane's input operand and result before the
    // destination, which may alias an input, is written.
    std::array<uint64_t, 32> hinted_out;
    uint64_t* const out_row =
        inst.hints.active ? hinted_out.data() : dst_row;

    // The opcode dispatch is hoisted out of the lane loop, and a
    // fully-active warp with an output row takes a maskless loop the
    // compiler can vectorize.
#define LMI_ALU_LOOP(expr)                                              \
    do {                                                                \
        if (warp.active == full_mask && out_row) {                      \
            for (unsigned lane = 0; lane < warp.lanes; ++lane)          \
                out_row[lane] = (expr);                                 \
        } else {                                                        \
            for (unsigned lane = 0; lane < warp.lanes; ++lane) {        \
                if (!(warp.active & (1u << lane)))                      \
                    continue;                                           \
                const uint64_t out = (expr);                            \
                if (out_row)                                            \
                    out_row[lane] = out;                                \
            }                                                           \
        }                                                               \
    } while (0)

    switch (inst.op) {
      case Opcode::IADD:
        LMI_ALU_LOOP(s0.get(lane) + s1.get(lane));
        break;
      case Opcode::IADD3:
        LMI_ALU_LOOP(s0.get(lane) + s1.get(lane) + s2.get(lane));
        break;
      case Opcode::ISUB:
        LMI_ALU_LOOP(s0.get(lane) - s1.get(lane));
        break;
      case Opcode::IMUL:
        LMI_ALU_LOOP(s0.get(lane) * s1.get(lane));
        break;
      case Opcode::IMAD:
        LMI_ALU_LOOP(s0.get(lane) * s1.get(lane) + s2.get(lane));
        break;
      case Opcode::IMNMX:
        LMI_ALU_LOOP(uint64_t(std::min(int64_t(s0.get(lane)),
                                       int64_t(s1.get(lane)))));
        break;
      case Opcode::SHL:
        LMI_ALU_LOOP(s1.get(lane) >= 64 ? 0
                                        : s0.get(lane)
                                              << s1.get(lane));
        break;
      case Opcode::SHR:
        LMI_ALU_LOOP(s1.get(lane) >= 64 ? 0
                                        : s0.get(lane) >>
                                              s1.get(lane));
        break;
      case Opcode::LOP_AND:
        LMI_ALU_LOOP(s0.get(lane) & s1.get(lane));
        break;
      case Opcode::LOP_OR:
        LMI_ALU_LOOP(s0.get(lane) | s1.get(lane));
        break;
      case Opcode::LOP_XOR:
        LMI_ALU_LOOP(s0.get(lane) ^ s1.get(lane));
        break;
      case Opcode::MOV:
      case Opcode::S2R:
      case Opcode::LDC:
        LMI_ALU_LOOP(s0.get(lane));
        break;
      case Opcode::FADD:
        LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) +
                            asDouble(s1.get(lane))));
        break;
      case Opcode::FMUL:
        LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) *
                            asDouble(s1.get(lane))));
        break;
      case Opcode::FFMA:
        LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) *
                                asDouble(s1.get(lane)) +
                            asDouble(s2.get(lane))));
        break;
      case Opcode::MUFU:
        LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) == 0.0
                                ? 0.0
                                : 1.0 / asDouble(s0.get(lane))));
        break;
      default:
        lmi_panic("unhandled opcode %s", opcodeName(inst.op));
    }
#undef LMI_ALU_LOOP

    if (inst.hints.active) {
        // OCU attachment point (paper §VII), once per warp instruction.
        const ResolvedSrc& p =
            inst.hints.pointer_operand == 0
                ? s0
                : (inst.op == Opcode::IMAD ? s2 : s1);
        std::array<uint64_t, 32> ptr_lanes;
        mech_.onIntResults(inst, sm.sm_id, warp.active,
                           p.asRow(ptr_lanes, warp.lanes), out_row);
        if (dst_row)
            for (unsigned lane = 0; lane < warp.lanes; ++lane)
                if (warp.active & (1u << lane))
                    dst_row[lane] = out_row[lane];
    }

    if (d.dst_slot >= 0)
        warp.reg_ready[unsigned(d.dst_slot)] = cycle + latency;
    ++warp.pc;
    return true;
}

// ---------------------------------------------------------------------
// SM loop
// ---------------------------------------------------------------------

void
GpuSim::releaseBarriers(SmCtx& sm)
{
    for (BlockCtx& block : sm.blocks) {
        unsigned waiting = 0;
        const unsigned live = block.num_warps - block.done_warps;
        uint64_t bar_pc = ~uint64_t(0);
        bool mixed_pc = false;
        for (uint32_t wi = block.first_warp;
             wi < block.first_warp + block.num_warps; ++wi) {
            const Warp& w = sm.warps[wi];
            if (w.done)
                continue;
            if (w.at_barrier) {
                ++waiting;
                if (bar_pc == ~uint64_t(0))
                    bar_pc = w.barrier_pc;
                else if (bar_pc != w.barrier_pc)
                    mixed_pc = true;
            }
        }
        if (waiting == 0)
            continue;
        // Barrier divergence, warp level: a warp that already ran to
        // completion can never arrive, so the waiting warps would hang
        // forever. Diagnose instead of deadlocking.
        if (live < block.num_warps) {
            Fault f;
            f.kind = FaultKind::BarrierDivergence;
            f.detail =
                "barrier divergence in " + program_.name + ": block " +
                std::to_string(block.block_id) + " has " +
                std::to_string(waiting) + " warp(s) at a barrier while " +
                std::to_string(block.num_warps - live) +
                " warp(s) already exited";
            pendFault(sm, std::move(f));
            return;
        }
        if (waiting == live) {
            // All warps arrived — but releasing warps parked on
            // *different* barriers would silently merge incompatible
            // reconvergence states. That is also divergence.
            if (mixed_pc) {
                Fault f;
                f.kind = FaultKind::BarrierDivergence;
                f.detail = "barrier divergence in " + program_.name +
                           ": warps of block " +
                           std::to_string(block.block_id) +
                           " are parked at different barriers";
                pendFault(sm, std::move(f));
                return;
            }
            for (uint32_t wi = block.first_warp;
                 wi < block.first_warp + block.num_warps; ++wi) {
                Warp& w = sm.warps[wi];
                if (w.at_barrier) {
                    w.at_barrier = false;
                    w.stall_until = sm.cycle + config_.barrier_latency;
                    --sm.at_barrier_warps;
                    sm.ready[wi] = warpReadyAt(w);
                }
            }
            // Released warps become issuable earlier than any sleeping
            // scheduler planned for.
            std::fill(sm.sched_sleep.begin(), sm.sched_sleep.end(),
                      uint64_t(0));
            if (launch_.options.sanitizer)
                launch_.options.sanitizer->onBarrierRelease(block.block_id);
        }
    }
}

void
GpuSim::admitBlocks(SmCtx& sm)
{
    const unsigned warps_per_block =
        (launch_.block_threads + config_.warp_size - 1) / config_.warp_size;

    while (sm.next_block < sm.pending_blocks.size()) {
        if (sm.blocks.size() >= config_.max_blocks_per_sm ||
            sm.live_warps + warps_per_block > config_.max_warps_per_sm)
            return;

        const uint32_t bid = sm.pending_blocks[sm.next_block++];
        BlockCtx bc;
        bc.block_id = bid;
        bc.num_warps = warps_per_block;
        bc.first_warp = uint32_t(sm.warps.size());
        bc.shared_slot = sm.shared_free.back();
        sm.shared_free.pop_back();
        sm.shared_arena[bc.shared_slot].reset();
        sm.blocks.push_back(bc);
        WindowedMemory* const shared = &sm.shared_arena[bc.shared_slot];

        for (unsigned wi = 0; wi < warps_per_block; ++wi) {
            Warp w;
            w.block = bid;
            w.warp_in_block = wi;
            w.first_gtid = bid * launch_.block_threads +
                           wi * config_.warp_size;
            const unsigned first_tid = wi * config_.warp_size;
            w.lanes = std::min(config_.warp_size,
                               launch_.block_threads - first_tid);
            w.active = w.lanes >= 32 ? ~uint32_t(0)
                                     : ((1u << w.lanes) - 1);
            w.rstride = uint16_t(config_.warp_size);
            w.shared = shared;
            w.local_slot = sm.local_free.back();
            sm.local_free.pop_back();
            if (!sm.local_arena.empty())
                for (unsigned l = 0; l < config_.warp_size; ++l)
                    sm.local_arena[size_t(w.local_slot) *
                                       config_.warp_size +
                                   l]
                        .reset();
            // Fresh registers read zero: a kernel reads a register before
            // writing it only if it is live at entry, so only those rows
            // (and the scoreboard) need zeroing in a reused slot.
            w.regs = sm.reg_store.get() + size_t(w.local_slot) * sm.reg_words;
            w.reg_ready = w.regs + size_t(layout_.rows) * config_.warp_size;
            std::fill_n(w.reg_ready, layout_.slots(), uint64_t(0));
            for (const uint16_t row : layout_.zero_rows)
                std::fill_n(w.regRow(row), config_.warp_size, uint64_t(0));
            w.stall_until = sm.cycle;
            const uint32_t idx = uint32_t(sm.warps.size());
            sm.ready.push_back(warpReadyAt(w));
            sm.warps.push_back(std::move(w));
            const unsigned s = idx % config_.schedulers_per_sm;
            sm.sched_live[s].push_back(idx);
            sm.sched_sleep[s] = 0; // new warp: scheduler must rescan
            ++sm.live_warps;
        }
    }
}

void
GpuSim::retireBlocks(SmCtx& sm)
{
    for (size_t i = 0; i < sm.blocks.size();) {
        BlockCtx& blk = sm.blocks[i];
        if (blk.done_warps >= blk.num_warps) {
            sm.shared_free.push_back(blk.shared_slot);
            if (launch_.options.sanitizer)
                launch_.options.sanitizer->onBlockRetire(blk.block_id);
            sm.blocks.erase(sm.blocks.begin() + long(i));
        } else {
            ++i;
        }
    }
    // Blocks retire in bulk, so this is the one spot where the scheduler
    // lists accumulate dead entries worth pruning.
    for (auto& list : sm.sched_live) {
        size_t keep = 0;
        for (const uint32_t wi : list)
            if (!sm.warps[wi].done)
                list[keep++] = wi;
        list.resize(keep);
    }
}

void
GpuSim::stepSmSlice(SmCtx& sm, uint64_t slice_no)
{
    if (launch_.options.tier == ExecutionTier::Functional)
        stepSmSliceFunctional(sm, slice_no);
    else
        stepSmSliceDetailed(sm, slice_no);
}

void
GpuSim::stepSmSliceFunctional(SmCtx& sm, uint64_t slice_no)
{
    if (sm.finished || sm.stopped)
        return;
    sm.gview.beginSlice();

    // Budget of warp instructions for this slice: the detailed
    // machine's issue ceiling (schedulers × slice cycles) widened 16×,
    // since the slice barrier (overlay page copies, store-log and
    // L2-log replay, pool hand-off) is pure overhead here and paying it
    // 16× less often is worth ~30% of the tier's wall clock. The budget
    // fixes where cross-SM visibility (stores, heap ops, faults) cuts
    // into each SM's instruction stream, so functional outputs depend
    // on it: it is part of the tier's semantics, not a tuning knob.
    // Deterministic: a pure function of the config, with no wall-clock
    // or thread dependence.
    uint64_t budget =
        uint64_t(config_.schedulers_per_sm) * kSliceCycles * 16;
    while (budget > 0) {
        if (sm.retire_pending) {
            sm.retire_pending = false;
            retireBlocks(sm);
            admitBlocks(sm);
        }
        if (sm.live_warps == 0 &&
            sm.next_block >= sm.pending_blocks.size()) {
            sm.finished = true;
            break;
        }
        if (sm.at_barrier_warps != 0) {
            releaseBarriers(sm);
            if (sm.stopped)
                break;
        }
        bool progressed = false;
        const size_t nwarps = sm.warps.size();
        for (size_t wi = 0; wi < nwarps && budget > 0; ++wi) {
            Warp& w = sm.warps[wi];
            if (w.done || w.at_barrier || w.heap_pending)
                continue;
            // Bounded quantum per warp per pass: round-robin over the
            // warps, 32 instructions at a time, instead of handing the
            // whole budget to the first runnable warp. The quantum fixes
            // the order in which warps' stores, atomics and heap ops
            // interleave, so functional outputs depend on it; it is a
            // pure function of machine state, so determinism holds.
            uint64_t quantum = std::min<uint64_t>(budget, 32);
            const uint64_t before = quantum;
            runWarpFunctional(sm, w, quantum);
            if (sm.stopped)
                break;
            budget -= before - quantum;
            progressed = progressed || quantum != before;
        }
        if (sm.stopped)
            break;
        if (!progressed)
            break; // every live warp waits on the slice barrier
    }
    if (!sm.finished && !sm.stopped)
        sm.cycle = slice_no * kSliceCycles;
}

void
GpuSim::runWarpFunctional(SmCtx& sm, Warp& warp, uint64_t& budget)
{
    while (budget > 0) {
        if (warp.done || warp.at_barrier || warp.heap_pending ||
            sm.stopped)
            return;
        --budget;
        if (!issueWarpT<true>(sm, warp))
            return; // warp evaporated through reconvergence exit
    }
}

void
GpuSim::stepSmSliceDetailed(SmCtx& sm, uint64_t slice_no)
{
    if (sm.finished || sm.stopped)
        return;
    const uint64_t slice_end = slice_no * kSliceCycles;
    if (sm.cycle >= slice_end)
        return; // stalled across this whole slice
    sm.gview.beginSlice();
    // The slice barrier's heap/atomic unparking moved readiness behind
    // the cache's back.
    for (const auto& list : sm.sched_live)
        for (const uint32_t wi : list)
            sm.ready[wi] = warpReadyAt(sm.warps[wi]);

    while (sm.cycle < slice_end) {
        // Retire finished blocks and admit new ones — only on the cycles
        // where a block actually completed; nothing changes otherwise.
        if (sm.retire_pending) {
            sm.retire_pending = false;
            retireBlocks(sm);
            admitBlocks(sm);
        }

        if (sm.live_warps == 0 &&
            sm.next_block >= sm.pending_blocks.size()) {
            sm.finished = true;
            return;
        }

        if (sm.at_barrier_warps != 0) {
            releaseBarriers(sm);
            if (sm.stopped)
                return;
        }

        bool issued = false;
        for (unsigned s = 0; s < config_.schedulers_per_sm; ++s) {
            // A sleeping scheduler has no warp issuable before
            // sched_sleep[s] (proven by its last full scan), so skip it
            // without touching any warp state.
            if (sm.sched_sleep[s] > sm.cycle)
                continue;
            // GTO: greedy on the last-issued warp, else oldest ready.
            int pick = -1;
            // last_issued[s] is always one of scheduler s's own warps
            // (picks come from sched_live[s]), so no ownership re-check.
            const int last = sm.last_issued[s];
            if (last >= 0 && size_t(last) < sm.warps.size() &&
                sm.ready[size_t(last)] <= sm.cycle) {
                pick = last;
            } else {
                // Done warps read "never", so they need no skip test.
                uint64_t min_t = ~uint64_t(0);
                for (const uint32_t wi : sm.sched_live[s]) {
                    const uint64_t t = sm.ready[wi];
                    if (t <= sm.cycle) {
                        pick = int(wi);
                        break;
                    }
                    min_t = std::min(min_t, t);
                }
                if (pick < 0)
                    sm.sched_sleep[s] = min_t;
            }
            if (pick >= 0) {
                Warp& warp = sm.warps[size_t(pick)];
                const bool ok = issueWarpT<false>(sm, warp);
                sm.ready[size_t(pick)] = warpReadyAt(warp);
                if (ok) {
                    issued = true;
                } else {
                    // The pick evaporated (reconvergence exit) without
                    // issuing. Recompute this scheduler's wake-up so the
                    // fast-forward target below stays exact.
                    uint64_t min_t = ~uint64_t(0);
                    for (const uint32_t wi : sm.sched_live[s])
                        min_t = std::min(min_t, sm.ready[wi]);
                    sm.sched_sleep[s] = min_t;
                }
                sm.last_issued[s] = pick;
                if (sm.stopped)
                    return;
            }
        }

        if (issued) {
            ++sm.cycle;
            sm.idle_guard = 0;
        } else {
            // Stall fast-forward: no warp can issue this cycle, so jump
            // straight to the earliest cycle where one can. Every
            // scheduler is now sleeping (it either just completed a
            // failed full scan, or was already asleep with a still-valid
            // target), so the earliest wake-up is exact. Jumps past the
            // slice end are fine — later slices skip the SM until its
            // clock re-enters the window — except when a heap op or a
            // barrier can change readiness first.
            uint64_t next = ~uint64_t(0);
            for (const uint64_t t : sm.sched_sleep)
                next = std::min(next, t);
            if (next == ~uint64_t(0)) {
                if (sm.at_barrier_warps == 0 && sm.heap_pending_warps) {
                    // Only the slice barrier can unpark them.
                    sm.cycle = slice_end;
                    sm.idle_guard = 0;
                } else {
                    // Barriers release next round; if nothing changes
                    // we are deadlocked.
                    ++sm.cycle;
                    if (++sm.idle_guard > 10000)
                        lmi_panic(
                            "SM %u deadlocked at cycle %llu in %s",
                            sm.sm_id,
                            static_cast<unsigned long long>(sm.cycle),
                            program_.name.c_str());
                }
            } else {
                uint64_t target = std::max(next, sm.cycle + 1);
                if (sm.heap_pending_warps)
                    target = std::min(target, slice_end);
                sm.cycle = target;
                sm.idle_guard = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Slice barrier
// ---------------------------------------------------------------------

bool
GpuSim::commitSlice(std::vector<SmCtx>& sms)
{
    // (a) Replay global store logs into the base memory in SM order.
    for (SmCtx& sm : sms) {
        for (const GlobalMemView::StoreRec& rec : sm.gview.log())
            global_mem_.write(rec.addr, rec.value, rec.width);
        sm.gview.clearLog();
    }

    // (b) Replay L2 line traffic through the real LRU array in SM
    // order; the per-slice own-lines sets start fresh next slice.
    for (SmCtx& sm : sms) {
        for (const uint64_t addr : sm.l2_log)
            l2_.access(addr);
        sm.l2_log.clear();
        sm.own_lines.clear();
    }

    // (c) Execute deferred heap ops in (sm, seq) order and unpark their
    // warps. Faults (exhaustion, invalid free) join the slice's fault
    // candidates at their issue position.
    struct Candidate
    {
        uint64_t cycle;
        uint32_t sm;
        uint64_t seq;
        Fault fault;
    };
    std::vector<Candidate> candidates;
    for (SmCtx& sm : sms) {
        for (SmCtx::HeapOp& op : sm.heap_q) {
            Warp& w = sm.warps[op.warp];
            bool faulted = false;
            for (unsigned lane = 0; lane < w.lanes && !faulted; ++lane) {
                if (!(op.active & (1u << lane)))
                    continue;
                if (op.is_malloc) {
                    const uint64_t size = op.vals[lane];
                    const uint64_t ptr =
                        heap_.alloc(sm.sm_id, w.first_gtid + lane, size);
                    if (ptr == 0) {
                        Fault f;
                        f.kind = FaultKind::InvalidFree;
                        f.detail = "device heap exhausted";
                        candidates.push_back(
                            {op.cycle, sm.sm_id, op.seq, std::move(f)});
                        faulted = true;
                        break;
                    }
                    mech_.onDeviceAlloc(ptr, size);
                    if (launch_.options.sanitizer)
                        launch_.options.sanitizer->onDeviceAlloc(ptr, size);
                    if (launch_.options.memlog) {
                        MemEvent e = memEvent(MemEvent::Kind::Malloc, sm,
                                              w, w.first_gtid + lane,
                                              op.seq, op.cycle);
                        e.addr = ptr;
                        e.value = size;
                        launch_.options.memlog->record(e);
                    }
                    if (op.dst_row >= 0)
                        w.regRow(unsigned(op.dst_row))[lane] = ptr;
                } else {
                    const uint64_t ptr = op.vals[lane];
                    MaybeFault f = mech_.onDeviceFree(ptr);
                    if (!f)
                        f = heap_.free(sm.sm_id, ptr);
                    if (f) {
                        candidates.push_back(
                            {op.cycle, sm.sm_id, op.seq, std::move(*f)});
                        faulted = true;
                        break;
                    }
                    if (launch_.options.memlog) {
                        MemEvent e = memEvent(MemEvent::Kind::Free, sm, w,
                                              w.first_gtid + lane, op.seq,
                                              op.cycle);
                        e.addr = ptr;
                        launch_.options.memlog->record(e);
                    }
                }
            }
            if (op.is_malloc) {
                if (op.dst_slot >= 0)
                    w.reg_ready[unsigned(op.dst_slot)] =
                        op.cycle + config_.malloc_latency +
                        8 * popCount(op.active);
            } else {
                w.stall_until = op.cycle + config_.malloc_latency / 2;
            }
            w.heap_pending = false;
            --sm.heap_pending_warps;
            // The unparked warp may be issuable before any sleeping
            // scheduler planned for.
            std::fill(sm.sched_sleep.begin(), sm.sched_sleep.end(),
                      uint64_t(0));
        }
        sm.heap_q.clear();
    }
    // Slice boundary: replay cross-SM frees queued above in canonical
    // (sm, seq) order, so the owners' freelists — and every later
    // placement decision — are byte-identical at any sim_threads count.
    heap_.drainRemote();

    // (c') Execute deferred global atomics in the same canonical
    // (sm, seq) order, against the base memory — which at this point
    // holds every store committed in (a), so an atomic observes all
    // prior-slice traffic. Lanes apply in lane order. Every SM, the
    // issuing one included, sees the results from the next slice on.
    for (SmCtx& sm : sms) {
        for (SmCtx::AtomOp& op : sm.atom_q) {
            Warp& w = sm.warps[op.warp];
            for (unsigned lane = 0; lane < w.lanes; ++lane) {
                if (!(op.active & (1u << lane)))
                    continue;
                const uint64_t addr = op.addrs[lane];
                const uint64_t old = global_mem_.read(addr, op.width);
                bool write = false;
                uint64_t newv = 0;
                if (op.is_cas) {
                    write = maskToWidth(old, op.width) ==
                            maskToWidth(op.cmps[lane], op.width);
                    newv = op.vals[lane];
                } else if (op.aop != AtomicOp::Ld) {
                    write = true;
                    newv = applyAtomicRmw(op.aop, old, op.vals[lane],
                                          op.width);
                }
                if (write)
                    global_mem_.write(addr, newv, op.width);
                if (op.dst_row >= 0)
                    w.regRow(unsigned(op.dst_row))[lane] =
                        maskToWidth(old, op.width);
            }
            // Result ready / store retired after a hierarchy round
            // trip (atomics resolve at the L2 on this machine).
            const uint64_t done_at =
                op.cycle + config_.l1_latency + config_.l2_latency;
            if (op.dst_slot >= 0)
                w.reg_ready[unsigned(op.dst_slot)] = done_at;
            else
                w.stall_until = done_at;
            w.heap_pending = false;
            --sm.heap_pending_warps;
            std::fill(sm.sched_sleep.begin(), sm.sched_sleep.end(),
                      uint64_t(0));
        }
        sm.atom_q.clear();
    }

    // (d) Resolve the fault winner: earliest by cycle, then SM id, then
    // per-SM issue order. Exactly one fault is recorded per launch, and
    // which one does not depend on the worker schedule.
    for (SmCtx& sm : sms)
        for (SmCtx::PendingFault& pf : sm.fault_q)
            candidates.push_back(
                {pf.cycle, sm.sm_id, pf.seq, std::move(pf.fault)});
    if (!candidates.empty()) {
        size_t win = 0;
        for (size_t i = 1; i < candidates.size(); ++i) {
            const Candidate& a = candidates[i];
            const Candidate& b = candidates[win];
            if (a.cycle < b.cycle ||
                (a.cycle == b.cycle &&
                 (a.sm < b.sm || (a.sm == b.sm && a.seq < b.seq))))
                win = i;
        }
        result_.faults.push_back(std::move(candidates[win].fault));
        result_.aborted = true;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Functional-tier cycle estimate
// ---------------------------------------------------------------------

uint64_t
GpuSim::estimateCycles(const std::vector<SmCtx>& sms) const
{
    // No timing model ran. Report the issue-bound lower bound (the
    // busiest SM's warp instructions over its issue width) so the field
    // is deterministic and monotone in work, but it is an estimate —
    // never compare it against detailed cycles.
    uint64_t est = 0;
    for (const SmCtx& sm : sms)
        est = std::max(est, (sm.cnt.instructions +
                             config_.schedulers_per_sm - 1) /
                                config_.schedulers_per_sm);
    return est;
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

unsigned
GpuSim::resolveThreads(unsigned used_sms) const
{
    const LaunchOptions& o = launch_.options;
    unsigned threads = resolveSimThreads(config_);
    if (threads > 1 && (o.trace || o.sanitizer || o.memlog)) {
        lmi_inform("sim: %s launch pinned to sim_threads=1 "
                   "(order-sensitive sink attached)",
                   o.trace       ? "traced"
                   : o.sanitizer ? "sanitized"
                                 : "event-logged");
        threads = 1;
    }
    return std::min(std::max(threads, 1u), used_sms);
}

RunResult
GpuSim::run()
{
    mech_.onKernelLaunch(program_);

    // Round-robin block placement over SMs.
    std::vector<SmCtx> sms;
    const unsigned used_sms =
        std::min<unsigned>(config_.num_sms,
                           std::max(1u, launch_.grid_blocks));
    sms.reserve(used_sms);
    for (unsigned s = 0; s < used_sms; ++s) {
        sms.emplace_back(config_);
        sms.back().sm_id = s;
        sms.back().dram = std::make_unique<DramModel>(
            config_.dram_latency,
            config_.dram_bytes_per_cycle / double(used_sms),
            config_.line_bytes);
        sms.back().gview.init(&global_mem_);
    }
    for (unsigned b = 0; b < launch_.grid_blocks; ++b)
        sms[b % used_sms].pending_blocks.push_back(b);
    bool uses_local = false;
    for (const InstDesc& d : idesc_)
        uses_local = uses_local ||
                     (d.is_mem && d.space == MemSpace::Local);
    const unsigned warps_per_block =
        (launch_.block_threads + config_.warp_size - 1) /
        config_.warp_size;
    const uint64_t shared_window =
        std::min(dyn_shared_base_ + launch_.options.dynamic_shared_bytes,
                 kSharedCapacity);
    const uint64_t frame_window =
        std::min(program_.frame_bytes, kFrameWindowCap);
    // A warp's register slot: its value rows, then its scoreboard.
    const size_t warp_reg_words =
        size_t(layout_.rows) * config_.warp_size + layout_.slots();
    for (SmCtx& sm : sms) {
        sm.initArenas(config_, warps_per_block, shared_window, uses_local,
                      config_.stack_top - program_.frame_bytes,
                      frame_window, warp_reg_words);
        admitBlocks(sm);
    }

    // Slice-synchronous execution: private SM slices, then a canonical
    // commit — identical for every worker count (see file header).
    const unsigned threads = resolveThreads(used_sms);
    if (threads <= 1) {
        for (uint64_t slice_no = 1;; ++slice_no) {
            bool all_finished = true;
            for (SmCtx& sm : sms) {
                stepSmSlice(sm, slice_no);
                all_finished = all_finished && sm.finished;
            }
            if (commitSlice(sms) || all_finished)
                break;
        }
    } else {
        WorkerPool pool(*this, sms, threads);
        for (uint64_t slice_no = 1;; ++slice_no) {
            pool.runSlice(slice_no);
            bool all_finished = true;
            for (const SmCtx& sm : sms)
                all_finished = all_finished && sm.finished;
            if (commitSlice(sms) || all_finished)
                break;
        }
    }

    uint64_t max_cycle = 0;
    for (const SmCtx& sm : sms) {
        max_cycle = std::max(max_cycle, sm.cycle);
        result_.stats.inc("sim.sm_cycles", sm.cycle);
        result_.instructions += sm.cnt.instructions;
        result_.thread_instructions += sm.cnt.thread_instructions;
        result_.ldg += sm.cnt.ldg;
        result_.stg += sm.cnt.stg;
        result_.lds += sm.cnt.lds;
        result_.sts += sm.cnt.sts;
        result_.ldl += sm.cnt.ldl;
        result_.stl += sm.cnt.stl;
        result_.l1_hits += sm.cnt.l1_hits;
        result_.l1_misses += sm.cnt.l1_misses;
        result_.l2_hits += sm.cnt.l2_hits;
        result_.l2_misses += sm.cnt.l2_misses;
        result_.dram_accesses += sm.cnt.dram_accesses;
    }

    if (launch_.options.tier == ExecutionTier::Functional)
        max_cycle = estimateCycles(sms);
    result_.cycles =
        uint64_t(double(max_cycle) * (1.0 + mech_.launchOverheadFraction()));

    for (Fault& f : mech_.onKernelEnd())
        result_.faults.push_back(std::move(f));

    if (launch_.options.sanitizer) {
        result_.stats.inc("race.sanitizer_conflicts",
                          launch_.options.sanitizer->conflictCount());
        result_.stats.inc("race.sanitizer_words",
                          launch_.options.sanitizer->wordsTracked());
    }

    result_.stats.set("sim.l1_hit_rate",
                      result_.l1_hits + result_.l1_misses == 0
                          ? 0.0
                          : double(result_.l1_hits) /
                                double(result_.l1_hits + result_.l1_misses));
    return std::move(result_);
}

} // namespace lmi
