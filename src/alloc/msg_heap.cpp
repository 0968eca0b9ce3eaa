#include "alloc/msg_heap.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "arch/mem_map.hpp"
#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace lmi {

struct MessageHeap::KindTraits
{
    /** Packed rounding and alignment; group and huge-block alignment. */
    uint64_t align;
    uint64_t region_base, region_size;
    const char* double_free_msg;
    const char* invalid_free_msg;
    /** Stat names (empty = not counted). */
    std::string stat_alloc, stat_free, stat_groups;
    std::string stat_reserved, stat_requested, stat_quarantined;
    /** Count mallocs when attempted rather than when they succeed. */
    bool stat_alloc_early;
    /** Count a quarantined free as a free. */
    bool stat_free_on_quarantine;
};

const MessageHeap::KindTraits&
MessageHeap::traitsOf(HeapKind kind)
{
    static const KindTraits kTraits[] = {
        // Global: the documented 256-byte cudaMalloc minimum.
        {256, kGlobalBase, kGlobalSize, "cudaFree of already-freed pointer",
         "cudaFree of pointer not returned by cudaMalloc",
         "alloc.global.allocs", "alloc.global.frees", "",
         "alloc.global.reserved_bytes", "alloc.global.requested_bytes",
         "alloc.global.quarantined_bytes", false, false},
        // Device: buffer groups and oversized blocks at the 16-byte
        // backing alignment.
        {16, kHeapBase, kHeapSize, "device free of already-freed pointer",
         "device free of pointer not returned by malloc",
         "alloc.heap.mallocs", "alloc.heap.frees", "alloc.heap.groups", "",
         "", "", true, true},
    };
    return kTraits[size_t(kind)];
}

MessageHeap::MessageHeap(Config config, StatRegistry* stats)
    : config_(config), traits_(traitsOf(config.kind)),
      chunked_(config.kind == HeapKind::Device &&
               config.policy == AllocPolicy::Packed),
      stats_(stats)
{
    if (config_.region_size == 0) {
        config_.region_base = traits_.region_base;
        config_.region_size = traits_.region_size;
    }
    range_ = RangeAllocator(config_.region_base, config_.region_size);
    if (config_.contexts == 0)
        config_.contexts = 1;
    ctx_.resize(config_.contexts);
}

MessageHeap::Shape
MessageHeap::shapeFor(uint64_t size)
{
    Shape s;
    if (config_.policy == AllocPolicy::Pow2Aligned) {
        s.reserved = kDefaultCodec.alignedSize(size);
        if (s.reserved == 0)
            return s;
        s.align = s.reserved;
        s.cls = s.reserved <= kMaxSlabBlock ? classes_.classFor(s.reserved)
                                            : kHugeClass;
        return s;
    }
    if (chunked_) {
        s.chunk = kChunkGeometry.chunkUnitFor(size);
        s.chunks = unsigned((size + s.chunk - 1) / s.chunk);
        s.align = traits_.align;
        // A chunk multiple; the large chunk is not a power of two, so
        // alignUp cannot round to it.
        s.reserved = uint64_t(s.chunks) * s.chunk;
        // Oversized request: dedicated placement (paper Fig. 5).
        s.cls = s.chunks > kChunkGeometry.chunks_per_group
                    ? kHugeClass
                    : classes_.classFor(s.reserved, s.chunk, s.chunks);
        return s;
    }
    s.reserved = alignUp(std::max<uint64_t>(size, 1), traits_.align);
    s.align = traits_.align;
    s.cls = s.reserved <= kMaxSlabBlock ? classes_.classFor(s.reserved)
                                        : kHugeClass;
    return s;
}

uint64_t
MessageHeap::carveFromGroup(uint32_t ctx, uint32_t tid, const Shape& s)
{
    CtxState& cs = ctx_[ctx];
    const unsigned shard = (tid / 32) % kShardsPerCtx;
    const size_t key = size_t(shard) * 2 +
                       (s.chunk == kChunkGeometry.large_chunk ? 1 : 0);
    auto& glist = cs.groups[key];

    // Bump from the first open group with room; retire full groups.
    for (size_t i = 0; i < glist.size();) {
        OpenGroup& g = glist[i];
        if (g.cursor >= g.cap) {
            glist[i] = glist.back();
            glist.pop_back();
            continue;
        }
        if (g.cursor + s.chunks <= g.cap) {
            const uint64_t base = g.base + uint64_t(g.cursor) * g.chunk;
            g.cursor += s.chunks;
            return base;
        }
        ++i;
    }

    // Open a new group: header + chunk storage from the range layer.
    const uint64_t header = kChunkGeometry.group_header;
    const uint64_t storage =
        uint64_t(kChunkGeometry.chunks_per_group) * s.chunk;
    const uint64_t raw = range_.alloc(header + storage, s.align);
    if (raw == 0)
        return 0;
    footprint_ += header + storage;
    peak_footprint_ = std::max(peak_footprint_, footprint_);
    ++group_count_;
    if (stats_ && !traits_.stat_groups.empty())
        stats_->inc(traits_.stat_groups);

    OpenGroup g;
    g.base = raw + header;
    g.chunk = s.chunk;
    g.cursor = s.chunks;
    g.cap = kChunkGeometry.chunks_per_group;
    glist.push_back(g);
    return g.base;
}

uint64_t
MessageHeap::carveFromSlab(uint32_t ctx, const Shape& s)
{
    CtxState& cs = ctx_[ctx];
    if (cs.open.size() <= s.cls)
        cs.open.resize(s.cls + 1);
    OpenSlab& sl = cs.open[s.cls];
    if (sl.cursor + s.reserved <= sl.end) {
        const uint64_t base = sl.cursor;
        sl.cursor += s.reserved;
        return base;
    }

    const uint64_t blocks = std::max<uint64_t>(kSlabBytes / s.reserved, 2);
    const uint64_t slab = range_.alloc(blocks * s.reserved, s.align);
    if (slab == 0) {
        // Region too tight for a whole slab: squeeze out one block.
        const uint64_t base = range_.alloc(s.reserved, s.align);
        if (base != 0) {
            footprint_ += s.reserved;
            peak_footprint_ = std::max(peak_footprint_, footprint_);
        }
        return base;
    }
    footprint_ += blocks * s.reserved;
    peak_footprint_ = std::max(peak_footprint_, footprint_);
    ++slab_count_;
    sl.cursor = slab + s.reserved;
    sl.end = slab + blocks * s.reserved;
    return slab;
}

uint64_t
MessageHeap::acquire(uint32_t ctx, uint32_t tid, const Shape& s)
{
    if (s.cls == kHugeClass) {
        const uint64_t base = range_.alloc(s.reserved, s.align);
        if (base != 0) {
            footprint_ += s.reserved;
            peak_footprint_ = std::max(peak_footprint_, footprint_);
        }
        return base;
    }

    CtxState& cs = ctx_[ctx];
    if (s.cls < cs.cache.size() && !cs.cache[s.cls].empty()) {
        const uint64_t base = cs.cache[s.cls].back();
        cs.cache[s.cls].pop_back();
        --cached_blocks_;
        return base;
    }
    if (s.cls < central_.size() && !central_[s.cls].empty()) {
        const uint64_t base = central_[s.cls].back();
        central_[s.cls].pop_back();
        --cached_blocks_;
        return base;
    }
    return chunked_ ? carveFromGroup(ctx, tid, s) : carveFromSlab(ctx, s);
}

MessageHeap::ExtentMap::iterator
MessageHeap::addExtent(ExtentMap::iterator hint, const Extent& rec)
{
    auto it = extents_.emplace_hint(hint, rec.base, rec);
    by_base_.insert(&it->second);
    return it;
}

MessageHeap::ExtentMap::iterator
MessageHeap::dropExtent(ExtentMap::iterator it)
{
    by_base_.erase(it->first);
    return extents_.erase(it);
}

MessageHeap::Extent&
MessageHeap::carveExtent(uint64_t base, uint64_t reserved)
{
    const uint64_t end = base + reserved;

    // Clear retired records overlapping the new range. Overlap happens
    // when chunked runs of different lengths recycle group space or the
    // range layer re-carves coalesced huge space; a live overlap would
    // be an allocator bug.
    auto it = extents_.lower_bound(base);
    if (it != extents_.begin()) {
        auto prev = std::prev(it);
        Extent& p = prev->second;
        const uint64_t p_end = p.base + p.reserved;
        if (p_end > base) {
            if (p.live)
                lmi_panic("live extent 0x%llx overlaps new block 0x%llx",
                          static_cast<unsigned long long>(p.base),
                          static_cast<unsigned long long>(base));
            // Trim the retired record's tail; keep a dead remainder on
            // the right if it extended past the new block.
            p.reserved = base - p.base;
            p.requested = std::min(p.requested, p.reserved);
            if (p_end > end) {
                Extent tail = p;
                tail.base = end;
                tail.reserved = p_end - end;
                tail.requested = std::min(tail.requested, tail.reserved);
                addExtent(it, tail);
            }
        }
    }
    Extent* reuse = nullptr;
    while (it != extents_.end() && it->first < end) {
        Extent& e = it->second;
        if (e.live)
            lmi_panic("live extent 0x%llx overlaps new block 0x%llx",
                      static_cast<unsigned long long>(e.base),
                      static_cast<unsigned long long>(base));
        const uint64_t e_end = e.base + e.reserved;
        if (e.base == base && e_end <= end) {
            // Exact-base record: reuse the node in place (epoch bump).
            reuse = &e;
            ++it;
            continue;
        }
        if (e_end > end) {
            // Dead record sticking out to the right: rebase past us.
            Extent tail = e;
            tail.base = end;
            tail.reserved = e_end - end;
            tail.requested = std::min(tail.requested, tail.reserved);
            it = addExtent(dropExtent(it), tail);
            break;
        }
        it = dropExtent(it);
    }

    if (reuse != nullptr) {
        ++reuse->epoch;
        return *reuse;
    }
    Extent fresh;
    fresh.base = base;
    return addExtent(it, fresh)->second;
}

MessageHeap::Extent&
MessageHeap::mintExtent(uint64_t base, const Shape& s, uint32_t ctx,
                        uint64_t requested)
{
    // Recycle fast path: a retired record at this exact base with the
    // same size. Records never overlap, so no other record can lie
    // inside [base, base + reserved) and there is nothing to trim.
    Extent* rec = by_base_.find(base);
    if (rec != nullptr && !rec->live && rec->reserved == s.reserved)
        ++rec->epoch;
    else
        rec = &carveExtent(base, s.reserved);
    rec->requested = requested;
    rec->reserved = s.reserved;
    rec->live = true;
    rec->id = next_id_++;
    rec->owner = ctx;
    rec->cls = s.cls;
    return *rec;
}

uint64_t
MessageHeap::alloc(uint32_t ctx, uint32_t tid, uint64_t size)
{
    if (size == 0)
        return 0;
    if (ctx >= config_.contexts)
        ctx %= config_.contexts;
    if (stats_ && traits_.stat_alloc_early)
        stats_->inc(traits_.stat_alloc);

    const Shape s = shapeFor(size);
    if (s.reserved == 0) {
        lmi_warn("allocation of %llu bytes exceeds the representable size",
                 static_cast<unsigned long long>(size));
        return 0;
    }

    uint64_t base = acquire(ctx, tid, s);
    if (base == 0) {
        // Reclaim in-flight remote frees (canonical order) and retry
        // before reporting exhaustion.
        drainRemote();
        base = acquire(ctx, tid, s);
        if (base == 0)
            return 0;
    }

    mintExtent(base, s, ctx, size);
    live_reserved_ += s.reserved;
    live_requested_ += size;
    peak_reserved_ = std::max(peak_reserved_, live_reserved_);
    if (stats_) {
        if (!traits_.stat_alloc_early)
            stats_->inc(traits_.stat_alloc);
        if (!traits_.stat_reserved.empty())
            stats_->inc(traits_.stat_reserved, s.reserved);
        if (!traits_.stat_requested.empty())
            stats_->inc(traits_.stat_requested, size);
    }

    if (config_.policy == AllocPolicy::Pow2Aligned)
        return kDefaultCodec.encode(base, size);
    return base;
}

void
MessageHeap::pushLocal(uint32_t ctx, uint32_t cls, uint64_t base)
{
    CtxState& cs = ctx_[ctx];
    if (cs.cache.size() <= cls)
        cs.cache.resize(cls + 1);
    auto& cache = cs.cache[cls];
    cache.push_back(base);
    ++cached_blocks_;
    if (cache.size() > kCacheCap) {
        // Spill the cold half to the central freelist, keep recency.
        if (central_.size() <= cls)
            central_.resize(cls + 1);
        central_[cls].insert(central_[cls].end(), cache.begin(),
                             cache.begin() + kCacheCap / 2);
        cache.erase(cache.begin(), cache.begin() + kCacheCap / 2);
    }
}

MaybeFault
MessageHeap::free(uint32_t ctx, uint64_t ptr)
{
    if (ctx >= config_.contexts)
        ctx %= config_.contexts;
    const uint64_t addr = PointerCodec::addressOf(ptr);
    // The runtime requires the pointer to be the exact block base; for
    // LMI pointers the base is recoverable from the extent.
    uint64_t base = addr;
    if (config_.policy == AllocPolicy::Pow2Aligned &&
        PointerCodec::isValid(ptr)) {
        base = kDefaultCodec.baseOf(ptr);
    }

    Extent* rec = by_base_.find(base);
    if (rec == nullptr)
        return Fault{FaultKind::InvalidFree, base, traits_.invalid_free_msg};
    Extent& e = *rec;
    if (!e.live)
        return Fault{FaultKind::DoubleFree, base, traits_.double_free_msg};

    e.live = false;
    live_reserved_ -= e.reserved;
    live_requested_ -= e.requested;

    if (config_.quarantine_frees) {
        // One-time allocation: the address range stays retired.
        if (stats_) {
            if (!traits_.stat_quarantined.empty())
                stats_->inc(traits_.stat_quarantined, e.reserved);
            if (traits_.stat_free_on_quarantine)
                stats_->inc(traits_.stat_free);
        }
        return std::nullopt;
    }

    if (e.cls == kHugeClass) {
        // Huge blocks coalesce straight back into the range layer; the
        // record is dropped, so a later stale free lands as InvalidFree.
        range_.free(e.base, e.reserved);
        footprint_ -= e.reserved;
        dropExtent(extents_.find(base));
    } else if (e.owner == ctx) {
        pushLocal(ctx, e.cls, e.base);
    } else {
        ctx_[e.owner].remote.push_back(RemoteMsg{e.base, e.cls, ctx});
        ++remote_stats_.posted;
    }

    if (stats_)
        stats_->inc(traits_.stat_free);
    return std::nullopt;
}

void
MessageHeap::drainRemote()
{
    // O(1) when nothing is in flight — the simulator calls this every
    // slice, and most slices free nothing across SMs.
    if (remote_stats_.posted == remote_stats_.drained)
        return;
    ++remote_stats_.drain_calls;
    for (uint32_t owner = 0; owner < config_.contexts; ++owner) {
        std::vector<RemoteMsg>& msgs = ctx_[owner].remote;
        // Canonical (from, post order) replay keeps freelist order — and
        // thus every later placement decision — byte-identical however
        // the frees interleaved across senders.
        std::stable_sort(msgs.begin(), msgs.end(),
                         [](const RemoteMsg& a, const RemoteMsg& b) {
                             return a.from < b.from;
                         });
        for (size_t i = 0; i < msgs.size();) {
            size_t end = i;
            while (end < msgs.size() && msgs[end].from == msgs[i].from)
                ++end;
            remote_stats_.batches +=
                (end - i + kRemoteBatch - 1) / kRemoteBatch;
            for (; i < end; ++i)
                pushLocal(owner, msgs[i].cls, msgs[i].base);
        }
        remote_stats_.drained += msgs.size();
        msgs.clear();
    }
}

const MessageHeap::Extent*
MessageHeap::findLive(uint64_t addr) const
{
    auto it = extents_.upper_bound(addr);
    if (it == extents_.begin())
        return nullptr;
    --it;
    const Extent& e = it->second;
    if (e.live && addr < e.base + e.reserved)
        return &e;
    return nullptr;
}

const MessageHeap::Extent*
MessageHeap::findAny(uint64_t addr) const
{
    auto it = extents_.upper_bound(addr);
    if (it == extents_.begin())
        return nullptr;
    --it;
    const Extent& e = it->second;
    if (addr < e.base + e.reserved)
        return &e;
    return nullptr;
}

const MessageHeap::Extent*
MessageHeap::extentAt(uint64_t base) const
{
    return by_base_.find(base);
}

MessageHeap::Extent*
MessageHeap::BaseIndex::find(uint64_t base) const
{
    if (slots_.empty())
        return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(base);; i = (i + 1) & mask) {
        const Slot& slot = slots_[i];
        if (slot.rec == nullptr)
            return nullptr;
        if (slot.base == base)
            return slot.rec;
    }
}

void
MessageHeap::BaseIndex::insert(Extent* rec)
{
    if (2 * (size_ + 1) > slots_.size())
        grow();
    const size_t mask = slots_.size() - 1;
    size_t i = home(rec->base);
    while (slots_[i].rec != nullptr)
        i = (i + 1) & mask;
    slots_[i] = Slot{rec->base, rec};
    ++size_;
}

void
MessageHeap::BaseIndex::erase(uint64_t base)
{
    const size_t mask = slots_.size() - 1;
    size_t hole = home(base);
    while (slots_[hole].base != base || slots_[hole].rec == nullptr)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless that would move one before its home slot.
    for (size_t j = (hole + 1) & mask; slots_[j].rec != nullptr;
         j = (j + 1) & mask) {
        const size_t h = home(slots_[j].base);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = Slot{};
    --size_;
}

void
MessageHeap::BaseIndex::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    shift_ = 64 - unsigned(std::countr_zero(slots_.size()));
    size_ = 0;
    for (const Slot& slot : old)
        if (slot.rec != nullptr)
            insert(slot.rec);
}

} // namespace lmi
