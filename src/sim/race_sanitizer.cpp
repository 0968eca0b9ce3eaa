#include "sim/race_sanitizer.hpp"

#include <algorithm>
#include <sstream>

namespace lmi {

std::string
RaceSanitizer::Report::toString() const
{
    std::ostringstream os;
    os << "race on " << memSpaceName(space) << " word 0x" << std::hex
       << addr << std::dec << ": "
       << (is_store ? "store" : "load") << " by block " << block
       << " warp " << warp << " thread " << gtid << " (pc " << pc
       << ") vs " << (other_is_store ? "store" : "load") << " by block "
       << other_block << " warp " << other_warp << " thread "
       << other_gtid << " (pc " << other_pc << ") in epoch " << epoch;
    return os.str();
}

inline bool
RaceSanitizer::conflicts(const Access& cur, const Access& prev)
{
    if (!prev.valid)
        return false;
    // Different blocks are never ordered within a kernel (shared memory
    // is per-block, so this arises for global memory only); warps of
    // one block are ordered by barrier epochs.
    if (prev.block == cur.block &&
        (prev.warp == cur.warp || prev.epoch != cur.epoch))
        return false;
    if (!cur.is_store && !prev.is_store)
        return false;
    if (cur.is_atomic && prev.is_atomic) {
        // A properly scoped atomic pair synchronizes instead of racing:
        // cta scope covers same-block pairs, gpu/sys scope covers any
        // pair on the device. A scope-mismatched pair (e.g. cta-scope
        // atomics from different blocks) still conflicts.
        const MemScope need = prev.block != cur.block ? MemScope::Gpu
                                                      : MemScope::Cta;
        if (uint8_t(cur.scope) >= uint8_t(need) &&
            uint8_t(prev.scope) >= uint8_t(need))
            return false;
    }
    return true;
}

void
RaceSanitizer::report(MemSpace space, const Access& cur,
                      const Access& prev, uint64_t addr)
{
    ++conflicts_;
    if (reports_.size() >= kMaxReports)
        return;
    Report r;
    r.space = space;
    r.addr = addr;
    r.block = cur.block;
    r.other_block = prev.block;
    r.warp = cur.warp;
    r.other_warp = prev.warp;
    r.gtid = cur.gtid;
    r.other_gtid = prev.gtid;
    r.is_store = cur.is_store;
    r.other_is_store = prev.is_store;
    r.epoch = cur.epoch;
    r.pc = cur.pc;
    r.other_pc = prev.pc;
    reports_.push_back(std::move(r));
}

namespace {

/** Word indexes wrap with the 64-bit address space. */
constexpr uint64_t kWordMask = (uint64_t(1) << 62) - 1;

} // namespace

inline RaceSanitizer::BlockState&
RaceSanitizer::blockState(uint32_t block)
{
    if (!last_state_ || last_block_ != block) {
        last_state_ = &blocks_[block];
        last_block_ = block;
    }
    return *last_state_;
}

void
RaceSanitizer::findPage(Shadow& shadow, uint64_t no)
{
    std::unique_ptr<Page>& page = shadow.pages[no];
    if (!page) {
        if (spare_.empty()) {
            page = std::make_unique<Page>();
        } else {
            page = std::move(spare_.back());
            spare_.pop_back();
        }
    }
    shadow.last_no = no;
    shadow.last = page.get();
}

inline RaceSanitizer::Cell&
RaceSanitizer::cell(Shadow& shadow, uint64_t word)
{
    const uint64_t no = word >> Page::kWordsLog2;
    if (no != shadow.last_no)
        findPage(shadow, no);
    Page& page = *shadow.last;
    const uint32_t i = uint32_t(word & (Page::kWords - 1));
    Cell& c = page.cells[i];
    if (!c.last_write.valid && !c.last_read.valid) {
        ++shadow.words;
        page.lo = std::min(page.lo, i);
        page.hi = std::max(page.hi, i + 1);
    }
    return c;
}

void
RaceSanitizer::forget(Shadow& shadow, Page& page, uint32_t lo, uint32_t hi)
{
    for (uint32_t i = lo; i < hi; ++i) {
        Cell& c = page.cells[i];
        if (c.last_write.valid || c.last_read.valid) {
            --shadow.words;
            c = Cell{};
        }
    }
}

void
RaceSanitizer::onWarpAccess(MemSpace space, uint32_t block, uint32_t warp,
                            uint32_t first_gtid, uint64_t pc,
                            uint32_t lanes, const uint64_t* addrs,
                            unsigned width, bool is_store, bool is_atomic,
                            MemScope scope)
{
    if (!lanes || (space != MemSpace::Global && space != MemSpace::Shared))
        return; // local/constant memory is thread-private/read-only

    BlockState& state = blockState(block);
    Access cur;
    cur.valid = true;
    cur.is_store = is_store;
    cur.is_atomic = is_atomic;
    cur.scope = scope;
    cur.block = block;
    cur.warp = warp;
    cur.pc = pc;
    cur.epoch = state.epoch;

    Shadow& shadow = space == MemSpace::Shared ? state.shared : global_;
    for (uint32_t m = lanes; m; m &= m - 1) {
        const unsigned lane = unsigned(__builtin_ctz(m));
        const uint64_t addr = addrs[lane];
        cur.gtid = first_gtid + lane;
        // Count words rather than compare word indexes, so a range
        // ending past 2^64 wraps instead of covering nothing.
        const uint64_t first_word = addr >> 2;
        const uint64_t words =
            ((addr & 3) + (width ? width : 1) - 1) / 4 + 1;
        for (uint64_t k = 0; k < words; ++k) {
            const uint64_t w = (first_word + k) & kWordMask;
            Cell& c = cell(shadow, w);
            // A store conflicts with the previous write and the
            // previous read; a load only with the previous write.
            if (conflicts(cur, c.last_write))
                report(space, cur, c.last_write, w << 2);
            if (is_store) {
                if (conflicts(cur, c.last_read))
                    report(space, cur, c.last_read, w << 2);
                c.last_write = cur;
            } else {
                c.last_read = cur;
            }
        }
    }
}

void
RaceSanitizer::onBarrierRelease(uint32_t block)
{
    ++blockState(block).epoch;
}

void
RaceSanitizer::onBlockRetire(uint32_t block)
{
    const auto it = blocks_.find(block);
    if (it == blocks_.end())
        return;
    for (auto& [no, page] : it->second.shared.pages) {
        forget(it->second.shared, *page, page->lo, page->hi);
        page->lo = Page::kWords;
        page->hi = 0;
        spare_.push_back(std::move(page));
    }
    if (last_state_ == &it->second)
        last_state_ = nullptr;
    blocks_.erase(it);
}

void
RaceSanitizer::onDeviceAlloc(uint64_t ptr, uint64_t size)
{
    // Words [first, first + count) modulo 2^62, count = 1 for size 0.
    const uint64_t first = ptr >> 2;
    uint64_t count = 1;
    if (size) {
        const uint64_t q = (size - 1) >> 2, r = (size - 1) & 3;
        count = std::min(q + 1 + ((ptr & 3) + r) / 4, kWordMask + 1);
    }
    // Clear [w0, w1] (no wrap) on the pages of it that hold shadow,
    // visiting whichever is fewer: its pages or the shadowed ones.
    const auto clear = [this](uint64_t w0, uint64_t w1) {
        const uint64_t p0 = w0 >> Page::kWordsLog2;
        const uint64_t p1 = w1 >> Page::kWordsLog2;
        const auto clearPage = [&](uint64_t no, Page& page) {
            const uint64_t base = no << Page::kWordsLog2;
            const uint32_t lo = uint32_t(std::max(w0, base) - base);
            const uint32_t hi =
                uint32_t(std::min(w1, base + Page::kWords - 1) - base + 1);
            forget(global_, page, std::max(lo, page.lo),
                   std::min(hi, page.hi));
        };
        if (p1 - p0 < global_.pages.size()) {
            for (uint64_t no = p0;; ++no) {
                if (const auto it = global_.pages.find(no);
                    it != global_.pages.end())
                    clearPage(no, *it->second);
                if (no == p1)
                    break;
            }
        } else {
            for (auto& [no, page] : global_.pages)
                if (no >= p0 && no <= p1)
                    clearPage(no, *page);
        }
    };
    const uint64_t last = (first + count - 1) & kWordMask;
    if (last >= first) {
        clear(first, last);
    } else {
        clear(first, kWordMask);
        clear(0, last);
    }
}

size_t
RaceSanitizer::wordsTracked() const
{
    size_t n = global_.words;
    for (const auto& [block, state] : blocks_)
        n += state.shared.words;
    return n;
}

} // namespace lmi
