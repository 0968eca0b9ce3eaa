/**
 * @file
 * Functional backing stores.
 *
 * SparseMemory is a sparse, page-granular byte memory. It backs global
 * memory (one instance per device) and the out-of-window spill of the
 * windowed memories below. Pages materialize zero-filled on first
 * touch, so the 8 GB global space costs only what kernels touch.
 *
 * A one-entry last-page cache short-circuits the page map for the common
 * case of consecutive accesses landing on the same page (coalesced warp
 * accesses, streaming loops). Page storage is heap-allocated behind
 * unique_ptr, so the cached pointer stays valid across map rehashes;
 * only reset() invalidates it.
 *
 * WindowedMemory backs per-block shared memory and per-thread local
 * memory: a dense byte window over the declared range (the shared
 * buffers, the stack frame) with a SparseMemory spill for every byte
 * outside it, so out-of-bounds accesses still behave like memory.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace lmi {

/**
 * Sparse byte-addressable memory. Mutation is single-threaded; while no
 * writer is active, concurrent readers must go through the const
 * peekPage() path (read()/findPage() mutate the one-entry page cache).
 */
class SparseMemory
{
  public:
    static constexpr uint64_t kPageBytes = 4096;

    /** Read @p n bytes (n <= 8) little-endian into a value. */
    uint64_t
    read(uint64_t addr, unsigned n)
    {
        const uint64_t off = addr % kPageBytes;
        if (off + n <= kPageBytes) {
            // Reads must not materialize pages (footprint stats count
            // touched pages): probe without inserting.
            const uint8_t* p = findPage(addr / kPageBytes);
            if (!p)
                return 0;
            uint64_t v = 0;
            std::memcpy(&v, p + off, n);
            return v;
        }
        uint64_t v = 0;
        readBytes(addr, reinterpret_cast<uint8_t*>(&v), n);
        return v;
    }

    /** Write the low @p n bytes of @p value. */
    void
    write(uint64_t addr, uint64_t value, unsigned n)
    {
        const uint64_t off = addr % kPageBytes;
        if (off + n <= kPageBytes) {
            std::memcpy(page(addr / kPageBytes) + off, &value, n);
            return;
        }
        writeBytes(addr, reinterpret_cast<const uint8_t*>(&value), n);
    }

    void
    readBytes(uint64_t addr, uint8_t* out, uint64_t n)
    {
        while (n > 0) {
            const uint64_t off = addr % kPageBytes;
            const uint64_t chunk = std::min(n, kPageBytes - off);
            const uint8_t* p = findPage(addr / kPageBytes);
            if (!p)
                std::memset(out, 0, chunk);
            else
                std::memcpy(out, p + off, chunk);
            addr += chunk;
            out += chunk;
            n -= chunk;
        }
    }

    void
    writeBytes(uint64_t addr, const uint8_t* in, uint64_t n)
    {
        while (n > 0) {
            const uint64_t off = addr % kPageBytes;
            const uint64_t chunk = std::min(n, kPageBytes - off);
            std::memcpy(page(addr / kPageBytes) + off, in, chunk);
            addr += chunk;
            in += chunk;
            n -= chunk;
        }
    }

    /**
     * Const page lookup: no materialization and, unlike findPage(), no
     * one-entry-cache update, so concurrent readers may call it while no
     * writer is active (the parallel simulator's per-SM views read the
     * frozen base image through this during a slice). nullptr if the
     * page was never written.
     */
    const uint8_t*
    peekPage(uint64_t idx) const
    {
        auto it = pages_.find(idx);
        return it == pages_.end() ? nullptr : it->second->data();
    }

    /** Number of materialized pages (for footprint stats). */
    size_t pageCount() const { return pages_.size(); }

    /**
     * Order-independent FNV-1a digest over (page index, contents) in
     * sorted page order. Two memories with identical byte images have
     * identical digests regardless of materialization order; the
     * byte-identity tests compare these across sim_threads settings.
     */
    uint64_t
    digest() const
    {
        std::vector<uint64_t> idx;
        idx.reserve(pages_.size());
        for (const auto& [i, p] : pages_)
            idx.push_back(i);
        std::sort(idx.begin(), idx.end());
        uint64_t h = 1469598103934665603ull;
        auto mix = [&h](const uint8_t* p, size_t n) {
            for (size_t i = 0; i < n; ++i) {
                h ^= p[i];
                h *= 1099511628211ull;
            }
        };
        for (uint64_t i : idx) {
            mix(reinterpret_cast<const uint8_t*>(&i), sizeof(i));
            mix(pages_.at(i)->data(), kPageBytes);
        }
        return h;
    }

    /** Drop all contents: subsequent reads see zeros again. */
    void
    reset()
    {
        pages_.clear();
        cached_idx_ = kNoPage;
        cached_page_ = nullptr;
    }

  private:
    using Page = std::array<uint8_t, kPageBytes>;

    static constexpr uint64_t kNoPage = ~uint64_t(0);

    /** Look up a page without materializing it; nullptr if untouched. */
    const uint8_t*
    findPage(uint64_t idx)
    {
        if (idx == cached_idx_ && cached_page_)
            return cached_page_;
        auto it = pages_.find(idx);
        if (it == pages_.end())
            return nullptr;
        cached_idx_ = idx;
        cached_page_ = it->second->data();
        return cached_page_;
    }

    /** Look up a page, materializing it zero-filled on first touch. */
    uint8_t*
    page(uint64_t idx)
    {
        if (idx == cached_idx_ && cached_page_)
            return cached_page_;
        auto& p = pages_[idx];
        if (!p)
            p = std::make_unique<Page>(); // value-initialised: all zero
        cached_idx_ = idx;
        cached_page_ = p->data();
        return cached_page_;
    }

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    /** One-entry cache of the last page touched (index, storage). */
    uint64_t cached_idx_ = kNoPage;
    uint8_t* cached_page_ = nullptr;
};

/**
 * Byte-addressable memory with a dense window [lo, lo + size) over
 * caller-owned storage and a lazily created SparseMemory spill for
 * every other address. An access that straddles a window edge is split
 * per byte between the two, so the memory reads back exactly what a
 * plain SparseMemory would. The engine binds one per block (shared)
 * and per lane (local) into per-SM arenas that live for the launch.
 */
class WindowedMemory
{
  public:
    /** Back [lo, lo + size) with @p window (size bytes, contents
     *  unspecified until reset()). */
    void
    bind(uint8_t* window, uint64_t lo, uint64_t size)
    {
        win_ = window;
        lo_ = lo;
        size_ = size;
    }

    /** Read @p n bytes (n <= 8) little-endian into a value. */
    uint64_t
    read(uint64_t addr, unsigned n)
    {
        uint64_t v = 0;
        const uint64_t off = addr - lo_; // wraps for addr < lo_
        if (off < size_ && size_ - off >= n) {
            copyAccess(&v, win_ + off, n);
            return v;
        }
        auto* out = reinterpret_cast<uint8_t*>(&v);
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t o = off + i;
            if (o < size_)
                out[i] = win_[o];
            else if (spill_)
                out[i] = uint8_t(spill_->read(addr + i, 1));
        }
        return v;
    }

    /** Write the low @p n bytes of @p value. */
    void
    write(uint64_t addr, uint64_t value, unsigned n)
    {
        const uint64_t off = addr - lo_;
        if (off < size_ && size_ - off >= n) {
            copyAccess(win_ + off, &value, n);
            return;
        }
        if (!spill_)
            spill_ = std::make_unique<SparseMemory>();
        const auto* in = reinterpret_cast<const uint8_t*>(&value);
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t o = off + i;
            if (o < size_)
                win_[o] = in[i];
            else
                spill_->write(addr + i, in[i], 1);
        }
    }

    /** Zero the window and drop the spill: every byte reads 0 again. */
    void
    reset()
    {
        if (size_)
            std::memset(win_, 0, size_);
        if (spill_)
            spill_->reset();
    }

  private:
    /** memcpy with the common access widths spelled out, so each
     *  compiles to one move instead of a libc call. */
    static void
    copyAccess(void* dst, const void* src, unsigned n)
    {
        switch (n) {
          case 8: std::memcpy(dst, src, 8); break;
          case 4: std::memcpy(dst, src, 4); break;
          default: std::memcpy(dst, src, n); break;
        }
    }

    uint8_t* win_ = nullptr;
    uint64_t lo_ = 0;
    uint64_t size_ = 0;
    std::unique_ptr<SparseMemory> spill_;
};

} // namespace lmi
