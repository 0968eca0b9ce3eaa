/**
 * @file
 * Pointer-liveness tracking (paper §XII-C, Algorithm 1).
 *
 * LMI's base temporal-safety story invalidates only the pointer passed to
 * free(); copies keep a stale but structurally valid extent. The extension
 * modeled here exploits the fact that the UM bits of a pointer uniquely
 * identify its buffer (allocations are size-aligned and non-overlapping):
 * a Membership Table keyed on the buffer identity is consulted on
 * dereference, catching use-after-free through *any* copy.
 *
 * The pageInvalidOpt optimization keeps large allocations (> pageSize/2)
 * out of the table entirely: their 2^n alignment guarantees they own their
 * pages exclusively, so free() can simply unmap/invalidate those pages and
 * let the (simulated) address translation fault the access.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "common/stats.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"

namespace lmi {

/**
 * Membership-table based liveness tracker.
 */
class LivenessTracker
{
  public:
    struct Config
    {
        /** Enable the page-invalidation optimization for large buffers. */
        bool page_invalidate_opt = false;
        /** Simulated page size (the paper's example uses 64 KiB). */
        uint64_t page_size = 64 * 1024;
    };

    LivenessTracker() : LivenessTracker(Config{}) {}

    explicit LivenessTracker(Config config, StatRegistry* stats = nullptr)
        : config_(config), stats_(stats)
    {
    }

    /**
     * MALLOC_HOOKED (Algorithm 1): register a freshly allocated buffer.
     * @param encoded_ptr the LMI-encoded pointer returned by the allocator
     */
    void
    onMalloc(uint64_t encoded_ptr)
    {
        const uint64_t key = kDefaultCodec.baseOf(encoded_ptr);
        freed_.erase(key);
        if (usesTable(kDefaultCodec.sizeOf(encoded_ptr))) {
            live_.insert(key);
            if (stats_) {
                stats_->inc("liveness.registered");
                stats_->set("liveness.peak_entries",
                            std::max<double>(
                                stats_->gauge("liveness.peak_entries"),
                                double(live_.size())));
            }
        } else {
            // Large buffers own whole pages; make sure those pages are
            // mapped again for the new owner.
            forEachPage(encoded_ptr, [&](uint64_t page) {
                invalidated_pages_.erase(page);
            });
        }
    }

    /**
     * FREE_HOOKED (Algorithm 1): deregister on free, invalidating pages for
     * large buffers instead of touching the table.
     *
     * @return a fault when the free itself is invalid (double/invalid free)
     */
    MaybeFault
    onFree(uint64_t encoded_ptr)
    {
        const uint64_t key = kDefaultCodec.baseOf(encoded_ptr);
        const uint64_t size = kDefaultCodec.sizeOf(encoded_ptr);

        if (!PointerCodec::isValid(encoded_ptr)) {
            // Extent already zero: either freed before or never valid.
            if (freed_.count(PointerCodec::addressOf(encoded_ptr)))
                return Fault{FaultKind::DoubleFree,
                             PointerCodec::addressOf(encoded_ptr),
                             "free() of already-freed pointer"};
            return Fault{FaultKind::InvalidFree,
                         PointerCodec::addressOf(encoded_ptr),
                         "free() of pointer with no valid extent"};
        }

        if (usesTable(size)) {
            if (live_.erase(key) == 0) {
                if (freed_.count(key))
                    return Fault{FaultKind::DoubleFree, key,
                                 "free() of already-freed buffer"};
                return Fault{FaultKind::InvalidFree, key,
                             "free() of unknown buffer"};
            }
            freed_.insert(key);
        } else {
            // Algorithm 1, lines 16-18: unmap the pages backing the buffer.
            forEachPage(encoded_ptr, [&](uint64_t page) {
                invalidated_pages_.insert(page);
            });
            freed_.insert(key);
            if (stats_)
                stats_->inc("liveness.pages_invalidated",
                            size / config_.page_size);
        }
        return std::nullopt;
    }

    /**
     * Dereference-time membership check: true iff the buffer identified by
     * @p encoded_ptr's UM bits is still live. Catches copied-pointer UAF.
     */
    bool
    isLive(uint64_t encoded_ptr) const
    {
        if (!PointerCodec::isValid(encoded_ptr))
            return false;
        const uint64_t size = kDefaultCodec.sizeOf(encoded_ptr);
        const uint64_t key = kDefaultCodec.baseOf(encoded_ptr);
        if (usesTable(size))
            return live_.count(key) != 0;
        return invalidated_pages_.count(pageOf(key)) == 0;
    }

    /** Current Membership Table population. */
    size_t membershipEntries() const { return live_.size(); }

    /** Number of currently invalidated pages. */
    size_t invalidatedPages() const { return invalidated_pages_.size(); }

    /** The active configuration. */
    const Config& config() const { return config_; }

  private:
    /** Small buffers are tracked in the table; large ones via pages. */
    bool
    usesTable(uint64_t size) const
    {
        return !config_.page_invalidate_opt || size <= config_.page_size / 2;
    }

    uint64_t pageOf(uint64_t addr) const { return addr / config_.page_size; }

    template <typename Fn>
    void
    forEachPage(uint64_t encoded_ptr, Fn&& fn) const
    {
        const uint64_t base = kDefaultCodec.baseOf(encoded_ptr);
        const uint64_t size = kDefaultCodec.sizeOf(encoded_ptr);
        // 2^n-aligned buffers > pageSize/2 are rounded to whole pages.
        const uint64_t span = std::max(size, config_.page_size);
        for (uint64_t a = base; a < base + span; a += config_.page_size)
            fn(pageOf(a));
    }

    Config config_;
    StatRegistry* stats_;
    std::unordered_set<uint64_t> live_;
    std::unordered_set<uint64_t> freed_;
    std::unordered_set<uint64_t> invalidated_pages_;
};

} // namespace lmi
