/**
 * @file
 * Timing-only cache and DRAM models.
 *
 * Tag-array set-associative caches with LRU replacement; no data is
 * stored (the functional state lives in SparseMemory). The DRAM model
 * combines a fixed access latency with a bandwidth-derived queueing
 * delay so memory-bound workloads feel contention.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace lmi {

/** Set-associative LRU tag array. */
class CacheModel
{
  public:
    CacheModel(uint64_t size_bytes, unsigned assoc, unsigned line_bytes)
        : line_bits_(log2Floor(line_bytes)), assoc_(assoc)
    {
        if (size_bytes == 0 || assoc == 0)
            lmi_fatal("cache must have nonzero size and associativity");
        num_sets_ = size_bytes / (uint64_t(assoc) * line_bytes);
        if (num_sets_ == 0)
            num_sets_ = 1;
        sets_.resize(num_sets_ * assoc_, kInvalid);
        lru_.resize(num_sets_ * assoc_, 0);
    }

    /**
     * Probe + fill for @p addr. @return true on hit.
     */
    bool
    access(uint64_t addr)
    {
        ++tick_;
        const uint64_t line = addr >> line_bits_;
        const uint64_t set = line % num_sets_;
        const size_t base = size_t(set) * assoc_;

        for (unsigned w = 0; w < assoc_; ++w) {
            if (sets_[base + w] == line) {
                lru_[base + w] = tick_;
                ++hits_;
                return true;
            }
        }
        // Miss: fill LRU way.
        size_t victim = base;
        for (unsigned w = 1; w < assoc_; ++w)
            if (lru_[base + w] < lru_[victim])
                victim = base + w;
        sets_[victim] = line;
        lru_[victim] = tick_;
        ++misses_;
        return false;
    }

    /**
     * Read-only presence check for @p addr: no LRU update, no fill, no
     * hit/miss accounting. Safe to call concurrently from many threads
     * while no access() is running — the parallel simulator probes a
     * frozen tag array during a slice and replays the accesses through
     * access() in canonical order at the slice barrier.
     */
    bool
    probe(uint64_t addr) const
    {
        const uint64_t line = addr >> line_bits_;
        const uint64_t set = line % num_sets_;
        const size_t base = size_t(set) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w)
            if (sets_[base + w] == line)
                return true;
        return false;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    double
    hitRate() const
    {
        const uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0 : double(hits_) / double(total);
    }

    void
    reset()
    {
        std::fill(sets_.begin(), sets_.end(), kInvalid);
        std::fill(lru_.begin(), lru_.end(), 0);
        hits_ = misses_ = 0;
        tick_ = 0;
    }

  private:
    static constexpr uint64_t kInvalid = ~uint64_t(0);

    unsigned line_bits_;
    unsigned assoc_;
    uint64_t num_sets_;
    std::vector<uint64_t> sets_;
    std::vector<uint64_t> lru_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t tick_ = 0;
};

/**
 * A set of line numbers, open-addressed with linear probing and cleared
 * in O(1) by bumping a generation stamp: a slot is occupied iff its
 * stamp equals the current generation. Each SM keeps one for the lines
 * it touched this slice and clears it at every slice barrier, so after
 * the first slices it neither allocates nor frees.
 */
class LineSet
{
  public:
    /** Insert @p line. @return true iff it was not already present. */
    bool
    insert(uint64_t line)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        for (size_t i = home(line);; i = (i + 1) & (slots_.size() - 1)) {
            Slot& s = slots_[i];
            if (s.gen != gen_) {
                s = {line, gen_};
                ++size_;
                return true;
            }
            if (s.line == line)
                return false;
        }
    }

    size_t size() const { return size_; }

    /** Empty the set, keeping its capacity. */
    void
    clear()
    {
        size_ = 0;
        if (++gen_ == 0) { // stamp wrapped: old stamps could match again
            for (Slot& s : slots_)
                s.gen = 0;
            gen_ = 1;
        }
    }

  private:
    struct Slot
    {
        uint64_t line = 0;
        uint32_t gen = 0; ///< occupied iff == LineSet::gen_
    };

    /** Fibonacci hash onto the power-of-two table. */
    size_t
    home(uint64_t line) const
    {
        return size_t((line * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** Double the table (16 slots at first) and re-place the live keys;
     *  keeps the load factor at or below 1/2. */
    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        const size_t cap = old.empty() ? 16 : 2 * old.size();
        slots_.assign(cap, Slot{});
        shift_ = 64 - log2Floor(cap);
        const uint32_t live = gen_;
        gen_ = 1;
        size_ = 0;
        for (const Slot& s : old)
            if (s.gen == live)
                insert(s.line);
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 64;
    uint32_t gen_ = 1;
    size_t size_ = 0;
};

/**
 * DRAM bandwidth model: a token bucket over absolute cycles. Each line
 * transfer occupies channel time; when requests arrive faster than the
 * channel drains, the excess shows up as queueing latency.
 */
class DramModel
{
  public:
    DramModel(unsigned access_latency, double bytes_per_cycle,
              unsigned line_bytes)
        : latency_(access_latency),
          cycles_per_line_(double(line_bytes) / bytes_per_cycle)
    {
    }

    /**
     * One line transfer issued at absolute cycle @p now.
     * @return total latency including queueing.
     */
    unsigned
    access(uint64_t now)
    {
        if (busy_until_ < double(now))
            busy_until_ = double(now);
        busy_until_ += cycles_per_line_;
        const double queue = busy_until_ - double(now);
        ++accesses_;
        return latency_ + unsigned(queue);
    }

    uint64_t accesses() const { return accesses_; }

    void
    reset()
    {
        busy_until_ = 0.0;
        accesses_ = 0;
    }

  private:
    unsigned latency_;
    double cycles_per_line_;
    double busy_until_ = 0.0;
    uint64_t accesses_ = 0;
};

} // namespace lmi
