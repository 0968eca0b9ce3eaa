/**
 * @file
 * Reference model of the dynamic race sanitizer for differential tests:
 * the straightforward hash-map shadow (one map entry per touched 4-byte
 * word, one per block epoch) that sim/race_sanitizer.hpp's page-dense
 * shadow must match operation for operation. It produces the real
 * RaceSanitizer::Report, so report text is compared byte for byte.
 *
 * Two known limits of this model keep differential streams away from
 * the corners where the real sanitizer deliberately differs:
 *  - an access whose last byte lies past 2^64 records nothing here
 *    (`last_word < first_word`); the real one wraps to word 0;
 *  - shared words are keyed `(block << 40) | word`, so shared
 *    addresses at or above 2^42 alias across blocks here.
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/race_sanitizer.hpp"

namespace lmi::test {

class ReferenceRaceSanitizer
{
  public:
    using Report = RaceSanitizer::Report;

    void onAccess(MemSpace space, uint32_t block, uint32_t warp,
                  uint32_t gtid, uint64_t pc, uint64_t addr,
                  unsigned width, bool is_store, bool is_atomic = false,
                  MemScope scope = MemScope::Cta)
    {
        if (space != MemSpace::Global && space != MemSpace::Shared)
            return;
        Access cur;
        cur.valid = true;
        cur.is_store = is_store;
        cur.is_atomic = is_atomic;
        cur.scope = scope;
        cur.block = block;
        cur.warp = warp;
        cur.gtid = gtid;
        cur.pc = pc;
        if (auto it = epochs_.find(block); it != epochs_.end())
            cur.epoch = it->second;

        auto& shadow = space == MemSpace::Shared ? shared_ : global_;
        const uint64_t first_word = addr >> 2;
        const uint64_t last_word = (addr + (width ? width : 1) - 1) >> 2;
        for (uint64_t w = first_word; w <= last_word; ++w) {
            const uint64_t key = space == MemSpace::Shared
                                     ? (uint64_t(block) << 40) | w
                                     : w;
            Cell& cell = shadow[key];
            check(space, cur, cell.last_write, w << 2);
            if (is_store) {
                check(space, cur, cell.last_read, w << 2);
                cell.last_write = cur;
            } else {
                cell.last_read = cur;
            }
        }
    }

    void onBarrierRelease(uint32_t block) { ++epochs_[block]; }

    void onBlockRetire(uint32_t block)
    {
        epochs_.erase(block);
        const uint64_t lo = uint64_t(block) << 40;
        const uint64_t hi = uint64_t(block + 1) << 40;
        for (auto it = shared_.begin(); it != shared_.end();) {
            if (it->first >= lo && it->first < hi)
                it = shared_.erase(it);
            else
                ++it;
        }
    }

    void onDeviceAlloc(uint64_t ptr, uint64_t size)
    {
        const uint64_t first_word = ptr >> 2;
        const uint64_t last_word =
            size ? (ptr + size - 1) >> 2 : first_word;
        for (uint64_t w = first_word; w <= last_word; ++w)
            global_.erase(w);
    }

    size_t conflictCount() const { return conflicts_; }
    size_t wordsTracked() const { return global_.size() + shared_.size(); }
    const std::vector<Report>& reports() const { return reports_; }

  private:
    struct Access
    {
        bool valid = false;
        bool is_store = false;
        bool is_atomic = false;
        MemScope scope = MemScope::Cta;
        uint32_t block = 0, warp = 0, gtid = 0;
        uint64_t epoch = 0, pc = 0;
    };
    struct Cell
    {
        Access last_write;
        Access last_read;
    };

    void check(MemSpace space, const Access& cur, const Access& prev,
               uint64_t addr)
    {
        if (!prev.valid)
            return;
        if (!cur.is_store && !prev.is_store)
            return;
        if (cur.is_atomic && prev.is_atomic) {
            const MemScope need = prev.block != cur.block ? MemScope::Gpu
                                                          : MemScope::Cta;
            if (uint8_t(cur.scope) >= uint8_t(need) &&
                uint8_t(prev.scope) >= uint8_t(need))
                return;
        }
        const bool conflict =
            prev.block != cur.block ||
            (prev.warp != cur.warp && prev.epoch == cur.epoch);
        if (!conflict)
            return;
        ++conflicts_;
        if (reports_.size() >= RaceSanitizer::kMaxReports)
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
        reports_.push_back(r);
    }

    std::unordered_map<uint64_t, Cell> global_;
    std::unordered_map<uint64_t, Cell> shared_;
    std::unordered_map<uint32_t, uint64_t> epochs_;
    size_t conflicts_ = 0;
    std::vector<Report> reports_;
};

} // namespace lmi::test
