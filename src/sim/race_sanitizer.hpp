/**
 * @file
 * Dynamic data-race sanitizer: the execution-time cross-check for the
 * static race analyzer (analysis/race_analysis.hpp).
 *
 * The simulator, when a launch carries a sanitizer, reports every
 * shared- and global-memory access it executes, once per warp
 * instruction (onWarpAccess). The sanitizer keeps one
 * shadow cell per touched 4-byte word recording the last write and the
 * last read (block, warp, global thread id, barrier epoch, pc). Two
 * accesses to the same word conflict when at least one is a store and:
 *
 *  - they come from different blocks (global memory only — nothing
 *    orders blocks within a kernel), or
 *  - they come from different warps of the same block in the same
 *    barrier epoch (same-warp accesses execute in lockstep program
 *    order; a barrier release bumps the block's epoch, ordering
 *    everything before it against everything after).
 *
 * The shadow is page-dense: global memory keeps one 4 KiB page of
 * cells (1024 words) per page it touched, found through a page map
 * with a one-entry cache of the last page used. Each live block keeps
 * its own state: its barrier epoch and its shared-memory shadow pages,
 * behind a one-entry cache of the last block used; a warp instruction
 * looks both up once for all its lanes. So an access costs a couple
 * of compares in the common case, a block retiring frees only
 * that block's pages, and a device allocation clears only the pages it
 * overlaps that hold shadow.
 *
 * Keeping only the *last* reader per word is the usual sanitizer
 * approximation: it can miss a conflict against an earlier reader but
 * never invents one, which is the right bias for validating static
 * ProvenDisjoint verdicts (no false alarms) while still catching every
 * seeded race that has cross-warp witnesses.
 *
 * The sanitizer is purely observational — it never perturbs simulation
 * state or timing, so a launch with and without one attached produces
 * byte-identical results.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/isa.hpp" // MemSpace

namespace lmi {

class RaceSanitizer
{
  public:
    /** One detected conflict (capped; total count keeps incrementing). */
    struct Report
    {
        MemSpace space = MemSpace::Global;
        uint64_t addr = 0; ///< conflicting word (block-local for shared)
        uint32_t block = 0, other_block = 0;
        uint32_t warp = 0, other_warp = 0;
        uint32_t gtid = 0, other_gtid = 0;
        bool is_store = false, other_is_store = false;
        uint64_t epoch = 0;
        uint64_t pc = 0, other_pc = 0;

        std::string toString() const;
    };

    /** Record one warp instruction's executed accesses: each lane l
     *  set in @p lanes (ascending) is thread first_gtid + l and covers
     *  [addrs[l], addrs[l]+width) (width 0 counts as 1; the range wraps
     *  past 2^64 to address 0). Scoped atomics pass is_atomic=true
     *  with their scope: a conflicting pair where both sides are atomic
     *  at sufficient scope (cta for same-block pairs, gpu/sys across
     *  blocks) synchronizes rather than races and is not reported. */
    void onWarpAccess(MemSpace space, uint32_t block, uint32_t warp,
                      uint32_t first_gtid, uint64_t pc, uint32_t lanes,
                      const uint64_t* addrs, unsigned width, bool is_store,
                      bool is_atomic = false,
                      MemScope scope = MemScope::Cta);

    /** One access by thread @p gtid: onWarpAccess with one lane. */
    void onAccess(MemSpace space, uint32_t block, uint32_t warp,
                  uint32_t gtid, uint64_t pc, uint64_t addr,
                  unsigned width, bool is_store, bool is_atomic = false,
                  MemScope scope = MemScope::Cta)
    {
        onWarpAccess(space, block, warp, gtid, pc, 1, &addr, width,
                     is_store, is_atomic, scope);
    }

    /** A barrier released in @p block: everything before it
     *  happens-before everything after. */
    void onBarrierRelease(uint32_t block);

    /** Block @p block retired: drop its shared shadow and epoch. */
    void onBlockRetire(uint32_t block);

    /** Device heap handed out [ptr, ptr+size): forget stale shadow so
     *  reuse of recycled memory is not misread as a race. Size 0
     *  forgets the word holding ptr. */
    void onDeviceAlloc(uint64_t ptr, uint64_t size);

    size_t conflictCount() const { return conflicts_; }
    /** Words holding shadow state (touched and not since forgotten). */
    size_t wordsTracked() const;
    const std::vector<Report>& reports() const { return reports_; }

    /** Detected-conflict reports kept in full (the rest only counted). */
    static constexpr size_t kMaxReports = 64;

  private:
    struct Access
    {
        uint64_t epoch = 0, pc = 0;
        uint32_t block = 0, warp = 0, gtid = 0;
        bool valid = false;
        bool is_store = false;
        bool is_atomic = false;
        MemScope scope = MemScope::Cta;
    };
    struct Cell
    {
        Access last_write;
        Access last_read;
    };
    /** Shadow of one 4 KiB page, and the span of cells filled since it
     *  was last cleared. A default Cell is all zero bytes. */
    struct Page
    {
        static constexpr unsigned kWordsLog2 = 10;
        static constexpr uint32_t kWords = 1u << kWordsLog2;
        std::array<Cell, kWords> cells{};
        uint32_t lo = kWords, hi = 0;
    };
    /** The shadow pages of one address space, by page number. */
    struct Shadow
    {
        std::unordered_map<uint64_t, std::unique_ptr<Page>> pages;
        uint64_t last_no = ~uint64_t(0); ///< one-entry lookup cache
        Page* last = nullptr;
        size_t words = 0; ///< cells holding an access
    };
    struct BlockState
    {
        uint64_t epoch = 0;
        Shadow shared;
    };

    /** True when @p cur races with the earlier @p prev on one word. */
    static bool conflicts(const Access& cur, const Access& prev);
    void report(MemSpace space, const Access& cur, const Access& prev,
                uint64_t addr);
    BlockState& blockState(uint32_t block);
    /** The cell of @p word, counting it in when it was empty. */
    Cell& cell(Shadow& shadow, uint64_t word);
    /** Points the shadow's cache at page @p no, creating it if new. */
    void findPage(Shadow& shadow, uint64_t no);
    /** Empties cells [lo, hi) of @p page, counting them off @p shadow. */
    static void forget(Shadow& shadow, Page& page, uint32_t lo,
                       uint32_t hi);

    Shadow global_;
    std::unordered_map<uint32_t, BlockState> blocks_;
    uint32_t last_block_ = 0;          ///< one-entry cache of blocks_
    BlockState* last_state_ = nullptr;
    /** Cleared pages of retired blocks, for reuse. */
    std::vector<std::unique_ptr<Page>> spare_;

    size_t conflicts_ = 0;
    std::vector<Report> reports_;
};

} // namespace lmi
