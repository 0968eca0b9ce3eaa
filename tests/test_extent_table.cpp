/**
 * @file
 * Differential test of MessageHeap's extent table: seeded streams of
 * alloc, free, stale free, cross-context free and drain run through
 * both heap kinds, and after every operation the table must agree with a
 * plain ordered-map reference model of the documented semantics
 * (fault kind, no live overlap, epoch bump and fresh id on same-base
 * reuse, extentAt/findLive/findAny answers, extentCount()).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "alloc/msg_heap.hpp"
#include "common/bitutil.hpp"
#include "common/rng.hpp"

namespace lmi {
namespace {

/**
 * Reference interval model: records keyed by base in one ordered map,
 * no index and no fast path. A new block trims or splits the retired
 * records it overlaps and reuses an exact-base retired record that
 * fits (epoch + 1); freeing a huge block drops its record unless frees
 * are quarantined.
 */
class RefExtents
{
  public:
    struct Rec
    {
        uint64_t base = 0;
        uint64_t end = 0;
        uint64_t requested = 0; ///< checked for live records only
        bool live = false;
        bool huge = false;
        uint32_t epoch = 0;
        uint64_t id = 0;
    };

    /** Mint [base, base + reserved); @return false on a live overlap. */
    bool
    mint(uint64_t base, uint64_t reserved, uint64_t requested, bool huge,
         uint64_t id)
    {
        const uint64_t end = base + reserved;
        std::optional<uint32_t> reused;
        auto it = recs_.lower_bound(base);
        if (it != recs_.begin()) {
            Rec& p = std::prev(it)->second;
            if (p.end > base) {
                if (p.live)
                    return false;
                if (p.end > end)
                    splitOff(p, end);
                p.end = base;
            }
        }
        while (it != recs_.end() && it->first < end) {
            Rec& r = it->second;
            if (r.live)
                return false;
            if (r.base == base && r.end <= end)
                reused = r.epoch;
            else if (r.end > end)
                splitOff(r, end);
            it = recs_.erase(it);
        }
        recs_[base] = Rec{base, end, requested, true, huge,
                          reused ? *reused + 1 : 0, id};
        return true;
    }

    /** Free the block at exactly @p base; @return the fault kind. */
    std::optional<FaultKind>
    free(uint64_t base, bool quarantine)
    {
        auto it = recs_.find(base);
        if (it == recs_.end())
            return FaultKind::InvalidFree;
        if (!it->second.live)
            return FaultKind::DoubleFree;
        it->second.live = false;
        if (it->second.huge && !quarantine)
            recs_.erase(it);
        return std::nullopt;
    }

    const Rec*
    at(uint64_t base) const
    {
        auto it = recs_.find(base);
        return it == recs_.end() ? nullptr : &it->second;
    }

    const Rec*
    containing(uint64_t addr, bool live_only) const
    {
        auto it = recs_.upper_bound(addr);
        if (it == recs_.begin())
            return nullptr;
        const Rec& r = std::prev(it)->second;
        if (addr >= r.end || (live_only && !r.live))
            return nullptr;
        return &r;
    }

    size_t count() const { return recs_.size(); }
    const std::map<uint64_t, Rec>& records() const { return recs_; }

  private:
    /** Rebase @p r's part past @p end into a record of its own. */
    void
    splitOff(const Rec& r, uint64_t end)
    {
        Rec tail = r;
        tail.base = end;
        recs_[end] = tail;
    }

    std::map<uint64_t, Rec> recs_;
};

/** One op-stream configuration. */
struct StreamCase
{
    HeapKind kind = HeapKind::Global;
    AllocPolicy policy = AllocPolicy::Packed;
    bool quarantine = false;
    unsigned contexts = 1;
};

std::string
describe(const StreamCase& c)
{
    const bool device = c.kind == HeapKind::Device;
    return std::string(device ? "Heap" : "Global") +
           (c.policy == AllocPolicy::Pow2Aligned
                ? "Pow2"
                : (device ? "Chunked" : "Packed")) +
           (c.quarantine ? "Quarantine" : "Recycle") + "Ctx" +
           std::to_string(c.contexts);
}

/** gtest prints parameters into test names; without this it dumps the
 *  struct's bytes, padding included, so names would vary by build. */
void
PrintTo(const StreamCase& c, std::ostream* os)
{
    *os << describe(c);
}

std::string
caseName(const testing::TestParamInfo<StreamCase>& info)
{
    return describe(info.param);
}

/** Reserved bytes and huge-ness of a request, from the msg_heap.hpp
 *  documentation of the two kinds. */
std::pair<uint64_t, bool>
expectedShape(const StreamCase& c, uint64_t size)
{
    if (c.policy == AllocPolicy::Pow2Aligned) {
        const uint64_t reserved = PointerCodec{}.alignedSize(size);
        return {reserved, reserved > kMaxSlabBlock};
    }
    if (c.kind == HeapKind::Device) {
        const uint64_t chunk = kChunkGeometry.chunkUnitFor(size);
        const uint64_t chunks = (size + chunk - 1) / chunk;
        return {chunks * chunk, chunks > kChunkGeometry.chunks_per_group};
    }
    const uint64_t reserved = alignUp(size, 256);
    return {reserved, reserved > kMaxSlabBlock};
}

/** A pointer handed out by the allocator. */
struct Handle
{
    uint64_t ptr = 0;
    uint64_t base = 0;
    uint32_t ctx = 0;
};

class ExtentTableDiff : public testing::TestWithParam<StreamCase>
{
  protected:
    /** The table's answer for one query must match the model's. */
    static void
    expectSame(const MessageHeap::Extent* got, const RefExtents::Rec* want,
               const char* query, uint64_t addr, size_t op)
    {
        SCOPED_TRACE(testing::Message() << query << "(0x" << std::hex
                                        << addr << std::dec << ") op "
                                        << op);
        ASSERT_EQ(got != nullptr, want != nullptr);
        if (want == nullptr)
            return;
        EXPECT_EQ(got->base, want->base);
        EXPECT_EQ(got->base + got->reserved, want->end);
        EXPECT_EQ(got->live, want->live);
        EXPECT_EQ(got->epoch, want->epoch);
        EXPECT_EQ(got->id, want->id);
        if (want->live) {
            EXPECT_EQ(got->requested, want->requested);
        }
    }

    /** extentAt/findLive/findAny at the base, an interior address and
     *  one past the end of @p r. */
    static void
    probe(const MessageHeap& heap, const RefExtents& ref,
          const RefExtents::Rec& r, size_t op)
    {
        const uint64_t interior = r.base + (r.end - r.base) / 2;
        for (uint64_t addr : {r.base, interior, r.end}) {
            expectSame(heap.extentAt(addr), ref.at(addr), "extentAt", addr,
                       op);
            expectSame(heap.findLive(addr), ref.containing(addr, true),
                       "findLive", addr, op);
            expectSame(heap.findAny(addr), ref.containing(addr, false),
                       "findAny", addr, op);
        }
    }
};

TEST_P(ExtentTableDiff, MatchesReferenceModelAfterEveryOp)
{
    constexpr size_t kOps = 3000;
    constexpr size_t kLiveTarget = 160;
    constexpr size_t kStaleCap = 128;
    constexpr size_t kSweepEvery = 64;

    const StreamCase& c = GetParam();
    MessageHeap heap({.kind = c.kind,
                      .policy = c.policy,
                      .quarantine_frees = c.quarantine,
                      .contexts = c.contexts});
    RefExtents ref;
    Rng rng(0x5eed0000u + uint64_t(c.contexts) * 131 +
            uint64_t(c.policy) * 17 + (c.quarantine ? 7 : 0) +
            (c.kind == HeapKind::Device ? 3 : 0));
    std::vector<Handle> live;
    std::vector<Handle> stale;
    uint64_t max_id = 0;
    size_t reuses = 0;

    auto retire = [&](size_t i) {
        if (stale.size() < kStaleCap)
            stale.push_back(live[i]);
        else
            stale[rng.below(kStaleCap)] = live[i];
        live[i] = live.back();
        live.pop_back();
    };
    // Free @p h from @p ctx on both sides; the fault kinds must agree.
    auto freeBoth = [&](const Handle& h, uint32_t ctx, size_t op) {
        const MaybeFault got = heap.free(ctx, h.ptr);
        const std::optional<FaultKind> want = ref.free(h.base, c.quarantine);
        EXPECT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got && want) {
            EXPECT_EQ(got->kind, *want) << "op " << op;
        }
        return !got.has_value();
    };

    for (size_t op = 0; op < kOps && !HasFailure(); ++op) {
        const uint64_t roll = rng.below(100);
        const uint32_t ctx = uint32_t(rng.below(c.contexts));
        const Handle* touched = nullptr;
        Handle h;
        if (live.empty() || (roll < 50 && live.size() < kLiveTarget)) {
            const uint64_t band = rng.below(100);
            const uint64_t size =
                band < 70   ? rng.range(1, 1024)
                : band < 95 ? rng.range(1025, 64 * 1024)
                            : rng.range(kMaxSlabBlock + 1, 1 << 20);
            h.ptr = heap.alloc(ctx, uint32_t(rng.below(256)), size);
            ASSERT_NE(h.ptr, 0u) << "op " << op;
            h.base = PointerCodec::addressOf(h.ptr);
            h.ctx = ctx;
            const MessageHeap::Extent* e = heap.extentAt(h.base);
            ASSERT_NE(e, nullptr) << "op " << op;
            EXPECT_GT(e->id, max_id) << "op " << op;
            max_id = std::max(max_id, e->id);
            const auto [reserved, huge] = expectedShape(c, size);
            ASSERT_TRUE(ref.mint(h.base, reserved, size, huge, e->id))
                << "live blocks overlap at op " << op;
            if (ref.at(h.base)->epoch > 0)
                ++reuses;
            live.push_back(h);
            touched = &h;
        } else if (roll < 80) {
            // Free a live block: from its owner, or half the time from
            // a random context (remote free when contexts > 1).
            const size_t i = rng.below(live.size());
            h = live[i];
            const uint32_t from = rng.chance(0.5) ? h.ctx : ctx;
            EXPECT_TRUE(freeBoth(h, from, op)) << "live free faulted";
            retire(i);
            touched = &h;
        } else if (roll < 92 && !stale.empty()) {
            // Replay a retired handle: DoubleFree, InvalidFree, or a
            // successful free of whatever now lives at that base.
            h = stale[rng.below(stale.size())];
            if (freeBoth(h, ctx, op)) {
                for (size_t i = 0; i < live.size(); ++i)
                    if (live[i].base == h.base) {
                        retire(i);
                        break;
                    }
            }
            touched = &h;
        } else {
            heap.drainRemote();
        }

        ASSERT_EQ(heap.extentCount(), ref.count()) << "op " << op;
        if (touched != nullptr) {
            if (const RefExtents::Rec* r = ref.at(touched->base))
                probe(heap, ref, *r, op);
            else
                expectSame(heap.extentAt(touched->base), nullptr,
                           "extentAt", touched->base, op);
        }
        if (op % kSweepEvery == kSweepEvery - 1)
            for (const auto& [base, r] : ref.records())
                probe(heap, ref, r, op);
    }
    // Without quarantine the stream must actually recycle bases.
    if (!c.quarantine) {
        EXPECT_GT(reuses, 0u);
    }
}

std::vector<StreamCase>
allCases()
{
    std::vector<StreamCase> cases;
    for (HeapKind kind : {HeapKind::Global, HeapKind::Device})
        for (AllocPolicy policy :
             {AllocPolicy::Packed, AllocPolicy::Pow2Aligned})
            for (bool quarantine : {false, true})
                for (unsigned contexts : {1u, 8u})
                    cases.push_back(
                        StreamCase{kind, policy, quarantine, contexts});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Streams, ExtentTableDiff,
                         testing::ValuesIn(allCases()), caseName);

} // namespace
} // namespace lmi
