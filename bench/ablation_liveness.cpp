/**
 * @file
 * Ablation for §XII-C: pointer-liveness tracking.
 *
 * Compares base LMI against LMI+liveness on the temporal half of the
 * Table III suite (the copied-pointer UAF gap), and quantifies the
 * Membership Table pressure with and without the page-invalidation
 * optimization (Algorithm 1's pageInvalidOpt) under an allocation-heavy
 * trace.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "common/bitutil.hpp"
#include "common/rng.hpp"
#include "core/liveness.hpp"
#include "security/violations.hpp"

using namespace lmi;

int
main()
{
    bench::banner("Ablation (XII-C)", "pointer-liveness tracking");

    // --- Detection delta on the temporal suite -----------------------
    TextTable detect({"case", "lmi", "lmi+liveness"});
    for (const ViolationCase& vcase : violationSuite()) {
        if (isSpatialCategory(vcase.category))
            continue;
        Device base_dev(makeMechanism(MechanismKind::Lmi));
        Device ext_dev(makeMechanism(MechanismKind::LmiLiveness));
        const CaseOutcome base = vcase.run(base_dev);
        const CaseOutcome ext = vcase.run(ext_dev);
        detect.addRow({vcase.id, base.detected() ? "DETECTED" : "missed",
                       ext.detected() ? "DETECTED" : "missed"});
    }
    std::printf("%s\n", detect.render().c_str());

    const SecurityScore base_score = evaluateMechanism(MechanismKind::Lmi);
    const SecurityScore ext_score =
        evaluateMechanism(MechanismKind::LmiLiveness);
    bench::compare("temporal coverage (base LMI)", 75.0,
                   100.0 * base_score.temporalDetected() /
                       base_score.temporalTotal(), "%");
    bench::compare("temporal coverage (with tracking)", 100.0,
                   100.0 * ext_score.temporalDetected() /
                       ext_score.temporalTotal(), "%");

    // --- Membership-table pressure (Algorithm 1) ---------------------
    std::printf("\nMembership-table pressure for 4096 allocations "
                "(sizes 256 B .. 256 KiB):\n");
    TextTable pressure({"pageInvalidOpt", "table entries (peak)",
                        "pages invalidated"});
    for (bool opt : {false, true}) {
        LivenessTracker::Config cfg;
        cfg.page_invalidate_opt = opt;
        StatRegistry stats;
        LivenessTracker tracker(cfg, &stats);
        const PointerCodec codec;
        Rng rng(7);
        std::vector<uint64_t> live;
        uint64_t next_base = uint64_t(1) << 30;
        for (unsigned i = 0; i < 4096; ++i) {
            const uint64_t size = uint64_t(256)
                                  << rng.below(11); // 256 B .. 256 KiB
            const uint64_t aligned = codec.alignedSize(size);
            next_base = alignUp(next_base, aligned);
            const uint64_t ptr = codec.encode(next_base, size);
            next_base += aligned;
            tracker.onMalloc(ptr);
            live.push_back(ptr);
            if (live.size() > 512) {
                const size_t victim = rng.below(live.size());
                tracker.onFree(live[victim]);
                live.erase(live.begin() + long(victim));
            }
        }
        pressure.addRow({opt ? "on" : "off",
                         fmtF(stats.gauge("liveness.peak_entries"), 0),
                         std::to_string(tracker.invalidatedPages())});
    }
    std::printf("%s\n", pressure.render().c_str());
    std::printf("Large (> pageSize/2) buffers bypass the table entirely "
                "under pageInvalidOpt: freed pages are unmapped instead, "
                "trading table capacity for page-invalidation work "
                "(Algorithm 1, lines 16-18).\n");
    return 0;
}
