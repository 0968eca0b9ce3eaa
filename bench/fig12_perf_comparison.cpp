/**
 * @file
 * Figure 12: normalized execution time of software Baggy Bounds,
 * GPUShield, and LMI against the unprotected baseline over the full
 * Table V suite, on the Table IV machine.
 *
 * The whole figure is one declarative SweepSpec — 28 workloads x
 * (baseline + 3 mechanisms) — executed by the ExperimentRunner across
 * all cores; `--jobs N` controls the pool.
 *
 * Paper headlines this harness must reproduce in shape:
 *  - LMI: near-zero overhead everywhere (average 0.22%);
 *  - GPUShield: competitive except on uncoalesced workloads —
 *    needle +42.5%, LSTM +24.0% (L1 D$ hits but RCache misses);
 *  - Baggy Bounds (software): ~87% average, peaking >5x on kernels
 *    dense in pointer operations.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/config.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

void
printConfig()
{
    const GpuConfig cfg;
    std::printf("Table IV configuration: %u SMs @ %.1f GHz, %u GTO "
                "schedulers/SM, L1 %llu KB (%u cyc), L2 %.1f MB %u-way "
                "(%u cyc), %llu GB HBM\n\n",
                cfg.num_sms, cfg.clock_ghz, cfg.schedulers_per_sm,
                static_cast<unsigned long long>(cfg.l1_size / 1024),
                cfg.l1_latency, double(cfg.l2_size) / (1024.0 * 1024.0),
                cfg.l2_assoc, cfg.l2_latency,
                static_cast<unsigned long long>(kGlobalSize / kGiB));
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Figure 12",
                  "normalized execution time: Baggy / GPUShield / LMI");
    printConfig();
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, 1.0);

    SweepSpec spec;
    for (const auto& profile : workloadSuite())
        spec.workloads.push_back(profile.name);
    spec.mechanisms.push_back(MechanismKind::Baseline);
    for (MechanismKind kind : hardwareComparisonMechanisms())
        spec.mechanisms.push_back(kind);
    spec.scales = {args.scale};
    spec.jobs = args.jobs;
    spec.progress = true;

    const SweepResult sweep = runSweep(spec);

    TextTable table({"benchmark", "baseline cyc", "baggy-sw", "gpushield",
                     "lmi"});
    std::vector<double> baggy_norm, shield_norm, lmi_norm;
    double needle_shield = 0, lstm_shield = 0, baggy_peak = 0, lmi_max = 0;

    for (const std::string& name : spec.workloads) {
        const CellResult* base =
            sweep.find(name, MechanismKind::Baseline, args.scale);
        if (!base || !base->ok) {
            std::printf("ERROR: %s baseline: %s\n", name.c_str(),
                        base ? base->error.c_str() : "missing cell");
            return 1;
        }
        const uint64_t base_cycles = base->result.cycles;
        std::vector<std::string> row = {name, std::to_string(base_cycles)};
        for (MechanismKind kind : hardwareComparisonMechanisms()) {
            const CellResult* cell = sweep.find(name, kind, args.scale);
            if (!cell || !cell->ok) {
                std::printf("ERROR: %s under %s: %s\n", name.c_str(),
                            mechanismKindName(kind),
                            cell ? cell->error.c_str() : "missing cell");
                return 1;
            }
            if (cell->faulted()) {
                std::printf("FAULT: %s under %s\n", name.c_str(),
                            mechanismKindName(kind));
                return 1;
            }
            const double norm =
                double(cell->result.cycles) / double(base_cycles);
            row.push_back(fmtF(norm, 4) + "x");
            switch (kind) {
              case MechanismKind::BaggySw:
                baggy_norm.push_back(norm);
                baggy_peak = std::max(baggy_peak, norm);
                break;
              case MechanismKind::GpuShield:
                shield_norm.push_back(norm);
                if (name == "needle")
                    needle_shield = (norm - 1.0) * 100.0;
                if (name == "LSTM")
                    lstm_shield = (norm - 1.0) * 100.0;
                break;
              case MechanismKind::Lmi:
                lmi_norm.push_back(norm);
                lmi_max = std::max(lmi_max, (norm - 1.0) * 100.0);
                break;
              default:
                break;
            }
        }
        table.addRow(row);
    }
    table.addSeparator();
    table.addRow({"geomean", "",
                  fmtF(geomean(baggy_norm), 4) + "x",
                  fmtF(geomean(shield_norm), 4) + "x",
                  fmtF(geomean(lmi_norm), 4) + "x"});
    std::printf("%s\n", table.render().c_str());

    bench::compare("LMI average overhead", 0.22,
                   (geomean(lmi_norm) - 1.0) * 100.0, "%");
    bench::compare("GPUShield needle overhead", 42.5, needle_shield, "%");
    bench::compare("GPUShield LSTM overhead", 24.0, lstm_shield, "%");
    bench::compare("Baggy average overhead", 87.0,
                   (geomean(baggy_norm) - 1.0) * 100.0, "%");
    bench::compare("Baggy peak slowdown", 6.03, baggy_peak, "x");
    std::printf("\nShape checks: LMI < GPUShield < Baggy everywhere; "
                "GPUShield's outliers are the uncoalesced workloads "
                "(needle, LSTM); LMI stays below %.2f%% on every "
                "benchmark.\n", lmi_max);
    std::printf("Sweep: %zu cells in %.1f s (%zu failed).\n",
                sweep.cells.size(), sweep.wall_ms / 1000.0, sweep.failures);
    return 0;
}
