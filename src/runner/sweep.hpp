/**
 * @file
 * Declarative sweep specification and results.
 *
 * Every paper figure is a (workload x mechanism x scale) grid. A
 * SweepSpec names that grid once — workload names or explicit profiles,
 * mechanisms from the canonical registry list, scale factors, and an
 * optional per-cell GpuConfig override — and ExperimentRunner executes
 * it across a thread pool, one fully isolated Device per cell, so
 * parallel results are bit-identical to a serial run.
 *
 * CellResult captures everything deterministic about one cell: the
 * RunResult, the device-level StatRegistry (allocator counters included)
 * and the peak host reservation. serializeCellPayload() renders exactly
 * that deterministic payload; the determinism tests byte-compare it
 * between serial and parallel sweeps, and the Fig. 12 digest goldens
 * hash it.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "mechanisms/registry.hpp"
#include "sim/config.hpp"
#include "sim/device.hpp"
#include "sim/result.hpp"
#include "workloads/workloads.hpp"

namespace lmi {

/** One point of the sweep grid. */
struct SweepCell
{
    WorkloadProfile workload;
    MechanismKind mechanism = MechanismKind::Baseline;
    double scale = 1.0;
    GpuConfig config;
    /** Execution tier the cell runs under (sim/launch_options.hpp).
     *  Part of the fingerprint: a functional and a detailed run of the
     *  same cell never share one. */
    ExecutionTier tier = ExecutionTier::Detailed;
    /** Unused (see SamplingParams). */
    SamplingParams sampling;
};

/**
 * The cell's name inside its payload: a hash of the inputs that
 * determine the (deterministic) simulation outcome — the full workload
 * profile, the mechanism, the scale, the full GpuConfig, the execution
 * tier, and a serialization-format version.
 */
uint64_t cellFingerprint(const SweepCell& cell);

/** Outcome of one sweep cell. */
struct CellResult
{
    // --- Identity -----------------------------------------------------
    std::string workload;
    MechanismKind mechanism = MechanismKind::Baseline;
    double scale = 1.0;
    ExecutionTier tier = ExecutionTier::Detailed;
    uint64_t fingerprint = 0;

    // --- Job disposition ----------------------------------------------
    /** The job ran to completion (the run may still have raised sim
     *  faults — those are data, recorded in result.faults). */
    bool ok = false;
    /** Exception text when !ok. */
    std::string error;

    // --- Simulation outcome (valid when ok) ----------------------------
    RunResult result;
    /** Device-level registry after the run: launch stats merged with
     *  allocation-time counters (OCU checks, allocator fragmentation). */
    StatRegistry device_stats;
    /** Peak reserved bytes in the host allocator. */
    uint64_t peak_reserved = 0;

    /** Wall-clock of this job in ms (measurement, not part of the
     *  deterministic payload). */
    double wall_ms = 0.0;

    /** Per-launch worker threads the cell ran with (measurement, like
     *  wall_ms: results are byte-identical for every value, so it is
     *  not part of the deterministic payload). */
    unsigned sim_threads = 0;

    /** Simulation rate in million cycles per wall-clock second — the
     *  sweep's throughput figure of merit. */
    double simMcps() const
    {
        return ok && wall_ms > 0.0
                   ? double(result.cycles) / wall_ms / 1000.0
                   : 0.0;
    }

    bool faulted() const { return result.faulted(); }
};

/**
 * Render the deterministic payload of @p cell as line-oriented text.
 * Byte-equal payloads <=> identical simulation outcomes; the
 * determinism tests compare this text and the digest goldens hash it.
 */
std::string serializeCellPayload(const CellResult& cell);

/** Results of a whole sweep, in deterministic grid order. */
struct SweepResult
{
    std::vector<CellResult> cells;
    size_t failures = 0;
    double wall_ms = 0.0;
    /**
     * The thread budget the sweep ran with: job workers, and SM worker
     * threads per cell before and after the jobs x sim_threads clamp
     * (sim_threads < sim_threads_requested when it clamped).
     */
    unsigned jobs = 0;
    unsigned sim_threads_requested = 0;
    unsigned sim_threads = 0;

    /** Cell lookup; nullptr when absent. */
    const CellResult* find(const std::string& workload,
                           MechanismKind mechanism, double scale) const;

    /** Flat CSV (one row per cell) via the common TextTable formatter. */
    std::string renderCsv() const;

    /** JSON export: {"cells": [...], "failures": n, ...}. */
    std::string renderJson() const;
};

/** Declarative description of one sweep. */
struct SweepSpec
{
    /** Table V workload names (resolved via findWorkload). */
    std::vector<std::string> workloads;
    /** Explicit profiles, swept before the named ones (tests and custom
     *  experiments inject profiles here without registering them). */
    std::vector<WorkloadProfile> profiles;

    std::vector<MechanismKind> mechanisms;
    std::vector<double> scales = {1.0};

    /** Execution tier for every cell (Detailed = the historical default;
     *  Functional trades timing for speed, see sim/launch_options.hpp).
     *  Feeds the per-cell fingerprint. */
    ExecutionTier tier = ExecutionTier::Detailed;

    /** Config applied to every cell. */
    GpuConfig config;

    /** Worker threads running whole cells; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /**
     * Worker threads stepping SMs *inside* each cell's launches
     * (byte-identical results; see GpuConfig::sim_threads). 0 inherits
     * config.sim_threads / LMI_SIM_THREADS. The two axes share one
     * thread budget: jobs x sim_threads is clamped to the hardware
     * concurrency unless clamp_sim_threads is cleared.
     */
    unsigned sim_threads = 0;
    /** Clamp jobs x sim_threads to the host's hardware concurrency
     *  (cleared by scaling benchmarks that measure oversubscription). */
    bool clamp_sim_threads = true;
    /** Live progress line on stderr. */
    bool progress = false;

    /**
     * Post-run hook, invoked on the worker thread with the cell's
     * private Device while it is still alive — the place to pull
     * mechanism-specific numbers (e.g. the DBI check/LDST ratio) into
     * device_stats gauges so they export with the cell. Must
     * touch only this cell's Device and CellResult.
     */
    std::function<void(Device&, CellResult&)> post;

    /** Expand the declarative grid into concrete cells, in the
     *  deterministic order results are reported in. */
    std::vector<SweepCell> expand() const;
};

} // namespace lmi
