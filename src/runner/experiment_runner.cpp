#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/logging.hpp"

namespace lmi {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Serialized stderr progress line ("\r"-refreshed). */
class ProgressLine
{
  public:
    ProgressLine(bool enabled, size_t total)
        : enabled_(enabled && total > 0), total_(total)
    {
    }

    void
    tick(size_t failures)
    {
        const size_t done = ++done_;
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        std::fprintf(stderr, "\rsweep: %zu/%zu", done, total_);
        if (failures)
            std::fprintf(stderr, " (%zu failed)", failures);
        std::fflush(stderr);
    }

    void
    finish()
    {
        if (enabled_ && done_.load())
            std::fprintf(stderr, "\n");
    }

  private:
    const bool enabled_;
    const size_t total_;
    std::atomic<size_t> done_{0};
    std::mutex mutex_;
};

} // namespace

ExperimentRunner::ExperimentRunner(Options options)
    : options_(std::move(options))
{
}

unsigned
ExperimentRunner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
ExperimentRunner::effectiveJobs(size_t njobs) const
{
    const unsigned want = options_.jobs == 0 ? defaultJobs() : options_.jobs;
    return unsigned(std::min<size_t>(want, std::max<size_t>(njobs, 1)));
}

std::vector<ExperimentRunner::JobOutcome>
ExperimentRunner::run(const std::vector<std::function<void()>>& jobs)
{
    std::vector<JobOutcome> outcomes(jobs.size());
    ProgressLine progress(options_.progress, jobs.size());
    std::atomic<size_t> failures{0};

    auto execute = [&](size_t idx) {
        JobOutcome& outcome = outcomes[idx];
        const Clock::time_point start = Clock::now();
        try {
            jobs[idx]();
            outcome.ok = true;
        } catch (const std::exception& e) {
            outcome.error = e.what();
        } catch (...) {
            outcome.error = "unknown exception";
        }
        outcome.wall_ms = msSince(start);
        if (!outcome.ok)
            ++failures;
        progress.tick(failures.load());
    };

    const unsigned nworkers = effectiveJobs(jobs.size());
    if (nworkers <= 1) {
        for (size_t i = 0; i < jobs.size(); ++i)
            execute(i);
    } else {
        // Every job is known up front: one shared ticket hands out the
        // next index.
        std::atomic<size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(nworkers);
        for (unsigned w = 0; w < nworkers; ++w) {
            workers.emplace_back([&] {
                for (size_t idx = next++; idx < jobs.size(); idx = next++)
                    execute(idx);
            });
        }
        for (std::thread& t : workers)
            t.join();
    }
    progress.finish();
    return outcomes;
}

SweepResult
runSweep(const SweepSpec& spec)
{
    const Clock::time_point sweep_start = Clock::now();
    const std::vector<SweepCell> cells = spec.expand();

    SweepResult sweep;
    sweep.cells.resize(cells.size());

    // One thread budget covers both axes: `jobs` workers each running a
    // cell whose launches step SMs on `sim_threads` workers. Clamp the
    // product to the hardware so a sweep never oversubscribes the host
    // (scaling benchmarks opt out to measure exactly that).
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs_used = std::min<unsigned>(
        spec.jobs == 0 ? hw : spec.jobs,
        unsigned(std::max<size_t>(cells.size(), 1)));
    const unsigned threads_req =
        spec.sim_threads ? spec.sim_threads
                         : resolveSimThreads(spec.config);
    unsigned threads_eff = threads_req;
    if (spec.clamp_sim_threads &&
        uint64_t(jobs_used) * threads_req > hw) {
        threads_eff = std::max(1u, hw / jobs_used);
        lmi_warn("sweep: %u job(s) x %u sim thread(s) oversubscribes "
                 "%u hardware thread(s); clamping sim_threads to %u",
                 jobs_used, threads_req, hw, threads_eff);
    }
    sweep.jobs = jobs_used;
    sweep.sim_threads_requested = threads_req;
    sweep.sim_threads = threads_eff;

    std::vector<std::function<void()>> jobs;
    jobs.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        jobs.push_back([&, i] {
            const SweepCell& cell = cells[i];
            CellResult& out = sweep.cells[i]; // exclusively this job's slot
            out.workload = cell.workload.name;
            out.mechanism = cell.mechanism;
            out.scale = cell.scale;
            out.tier = cell.tier;
            out.fingerprint = cellFingerprint(cell);

            // sim_threads is deliberately outside the fingerprint
            // (byte-identical results), so overriding it here leaves
            // the payload unchanged.
            GpuConfig cfg = cell.config;
            cfg.sim_threads =
                cfg.sim_threads
                    ? (spec.clamp_sim_threads
                           ? std::max(1u, std::min(cfg.sim_threads,
                                                   hw / jobs_used))
                           : cfg.sim_threads)
                    : threads_eff;
            Device dev(cfg, makeMechanism(cell.mechanism));
            out.sim_threads = dev.simThreads();
            LaunchOptions lopts;
            lopts.tier = cell.tier;
            const WorkloadRun run = runWorkload(
                dev, cell.workload, cell.scale, RaceSeed::None, lopts);
            out.result = run.result;
            out.peak_reserved = run.peak_reserved;
            out.device_stats = dev.stats();
            out.ok = true;
            if (spec.post)
                spec.post(dev, out);
        });
    }

    ExperimentRunner::Options opts;
    opts.jobs = spec.jobs;
    opts.progress = spec.progress;
    ExperimentRunner runner(opts);
    const std::vector<ExperimentRunner::JobOutcome> outcomes =
        runner.run(jobs);

    for (size_t i = 0; i < outcomes.size(); ++i) {
        CellResult& cell = sweep.cells[i];
        cell.wall_ms = outcomes[i].wall_ms;
        if (!outcomes[i].ok) {
            // The job threw (device exhaustion, bad config, ...): record
            // and keep sweeping — identity fields were set before the
            // throwing section, results stay addressable.
            cell.ok = false;
            cell.error = outcomes[i].error;
            ++sweep.failures;
        }
    }
    sweep.wall_ms = msSince(sweep_start);
    return sweep;
}

} // namespace lmi
