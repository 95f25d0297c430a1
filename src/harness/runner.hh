/**
 * @file
 * Parallel experiment runner: host threads over independent Machines.
 *
 * The simulator itself is single-host-threaded by design (one fiber
 * scheduler per Machine), but a bench sweep runs dozens of fully
 * independent experiments. Each ExperimentRunner job builds its own
 * Machine + TmSession inside runDataStructure()/runMicro(), so jobs
 * share no simulated state and every simulation is bit-identical to a
 * sequential run — only `hostNanos` varies. Results come back in the
 * order jobs were enqueued regardless of completion order, so table
 * printing and JSON reports stay deterministic.
 *
 * Thread-safety contract (audited over the whole simulator):
 *  - Everything simulated (Machine, MemSystem, Scheduler, Rng,
 *    StatGroup, TmSession) is instantiated per job; nothing is
 *    static or shared across Machines.
 *  - The only mutable host-global is sim/logging's quiet flag, which
 *    is atomic; benches call setQuiet() before runAll().
 *  - BenchReport is not thread-safe: enqueue on the main thread,
 *    runAll(), then add() results on the main thread (the
 *    enqueue-then-collect pattern every bench uses).
 *  - StmConfig::tracePath opens a per-session output file; jobs that
 *    set it must use distinct paths.
 *
 * Job count comes from `--jobs N` on the bench command line, else 1.
 * With one job the runner degrades to a
 * plain inline loop on the calling thread — no pool, no handoff.
 */

#ifndef HASTM_HARNESS_RUNNER_HH
#define HASTM_HARNESS_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace hastm {

class ExperimentRunner
{
  public:
    /** Opaque ticket for one enqueued job; redeem after runAll(). */
    struct Handle
    {
        std::size_t index = std::size_t(-1);
    };

    /** Run with an explicit worker count (>= 1). */
    explicit ExperimentRunner(unsigned jobs);

    /** Run with the count resolved from argv. */
    ExperimentRunner(int argc, char **argv);

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /**
     * Parse `--jobs N` from @p argv, falling back to 1. Exposed so
     * drivers that cannot hand their argv to the runner (e.g.
     * micro_primitives, which must strip the flag before
     * benchmark::Initialize) can resolve the count themselves.
     */
    static unsigned resolveJobs(int argc, char **argv);

    /**
     * Job policy for benches that must run sequentially (the
     * google-benchmark drivers: their host timing loops contend if
     * anything else runs on the machine). Reads the same flag as
     * resolveJobs() but never spawns workers: `--jobs 1` and no flag
     * at all are fine (true, empty *message); `--jobs N` with N != 1,
     * or an unparsable or missing count, is an error (false, the
     * reason in *message), and the driver should exit non-zero.
     */
    static bool sequentialJobsOk(int argc, char **argv,
                                 std::string *message);

    unsigned jobs() const { return jobs_; }

    /** Enqueue one data-structure experiment. */
    Handle add(const ExperimentConfig &cfg);

    /** Enqueue one synthetic-microbenchmark experiment. */
    Handle add(const MicroConfig &cfg);

    /**
     * Enqueue an arbitrary job. @p fn must build all simulated state
     * itself (the thread-safety contract above) — it runs on a worker
     * thread when jobs() > 1.
     */
    Handle add(std::function<ExperimentResult()> fn);

    std::size_t pending() const { return tasks_.size(); }

    /**
     * Run every enqueued job and block until all complete. With
     * jobs() == 1 the tasks run inline in enqueue order; otherwise a
     * pool of min(jobs, tasks) threads drains them. May be called
     * repeatedly: each call consumes the tasks enqueued since the
     * last one, and handles from earlier batches stay redeemable.
     */
    void runAll();

    /** Result of the job behind @p h; valid after its runAll(). */
    const ExperimentResult &result(Handle h) const;

  private:
    unsigned jobs_ = 1;
    std::vector<std::function<ExperimentResult()>> tasks_;
    std::vector<ExperimentResult> results_;
    std::size_t completed_ = 0;  //!< results_[0..completed_) are final
};

} // namespace hastm

#endif // HASTM_HARNESS_RUNNER_HH
