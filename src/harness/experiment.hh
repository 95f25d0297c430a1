/**
 * @file
 * Experiment driver shared by every bench and integration test.
 *
 * One experiment = one freshly built machine + session, a populate
 * phase on thread 0, a counter reset (caches stay warm, as in the
 * paper's setup), and a measured phase where each thread performs its
 * share of a fixed total operation count with the paper's mix (20 %
 * updates by default). The makespan is the slowest core's cycle
 * count over the measured phase.
 */

#ifndef HASTM_HARNESS_EXPERIMENT_HH
#define HASTM_HARNESS_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "harness/ds_ops.hh"
#include "harness/oracle.hh"
#include "sim/json.hh"
#include "workloads/microbench.hh"
#include "workloads/phase_shift.hh"
#include "workloads/tm_api.hh"

namespace hastm {

/** Full configuration of one experiment run. */
struct ExperimentConfig : OpMixConfig
{
    TmScheme scheme = TmScheme::Stm;
    MachineParams machine;          //!< mem.numCores overridden by threads
    StmConfig stm;
};

/** Measured outcome of one experiment. */
struct ExperimentResult
{
    Cycles makespan = 0;
    TmStats tm;
    std::array<Cycles, std::size_t(Phase::NumPhases)> phaseCycles{};
    std::array<std::uint64_t, std::size_t(Phase::NumPhases)> phaseInstrs{};
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1HitLoads = 0;
    std::uint64_t checksum = 0;      //!< final structure fingerprint
    std::uint64_t finalSize = 0;
    bool invariantOk = true;

    // ---- oracle verdict (ExperimentConfig::recordOps runs only) ----
    bool oracleChecked = false;
    bool oracleOk = true;
    std::string oracleDiag;          //!< first divergence, with the seed

    /**
     * Per-site decision summary (TmScheme::Adaptive runs only, null
     * otherwise): Arbiter::aggregate over every thread plus each
     * thread's own site profiles.
     */
    Json adaptive;

    /**
     * Host wall time spent inside the run (steady_clock ns). The
     * only field that varies run-to-run: everything simulated above
     * is deterministic in the config.
     */
    std::uint64_t hostNanos = 0;
};

/** Run one data-structure experiment. */
ExperimentResult runDataStructure(const ExperimentConfig &cfg);

/** Configuration for a synthetic-microbenchmark experiment (Fig 15). */
struct MicroConfig
{
    TmScheme scheme = TmScheme::Stm;
    unsigned threads = 1;
    unsigned transactions = 256;    //!< per thread
    MicroParams mix;
    std::size_t workingLines = 4096;
    /**
     * Per-thread disjoint working sets (the seed's behaviour). False
     * shares one region between all threads — the data-conflict
     * counterpart used by bench/fig_shard to separate aliased
     * (metadata-only) conflicts from true sharing.
     */
    bool disjoint = true;
    std::uint64_t seed = 42;
    MachineParams machine;
    StmConfig stm;
};

/** Run one synthetic-microbenchmark experiment. */
ExperimentResult runMicro(const MicroConfig &cfg);

/**
 * Configuration of one phase-shifting run (bench/fig_adaptive): one
 * machine + session executes the phases back to back, with a barrier
 * and a cycle/commit snapshot at every phase boundary. All phases
 * run under the same transaction site so the adaptive runtime has to
 * re-learn each shift online.
 */
struct PhasedConfig
{
    TmScheme scheme = TmScheme::Adaptive;
    unsigned threads = 4;
    std::vector<PhaseMix> phases;
    std::uint64_t seed = 42;
    MachineParams machine;
    StmConfig stm;
};

/** Per-phase slice of a phased run. */
struct PhaseOutcome
{
    std::string name;
    Cycles cycles = 0;           //!< makespan growth over the phase
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t switches = 0;  //!< adaptive rung changes in-phase
    std::uint64_t probes = 0;    //!< adaptive probes begun in-phase

    double
    commitsPerMcycle() const
    {
        return cycles ? double(commits) * 1e6 / double(cycles) : 0.0;
    }
};

/** Outcome of a phased run: the slices plus the usual totals. */
struct PhasedResult
{
    std::vector<PhaseOutcome> phases;
    ExperimentResult total;
};

/** Run one phase-shifting experiment. */
PhasedResult runPhased(const PhasedConfig &cfg);

} // namespace hastm

#endif // HASTM_HARNESS_EXPERIMENT_HH
