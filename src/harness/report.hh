/**
 * @file
 * Structured experiment reports.
 *
 * Every bench can serialize its configurations and measured results
 * to a JSON document so sweeps are machine-checkable: plots, CI
 * regression gates, and cross-run diffs consume the same numbers the
 * console tables print. toJson() overloads cover the harness types;
 * BenchReport owns the per-bench document and the --json / env-var
 * plumbing.
 *
 * Document schema (one per bench binary):
 *   {
 *     "bench": "<name>",
 *     "schemaVersion": 14,
 *     "runs": [ { "label": ...,
 *                 "config": { ...ExperimentConfig|MicroConfig... },
 *                 "result": { "makespan", "instructions", "loads",
 *                             "stores", "l1HitLoads", "checksum",
 *                             "finalSize", "invariantOk",
 *                             "oracleChecked", "oracleOk",
 *                             "hostNanos", "simInstrPerHostSec",
 *                             "phases": {"<phaseName>": {"cycles",
 *                                        "instrs"}, ...},
 *                             "tm": { counters...,
 *                                     "abortReasons": {...},
 *                                     "abortKinds": {...},
 *                                     "faultsInjected": {...},
 *                                     "readSetAtCommit": {histogram},
 *                                     ... } } }, ... ]
 *   }
 *
 * v2 adds the per-run host-throughput fields "hostNanos" (host wall
 * time of the run) and "simInstrPerHostSec" (simulated instructions
 * retired per host second). These vary run-to-run; every other field
 * is deterministic in the config, including under the parallel
 * experiment runner (see harness/runner.hh).
 *
 * v3 adds robustness provenance: every config carries "seed",
 * "faultProfile", and "faultSeed" (so any run is reproducible from
 * its report alone), StmConfig gains the starvation-watchdog
 * thresholds, TmStats gains "irrevocableEntries" plus the
 * "abortKinds" and "faultsInjected" breakdowns, and results of
 * oracle-checked runs carry "oracleChecked" / "oracleOk" (and
 * "oracleDiag" on failure).
 *
 * v4 adds the adaptive runtime: TmStats gains the "adaptive" block
 * (decision counters "switches" / "probes" and the per-rung
 * "dispatch" tally — all zero for fixed schemes), StmConfig gains
 * the "adaptive" arbitration knobs (dropped in v14), and results of
 * TmScheme::Adaptive runs carry a top-level "adaptive" object with
 * per-site decision summaries ("sites": dispatch counts and
 * fractions per rung, switch/probe totals, final steady rungs;
 * "perThread": each thread's own site profiles including learned
 * cycles-per-commit scores).
 *
 * v5 adds the sharded record table: StmConfig gains the geometry
 * knobs "recShardLog2Records" / "recHashMix" / "recShardPerArena",
 * MicroConfig gains "disjoint" (per-thread vs shared working sets),
 * and TmStats gains the false-conflict accounting block "conflicts"
 * ({"trueSharing", "aliased", "unclassified"} — conflict aborts that
 * named a record, classified by whether the parties' 64-byte-line
 * sets overlap) plus the "aliasedLinesAtAbort" histogram.
 *
 * v6 adds the execution backend: every config carries "backend"
 * ("sim" for the cycle-level simulator, "native" for host threads),
 * and native runs (NativeExperimentConfig / NativeExperimentResult)
 * serialize host-thread throughput — "opsPerSec" plus the usual TM
 * counters — instead of simulated cycle counts, which do not exist
 * on that substrate.
 *
 * v7 adds the native snapshot-clock protocol: StmConfig gains its
 * protocol-select flag (dropped in v12) and three native knobs, the
 * write-set Bloom width and the backoff base and cap (dropped in
 * v13), TmStats gains
 * the protocol counters "extensions" / "extensionFailures" /
 * "bloomFalsePositives" / "clockBumpsSkipped" (zero on the sim
 * backend),
 * NativeExperimentConfig gains "disjoint" (per-thread key
 * partition), and NativeExperimentResult gains "perThread" (each
 * thread's measured-phase {"commits", "aborts", "abortRate"}).
 *
 * v8 adds the native torture harness: TmStats gains
 * "nativeFaultsInjected" (per-NativeFaultKind tallies, zero on the
 * sim backend and on un-tortured native runs), StmConfig gains the
 * serial-gate stall bound (dropped in v13), NativeExperimentConfig
 * gains "faultProfile" /
 * "faultSeed" (the pair that reproduces an injected-fault sequence
 * bit-identically), and NativeExperimentResult gains
 * "nativeInvariantsOk" (+"nativeInvariantDiag" when violated) and
 * "faultSequenceHash" (the combined per-thread FNV fingerprint of
 * the injected sequence; 0 without an injector).
 *
 * v9 adds the open-system transaction service: a LatencyHistogram
 * serialization (log-linear percentile histogram — "count" / "sum" /
 * "min" / "max" / "mean" / "p50" / "p99" / "p999" plus sparse
 * [bucketLo, n] "buckets"), used by bench/serve's per-request
 * latency and host_perf's per-op latency. Serve cells (addCustom)
 * carry {"service": {config}, "result": {...counters, "latency",
 * p50/p99/p999Ns, "windows", "depthSeries", "segments", "slo":
 * handled bench-side, "fingerprint"}}. No existing field changed:
 * sim/native experiment runs serialize byte-identically to v8
 * modulo the version number.
 *
 * v10 adds the parallel native worker pool: every serve result
 * carries "occupancy" (virtual per-worker {"busyNs", "completed"}
 * whose busyNs sum equals "totalBusyNs") and "fingerprintExempt".
 * fingerprintExempt is false for synchronous cells (any sim cell,
 * native workers=1), whose "fingerprint" keeps the full bit-identity
 * contract; it is true for pool cells (native workers>1), where
 * measured stat deltas depend on real host interleaving — those
 * cells instead carry a "pool" block ({"workers", per-worker
 * {"executed", "commits", "aborts", "busyHostNs"}, "wallHostNs",
 * "execPerHostSec", "opsRecorded", "oracleChecked"/"oracleOk",
 * "simReplayChecked"/"simReplayOk", "nativeInvariantsOk", "diag"})
 * recording the replay-oracle + sim-replay + invariant-sweep verdict
 * that stands in for bit-identity. Serve labels gain a worker-count
 * segment (scheme/load/wN/seedS) and the bench emits a
 * "workerScaling" summary ({"hostCores", per-cell goodput and
 * host-side exec/sec, the 4-vs-1-worker saturated-goodput ratio and
 * whether the >= 1.8x bar was checked or skipped for lack of cores}).
 *
 * v11: every native serve cell, workers=1 included, runs on the
 * worker pool and carries the "pool" block ("rivalsInjected" is 0 on
 * native cells); fingerprintExempt is true exactly for native cells
 * with workers > 1.
 *
 * v12: the snapshot clock is the only native validation protocol, so
 * StmConfig drops the v7 protocol-select flag. Native labels carry
 * no protocol segment (host_perf scale/<mix>/t<n> and
 * xval/<workload>/seed<s>; stress_native <profile>/t<n>/seed<s>;
 * serve native/<load>/w<n>/seed<s>). Every other field serializes as
 * in v11.
 *
 * v13: StmConfig drops the four native knobs no run ever set (the v7
 * Bloom width and backoff base/cap, the v8 gate stall bound); the
 * native STM uses their old defaults as constants. Every other field
 * serializes as in v12.
 *
 * v14: StmConfig drops the knobs no run ever set, each now the
 * constant its default gave: "filterReads" (the HASTM-NoReuse scheme
 * is the read-filter ablation), "policyWindow" and
 * "aggressiveWatermark" (HASTM's mode policy), and the whole v4
 * "adaptive" block ("window", "probeEpoch", "probeLen",
 * "probeAbortBudget", "probeBackoff", "ewmaAlpha", "switchMargin",
 * "shiftFactor", "demoteHysteresis", "stormAborts",
 * "demoteAbortRate", "demoteCapacityFrac", "demoteSpuriousFrac",
 * "markHitFloor", "serialRetries", "serialBudget"). Every other field
 * serializes as in v13.
 *
 * v15: the service has two arrival sources (Poisson, on/off burst)
 * and two admission policies (drop-tail, delay backpressure). A serve
 * cell's "service" config drops "arrival.tracePath" (the trace-file
 * source), "admission.depthThreshold" (the depth-threshold policy)
 * and "admission.shedKeepOneIn" (now the constant 4), and the serve
 * report drops its "trace-replay" block ("recorded", "offeredNative",
 * "simChecked", "offeredSim", "nativeReplayIdentical",
 * "schemesAgreeOnOffered"). Every other field serializes as in v14.
 */

#ifndef HASTM_HARNESS_REPORT_HH
#define HASTM_HARNESS_REPORT_HH

#include <string>

#include "harness/experiment.hh"
#include "harness/latency_hist.hh"
#include "harness/native_experiment.hh"
#include "sim/json.hh"

namespace hastm {

/** The report document format version (see the header comment). */
constexpr unsigned kReportSchemaVersion = 15;

Json toJson(const Histogram &h);
Json toJson(const LatencyHistogram &h);
Json toJson(const TmStats &s);
Json toJson(const StmConfig &c);
Json toJson(const ExperimentConfig &c);
Json toJson(const MicroConfig &c);
Json toJson(const ExperimentResult &r);
Json toJson(const NativeExperimentConfig &c);
Json toJson(const NativeExperimentResult &r);

/**
 * Accumulates one bench binary's runs and writes the document on
 * destruction. The output path comes from `--json <path>` on the
 * command line, else from $HASTM_BENCH_JSON (a file path, or a
 * directory into which `BENCH_<name>.json` is placed); with neither,
 * the report is disabled and add() is free.
 */
class BenchReport
{
  public:
    /** @param argc/argv The bench's command line; may be 0/null. */
    BenchReport(std::string bench_name, int argc = 0,
                char **argv = nullptr);

    ~BenchReport();
    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    /** Record one labelled data-structure run. */
    void add(const std::string &label, const ExperimentConfig &cfg,
             const ExperimentResult &r);

    /** Record one labelled microbenchmark run. */
    void add(const std::string &label, const MicroConfig &cfg,
             const ExperimentResult &r);

    /** Record one labelled native (host-thread) run. */
    void add(const std::string &label, const NativeExperimentConfig &cfg,
             const NativeExperimentResult &r);

    /** Record a run with a bench-specific payload. */
    void addCustom(const std::string &label, Json data);

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }
    std::size_t runCount() const { return runs_.size(); }

    /** Assemble and write the document now; false on I/O failure. */
    bool write();

  private:
    std::string bench_;
    std::string path_;
    Json runs_ = Json::array();
    bool written_ = false;
};

} // namespace hastm

#endif // HASTM_HARNESS_REPORT_HH
