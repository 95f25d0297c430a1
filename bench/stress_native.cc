/**
 * @file
 * Native-backend torture campaign.
 *
 * The host-thread counterpart of stress_faults: sweeps every named
 * native fault profile (native/native_fault.hh) across a seed matrix
 * and 1/2/4/8 threads, with deterministic fault injection hammering
 * the protocol's fragile edges — the TL2 read bracket, the acquire
 * windows, the commit-ticket gap, the extension path, rollback, the
 * serial gate, and backoff. A tight starvation-watchdog threshold
 * makes the injected starvation and kill storms drive the
 * serial-irrevocable escalation path for real.
 *
 * Every cell is double-checked:
 *  - the cross-backend oracle (harness/native_experiment.hh): the
 *    cell's serialization-ordered op log must replay identically
 *    through the *simulated* backend (skippable with --no-sim-replay
 *    for TSan runs, where the sim's fibers cannot be instrumented;
 *    the in-process replay oracle still runs);
 *  - the always-on native invariant sweep: snapshot <= clock, record
 *    versions never lead the clock, undo log empty after commit,
 *    gate holder/inflight/waiter accounting unwound, epochs idle.
 *
 * On any violation the campaign prints a reproducing command line
 * (profile, seed, threads) and exits non-zero. A determinism coda
 * re-runs one single-threaded cell and requires bit-identical
 * injected-fault sequences and stats from the same (profile, seed) —
 * and divergence from a different seed.
 *
 * Flags: --fault-profile <name>, --seed N, --threads N restrict the
 * matrix; --ci trims it for CI latency; --no-sim-replay skips the
 * cross-backend replay; --json writes the report
 * (BENCH_stress_native.json baseline).
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/native_experiment.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

using namespace hastm;

namespace {

NativeExperimentConfig
tortureCfg(WorkloadKind workload, const std::string &profile,
           std::uint64_t seed, unsigned threads)
{
    NativeExperimentConfig cfg;
    cfg.workload = workload;
    cfg.threads = threads;
    cfg.totalOps = 1024;
    cfg.updatePct = 40;          // hostile: twice the paper's mix
    cfg.initialSize = 192;
    cfg.keyRange = 384;          // crowded keys => real conflicts
    cfg.hashBuckets = 64;
    cfg.seed = seed;
    cfg.heapBytes = 32ull << 20;
    // Escalate quickly so the serial-irrevocable path is exercised,
    // not just reachable (same thresholds as stress_faults).
    cfg.stm.watchdogConsecAborts = 8;
    cfg.stm.watchdogRetriesPerCommit = 32;
    cfg.fault = nativeFaultProfile(profile);
    cfg.fault.seed = seed * 1000003ull + 17;
    return cfg;
}

std::uint64_t
totalNativeFaults(const TmStats &tm)
{
    std::uint64_t n = 0;
    for (unsigned k = 0; k < kNumNativeFaultKinds; ++k)
        n += tm.nativeFaultsInjected[k];
    return n;
}

std::string
reproLine(const std::string &profile, std::uint64_t seed,
          unsigned threads)
{
    return "reproduce: stress_native --fault-profile " + profile +
           " --seed " + std::to_string(seed) + " --threads " +
           std::to_string(threads);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchReport report("stress_native", argc, argv);
    bool ci = hasFlag(argc, argv, "--ci");
    bool sim_replay = !hasFlag(argc, argv, "--no-sim-replay");

    // ---- matrix, optionally restricted per axis ----
    std::vector<std::string> profiles = nativeFaultProfileNames();
    std::string only = faultProfileArg(argc, argv, profiles);
    if (!only.empty())
        profiles = {only};
    std::vector<std::uint64_t> seeds = ci ? std::vector<std::uint64_t>{1}
                                          : std::vector<std::uint64_t>{1, 2};
    if (std::string s = argValue(argc, argv, "--seed"); !s.empty())
        seeds = {std::strtoull(s.c_str(), nullptr, 10)};
    std::vector<unsigned> threadCounts =
        ci ? std::vector<unsigned>{1, 2, 4}
           : std::vector<unsigned>{1, 2, 4, 8};
    if (unsigned t = countArg(argc, argv, "--threads"))
        threadCounts = {t};

    const WorkloadKind workloads[] = {WorkloadKind::HashTable,
                                      WorkloadKind::Bst,
                                      WorkloadKind::Btree};

    std::cout << "Native torture campaign (" << profiles.size()
              << " profiles x "
              << seeds.size() << " seeds x " << threadCounts.size()
              << " thread counts; watchdog 8/32; "
              << (sim_replay ? "sim-replay + " : "")
              << "replay-oracle + native invariant checks per cell)\n\n";

    Table table({"profile", "seed", "thr", "workload",
                 "commits", "aborts", "irrevoc", "faults", "verdict"});
    std::vector<std::string> failures;
    std::uint64_t campaignFaults[kNumNativeFaultKinds] = {};
    std::uint64_t irrevocable_total = 0;
    unsigned cells = 0;

    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        for (std::size_t di = 0; di < seeds.size(); ++di) {
            for (std::size_t ti = 0; ti < threadCounts.size(); ++ti) {
                // Rotate the data structure so every workload meets
                // every profile somewhere in the matrix.
                WorkloadKind wl = workloads[(pi + di + ti) % 3];
                NativeExperimentConfig cfg = tortureCfg(
                    wl, profiles[pi], seeds[di], threadCounts[ti]);
                ++cells;

                // Both branches end in the one native-run verdict;
                // crossValidateNative also asks it for the sim replay.
                NativeExperimentResult r;
                std::string diag;
                if (sim_replay) {
                    diag = crossValidateNative(cfg, &r).diag;
                } else {
                    NativeExperimentConfig rcfg = cfg;
                    rcfg.recordOps = true;
                    r = runNativeDataStructure(rcfg);
                    diag = r.diag();
                }
                bool ok = r.ok();

                report.add(profiles[pi] + "/t" +
                               std::to_string(threadCounts[ti]) +
                               "/seed" + std::to_string(seeds[di]),
                           cfg, r);
                for (unsigned k = 0; k < kNumNativeFaultKinds; ++k)
                    campaignFaults[k] += r.tm.nativeFaultsInjected[k];
                irrevocable_total += r.tm.irrevocableEntries;
                table.addRow({profiles[pi], fmt(seeds[di]),
                              fmt(std::uint64_t(threadCounts[ti])),
                              workloadName(wl), fmt(r.tm.commits),
                              fmt(r.tm.aborts),
                              fmt(r.tm.irrevocableEntries),
                              fmt(totalNativeFaults(r.tm)),
                              ok ? "ok" : "FAIL"});
                if (!ok) {
                    failures.push_back(diag + "\n    " +
                                       reproLine(profiles[pi], seeds[di],
                                                 threadCounts[ti]));
                }
            }
        }
    }
    table.print(std::cout);

    std::cout << "\ninjected faults by kind:";
    for (unsigned k = 0; k < kNumNativeFaultKinds; ++k) {
        std::cout << " " << nativeFaultKindName(NativeFaultKind(k)) << "="
                  << campaignFaults[k];
    }
    std::cout << "\nirrevocable entries across the campaign: "
              << irrevocable_total << "\n";

    // ---- determinism coda: one single-threaded heavy cell, twice
    // from the same (profile, seed) — the injected sequence and every
    // stat must be bit-identical — and once from a different seed,
    // which must diverge. Single-threaded, so the per-thread hook
    // sequence (and hence the whole campaign cell) is exactly
    // reproducible, not merely reproducible-up-to-scheduling.
    NativeExperimentConfig dcfg =
        tortureCfg(WorkloadKind::HashTable, "heavy", 1, 1);
    dcfg.recordOps = true;
    NativeExperimentResult a = runNativeDataStructure(dcfg);
    NativeExperimentResult b = runNativeDataStructure(dcfg);
    NativeExperimentConfig dcfg2 = dcfg;
    dcfg2.fault.seed += 1;
    NativeExperimentResult c = runNativeDataStructure(dcfg2);

    bool identical = a.faultSequenceHash == b.faultSequenceHash &&
                     a.checksum == b.checksum &&
                     a.finalSize == b.finalSize &&
                     a.tm.commits == b.tm.commits &&
                     a.tm.aborts == b.tm.aborts &&
                     totalNativeFaults(a.tm) == totalNativeFaults(b.tm);
    bool diverged = a.faultSequenceHash != c.faultSequenceHash;
    std::cout << "determinism: repeat "
              << (identical ? "bit-identical" : "DIVERGED")
              << " (seqHash " << a.faultSequenceHash << "), reseeded "
              << (diverged ? "diverged" : "IDENTICAL") << "\n";
    if (!identical) {
        failures.push_back("determinism: repeated (heavy, seed 1) "
                           "cell diverged\n    " +
                           reproLine("heavy", 1, 1));
    }
    if (!diverged)
        failures.push_back("determinism: reseeded cell did not diverge");
    Json d = Json::object();
    d.set("repeatIdentical", identical)
        .set("reseededDiverged", diverged)
        .set("sequenceHash", a.faultSequenceHash);
    report.addCustom("determinism/heavy", std::move(d));

    if (!failures.empty()) {
        std::cout << "\nTORTURE FAILURES (" << failures.size() << "):\n";
        for (const std::string &f : failures)
            std::cout << "  - " << f << "\n";
        return 1;
    }
    std::cout << "all " << cells << " cells passed ("
              << (sim_replay ? "sim-replay + " : "")
              << "oracle + invariants), determinism coda clean\n";
    return 0;
}
