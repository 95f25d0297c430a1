/**
 * @file
 * Fault-injection stress campaign.
 *
 * Sweeps every TM scheme across the named fault profiles
 * (sim/fault.hh) and a small seed matrix, with operation recording
 * enabled so the replay oracle (harness/oracle.hh) checks every run
 * for serializability violations. A tight starvation-watchdog
 * threshold makes the serial-irrevocable escalation path fire under
 * the hostile profiles, proving graceful degradation end to end:
 * faults land, transactions abort, starved threads escalate, and the
 * final structure still matches the sequential specification.
 *
 * Exit status is non-zero if any run fails the oracle; the diagnostic
 * includes the seed that reproduces the failure. Campaigns are
 * bit-identical for a given seed matrix regardless of --jobs.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

using namespace hastm;

namespace {

ExperimentConfig
stressCfg(TmScheme scheme, WorkloadKind workload,
          const std::string &profile, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.scheme = scheme;
    cfg.threads = 4;
    cfg.totalOps = 1536;
    cfg.updatePct = 40;          // hostile: twice the paper's mix
    cfg.initialSize = 256;
    cfg.keyRange = 512;
    cfg.hashBuckets = 64;        // crowded buckets => real conflicts
    cfg.seed = seed;
    cfg.recordOps = true;
    cfg.machine.arenaBytes = 32ull * 1024 * 1024;
    cfg.machine.fault = faultProfile(profile);
    cfg.machine.fault.seed = seed * 1000003ull + 17;
    // Escalate quickly so the serial-irrevocable path is exercised,
    // not just reachable.
    cfg.stm.watchdog.consecAborts = 8;
    cfg.stm.watchdog.retriesPerCommit = 32;
    return cfg;
}

std::uint64_t
totalFaults(const TmStats &tm)
{
    std::uint64_t n = 0;
    for (unsigned k = 0; k < kNumFaultKinds; ++k)
        n += tm.faultsInjected[k];
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchReport report("stress_faults", argc, argv);
    ExperimentRunner runner(argc, argv);
    std::cout << "Fault-injection stress campaign\n(every run "
                 "oracle-checked against the sequential spec; "
                 "watchdog thresholds 8/32)\n\n";

    const TmScheme schemes[] = {TmScheme::Stm, TmScheme::Hastm,
                                TmScheme::HastmCautious,
                                TmScheme::HastmNaive, TmScheme::Hytm};
    // The full faultProfile() vocabulary — including "spurious", whose
    // no-real-loss aborts otherwise never meet a whole campaign — or
    // the single profile --fault-profile restricts the sweep to.
    std::vector<std::string> profiles = simFaultProfileNames();
    std::string only = faultProfileArg(argc, argv, profiles);
    if (!only.empty())
        profiles = {only};
    const std::uint64_t seeds[] = {1, 2};
    const WorkloadKind workloads[] = {WorkloadKind::HashTable,
                                      WorkloadKind::Bst,
                                      WorkloadKind::Btree};
    constexpr unsigned kSchemes = 5, kSeeds = 2;
    const unsigned kProfiles = unsigned(profiles.size());

    std::vector<ExperimentConfig> cfgs(kSchemes * kProfiles * kSeeds);
    std::vector<ExperimentRunner::Handle> handles(cfgs.size());
    auto cell = [&](unsigned si, unsigned pi, unsigned di) {
        return (si * kProfiles + pi) * kSeeds + di;
    };
    for (unsigned si = 0; si < kSchemes; ++si) {
        for (unsigned pi = 0; pi < kProfiles; ++pi) {
            for (unsigned di = 0; di < kSeeds; ++di) {
                // Rotate the data structure so every workload meets
                // every profile somewhere in the matrix.
                WorkloadKind wl = workloads[(si + pi + di) % 3];
                unsigned i = cell(si, pi, di);
                cfgs[i] =
                    stressCfg(schemes[si], wl, profiles[pi], seeds[di]);
                handles[i] = runner.add(cfgs[i]);
            }
        }
    }
    runner.runAll();

    Table table({"scheme", "profile", "seed", "workload", "commits",
                 "aborts", "irrevoc", "faults", "oracle"});
    std::vector<std::string> failures;
    std::uint64_t irrevocable_total = 0;
    for (unsigned si = 0; si < kSchemes; ++si) {
        for (unsigned pi = 0; pi < kProfiles; ++pi) {
            for (unsigned di = 0; di < kSeeds; ++di) {
                const ExperimentConfig &cfg = cfgs[cell(si, pi, di)];
                const ExperimentResult &r =
                    runner.result(handles[cell(si, pi, di)]);
                report.add(std::string(tmSchemeName(cfg.scheme)) + "/" +
                               profiles[pi] + "/seed" +
                               std::to_string(cfg.seed),
                           cfg, r);
                irrevocable_total += r.tm.irrevocableEntries;
                table.addRow({tmSchemeName(cfg.scheme), profiles[pi],
                              fmt(cfg.seed),
                              workloadName(cfg.workload),
                              fmt(r.tm.commits), fmt(r.tm.aborts),
                              fmt(r.tm.irrevocableEntries),
                              fmt(totalFaults(r.tm)),
                              r.oracleOk ? "ok" : "FAIL"});
                if (!r.oracleOk)
                    failures.push_back(r.oracleDiag);
            }
        }
    }
    table.print(std::cout);
    std::cout << "\nirrevocable entries across the campaign: "
              << irrevocable_total << "\n";

    if (!failures.empty()) {
        std::cout << "\nORACLE FAILURES (" << failures.size() << "):\n";
        for (const std::string &f : failures)
            std::cout << "  - " << f << "\n";
        return 1;
    }
    std::cout << "all " << kSchemes * kProfiles * kSeeds
              << " runs passed the oracle\n";
    return 0;
}
