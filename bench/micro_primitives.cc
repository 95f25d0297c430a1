/**
 * @file
 * google-benchmark microbenchmarks of the primitive operations: the
 * fiber switch, cache hit/miss paths, the mark-bit ISA, and the
 * per-scheme read/write barriers. Host wall-clock measures simulator
 * throughput; the SimCycles counter reports the simulated cost per
 * operation, which is what the figure benches build on.
 *
 * The primitive and barrier benches build a fresh Machine per
 * iteration (a miss must find cold caches) but time only the repeated
 * body, as manual time: the reported time is one body of `reps`
 * operations, and the HostNsPerOp counter is host nanoseconds per
 * simulated operation.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "sim/fiber.hh"
#include "workloads/tm_api.hh"

using namespace hastm;

namespace {

MachineParams
benchMachine()
{
    MachineParams p;
    p.mem.numCores = 1;
    p.mem.prefetchNextLine = false;
    p.arenaBytes = 16 * 1024 * 1024;
    return p;
}

/** Host seconds since @p t0. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Time one body of @p reps simulated operations as the iteration's
 * manual time and report SimCycles (simulated cycles per operation)
 * and HostNsPerOp (host nanoseconds per operation, over all
 * iterations). @p run builds the machine, runs the body, and returns
 * {simulated cycles of the body, host seconds of the body}.
 */
template <typename Run>
void
timedBodies(benchmark::State &state, int reps, Run run)
{
    double total_secs = 0;
    Cycles used = 0;
    for (auto _ : state) {
        (void)_;
        auto [cycles, secs] = run();
        state.SetIterationTime(secs);
        total_secs += secs;
        used = cycles / reps;
    }
    state.counters["SimCycles"] = benchmark::Counter(double(used));
    state.counters["HostNsPerOp"] = benchmark::Counter(
        state.iterations()
            ? total_secs * 1e9 / (double(state.iterations()) * reps)
            : 0.0);
}

/** Run @p body 256 times inside a simulated thread (see timedBodies). */
template <typename Setup, typename Body>
void
simLoop(benchmark::State &state, Setup setup, Body body)
{
    const int reps = 256;
    timedBodies(state, reps, [&] {
        Machine machine(benchMachine());
        Cycles used = 0;
        double secs = 0;
        machine.run({[&](Core &core) {
            auto ctx = setup(machine, core);
            Cycles t0 = core.cycles();
            auto h0 = std::chrono::steady_clock::now();
            for (int i = 0; i < reps; ++i)
                body(core, ctx, i);
            secs = secondsSince(h0);
            used = core.cycles() - t0;
        }});
        return std::pair{used, secs};
    });
}

void
BM_FiberSwitch(benchmark::State &state)
{
    Fiber main_fiber;
    Fiber *child_ptr = nullptr;
    Fiber child([&] {
        for (;;)
            child_ptr->switchTo(main_fiber);
    });
    child_ptr = &child;
    for (auto _ : state) {
        (void)_;
        main_fiber.switchTo(child);
    }
}
BENCHMARK(BM_FiberSwitch);

void
BM_L1HitLoad(benchmark::State &state)
{
    simLoop(
        state,
        [](Machine &, Core &core) {
            core.load<std::uint64_t>(4096);
            return 0;
        },
        [](Core &core, int, int) { core.load<std::uint64_t>(4096); });
}
BENCHMARK(BM_L1HitLoad)->UseManualTime();

void
BM_MemoryMissLoad(benchmark::State &state)
{
    simLoop(
        state, [](Machine &, Core &) { return 0; },
        [](Core &core, int, int i) {
            // New line every access: always misses the hierarchy.
            core.load<std::uint64_t>(4096 + 64ull * (i + 1) * 7);
        });
}
BENCHMARK(BM_MemoryMissLoad)->UseManualTime();

void
BM_LoadSetMarkHit(benchmark::State &state)
{
    simLoop(
        state,
        [](Machine &, Core &core) {
            core.load<std::uint64_t>(4096);
            return 0;
        },
        [](Core &core, int, int) {
            core.loadSetMark<std::uint64_t>(4096);
        });
}
BENCHMARK(BM_LoadSetMarkHit)->UseManualTime();

void
BM_LoadTestMarkHit(benchmark::State &state)
{
    simLoop(
        state,
        [](Machine &, Core &core) {
            core.loadSetMark<std::uint64_t>(4096);
            return 0;
        },
        [](Core &core, int, int) {
            bool marked;
            core.loadTestMark<std::uint64_t>(4096, marked);
            benchmark::DoNotOptimize(marked);
        });
}
BENCHMARK(BM_LoadTestMarkHit)->UseManualTime();

void
BM_Cas(benchmark::State &state)
{
    simLoop(
        state,
        [](Machine &, Core &core) {
            core.store<std::uint64_t>(4096, 0);
            return 0;
        },
        [](Core &core, int, int i) {
            core.cas<std::uint64_t>(4096, i, i + 1);
        });
}
BENCHMARK(BM_Cas)->UseManualTime();

/** Read-barrier cost per scheme: repeated reads of one hot field. */
void
barrierBench(benchmark::State &state, TmScheme scheme, bool repeat_same)
{
    const int reps = 128;
    timedBodies(state, reps, [&] {
        Machine machine(benchMachine());
        SessionConfig sc;
        sc.scheme = scheme;
        sc.numThreads = 1;
        TmSession session(machine, sc);
        Cycles used = 0;
        double secs = 0;
        machine.run({[&](Core &core) {
            TmThread &t = session.threadFor(core);
            Addr obj = t.txAlloc(8 * 128);
            t.atomic([&] { t.readField(obj, 0); });  // policy warmup
            Cycles t0 = core.cycles();
            auto h0 = std::chrono::steady_clock::now();
            t.atomic([&] {
                for (int i = 0; i < reps; ++i)
                    t.readField(obj, repeat_same ? 0 : 8 * i);
            });
            secs = secondsSince(h0);
            used = core.cycles() - t0;
        }});
        return std::pair{used, secs};
    });
}

void
BM_ReadBarrier_Stm_Repeated(benchmark::State &state)
{
    barrierBench(state, TmScheme::Stm, true);
}
BENCHMARK(BM_ReadBarrier_Stm_Repeated)->UseManualTime();

void
BM_ReadBarrier_Hastm_Repeated(benchmark::State &state)
{
    barrierBench(state, TmScheme::Hastm, true);
}
BENCHMARK(BM_ReadBarrier_Hastm_Repeated)->UseManualTime();

void
BM_ReadBarrier_Hytm_Repeated(benchmark::State &state)
{
    barrierBench(state, TmScheme::Hytm, true);
}
BENCHMARK(BM_ReadBarrier_Hytm_Repeated)->UseManualTime();

void
BM_ReadBarrier_Stm_Distinct(benchmark::State &state)
{
    barrierBench(state, TmScheme::Stm, false);
}
BENCHMARK(BM_ReadBarrier_Stm_Distinct)->UseManualTime();

void
BM_ReadBarrier_Hastm_Distinct(benchmark::State &state)
{
    barrierBench(state, TmScheme::Hastm, false);
}
BENCHMARK(BM_ReadBarrier_Hastm_Distinct)->UseManualTime();

/**
 * Host throughput of whole experiments: how many simulated
 * instructions the simulator retires per host second. These are the
 * end-to-end numbers the coherence fast paths (sharer directory, MRU
 * way hint, interest lists) move; `hostNanos` comes from the
 * experiment harness itself, so the number matches the schema-v2
 * `simInstrPerHostSec` field in the figure benches' JSON reports.
 */
void
BM_HostThroughput_DataStructure(benchmark::State &state)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Bst;
    cfg.scheme = TmScheme::Stm;
    cfg.threads = unsigned(state.range(0));
    cfg.totalOps = 2048;
    cfg.initialSize = 4096;
    cfg.keyRange = 16384;
    cfg.machine.arenaBytes = 32ull * 1024 * 1024;
    for (auto _ : state) {
        (void)_;
        ExperimentResult r = runDataStructure(cfg);
        benchmark::DoNotOptimize(r.checksum);
        state.counters["SimInstrPerHostSec"] = benchmark::Counter(
            r.hostNanos ? double(r.instructions) * 1e9 / double(r.hostNanos)
                        : 0.0);
    }
}
BENCHMARK(BM_HostThroughput_DataStructure)->Arg(1)->Arg(4)->Arg(16);

void
BM_HostThroughput_Micro(benchmark::State &state)
{
    MicroConfig cfg;
    cfg.scheme = TmScheme::Hastm;
    cfg.threads = 4;
    cfg.transactions = 128;
    cfg.mix.accessesPerTx = 64;
    cfg.workingLines = 4096;
    cfg.machine.arenaBytes = 32ull * 1024 * 1024;
    for (auto _ : state) {
        (void)_;
        ExperimentResult r = runMicro(cfg);
        benchmark::DoNotOptimize(r.checksum);
        state.counters["SimInstrPerHostSec"] = benchmark::Counter(
            r.hostNanos ? double(r.instructions) * 1e9 / double(r.hostNanos)
                        : 0.0);
    }
}
BENCHMARK(BM_HostThroughput_Micro);

void
BM_WriteBarrier_Stm(benchmark::State &state)
{
    const int reps = 128;
    timedBodies(state, reps, [&] {
        Machine machine(benchMachine());
        SessionConfig sc;
        sc.scheme = TmScheme::Stm;
        sc.numThreads = 1;
        TmSession session(machine, sc);
        Cycles used = 0;
        double secs = 0;
        machine.run({[&](Core &core) {
            TmThread &t = session.threadFor(core);
            Addr obj = t.txAlloc(8 * 128);
            Cycles t0 = core.cycles();
            auto h0 = std::chrono::steady_clock::now();
            t.atomic([&] {
                for (int i = 0; i < reps; ++i)
                    t.writeField(obj, 8 * i, i);
            });
            secs = secondsSince(h0);
            used = core.cycles() - t0;
        }});
        return std::pair{used, secs};
    });
}
BENCHMARK(BM_WriteBarrier_Stm)->UseManualTime();

} // namespace

/**
 * Custom main so this binary honours the repo-wide `--json <path>`
 * convention (and $HASTM_BENCH_JSON): the flag is translated to
 * google-benchmark's own JSON reporter before the usual argument
 * handling runs. google-benchmark's timing loops must run
 * sequentially or the host measurements would contend, so an
 * explicit `--jobs N` with N > 1 is rejected up front (exit 2)
 * rather than silently ignored; a parallel $HASTM_BENCH_JOBS alone
 * only warns, since sweep drivers export it process-wide.
 */
int
main(int argc, char **argv)
{
    std::string jobs_msg;
    if (!hastm::ExperimentRunner::sequentialJobsOk(argc, argv,
                                                   &jobs_msg)) {
        std::fprintf(stderr, "micro_primitives: %s\n", jobs_msg.c_str());
        return 2;
    }
    if (!jobs_msg.empty())
        std::fprintf(stderr, "micro_primitives: warning: %s\n",
                     jobs_msg.c_str());
    std::vector<char *> args;
    std::string out_flag, fmt_flag = "--benchmark_out_format=json";
    std::string json_path;
    for (int i = 0; i < argc; ++i) {
        if (i + 1 < argc && std::string(argv[i]) == "--json") {
            json_path = argv[++i];
            continue;
        }
        if (i + 1 < argc && std::string(argv[i]) == "--jobs") {
            ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    if (json_path.empty()) {
        if (const char *env = std::getenv("HASTM_BENCH_JSON")) {
            json_path = env;
            if (!json_path.empty() && json_path.back() == '/')
                json_path += "BENCH_micro_primitives.json";
        }
    }
    if (!json_path.empty()) {
        out_flag = "--benchmark_out=" + json_path;
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
