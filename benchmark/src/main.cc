/**
 * @file
 * hastm_bench: one benchmark workload per process.
 *
 *   hastm_bench --workload <serve_kv|closed_short|closed_hot|sim_bst>
 *               --seed N --seconds S --trace 0|1
 *               [--trace-dir DIR] [--smoke]
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 prints the
 * per-layer metrics and writes DIR/trace.json (Chrome trace_event,
 * loads in Perfetto) and DIR/layers.json. The last stdout line is one
 * JSON object {correct, attempted, failed, metrics}; the exit code is
 * nonzero when a correctness check failed. benchmark/run.py builds
 * this binary and is the intended entry point.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"
#include "sim/json.hh"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hastm_bench: " << why << "\n"
              << "usage: hastm_bench --workload "
                 "<serve_kv|closed_short|closed_hot|sim_bst> --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR] [--smoke]\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    std::size_t used = 0;
    unsigned long long x = 0;
    try {
        x = std::stoull(v, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != v.size() || v[0] == '-')
        usage(flag + " wants a whole number, got '" + v + "'");
    return x;
}

void
writeLayers(const bench::Options &opt, const bench::Report &rep)
{
    hastm::Json metrics = hastm::Json::object();
    for (const bench::Metric &m : rep.metrics()) {
        hastm::Json e = hastm::Json::object();
        e.set("value", m.value);
        e.set("unit", m.unit);
        metrics.set(m.name, std::move(e));
    }
    hastm::Json doc = hastm::Json::object();
    doc.set("workload", opt.workload);
    doc.set("seed", opt.seed);
    doc.set("seconds", opt.seconds);
    doc.set("metrics", std::move(metrics));
    std::string path = opt.traceDir + "/layers.json";
    std::ofstream os(path);
    os << doc.str() << "\n";
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = parseUint(a, v);
            have_seed = true;
        } else if (a == "--seconds") {
            std::uint64_t s = parseUint(a, v);
            if (s < 1 || s > 600)
                usage("--seconds must be in [1, 600]");
            opt.seconds = double(s);
            have_seconds = true;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            opt.trace = v == "1";
            have_trace = true;
        } else if (a == "--trace-dir") {
            opt.traceDir = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (opt.trace) {
        if (opt.traceDir.empty())
            usage("--trace 1 needs --trace-dir");
        std::filesystem::create_directories(opt.traceDir);
    }

    bench::Report rep;
    if (opt.workload == "serve_kv")
        bench::runServeKv(opt, rep);
    else if (opt.workload == "closed_short")
        bench::runClosedShort(opt, rep);
    else if (opt.workload == "closed_hot")
        bench::runClosedHot(opt, rep);
    else if (opt.workload == "sim_bst")
        bench::runSimBst(opt, rep);
    else
        usage("unknown workload '" + opt.workload + "'");

    if (opt.trace)
        writeLayers(opt, rep);
    rep.print();
    return rep.correct() ? 0 : 1;
}
