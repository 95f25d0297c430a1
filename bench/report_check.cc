/**
 * @file
 * Command-line front end of the report checker (harness/report_check.hh).
 *
 *   report_check FILE...                 validate each report
 *   report_check --same A B              bit-identity, host timing scrubbed
 *   report_check --same-sim A B          the same, for the sim/ runs both hold
 *   report_check --guard FRESH COMMITTED host-throughput guard (0.8x)
 *
 * Every mode exits non-zero on a failure and names the failing check
 * with its diagnosis. A skipped guard (the reports were measured on
 * different core counts) prints a warning and exits zero.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/report_check.hh"

using namespace hastm;

namespace {

/** Parse @p path; on failure print why and return false. */
bool
load(const std::string &path, Json &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << path << ": cannot read\n";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    out = Json::parse(text.str(), &err);
    if (!err.empty()) {
        std::cerr << path << ": check 'parse' failed: " << err << "\n";
        return false;
    }
    return true;
}

int
usage()
{
    std::cerr << "usage: report_check FILE...\n"
                 "       report_check --same A B\n"
                 "       report_check --same-sim A B\n"
                 "       report_check --guard FRESH COMMITTED\n";
    return 2;
}

int
validate(int argc, char **argv)
{
    int status = 0;
    for (int i = 1; i < argc; ++i) {
        Json doc;
        if (!load(argv[i], doc)) {
            status = 1;
            continue;
        }
        std::vector<ReportFailure> failures = checkReport(doc);
        for (const ReportFailure &f : failures) {
            std::cerr << argv[i] << ": check '" << f.check
                      << "' failed: " << f.diag << "\n";
        }
        if (!failures.empty()) {
            status = 1;
            continue;
        }
        const Json *bench = doc.find("bench");
        std::cout << argv[i] << ": " << bench->asString() << " report ok ("
                  << reportCheckNames(bench->asString()).size()
                  << " checks)\n";
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    if (mode != "--same" && mode != "--same-sim" && mode != "--guard")
        return validate(argc, argv);
    if (argc != 4)
        return usage();
    Json a, b;
    if (!load(argv[2], a) || !load(argv[3], b))
        return 1;
    if (mode == "--same" || mode == "--same-sim") {
        const bool sim = mode == "--same-sim";
        std::string diff = sim ? diffSimRuns(a, b) : diffReports(a, b);
        if (!diff.empty()) {
            std::cerr << "check '" << mode.substr(2) << "' failed: "
                      << argv[2] << " and " << argv[3] << " differ at "
                      << diff << "\n";
            return 1;
        }
        std::cout << argv[2] << (sim ? "'s sim runs reproduce " :
                                       " reproduces ")
                  << argv[3] << "\n";
        return 0;
    }
    GuardOutcome g = guardReport(a, b);
    switch (g.verdict) {
      case GuardVerdict::Pass:
        std::cout << g.message << "\n";
        return 0;
      case GuardVerdict::Skip:
        std::cout << "::warning::" << g.message << "\n";
        return 0;
      case GuardVerdict::Fail:
        break;
    }
    std::cerr << "check 'guard' failed: " << g.message << "\n";
    return 1;
}
