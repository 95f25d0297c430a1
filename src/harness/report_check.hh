/**
 * @file
 * The one checker for bench reports (harness/report.hh).
 *
 * Every report a bench writes — the committed BENCH_*.json baselines
 * and the fresh ones CI produces — is validated here and nowhere
 * else. One table holds the named checks, each keyed by the value of
 * the document's "bench" field. Two checks apply to every report:
 * "shape" (an object with a "bench" string and a "runs" array of
 * labelled objects) and "schemaVersion" (equal to
 * kReportSchemaVersion). A bench with no entries of its own gets
 * only those two.
 *
 * Beside the checks, three comparisons work on a pair of reports:
 * diffReports() tests bit-identity once the host-timing fields are
 * scrubbed, diffSimRuns() does the same for the simulator runs two
 * reports share, and guardReport() applies the 0.8x host-throughput
 * guard of a fresh run against its committed baseline.
 * bench/report_check is the command-line front end for all four.
 */

#ifndef HASTM_HARNESS_REPORT_CHECK_HH
#define HASTM_HARNESS_REPORT_CHECK_HH

#include <string>
#include <vector>

#include "sim/json.hh"

namespace hastm {

/** One failed check: its name in the table and a diagnosis. */
struct ReportFailure
{
    std::string check;
    std::string diag;
};

/** The checks checkReport() applies to a @p bench report, in order. */
std::vector<std::string> reportCheckNames(const std::string &bench);

/** Run every check that applies to @p doc; empty when it is valid. */
std::vector<ReportFailure> checkReport(const Json &doc);

/**
 * Compare two reports with "hostNanos" and "simInstrPerHostSec"
 * removed at every depth, ignoring object member order. Returns ""
 * when they are equal, else the path of the first difference and
 * the two values there.
 */
std::string diffReports(const Json &a, const Json &b);

/**
 * diffReports() restricted to the runs whose label starts with "sim/"
 * and that both reports hold: a report mixing simulator and native
 * cells (serve) reproduces its simulated part, while its native cells
 * and the rows aggregating them follow the host. Returns "" when the
 * two reports are of one bench, share at least one sim run, and every
 * shared sim run is equal; else what differs.
 */
std::string diffSimRuns(const Json &a, const Json &b);

/** How guardReport() judged a fresh report. */
enum class GuardVerdict { Pass, Fail, Skip };

struct GuardOutcome
{
    GuardVerdict verdict;
    std::string message;
};

/**
 * Host-throughput guard of @p fresh against @p committed, both of
 * one bench. host_native: every scale/<mix>/t<n> cell present in both
 * keeps >= 0.8x the committed ops/sec. serve: the 4-worker saturated
 * workerScaling cell keeps >= 0.8x the committed goodput. Host
 * throughput only compares on matching hardware, so the verdict is
 * Skip when the two reports' hostCores differ. Any other bench fails.
 */
GuardOutcome guardReport(const Json &fresh, const Json &committed);

} // namespace hastm

#endif // HASTM_HARNESS_REPORT_CHECK_HH
