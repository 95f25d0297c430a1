#include "harness/runner.hh"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include "sim/logging.hh"

namespace hastm {

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : jobs_(jobs ? jobs : 1)
{
}

ExperimentRunner::ExperimentRunner(int argc, char **argv)
    : ExperimentRunner(resolveJobs(argc, argv))
{
}

unsigned
ExperimentRunner::resolveJobs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--jobs")
            continue;
        if (i + 1 >= argc)
            fatal("--jobs requires an argument");
        const char *s = argv[i + 1];
        char *end = nullptr;
        long v = std::strtol(s, &end, 10);
        if (!end || *end != '\0' || v < 1 || v > 1024)
            fatal("--jobs: job count '%s' is not in [1, 1024]", s);
        return static_cast<unsigned>(v);
    }
    return 1;
}

bool
ExperimentRunner::sequentialJobsOk(int argc, char **argv,
                                   std::string *message)
{
    HASTM_ASSERT(message != nullptr);
    message->clear();
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--jobs")
            continue;
        if (i + 1 >= argc) {
            *message = "--jobs requires an argument";
            return false;
        }
        std::string arg = argv[i + 1];
        char *end = nullptr;
        long v = std::strtol(arg.c_str(), &end, 10);
        if (!end || *end != '\0' || v < 1 || v > 1024) {
            *message =
                "--jobs: job count '" + arg + "' is not in [1, 1024]";
            return false;
        }
        if (v != 1) {
            *message = "--jobs " + arg +
                       ": this bench's host timing loops must run "
                       "sequentially; rerun without --jobs (or with "
                       "--jobs 1)";
            return false;
        }
        return true;
    }
    return true;
}

ExperimentRunner::Handle
ExperimentRunner::add(const ExperimentConfig &cfg)
{
    return add([cfg] { return runDataStructure(cfg); });
}

ExperimentRunner::Handle
ExperimentRunner::add(const MicroConfig &cfg)
{
    return add([cfg] { return runMicro(cfg); });
}

ExperimentRunner::Handle
ExperimentRunner::add(std::function<ExperimentResult()> fn)
{
    HASTM_ASSERT(fn != nullptr);
    tasks_.push_back(std::move(fn));
    return Handle{completed_ + tasks_.size() - 1};
}

void
ExperimentRunner::runAll()
{
    std::size_t base = completed_;
    std::size_t n = tasks_.size();
    results_.resize(base + n);

    if (jobs_ <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            results_[base + i] = tasks_[i]();
    } else {
        // Work-stealing by atomic ticket: each worker claims the next
        // unstarted task and writes into its pre-sized result slot,
        // so result order == enqueue order whatever finishes first.
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                results_[base + i] = tasks_[i]();
            }
        };
        std::size_t pool = std::min<std::size_t>(jobs_, n);
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (std::size_t t = 0; t < pool; ++t)
            threads.emplace_back(worker);
        for (auto &th : threads)
            th.join();
    }
    tasks_.clear();
    completed_ = base + n;
}

const ExperimentResult &
ExperimentRunner::result(Handle h) const
{
    HASTM_ASSERT(h.index < completed_);
    return results_[h.index];
}

} // namespace hastm
