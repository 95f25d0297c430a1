/**
 * @file
 * WorkerPool tests, on host threads only (no simulator fibers, so the
 * whole binary runs under TSan).
 *
 * The ExecFns here are plain functions of the request, so every
 * collected outcome can be checked against the request its ticket
 * was issued for. Blocking cases are driven with an atomic gate the
 * ExecFn spins on: a worker held at the gate keeps its job, so the
 * channel fills deterministically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "service/worker_pool.hh"

using namespace hastm;

namespace {

/** The outcome every test's ExecFn derives from @p req. */
ExecOutcome
outcomeFor(const ServiceRequest &req)
{
    ExecOutcome o;
    o.opResult = req.key % 3 == 0;
    o.commits = req.key * 2 + 1;
    o.aborts = req.key % 5;
    o.commitStamp = req.seq;
    return o;
}

ServiceRequest
requestFor(std::uint64_t i)
{
    ServiceRequest r;
    r.seq = i;
    r.key = i * 7 + 3;
    r.value = i;
    return r;
}

void
expectMatches(const ExecOutcome &o, std::uint64_t i)
{
    ExecOutcome want = outcomeFor(requestFor(i));
    ASSERT_EQ(o.opResult, want.opResult) << "request " << i;
    ASSERT_EQ(o.commits, want.commits) << "request " << i;
    ASSERT_EQ(o.aborts, want.aborts) << "request " << i;
    ASSERT_EQ(o.commitStamp, want.commitStamp) << "request " << i;
}

/** Poll @p pred for up to 10 s. */
template <typename Pred>
bool
eventually(Pred pred)
{
    auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > limit)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** Spin (yielding) until @p gate opens. */
void
waitFor(const std::atomic<bool> &gate)
{
    while (!gate.load())
        std::this_thread::yield();
}

} // namespace

TEST(WorkerPool, OneWorkerRunsRequestsFifoInAdmissionOrder)
{
    std::vector<std::uint64_t> order;  // only the one worker appends
    WorkerPool pool(1, [&](unsigned w, const ServiceRequest &req) {
        EXPECT_EQ(w, 0u);
        order.push_back(req.seq);
        return outcomeFor(req);
    });
    std::deque<std::uint64_t> tickets;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        tickets.push_back(pool.submit(requestFor(i)));
        if (tickets.size() > 8) {  // collect with some left outstanding
            expectMatches(pool.collect(tickets.front()), i - 8);
            tickets.pop_front();
        }
    }
    for (std::uint64_t i = 1000 - tickets.size(); i < 1000; ++i) {
        expectMatches(pool.collect(tickets.front()), i);
        tickets.pop_front();
    }
    pool.stop();
    ASSERT_EQ(order.size(), 1000u);
    for (std::uint64_t i = 0; i < order.size(); ++i)
        ASSERT_EQ(order[i], i);
}

TEST(WorkerPool, TenThousandOutstandingTicketsCollectInReverse)
{
    // Workers never wait for the producer to collect: 10 000 results
    // sit uncollected behind a 4-slot channel.
    constexpr std::uint64_t kN = 10000;
    WorkerPool pool(2, [](unsigned, const ServiceRequest &req) {
        return outcomeFor(req);
    });
    std::vector<std::uint64_t> tickets;
    for (std::uint64_t i = 0; i < kN; ++i)
        tickets.push_back(pool.submit(requestFor(i)));
    for (std::uint64_t i = kN; i-- > 0;)
        expectMatches(pool.collect(tickets[i]), i);
    pool.stop();
    std::uint64_t executed = 0;
    for (const PoolWorkerStats &s : pool.workerStats())
        executed += s.executed;
    EXPECT_EQ(executed, kN);
}

TEST(WorkerPool, SubmitBlocksOnAFullChannelUntilTheGateReleases)
{
    std::atomic<bool> gate{false}, opened{false};
    std::atomic<unsigned> started{0};
    WorkerPool pool(1, [&](unsigned, const ServiceRequest &req) {
        started.fetch_add(1);
        waitFor(gate);
        return outcomeFor(req);
    });
    std::vector<std::uint64_t> tickets;
    tickets.push_back(pool.submit(requestFor(0)));
    ASSERT_TRUE(eventually([&] { return started.load() == 1; }));
    // The worker holds request 0 at the gate; the 2-slot channel
    // takes two more, and the next submit must wait for the gate.
    tickets.push_back(pool.submit(requestFor(1)));
    tickets.push_back(pool.submit(requestFor(2)));

    std::thread opener([&] {
        // The blocked producer spins its budget, then parks.
        EXPECT_TRUE(eventually([&] { return pool.waitersForTest() == 1; }));
        opened.store(true);
        gate.store(true);
    });
    tickets.push_back(pool.submit(requestFor(3)));
    EXPECT_TRUE(opened.load()) << "submit returned with the channel full";
    for (std::uint64_t i = 0; i < tickets.size(); ++i)
        expectMatches(pool.collect(tickets[i]), i);
    opener.join();
    pool.stop();
    EXPECT_EQ(started.load(), 4u);
}

TEST(WorkerPool, CollectParksUntilASlowRequestLands)
{
    std::atomic<bool> gate{false}, started{false};
    WorkerPool pool(1, [&](unsigned, const ServiceRequest &req) {
        started.store(true);
        waitFor(gate);
        return outcomeFor(req);
    });
    std::uint64_t t = pool.submit(requestFor(5));
    std::thread opener([&] {
        // Once the worker spins in its ExecFn, the one parked thread
        // is the producer inside collect(); the worker's ready store
        // must wake it.
        EXPECT_TRUE(eventually([&] { return started.load(); }));
        EXPECT_TRUE(eventually([&] { return pool.waitersForTest() == 1; }));
        gate.store(true);
    });
    expectMatches(pool.collect(t), 5);
    opener.join();
}

TEST(WorkerPool, StopRunsEveryQueuedJobAndIsIdempotent)
{
    std::atomic<bool> gate{false};
    std::atomic<std::uint64_t> ran{0};
    WorkerPool pool(2, [&](unsigned, const ServiceRequest &req) {
        waitFor(gate);
        ran.fetch_add(1);
        return outcomeFor(req);
    });
    // Two requests held at the gate, four queued behind them.
    std::vector<std::uint64_t> tickets;
    for (std::uint64_t i = 0; i < 6; ++i)
        tickets.push_back(pool.submit(requestFor(i)));
    std::thread opener([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate.store(true);
    });
    pool.stop();  // nothing collected and the gate shut: stop waits
    opener.join();
    EXPECT_TRUE(pool.stopped());
    EXPECT_EQ(ran.load(), 6u);
    pool.stop();
    EXPECT_TRUE(pool.stopped());
    // Results outlive the workers.
    for (std::uint64_t i = 0; i < tickets.size(); ++i)
        expectMatches(pool.collect(tickets[i]), i);
    EXPECT_GT(pool.wallHostNs(), 0u);
}

TEST(WorkerPool, PerWorkerCountsSumToTheRequestsSubmitted)
{
    constexpr std::uint64_t kN = 5000;
    WorkerPool pool(3, [](unsigned, const ServiceRequest &req) {
        return outcomeFor(req);
    });
    std::uint64_t commits = 0, aborts = 0;
    std::deque<std::pair<std::uint64_t, std::uint64_t>> pending;
    for (std::uint64_t i = 0; i < kN; ++i) {
        pending.push_back({pool.submit(requestFor(i)), i});
        commits += outcomeFor(requestFor(i)).commits;
        aborts += outcomeFor(requestFor(i)).aborts;
        if (pending.size() == 16) {
            expectMatches(pool.collect(pending.front().first),
                          pending.front().second);
            pending.pop_front();
        }
    }
    for (auto [ticket, i] : pending)
        expectMatches(pool.collect(ticket), i);
    pool.stop();
    ASSERT_EQ(pool.workerStats().size(), 3u);
    std::uint64_t executed = 0, c = 0, a = 0;
    for (const PoolWorkerStats &s : pool.workerStats()) {
        executed += s.executed;
        c += s.commits;
        a += s.aborts;
    }
    EXPECT_EQ(executed, kN);
    EXPECT_EQ(c, commits);
    EXPECT_EQ(a, aborts);
}

TEST(WorkerPool, IdlePoolParksAndWakesForWork)
{
    WorkerPool pool(2, [](unsigned, const ServiceRequest &req) {
        return outcomeFor(req);
    });
    // Both workers find the channel empty, spin, then park.
    ASSERT_TRUE(eventually([&] { return pool.waitersForTest() == 2; }));
    std::uint64_t t = pool.submit(requestFor(7));
    expectMatches(pool.collect(t), 7);
    ASSERT_TRUE(eventually([&] { return pool.waitersForTest() == 2; }));
    pool.stop();  // the stop markers wake the parked workers
    EXPECT_EQ(pool.waitersForTest(), 0u);
}

TEST(WorkerPool, FourWorkersMatchEveryResultUnderLoad)
{
    constexpr std::uint64_t kN = 200000;
    std::vector<std::uint64_t> perWorker(4);  // worker w writes slot w
    WorkerPool pool(4, [&](unsigned w, const ServiceRequest &req) {
        ++perWorker.at(w);
        return outcomeFor(req);
    });
    // Collect in a scrambled order: oldest first most of the time,
    // newest first every third request.
    std::deque<std::pair<std::uint64_t, std::uint64_t>> pending;
    for (std::uint64_t i = 0; i < kN; ++i) {
        pending.push_back({pool.submit(requestFor(i)), i});
        if (pending.size() < 32)
            continue;
        auto &p = i % 3 == 0 ? pending.back() : pending.front();
        expectMatches(pool.collect(p.first), p.second);
        if (i % 3 == 0)
            pending.pop_back();
        else
            pending.pop_front();
    }
    for (auto [ticket, i] : pending)
        expectMatches(pool.collect(ticket), i);
    pool.stop();
    std::uint64_t executed = 0;
    for (unsigned w = 0; w < 4; ++w) {
        EXPECT_EQ(pool.workerStats()[w].executed, perWorker[w]);
        executed += perWorker[w];
    }
    EXPECT_EQ(executed, kN);
}
