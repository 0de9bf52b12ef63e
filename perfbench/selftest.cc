/**
 * @file
 * Self-test of the benchmark helpers (harness.hh): the tail-percentile
 * rule, the backlog detector against a deliberately slow server,
 * request-stream determinism and exact mix shares, the stall-robust
 * p99, the max-rate fit and span-total extraction (metric names are
 * checked by run.py --selftest). Exit code 0 when every check holds.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what);
    }
}

void
testPercentileRule()
{
    using namespace gcm::perfbench;
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    expect(percentile(v, 50.0) == 50.0, "nearest-rank median of 1..100");
    expect(percentile(v, 99.0) == 99.0, "nearest-rank p99 of 1..100");
    expect(percentile(v, 100.0) == 100.0, "p100 is the maximum");
    expect(median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even-count median");
    expect(std::isnan(percentile({}, 50.0)), "empty sample is NaN");

    expect(samplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
    expect(samplesBeyond(999, 99.0) == 9, "999 samples: 9 beyond p99");
    expect(highestReportablePercentile(10000) == 99.9,
           "10000 samples report p99.9");
    expect(highestReportablePercentile(1000) == 99.0,
           "1000 samples report p99");
    expect(highestReportablePercentile(999) == 95.0,
           "999 samples fall back to p95");
    expect(highestReportablePercentile(20) == 50.0,
           "20 samples report the median only");
    expect(highestReportablePercentile(19) == 0.0,
           "19 samples report no tail");

    const TailSummary s = summarize(v);
    expect(s.count == 100 && s.median == 50.5 && s.tail_percentile == 90.0
               && s.tail == 90.0,
           "summary of 1..100: median 50.5, p90 = 90 with 10 beyond");
}

void
testBacklogDetector()
{
    using namespace gcm::perfbench;
    std::vector<double> flat(200, 0.1);
    expect(!backlogGrowing(flat, 0.5), "flat delays are no backlog");
    std::vector<double> ramp;
    for (int i = 0; i < 200; ++i)
        ramp.push_back(0.05 * i);
    expect(backlogGrowing(ramp, 0.5), "a rising ramp is a backlog");
    std::vector<double> spike(200, 0.1);
    spike[150] = 50.0;
    expect(!backlogGrowing(spike, 0.5), "one late request is no backlog");
    expect(!backlogGrowing(std::vector<double>(19, 9.0), 0.5),
           "short streams never count");

    // Open loop against a server slower than the offered rate: the
    // generator keeps releasing on schedule, the queue grows, and the
    // detector must flag it; at a low rate it must not.
    StreamSpec spec;
    spec.networks = {"net"};
    spec.devices = {"dev"};
    spec.signatures = {{1.0}};
    const auto slow = [](const std::vector<std::size_t> &batch,
                         std::vector<bool> &ok) {
        const auto until = std::chrono::steady_clock::now()
                           + std::chrono::microseconds(200);
        while (std::chrono::steady_clock::now() < until) {
        }
        ok.assign(batch.size(), true);
    };
    std::vector<bool> ok;
    const auto over = makeRequestStream(spec, 40000.0, 0.1, 7);
    const OpenLoopTrace t_over = runOpenLoop(over, 1, slow, ok);
    expect(backlogGrowing(t_over.queue_wait_ms, 5.0),
           "overloaded open loop shows a growing backlog");
    const auto under = makeRequestStream(spec, 500.0, 0.2, 7);
    const OpenLoopTrace t_under = runOpenLoop(under, 1, slow, ok);
    expect(!backlogGrowing(t_under.queue_wait_ms, 5.0),
           "lightly loaded open loop shows no backlog");
    bool timed_from_due = true;
    for (std::size_t k = 0; k < t_under.latency_ms.size(); ++k)
        timed_from_due = timed_from_due && t_under.latency_ms[k] >= 0.2
                         && t_under.queue_wait_ms[k]
                                >= t_under.gen_lateness_ms[k]
                         && t_under.gen_lateness_ms[k] >= 0.0;
    expect(timed_from_due, "latency counts from the due time");
}

void
testBlockP99()
{
    using namespace gcm::perfbench;
    // Ten streams of 500 samples at 1 ms; one of them stalled at 50 ms.
    std::vector<std::vector<double>> streams(10,
                                             std::vector<double>(500, 1.0));
    streams[3].assign(500, 50.0);
    std::vector<double> pooled;
    for (const auto &s : streams)
        pooled.insert(pooled.end(), s.begin(), s.end());
    expect(percentile(pooled, 99.0) == 50.0,
           "a pooled p99 is decided by one stalled stream");
    expect(medianBlockP99(streams) == 1.0, "the median block p99 is not");
    expect(std::isnan(medianBlockP99({std::vector<double>(999, 1.0)})),
           "too few samples for ten beyond the p99 give NaN");
    // 2500 samples: blocks of 1000 and 1500 (the remainder joins).
    std::vector<std::vector<double>> uneven(5, std::vector<double>(500, 2.0));
    uneven[4].assign(500, 3.0);
    expect(medianBlockP99(uneven) == 2.5, "remainder joins the last block");
}

void
testMaxRate()
{
    using namespace gcm::perfbench;
    const std::vector<double> fit =
        isotonicFit({1.0, 3.0, 2.0, 4.0}, {1.0, 1.0, 1.0, 2.0});
    expect(fit == std::vector<double>({1.0, 2.5, 2.5, 4.0}),
           "isotonic fit pools an adjacent violator");
    expect(isotonicFit({5.0, 1.0}, {1.0, 3.0})
               == std::vector<double>({2.0, 2.0}),
           "isotonic fit weights the pooled mean");

    const std::vector<RungPool> rungs = {
        {10000, 0.5, false, 1}, {20000, 1.0, false, 1},
        {40000, 10.0, false, 1}};
    // log p99 rises 0 -> log 10 over one doubling; 5 ms sits at
    // t = log 5 / log 10 of the way.
    expect(std::abs(maxRateMeeting(rungs, 5.0)
                    - 20000.0 * std::pow(2.0, std::log(5.0) / std::log(10.0)))
               < 1e-6,
           "max rate interpolates log rate in log p99");
    expect(maxRateMeeting({{10000, 6.0, false, 1}}, 5.0) == 0.0,
           "a first rung over the limit gives 0");
    expect(maxRateMeeting({{10000, 1.0, false, 1}, {20000, 2.0, false, 1}},
                          5.0)
               == 20000.0,
           "all rungs meeting gives the last rate");
    const double backlog = maxRateMeeting(
        {{10000, 1.0, false, 1}, {20000, 2.0, true, 1}}, 5.0);
    expect(backlog > 10000.0 && backlog < 20000.0,
           "a backlog counts as missing the limit");
    // One lucky rung above a miss, or one stalled rung below a meet,
    // does not move the answer past its neighbours.
    const double lucky = maxRateMeeting(
        {{10000, 1.0, false, 10}, {20000, 2.0, false, 10},
         {40000, 8.0, false, 10}, {80000, 4.0, false, 1},
         {160000, 50.0, false, 10}},
        5.0);
    expect(lucky > 20000.0 && lucky < 40000.0,
           "a lucky rung above a miss is pooled away");
    const double stalled = maxRateMeeting(
        {{10000, 9.0, false, 1}, {20000, 1.0, false, 10},
         {40000, 2.0, false, 10}, {80000, 50.0, false, 10}},
        5.0);
    expect(stalled > 40000.0, "a stalled low rung is pooled away");
}

void
testStreamDeterminism()
{
    using namespace gcm::perfbench;
    StreamSpec spec;
    spec.networks = {"mobilenet_v2_1.0", "resnet50"};
    spec.devices = {"A", "B", "C"};
    spec.signatures = {{1.5, 2.0}, {3.0, 4.25}, {0.5, 0.75}};
    spec.inline_graphs = {"gcm-graph v1\nname g0\n", "gcm-graph v1\nname g1\n",
                          "gcm-graph v1\nname g2\n"};
    const auto a = makeRequestStream(spec, 20000.0, 0.1, 42);
    const auto b = makeRequestStream(spec, 20000.0, 0.1, 42);
    const auto c = makeRequestStream(spec, 20000.0, 0.1, 43);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = a[i].line == b[i].line && a[i].due_s == b[i].due_s;
    expect(same, "same seed gives the same request stream");
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].line != c[i].line;
    expect(differs, "another seed gives another stream");
    expect(a.size() > 1800 && a.size() < 2200,
           "Poisson count near rate x duration");
    std::size_t named = 0, raw = 0, inline_graph = 0;
    bool ordered = true, exact = true, each_once = true;
    std::vector<std::string> pass;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const gcm::json::Value req = gcm::json::parseJson(a[i].line);
        inline_graph += req.has("graph") ? 1 : 0;
        raw += req.has("signature") ? 1 : 0;
        named += req.has("network") && req.has("device") ? 1 : 0;
        ordered = ordered && (i == 0 || a[i - 1].due_s <= a[i].due_s);
        if ((i + 1) % kMixBlock == 0)
            exact = exact
                    && inline_graph == (i + 1) / kMixBlock * kInlinePerBlock
                    && raw == (i + 1) / kMixBlock * kRawPerBlock;
        if (req.has("graph")) {
            for (const std::string &g : pass)
                each_once = each_once && g != req.at("graph").str;
            pass.push_back(req.at("graph").str);
            if (pass.size() == spec.inline_graphs.size())
                pass.clear();
        }
    }
    expect(ordered, "due times ascend");
    expect(named > 0 && raw > 0 && inline_graph > 0
               && named + raw + inline_graph == a.size(),
           "every part of the mix appears, each request in one part");
    expect(exact, "every block of the mix holds its exact shares");
    expect(each_once, "inline requests use each pool graph once per pass");
}

void
testSpanTotals()
{
    using namespace gcm::perfbench;
    const gcm::json::Value rep = gcm::json::parseJson(R"({
      "schema": "gcm-perf-report/v1",
      "counters": {"pool.chunks": 12},
      "gauges": {},
      "histograms": {"pool.queue_wait_ms": {"bounds_ms": [1], "counts": [1, 0],
                     "count": 1, "sum_ms": 0.25}},
      "spans": [
        {"name": "gbt.train", "count": 1, "total_ms": 10, "children": [
          {"name": "tree.split", "count": 2, "total_ms": 4, "children": []},
          {"name": "gbt.train", "count": 1, "total_ms": 3, "children": []}
        ]},
        {"name": "fleet.loop", "count": 1, "total_ms": 20, "children": [
          {"name": "gbt.train", "count": 1, "total_ms": 5, "children": [
            {"name": "tree.split", "count": 1, "total_ms": 1, "children": []}
          ]}
        ]}
      ]})");
    expect(spanTotalMs(rep, "gbt.train") == 15.0,
           "outermost gbt.train spans sum, nested ones do not");
    expect(spanTotalMs(rep, "tree.split") == 5.0,
           "spans found at any depth");
    expect(spanTotalMs(rep, "absent") == 0.0, "absent span totals 0");
    expect(counterOf(rep, "pool.chunks") == 12.0, "counter read");
    expect(histogramSumMs(rep, "pool.queue_wait_ms") == 0.25,
           "histogram sum read");
}

} // namespace

int
main()
{
    testPercentileRule();
    testBacklogDetector();
    testBlockP99();
    testMaxRate();
    testStreamDeterminism();
    testSpanTotals();
    std::printf("perfbench selftest: %s\n",
                failures == 0 ? "all checks passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}
