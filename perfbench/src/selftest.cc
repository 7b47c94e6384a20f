// Self-test of the perfbench harness: its arithmetic (percentiles,
// medians, span self time) against hand-computed values, and each
// correctness check against a tampered input it must reject.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + " (got " + std::to_string(got) + ", want " +
             std::to_string(want) + ")");
}

bool Mentions(const perfbench::Findings& f, const std::string& needle) {
  for (const std::string& e : f.errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

void TestPercentiles() {
  std::vector<double> ten = {7, 3, 10, 1, 5, 9, 2, 8, 6, 4};
  // rank = p/100 * (n-1): p50 -> 4.5 -> between 5 and 6.
  ExpectNear(perfbench::Percentile(ten, 50), 5.5, "p50 of 1..10");
  // p99 -> rank 8.91 -> 9 + 0.91 * (10 - 9).
  ExpectNear(perfbench::Percentile(ten, 99), 9.91, "p99 of 1..10");
  ExpectNear(perfbench::Percentile(ten, 0), 1, "p0 is the minimum");
  ExpectNear(perfbench::Percentile(ten, 100), 10, "p100 is the maximum");
  std::vector<double> one = {42};
  ExpectNear(perfbench::Percentile(one, 99), 42, "percentile of one sample");
  std::vector<double> none;
  ExpectNear(perfbench::Percentile(none, 50), 0, "percentile of no samples");
  ExpectNear(perfbench::Median({5, 1, 3}), 3, "median of an odd count");
  ExpectNear(perfbench::Median({4, 1, 3, 2}), 2.5, "median of an even count");

  // Three rounds; each metric is the median over rounds.
  std::vector<perfbench::Round> rounds(3);
  const double rates[3] = {100, 300, 200};  // ops per second
  for (int r = 0; r < 3; ++r) {
    rounds[r].ops = static_cast<uint64_t>(rates[r]);
    rounds[r].start_ns = 0;
    rounds[r].end_ns = 1000000000;
    for (int i = 1; i <= 101; ++i) {
      rounds[r].lat.write_us.push_back(i * (r + 1));
      rounds[r].lat.read_us.push_back(i);
    }
  }
  const auto summary = perfbench::SummarizeRounds(rounds);
  ExpectNear(summary[0].second, 200, "ops_per_s is the median round rate");
  // Round r's write p50 is 51 * (r + 1); the median round is r = 1.
  ExpectNear(summary[1].second, 102, "write_p50 is the median of rounds");
  ExpectNear(summary[4].second, 100, "read_p99 of 1..101 is 100");
}

void TestSelfTime() {
  using perfbench::SelfTimeNs;
  ExpectNear(SelfTimeNs({0, 100}, {}), 100, "self time without children");
  ExpectNear(SelfTimeNs({0, 100}, {{10, 30}, {60, 70}}), 70,
             "self time minus disjoint children");
  // Overlapping children cover [10, 50] once, not 20 + 30 times.
  ExpectNear(SelfTimeNs({0, 100}, {{20, 50}, {10, 30}}), 60,
             "self time minus overlapping children");
  ExpectNear(SelfTimeNs({0, 100}, {{10, 50}, {20, 30}}), 60,
             "a child inside a sibling counts once");
  ExpectNear(SelfTimeNs({0, 100}, {{90, 130}, {0, 5}}), 85,
             "children are clipped to the parent");

  // Nested spans: op [0,100] > call [10,50] > inner [20,30]; a second
  // call [40,80] overlaps the first. Self time uses direct children only.
  std::vector<perfbench::Span> spans(4);
  spans[0] = {1, -1, 0, 0, 100};
  spans[1] = {1, 0, 1, 10, 50};
  spans[2] = {1, 1, 2, 20, 30};
  spans[3] = {1, 0, 1, 40, 80};
  const auto self = perfbench::SelfTimes(spans);
  ExpectNear(self[0], 30, "op self time: 100 - union([10,50],[40,80])");
  ExpectNear(self[1], 30, "call self time: 40 - inner 10");
  ExpectNear(self[2], 10, "leaf self time is its duration");
  ExpectNear(self[3], 40, "overlapping sibling keeps its own duration");
}

/// A small recovered TPC-C state that passes every check: one warehouse,
/// two districts of two customers, one initial order per district, one
/// NewOrder, two Payments and one Delivery acknowledged.
struct Fixture {
  perfbench::TpccShape shape;
  perfbench::TpccState state;
  std::vector<perfbench::TpccAck> acks;

  Fixture() {
    using perfbench::TpccAck;
    using perfbench::TpccShape;
    shape.warehouses = 1;
    shape.districts = 2;
    shape.customers = 2;
    shape.initial_orders = 1;
    shape.initial_balance = -1000;
    const int64_t o01 = TpccShape::OrderKey(0, 1);
    const int64_t o02 = TpccShape::OrderKey(0, 2);
    const int64_t o11 = TpccShape::OrderKey(1, 1);
    state.warehouse = {{0, 500}};
    state.district = {{0, 3, 300}, {1, 2, 200}};
    // Payments: 300 by customer 0, 200 by customer 2. Delivery of o11
    // credited its 500 to customer 3.
    state.customer = {{0, -1300, 1, 0}, {1, -1000, 0, 0},
                      {2, -1200, 1, 0}, {3, -500, 0, 1}};
    state.history = {{1, 0, 300}, {2, 2, 200}};
    state.orders = {{o01, 1, 5, 0}, {o11, 3, 5, 7}, {o02, 0, 5, 0}};
    state.new_order = {{o01}, {o02}};
    for (int64_t l = 1; l <= 5; ++l) {
      state.order_line.push_back({TpccShape::LineKey(o01, l), l, 1, 100});
      state.order_line.push_back({TpccShape::LineKey(o11, l), l, 1, 100});
      state.order_line.push_back({TpccShape::LineKey(o02, l), l, 1, 10});
    }
    acks = {{TpccAck::kNewOrder, o02, 0, 5, 50},
            {TpccAck::kPayment, 1, 0, 300, 0},
            {TpccAck::kPayment, 2, 2, 200, 0},
            {TpccAck::kDelivery, o11, 7, 0, 0}};
  }
};

void TestTpccChecks() {
  {
    Fixture f;
    const auto findings = perfbench::CheckTpcc(f.shape, f.state, f.acks);
    Expect(findings.ok(), "consistent TPC-C state passes");
    for (const auto& e : findings.errors) std::printf("     %s\n", e.c_str());
  }
  {
    Fixture f;  // The second Payment's history row is gone.
    f.state.history.pop_back();
    const auto findings = perfbench::CheckTpcc(f.shape, f.state, f.acks);
    Expect(Mentions(findings, "acknowledged Payment 2"),
           "a dropped acknowledged transaction is reported");
  }
  {
    Fixture f;  // The NewOrder's order row is gone (with its new_order).
    f.state.orders.pop_back();
    f.state.new_order.pop_back();
    const auto findings = perfbench::CheckTpcc(f.shape, f.state, f.acks);
    Expect(Mentions(findings, "acknowledged NewOrder"),
           "a dropped acknowledged NewOrder is reported");
  }
  {
    Fixture f;
    f.state.warehouse[0][1] += 1;
    const auto findings = perfbench::CheckTpcc(f.shape, f.state, f.acks);
    Expect(Mentions(findings, "W_YTD 501"),
           "a warehouse YTD off by one cent is reported");
  }
  {
    Fixture f;
    f.state.customer.push_back(f.state.customer[1]);
    const auto findings = perfbench::CheckTpcc(f.shape, f.state, f.acks);
    Expect(Mentions(findings, "customer key 1 has more than one live version"),
           "a key with two live versions is reported");
  }
  {
    Fixture f;
    f.state.district[0][1] += 1;
    const auto findings = perfbench::CheckTpcc(f.shape, f.state, f.acks);
    Expect(Mentions(findings, "next_o_id advanced 2 but 1 orders exist"),
           "a next_o_id advance without its order is reported");
  }
  {
    Fixture f;
    f.state.order_line.pop_back();
    const auto findings = perfbench::CheckTpcc(f.shape, f.state, f.acks);
    Expect(Mentions(findings, "with 4 order lines"),
           "an order missing a line is reported");
  }
}

void TestKvChecks() {
  std::vector<int64_t> keys;
  for (int64_t k = 10; k <= 19; ++k) keys.push_back(k);
  {
    perfbench::Findings f;
    perfbench::CheckRangeScan(10, 19, keys, &f);
    Expect(f.ok(), "a complete range scan passes");
  }
  {
    perfbench::Findings f;
    std::vector<int64_t> short_by_one(keys.begin(), keys.end() - 1);
    perfbench::CheckRangeScan(10, 19, short_by_one, &f);
    Expect(!f.ok(), "a range scan one row short is reported");
  }
  {
    perfbench::Findings f;
    std::vector<int64_t> long_by_one = keys;
    long_by_one.push_back(20);
    perfbench::CheckRangeScan(10, 19, long_by_one, &f);
    Expect(!f.ok(), "a range scan one row long is reported");
  }
  {
    perfbench::Findings f;
    std::vector<int64_t> shifted = keys;
    shifted.back() = 20;
    perfbench::CheckRangeScan(10, 19, shifted, &f);
    Expect(!f.ok(), "a range scan with an out-of-range row is reported");
  }
  {
    perfbench::Findings f;
    std::vector<int64_t> twice = keys;
    twice.back() = 18;
    perfbench::CheckRangeScan(10, 19, twice, &f);
    Expect(!f.ok(), "a range scan with a key twice is reported");
  }

  std::vector<perfbench::KvExpect> expect(3);
  expect[0].acked = 5;
  expect[1].acked = 6;
  expect[2].acked = 7;
  expect[2].inflight = 70;
  expect[2].has_inflight = true;
  {
    perfbench::Findings f;
    perfbench::CheckKvValues(expect, {{0, 5}, {1, 6}, {2, 70}}, &f);
    Expect(f.ok(), "acknowledged and in-flight values pass");
  }
  {
    perfbench::Findings f;
    perfbench::CheckKvValues(expect, {{0, 5}, {1, 6}, {1, 6}, {2, 7}}, &f);
    Expect(Mentions(f, "key 1 has 2 live versions"),
           "a key with two live versions is reported");
  }
  {
    perfbench::Findings f;
    perfbench::CheckKvValues(expect, {{0, 4}, {1, 6}, {2, 7}}, &f);
    Expect(Mentions(f, "key 0 holds 4"), "a lost acknowledged write is reported");
  }
  {
    perfbench::Findings f;
    perfbench::CheckKvValues(expect, {{0, 5}, {2, 7}}, &f);
    Expect(Mentions(f, "key 1 has 0 live versions"), "a lost key is reported");
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestTpccChecks();
  TestKvChecks();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
