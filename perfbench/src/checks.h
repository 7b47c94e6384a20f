// Correctness checks of the perfbench workloads. Each check is a pure
// function over rows read back from the engine and over what the harness
// itself recorded (acknowledged transactions, written values), so the
// self-test can feed it tampered inputs.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Row = std::vector<int64_t>;

/// Findings of a check run; empty means every check passed.
struct Findings {
  std::vector<std::string> errors;
  void Add(std::string e) {
    if (errors.size() < 20) errors.push_back(std::move(e));
    ++total;
  }
  uint64_t total = 0;
  bool ok() const { return total == 0; }
};

// --- TPC-C ----------------------------------------------------------------

/// Key layout of the TPC-C-style schema. All money is integer cents.
struct TpccShape {
  int64_t warehouses = 6;
  int64_t districts = 10;           // per warehouse
  int64_t customers = 100;          // per district
  int64_t items = 10000;
  int64_t initial_orders = 10;      // per district, all undelivered
  int64_t initial_balance = 0;      // cents, every customer

  int64_t DistrictKey(int64_t w, int64_t d) const { return w * districts + d; }
  int64_t CustomerKey(int64_t w, int64_t d, int64_t c) const {
    return DistrictKey(w, d) * customers + c;
  }
  int64_t StockKey(int64_t w, int64_t i) const { return w * items + i; }
  static int64_t OrderKey(int64_t d_key, int64_t o_id) {
    return (d_key << 24) | o_id;
  }
  static int64_t OrderDistrict(int64_t o_key) { return o_key >> 24; }
  static int64_t OrderId(int64_t o_key) { return o_key & 0xFFFFFF; }
  static int64_t LineKey(int64_t o_key, int64_t line) {
    return (o_key << 4) | line;
  }
  static int64_t LineOrder(int64_t ol_key) { return ol_key >> 4; }
  int64_t CustomerWarehouse(int64_t c_key) const {
    return c_key / customers / districts;
  }
};

/// Visible rows of every TPC-C table after restart. Column order:
///   warehouse  {w_id, ytd}
///   district   {d_key, next_o_id, ytd}
///   customer   {c_key, balance, payment_cnt, delivery_cnt}
///   stock      {s_key, quantity, ytd, order_cnt}
///   orders     {o_key, c_key, ol_cnt, carrier}
///   new_order  {o_key}
///   order_line {ol_key, i_id, quantity, amount}
///   history    {h_key, c_key, amount}
struct TpccState {
  std::vector<Row> warehouse, district, customer, stock, orders, new_order,
      order_line, history;
};

/// A transaction acknowledged (commit returned OK) before the kill.
struct TpccAck {
  enum Kind : int64_t { kNewOrder = 1, kPayment = 2, kDelivery = 3 };
  int64_t kind = 0;
  int64_t a = 0;  // NewOrder: o_key    Payment: h_key   Delivery: o_key
  int64_t b = 0;  // NewOrder: c_key    Payment: c_key   Delivery: carrier
  int64_t c = 0;  // NewOrder: ol_cnt   Payment: amount
  int64_t d = 0;  // NewOrder: sum of line amounts
};

/// Every check on a recovered TPC-C database:
///  - each key has exactly one live version, in every table;
///  - money is conserved per warehouse: the change in W_YTD equals the
///    sum of the changes in D_YTD, and customer balances plus history
///    amounts, less what Delivery credited, equal the initial balances;
///  - per district the advance of next_o_id equals the number of new
///    orders, every order has its 5..15 lines, and an order is pending
///    (carrier 0) exactly when its new_order row exists;
///  - every acknowledged transaction is present with the values written.
Findings CheckTpcc(const TpccShape& shape, const TpccState& state,
                   const std::vector<TpccAck>& acks);

// --- Key-value ----------------------------------------------------------------

/// A range scan [lo, hi] over the dense key space must return exactly
/// hi - lo + 1 rows, each key in range, none twice. `keys` is the k
/// column of the returned rows.
void CheckRangeScan(int64_t lo, int64_t hi, const std::vector<int64_t>& keys,
                    Findings* findings);

/// What the client knows about one key's value at the kill.
struct KvExpect {
  int64_t acked = 0;            // last acknowledged value (initially loaded)
  int64_t inflight = 0;         // value of a write in flight at the kill
  bool has_inflight = false;
};

/// Every key 0..expect.size()-1 has exactly one live version, holding its
/// last acknowledged value or the value of the write in flight at the
/// kill. `rows` holds {k, v} of every visible row.
void CheckKvValues(const std::vector<KvExpect>& expect,
                   const std::vector<Row>& rows, Findings* findings);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
