// TPC-C-style workloads on the embedded engine (tpcc_nvm, tpcc_wal).
//
// The harness forks an engine process that creates and loads the
// database, merges every table, runs a fixed number of transactions on
// kThreads client threads and then keeps them running until the harness
// kills it with SIGKILL. The harness then reopens the database itself,
// times the restart and checks the recovered state against what it
// recorded. Every client thread owns its home warehouses and writes only
// their rows; reads may touch any warehouse (README: writer-owns-rows).
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "checks.h"
#include "core/database.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hyrise_nv::Result;
using hyrise_nv::Status;
using hyrise_nv::core::Database;
using hyrise_nv::core::DatabaseOptions;
using hyrise_nv::core::DurabilityMode;
using hyrise_nv::storage::ColumnDef;
using hyrise_nv::storage::DataType;
using hyrise_nv::storage::RowLocation;
using hyrise_nv::storage::Schema;
using hyrise_nv::storage::Table;
using hyrise_nv::storage::Value;
using hyrise_nv::txn::Transaction;

/// Client threads: one core of four stays free for the kernel and the
/// commit waiters; with four threads ops_per_s spread 12 % run to run.
constexpr int kThreads = 3;
/// Transactions per second of --seconds: the fixed amount of work.
constexpr uint64_t kTxnsPerSecond = 4000;
/// WAL mode: fdatasync every this many commits (see Options()).
constexpr uint32_t kWalSyncEvery = 1024;
/// How long the tail runs before the kill.
constexpr uint64_t kKillDelayMs = 20;
constexpr size_t kAckCapacity = size_t{1} << 17;
/// Kill-and-restart cycles per run; restart metrics are their medians.
constexpr int kNvmRestartCycles = 7;
constexpr int kWalRestartCycles = 3;
constexpr int kMaxRestartCycles = 7;
/// The measured work is split into rounds that all threads run together;
/// throughput and latency are the medians of the per-round values.
constexpr int kRounds = 5;
/// Cumulative mix shares in percent: NewOrder 52, Payment 36, OrderStatus
/// 6, Delivery 4, StockLevel 2. NewOrder holds the median of the write
/// latencies and OrderStatus that of the reads, so neither median sits
/// on the boundary between two transaction types.
constexpr uint64_t kMix[4] = {52, 88, 94, 98};

enum SpanName : uint16_t {
  kOpNewOrder,
  kOpPayment,
  kOpOrderStatus,
  kOpDelivery,
  kOpStockLevel,
  kTxnBegin,
  kTxnCommit,
  kTxnAbort,
  kCoreInsert,
  kCoreUpdate,
  kCoreDelete,
  kCoreScanEqual,
  kCoreScanRange,
  kRecoveryOpen,
  kRecoveryFirstQuery,
  kRecoveryDrain,
  kNumSpanNames,
};
const std::vector<std::string> kSpanNames = {
    "op.new_order",  "op.payment",       "op.order_status",
    "op.delivery",   "op.stock_level",   "txn.begin",
    "txn.commit",    "txn.abort",        "core.insert",
    "core.update",   "core.delete",      "core.scan_equal",
    "core.scan_range", "recovery.open",  "recovery.first_query",
    "recovery.drain"};

struct AckLog {
  std::atomic<uint64_t> count{0};
  TpccAck records[kAckCapacity];
};

/// What one restart process measured (CLOCK_MONOTONIC stamps).
struct RestartSample {
  std::atomic<int> state{0};  // 0 running, 1 recovered, 2 failed
  uint64_t open_start = 0, open_end = 0, first_end = 0, recovered_end = 0;
  double span_seconds[32] = {};
  char error[256] = {};
};

/// Memory shared with the engine process.
struct Shared {
  std::atomic<int> phase{0};  // 0 loading, 1 running, 2 measured, 3 failed
  std::atomic<uint64_t> setup_end_ns{0};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  char error[512] = {};
  SharedMetrics metrics;
  AckLog acks[kThreads];
  RestartSample restarts[kMaxRestartCycles];
};

enum Phase { kLoading = 0, kRunning = 1, kMeasured = 2, kFailed = 3 };

/// The tables of one partition: the rows of the warehouses one client
/// thread owns. Item is shared by all partitions and never written after
/// the load.
struct Tables {
  Table* warehouse = nullptr;
  Table* district = nullptr;
  Table* customer = nullptr;
  Table* item = nullptr;
  Table* stock = nullptr;
  Table* orders = nullptr;
  Table* new_order = nullptr;
  Table* order_line = nullptr;
  Table* history = nullptr;

  /// Partition tables by name suffix (item excluded).
  std::vector<std::pair<std::string, Table**>> Owned(int part) {
    const std::pair<const char*, Table**> slots[] = {
        {"warehouse", &warehouse}, {"district", &district},
        {"customer", &customer},   {"stock", &stock},
        {"orders", &orders},       {"new_order", &new_order},
        {"order_line", &order_line}, {"history", &history}};
    std::vector<std::pair<std::string, Table**>> out;
    for (const auto& [base, slot] : slots) {
      std::string name(base);
      name += '_';
      name += std::to_string(part);
      out.emplace_back(std::move(name), slot);
    }
    return out;
  }
};

/// Binds every partition's tables (and the shared item table).
Status BindTables(Database* db, std::vector<Tables>* parts) {
  parts->assign(kThreads, Tables());
  auto item = db->GetTable("item");
  if (!item.ok()) return item.status();
  for (int p = 0; p < kThreads; ++p) {
    (*parts)[p].item = *item;
    for (auto& [name, slot] : (*parts)[p].Owned(p)) {
      auto table = db->GetTable(name);
      if (!table.ok()) return table.status();
      *slot = *table;
    }
  }
  return Status::OK();
}

TpccShape Shape() {
  TpccShape shape;
  shape.initial_balance = -1000;
  return shape;
}

Row ToRow(const std::vector<Value>& values) {
  Row row;
  row.reserve(values.size());
  for (const Value& v : values) row.push_back(std::get<int64_t>(v));
  return row;
}

std::vector<Value> ToValues(const Row& row) {
  return std::vector<Value>(row.begin(), row.end());
}

DatabaseOptions Options(const std::string& dir, bool nvm) {
  DatabaseOptions options;
  options.mode = nvm ? DurabilityMode::kNvm : DurabilityMode::kWalDict;
  options.data_dir = dir;
  options.region_size = size_t{1} << 30;
  options.tracking = hyrise_nv::nvm::TrackingMode::kNone;
  options.nvm_latency = hyrise_nv::nvm::NvmLatencyModel::DefaultNvm();
  options.log_recovery = hyrise_nv::core::LogRecoveryPolicy::kServeOnDemand;
  // Every commit writes its log records to the file before it returns, so
  // a process crash loses nothing acknowledged; the fdatasync runs every
  // kWalSyncEvery commits. Syncing each commit group made throughput and
  // latency follow the shared disk's fsync latency (ops_per_s spread 62 %
  // over ten runs), which no change to the engine could be judged against.
  options.group_commit_every = kWalSyncEvery;
  return options;
}

Status CreateSchema(Database* db) {
  const std::vector<std::pair<std::string, std::vector<const char*>>> defs = {
      {"warehouse", {"w_id", "ytd"}},
      {"district", {"d_key", "next_o_id", "ytd"}},
      {"customer", {"c_key", "balance", "payment_cnt", "delivery_cnt"}},
      {"stock", {"s_key", "quantity", "ytd", "order_cnt"}},
      {"orders", {"o_key", "c_key", "ol_cnt", "carrier"}},
      {"new_order", {"o_key"}},
      {"order_line", {"ol_key", "i_id", "quantity", "amount"}},
      {"history", {"h_key", "c_key", "amount"}}};
  auto create = [db](const std::string& name,
                     const std::vector<const char*>& columns) -> Status {
    std::vector<ColumnDef> cols;
    for (const char* c : columns) cols.push_back({c, DataType::kInt64});
    auto schema = Schema::Make(cols);
    if (!schema.ok()) return schema.status();
    return db->CreateTable(name, *schema).status();
  };
  // Item is never written after the load, so a hash index is safe for
  // concurrent equality reads.
  HYRISE_NV_RETURN_NOT_OK(create("item", {"i_id", "price"}));
  HYRISE_NV_RETURN_NOT_OK(db->CreateIndex("item", 0));
  for (int p = 0; p < kThreads; ++p) {
    const std::string sfx = "_" + std::to_string(p);
    for (const auto& [name, columns] : defs) {
      HYRISE_NV_RETURN_NOT_OK(create(name + sfx, columns));
    }
    // Every other key column receives new delta dictionary values during
    // the run; its equality reads go through ordered indexes, which never
    // probe the dictionary hash.
    for (const char* name : {"warehouse", "district", "customer", "stock",
                             "orders", "new_order", "order_line"}) {
      HYRISE_NV_RETURN_NOT_OK(db->CreateOrderedIndex(name + sfx, 0));
    }
    HYRISE_NV_RETURN_NOT_OK(db->CreateOrderedIndex("orders" + sfx, 1));
  }
  return Status::OK();
}

std::vector<std::string> TableNames() {
  std::vector<std::string> names = {"item"};
  for (int p = 0; p < kThreads; ++p) {
    for (auto& [name, slot] : Tables().Owned(p)) names.push_back(name);
  }
  return names;
}

/// Loads the initial population in batched transactions.
Status Load(Database* db, const std::vector<Tables>& parts,
            const TpccShape& s) {
  auto tx = db->Begin();
  if (!tx.ok()) return tx.status();
  uint64_t in_batch = 0;
  auto insert = [&](Table* table, const Row& row) -> Status {
    auto loc = db->Insert(*tx, table, ToValues(row));
    if (!loc.ok()) return loc.status();
    if (++in_batch == 1024) {
      HYRISE_NV_RETURN_NOT_OK(db->Commit(*tx));
      tx = db->Begin();
      if (!tx.ok()) return tx.status();
      in_batch = 0;
    }
    return Status::OK();
  };
  for (int64_t i = 0; i < s.items; ++i) {
    HYRISE_NV_RETURN_NOT_OK(
        insert(parts[0].item, {i, 100 + (i * 7919) % 9900}));
  }
  for (int64_t w = 0; w < s.warehouses; ++w) {
    const Tables& t = parts[static_cast<size_t>(w % kThreads)];
    HYRISE_NV_RETURN_NOT_OK(insert(t.warehouse, {w, 0}));
    for (int64_t i = 0; i < s.items; ++i) {
      HYRISE_NV_RETURN_NOT_OK(
          insert(t.stock, {s.StockKey(w, i), 50 + (i + w) % 50, 0, 0}));
    }
    for (int64_t d = 0; d < s.districts; ++d) {
      const int64_t d_key = s.DistrictKey(w, d);
      HYRISE_NV_RETURN_NOT_OK(
          insert(t.district, {d_key, s.initial_orders + 1, 0}));
      for (int64_t c = 0; c < s.customers; ++c) {
        HYRISE_NV_RETURN_NOT_OK(insert(
            t.customer, {s.CustomerKey(w, d, c), s.initial_balance, 0, 0}));
      }
      for (int64_t o = 1; o <= s.initial_orders; ++o) {
        const int64_t o_key = TpccShape::OrderKey(d_key, o);
        const int64_t ol_cnt = 5 + (o % 11);
        HYRISE_NV_RETURN_NOT_OK(insert(
            t.orders, {o_key, s.CustomerKey(w, d, o % s.customers), ol_cnt,
                       0}));
        HYRISE_NV_RETURN_NOT_OK(insert(t.new_order, {o_key}));
        for (int64_t l = 1; l <= ol_cnt; ++l) {
          const int64_t item = (o * 31 + l * 17) % s.items;
          HYRISE_NV_RETURN_NOT_OK(
              insert(t.order_line, {TpccShape::LineKey(o_key, l), item, 5,
                                    500}));
        }
      }
    }
  }
  return db->Commit(*tx);
}

/// Outcome of one operation (all attempts).
struct Outcome {
  bool ok = true;
  bool write = false;
  uint32_t attempts = 0;
  std::string error;
};

/// One client thread: generates its transaction stream from the seed and
/// runs it against the engine, with spans around every engine call.
class Client {
 public:
  Client(Database* db, const Tables& t, const TpccShape& shape, int thread,
         uint64_t seed, AckLog* acks)
      : db_(db),
        t_(t),
        shape_(shape),
        thread_(thread),
        rng_(StreamSeed(seed, static_cast<uint64_t>(thread))),
        acks_(acks) {}

  /// Runs the next operation of the stream.
  Outcome RunNext(SpanLog* log) {
    log_ = log;
    const uint64_t roll = rng_.Uniform(100);
    if (roll < kMix[0]) return NewOrder();
    if (roll < kMix[1]) return Payment();
    if (roll < kMix[2]) return OrderStatus();
    if (roll < kMix[3]) return Delivery();
    return StockLevel();
  }

  std::atomic<uint64_t>* write_commits = nullptr;

 private:
  int64_t HomeWarehouse() {
    const int64_t per_thread = shape_.warehouses / kThreads;
    return thread_ + kThreads * static_cast<int64_t>(rng_.Uniform(
                                    static_cast<uint64_t>(per_thread)));
  }

  /// The one visible row with `column` == key.
  Result<std::pair<RowLocation, Row>> ReadOne(Transaction& tx, Table* table,
                                              size_t column, int64_t key) {
    Scoped span(*log_, kCoreScanEqual);
    auto rows =
        db_->ScanEqual(table, column, Value(key), tx.snapshot(), tx.tid());
    if (!rows.ok()) return rows.status();
    if (rows->size() != 1) {
      return Status::Corruption(table->name() + " key " +
                                std::to_string(key) + " has " +
                                std::to_string(rows->size()) +
                                " visible rows");
    }
    return std::make_pair(rows->front(), ToRow(table->GetRow(rows->front())));
  }

  /// Visible rows with lo <= column 0 <= hi, materialised.
  Result<std::vector<std::pair<RowLocation, Row>>> ReadRange(Transaction& tx,
                                                            Table* table,
                                                            int64_t lo,
                                                            int64_t hi) {
    Scoped span(*log_, kCoreScanRange);
    auto rows = db_->ScanRange(table, 0, Value(lo), Value(hi), tx.snapshot(),
                               tx.tid());
    if (!rows.ok()) return rows.status();
    std::vector<std::pair<RowLocation, Row>> out;
    out.reserve(rows->size());
    for (const RowLocation& loc : *rows) {
      out.emplace_back(loc, ToRow(table->GetRow(loc)));
    }
    return out;
  }

  Status Insert(Transaction& tx, Table* table, const Row& row) {
    Scoped span(*log_, kCoreInsert);
    return db_->Insert(tx, table, ToValues(row)).status();
  }

  Status Update(Transaction& tx, Table* table, RowLocation loc,
                const Row& row) {
    Scoped span(*log_, kCoreUpdate);
    return db_->Update(tx, table, loc, ToValues(row)).status();
  }

  Status Delete(Transaction& tx, Table* table, RowLocation loc) {
    Scoped span(*log_, kCoreDelete);
    return db_->Delete(tx, table, loc);
  }

  /// Runs `body` in a transaction, retrying conflicts. Acknowledgements
  /// the body queued are published only after the commit returned OK.
  Outcome Run(uint16_t op_span, bool write,
              const std::function<Status(Transaction&)>& body) {
    Scoped op(*log_, op_span);
    Outcome out;
    out.write = write;
    while (true) {
      ++out.attempts;
      pending_.clear();
      Result<Transaction> tx = Status::Internal("unset");
      {
        Scoped span(*log_, kTxnBegin);
        tx = db_->Begin();
      }
      if (!tx.ok()) {
        out.ok = false;
        out.error = tx.status().ToString();
        return out;
      }
      Status st = body(*tx);
      if (st.ok()) {
        Scoped span(*log_, kTxnCommit);
        st = db_->Commit(*tx);
      } else {
        Scoped span(*log_, kTxnAbort);
        (void)db_->Abort(*tx);
      }
      if (st.ok()) {
        Publish();
        if (write) write_commits->fetch_add(1, std::memory_order_relaxed);
        return out;
      }
      if (!st.IsConflict() || out.attempts >= 100) {
        out.ok = false;
        out.error = st.ToString();
        return out;
      }
    }
  }

  void Publish() {
    const uint64_t n = acks_->count.load(std::memory_order_relaxed);
    if (n + pending_.size() > kAckCapacity) {
      // Out of acknowledgement slots (only a runaway tail gets here):
      // stop issuing work and wait for the kill.
      for (;;) pause();
    }
    for (size_t i = 0; i < pending_.size(); ++i) {
      acks_->records[n + i] = pending_[i];
    }
    acks_->count.store(n + pending_.size(), std::memory_order_release);
  }

  Outcome NewOrder() {
    const int64_t w = HomeWarehouse();
    const int64_t d = static_cast<int64_t>(rng_.Uniform(shape_.districts));
    const int64_t c = static_cast<int64_t>(rng_.Uniform(shape_.customers));
    const int64_t ol_cnt = rng_.Range(5, 15);
    std::vector<std::pair<int64_t, int64_t>> lines;  // item, quantity
    while (static_cast<int64_t>(lines.size()) < ol_cnt) {
      const int64_t item = static_cast<int64_t>(rng_.Uniform(shape_.items));
      if (std::none_of(lines.begin(), lines.end(),
                       [&](const auto& l) { return l.first == item; })) {
        lines.emplace_back(item, rng_.Range(1, 10));
      }
    }
    const int64_t d_key = shape_.DistrictKey(w, d);
    const int64_t c_key = shape_.CustomerKey(w, d, c);
    return Run(kOpNewOrder, true, [&](Transaction& tx) -> Status {
      auto district = ReadOne(tx, t_.district, 0, d_key);
      if (!district.ok()) return district.status();
      Row drow = district->second;
      const int64_t o_id = drow[1];
      drow[1] = o_id + 1;
      HYRISE_NV_RETURN_NOT_OK(Update(tx, t_.district, district->first, drow));
      auto customer = ReadOne(tx, t_.customer, 0, c_key);
      if (!customer.ok()) return customer.status();
      const int64_t o_key = TpccShape::OrderKey(d_key, o_id);
      HYRISE_NV_RETURN_NOT_OK(Insert(tx, t_.orders, {o_key, c_key, ol_cnt, 0}));
      HYRISE_NV_RETURN_NOT_OK(Insert(tx, t_.new_order, {o_key}));
      int64_t total = 0;
      for (size_t l = 0; l < lines.size(); ++l) {
        const auto [item_id, quantity] = lines[l];
        auto item = ReadOne(tx, t_.item, 0, item_id);
        if (!item.ok()) return item.status();
        auto stock = ReadOne(tx, t_.stock, 0, shape_.StockKey(w, item_id));
        if (!stock.ok()) return stock.status();
        Row srow = stock->second;
        srow[1] = srow[1] >= quantity + 10 ? srow[1] - quantity
                                           : srow[1] - quantity + 91;
        srow[2] += quantity;
        srow[3] += 1;
        HYRISE_NV_RETURN_NOT_OK(Update(tx, t_.stock, stock->first, srow));
        const int64_t amount = quantity * item->second[1];
        total += amount;
        HYRISE_NV_RETURN_NOT_OK(Insert(
            tx, t_.order_line,
            {TpccShape::LineKey(o_key, static_cast<int64_t>(l) + 1), item_id,
             quantity, amount}));
      }
      pending_.push_back({TpccAck::kNewOrder, o_key, c_key, ol_cnt, total});
      return Status::OK();
    });
  }

  Outcome Payment() {
    const int64_t w = HomeWarehouse();
    const int64_t d = static_cast<int64_t>(rng_.Uniform(shape_.districts));
    const int64_t c = static_cast<int64_t>(rng_.Uniform(shape_.customers));
    const int64_t amount = rng_.Range(100, 500000);
    const int64_t c_key = shape_.CustomerKey(w, d, c);
    const int64_t h_key = (static_cast<int64_t>(thread_) << 40) | next_h_++;
    return Run(kOpPayment, true, [&](Transaction& tx) -> Status {
      auto warehouse = ReadOne(tx, t_.warehouse, 0, w);
      if (!warehouse.ok()) return warehouse.status();
      Row wrow = warehouse->second;
      wrow[1] += amount;
      HYRISE_NV_RETURN_NOT_OK(
          Update(tx, t_.warehouse, warehouse->first, wrow));
      auto district = ReadOne(tx, t_.district, 0, shape_.DistrictKey(w, d));
      if (!district.ok()) return district.status();
      Row drow = district->second;
      drow[2] += amount;
      HYRISE_NV_RETURN_NOT_OK(Update(tx, t_.district, district->first, drow));
      auto customer = ReadOne(tx, t_.customer, 0, c_key);
      if (!customer.ok()) return customer.status();
      Row crow = customer->second;
      crow[1] -= amount;
      crow[2] += 1;
      HYRISE_NV_RETURN_NOT_OK(Update(tx, t_.customer, customer->first, crow));
      HYRISE_NV_RETURN_NOT_OK(Insert(tx, t_.history, {h_key, c_key, amount}));
      pending_.push_back({TpccAck::kPayment, h_key, c_key, amount, 0});
      return Status::OK();
    });
  }

  Outcome Delivery() {
    const int64_t w = HomeWarehouse();
    const int64_t carrier = rng_.Range(1, 10);
    return Run(kOpDelivery, true, [&](Transaction& tx) -> Status {
      for (int64_t d = 0; d < shape_.districts; ++d) {
        const int64_t d_key = shape_.DistrictKey(w, d);
        auto pending =
            ReadRange(tx, t_.new_order, TpccShape::OrderKey(d_key, 0),
                      TpccShape::OrderKey(d_key, 0xFFFFFF));
        if (!pending.ok()) return pending.status();
        if (pending->empty()) continue;
        const auto oldest = std::min_element(
            pending->begin(), pending->end(),
            [](const auto& a, const auto& b) { return a.second[0] < b.second[0]; });
        const int64_t o_key = oldest->second[0];
        HYRISE_NV_RETURN_NOT_OK(Delete(tx, t_.new_order, oldest->first));
        auto order = ReadOne(tx, t_.orders, 0, o_key);
        if (!order.ok()) return order.status();
        Row orow = order->second;
        orow[3] = carrier;
        HYRISE_NV_RETURN_NOT_OK(Update(tx, t_.orders, order->first, orow));
        auto lines = ReadRange(tx, t_.order_line, TpccShape::LineKey(o_key, 0),
                               TpccShape::LineKey(o_key, 15));
        if (!lines.ok()) return lines.status();
        int64_t total = 0;
        for (const auto& line : *lines) total += line.second[3];
        auto customer = ReadOne(tx, t_.customer, 0, orow[1]);
        if (!customer.ok()) return customer.status();
        Row crow = customer->second;
        crow[1] += total;
        crow[3] += 1;
        HYRISE_NV_RETURN_NOT_OK(
            Update(tx, t_.customer, customer->first, crow));
        pending_.push_back({TpccAck::kDelivery, o_key, carrier, 0, 0});
      }
      return Status::OK();
    });
  }

  Outcome OrderStatus() {
    const int64_t w = HomeWarehouse();
    const int64_t d = static_cast<int64_t>(rng_.Uniform(shape_.districts));
    const int64_t c = static_cast<int64_t>(rng_.Uniform(shape_.customers));
    const int64_t c_key = shape_.CustomerKey(w, d, c);
    return Run(kOpOrderStatus, false, [&](Transaction& tx) -> Status {
      auto customer = ReadOne(tx, t_.customer, 0, c_key);
      if (!customer.ok()) return customer.status();
      int64_t last = -1;
      {
        Scoped span(*log_, kCoreScanEqual);
        auto orders = db_->ScanEqual(t_.orders, 1, Value(c_key),
                                     tx.snapshot(), tx.tid());
        if (!orders.ok()) return orders.status();
        for (const RowLocation& loc : *orders) {
          last = std::max(last, std::get<int64_t>(t_.orders->GetValue(loc, 0)));
        }
      }
      if (last < 0) return Status::OK();
      auto lines = ReadRange(tx, t_.order_line, TpccShape::LineKey(last, 0),
                             TpccShape::LineKey(last, 15));
      return lines.status();
    });
  }

  Outcome StockLevel() {
    const int64_t w = HomeWarehouse();
    const int64_t d = static_cast<int64_t>(rng_.Uniform(shape_.districts));
    const int64_t threshold = rng_.Range(10, 20);
    const int64_t d_key = shape_.DistrictKey(w, d);
    return Run(kOpStockLevel, false, [&](Transaction& tx) -> Status {
      auto district = ReadOne(tx, t_.district, 0, d_key);
      if (!district.ok()) return district.status();
      const int64_t next = district->second[1];
      auto lines = ReadRange(
          tx, t_.order_line,
          TpccShape::LineKey(TpccShape::OrderKey(d_key, std::max<int64_t>(1, next - 20)), 0),
          TpccShape::LineKey(TpccShape::OrderKey(d_key, next - 1), 15));
      if (!lines.ok()) return lines.status();
      std::vector<int64_t> items;
      for (const auto& line : *lines) items.push_back(line.second[1]);
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
      int64_t low = 0;
      for (int64_t item : items) {
        auto stock = ReadOne(tx, t_.stock, 0, shape_.StockKey(w, item));
        if (!stock.ok()) return stock.status();
        if (stock->second[1] < threshold) ++low;
      }
      return Status::OK();
    });
  }

  Database* db_;
  Tables t_;
  TpccShape shape_;
  int thread_;
  Rng rng_;
  AckLog* acks_;
  SpanLog* log_ = nullptr;
  int64_t next_h_ = 0;
  std::vector<TpccAck> pending_;
};

/// Counters sampled at the edges of the measured window.
struct EngineCounters {
  uint64_t fences = 0, lines = 0, bytes = 0, persists = 0;
  uint64_t wal_bytes = 0, wal_syncs = 0, write_commits = 0;
};

EngineCounters Sample(Database* db, const std::atomic<uint64_t>& commits) {
  EngineCounters c;
  auto& stats = db->nvm_stats();
  c.fences = stats.fences.load();
  c.lines = stats.flush_lines.load();
  c.bytes = stats.flushed_bytes.load();
  c.persists = stats.persist_calls.load();
  const auto snapshot = db->MetricsSnapshot();
  c.wal_bytes = snapshot.CounterValue("wal.bytes.logged");
  c.wal_syncs = snapshot.CounterValue("wal.fsync.count");
  c.write_commits = commits.load();
  return c;
}

/// Engine process body. Never returns: it either fails (phase kFailed)
/// or runs the tail until the harness kills it.
[[noreturn]] void EngineMain(const RunConfig& config, bool nvm,
                             const std::string& dir, Shared* shared) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  auto fail = [shared](const std::string& what) {
    std::snprintf(shared->error, sizeof(shared->error), "%s", what.c_str());
    shared->phase.store(kFailed, std::memory_order_release);
    _exit(1);
  };
  const TpccShape shape = Shape();
  auto created = Database::Create(Options(dir, nvm));
  if (!created.ok()) fail("create: " + created.status().ToString());
  std::unique_ptr<Database> db = std::move(*created);
  std::vector<Tables> parts;
  Status st = CreateSchema(db.get());
  if (st.ok()) st = BindTables(db.get(), &parts);
  if (st.ok()) st = Load(db.get(), parts, shape);
  if (!st.ok()) fail("load: " + st.ToString());
  const uint64_t merge_start = NowNs();
  for (const std::string& name : TableNames()) {
    auto merged = db->Merge(name);
    if (!merged.ok()) fail("merge: " + merged.status().ToString());
  }
  const double merge_ms = static_cast<double>(NowNs() - merge_start) / 1e6;
  shared->setup_end_ns.store(NowNs());
  shared->phase.store(kRunning, std::memory_order_release);

  const uint64_t per_round = kTxnsPerSecond *
                             static_cast<uint64_t>(config.seconds) /
                             kThreads / kRounds;
  std::atomic<uint64_t> write_commits{0};
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<SpanLog> logs;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(std::make_unique<Client>(db.get(), parts[t], shape, t,
                                               config.seed, &shared->acks[t]));
    clients.back()->write_commits = &write_commits;
    logs.emplace_back(config.trace);
  }
  struct PerThread {
    std::vector<Round> rounds = std::vector<Round>(kRounds);
    uint64_t failed = 0, attempts = 0, commits = 0;
    std::string error;
  };
  std::vector<PerThread> results(kThreads);
  // All threads run round r together; the completion step stamps the
  // boundaries, so stamps[r] and stamps[r + 1] bound round r.
  std::vector<uint64_t> stamps(kRounds + 1, 0);
  std::atomic<int> phases{0};
  std::barrier sync(kThreads, [&]() noexcept {
    stamps[static_cast<size_t>(phases.load())] = NowNs();
    phases.fetch_add(1, std::memory_order_release);
  });
  std::atomic<bool> tail{false};
  const EngineCounters before = Sample(db.get(), write_commits);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PerThread& r = results[t];
      uint32_t op = 0;
      sync.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        Round& out_round = r.rounds[round];
        for (uint64_t i = 0; i < per_round; ++i) {
          logs[t].BeginOp(op++);
          const uint64_t t0 = NowNs();
          const Outcome out = clients[t]->RunNext(&logs[t]);
          const double us = static_cast<double>(NowNs() - t0) / 1e3;
          r.attempts += out.attempts;
          if (!out.ok) {
            ++r.failed;
            if (r.error.empty()) r.error = out.error;
            continue;
          }
          ++r.commits;
          ++out_round.ops;
          (out.write ? out_round.lat.write_us : out_round.lat.read_us)
              .push_back(us);
        }
        sync.arrive_and_wait();
      }
      while (!tail.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      SpanLog off(false);
      for (;;) clients[t]->RunNext(&off);
    });
  }
  while (phases.load(std::memory_order_acquire) < kRounds + 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const EngineCounters after = Sample(db.get(), write_commits);
  uint64_t failed = 0, attempts = 0, commits = 0;
  std::vector<Round> rounds(kRounds);
  std::string first_error;
  for (PerThread& r : results) {
    failed += r.failed;
    attempts += r.attempts;
    commits += r.commits;
    for (int i = 0; i < kRounds; ++i) {
      Round& into = rounds[i];
      into.ops += r.rounds[i].ops;
      auto& w = r.rounds[i].lat.write_us;
      auto& rd = r.rounds[i].lat.read_us;
      into.lat.write_us.insert(into.lat.write_us.end(), w.begin(), w.end());
      into.lat.read_us.insert(into.lat.read_us.end(), rd.begin(), rd.end());
    }
    if (first_error.empty()) first_error = r.error;
  }
  for (int i = 0; i < kRounds; ++i) {
    rounds[i].start_ns = stamps[i];
    rounds[i].end_ns = stamps[i + 1];
  }
  SharedMetrics& m = shared->metrics;
  const double seconds =
      static_cast<double>(stamps[kRounds] - stamps[0]) / 1e9;
  for (const auto& [name, value] : SummarizeRounds(rounds)) {
    m.Put(name, value, name == "ops_per_s" ? "ops/s" : "us");
  }
  const double txns = static_cast<double>(
      std::max<uint64_t>(1, after.write_commits - before.write_commits));
  m.Put("storage.merge_ms", merge_ms, "ms");
  m.Put("txn.attempts_per_commit",
        static_cast<double>(attempts) / static_cast<double>(std::max<uint64_t>(1, commits)),
        "count");
  m.Put("nvm.fences_per_txn", (after.fences - before.fences) / txns, "count");
  m.Put("nvm.lines_per_txn", (after.lines - before.lines) / txns, "count");
  m.Put("nvm.bytes_per_txn", (after.bytes - before.bytes) / txns, "B");
  m.Put("nvm.persists_per_txn", (after.persists - before.persists) / txns,
        "count");
  m.Put("wal.bytes_per_txn", (after.wal_bytes - before.wal_bytes) / txns, "B");
  m.Put("wal.syncs_per_txn", (after.wal_syncs - before.wal_syncs) / txns,
        "count");
  if (config.trace) {
    std::vector<const SpanLog*> views;
    for (const SpanLog& log : logs) views.push_back(&log);
    std::vector<SpanTotals> totals = AggregateSpans(views, kNumSpanNames);
    auto mean_self = [&](SpanName n) {
      const SpanTotals& t = totals[n];
      return t.count == 0 ? 0.0 : t.self_ns / static_cast<double>(t.count);
    };
    m.Put("core.insert_ns", mean_self(kCoreInsert), "ns");
    m.Put("core.update_ns", mean_self(kCoreUpdate), "ns");
    m.Put("core.delete_ns", mean_self(kCoreDelete), "ns");
    m.Put("core.scan_equal_ns", mean_self(kCoreScanEqual), "ns");
    m.Put("core.scan_range_ns", mean_self(kCoreScanRange), "ns");
    m.Put("txn.begin_ns", mean_self(kTxnBegin), "ns");
    m.Put("txn.commit_ns", mean_self(kTxnCommit), "ns");
    m.Put("txn.commit_p99_ns", Percentile(totals[kTxnCommit].durations_ns, 99),
          "ns");
    m.Put("trace.ops_per_s", static_cast<double>(commits) / seconds, "ops/s");
    WriteSpans(config.work_dir + "/" + config.workload + ".spans", views,
               kSpanNames, false);
  }
  shared->attempted = per_round * kRounds * kThreads;
  shared->failed = failed;
  if (!first_error.empty()) {
    std::snprintf(shared->error, sizeof(shared->error), "%s",
                  first_error.c_str());
  }
  shared->phase.store(kMeasured, std::memory_order_release);
  tail.store(true);
  for (;;) pause();
}

/// Restart process: opens the killed engine's image, answers one query,
/// waits until fully recovered, reports, and waits to be killed.
[[noreturn]] void ReopenMain(const std::string& dir, bool nvm,
                             RestartSample* out) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  auto fail = [out](const std::string& what) {
    std::snprintf(out->error, sizeof(out->error), "%s", what.c_str());
    out->state.store(2, std::memory_order_release);
    _exit(1);
  };
  out->open_start = NowNs();
  auto opened = Database::Open(Options(dir, nvm));
  out->open_end = NowNs();
  if (!opened.ok()) fail("open: " + opened.status().ToString());
  std::unique_ptr<Database> db = std::move(*opened);
  std::vector<Tables> parts;
  Status st = BindTables(db.get(), &parts);
  if (!st.ok()) fail("bind: " + st.ToString());
  auto rows = db->ScanEqual(parts[0].district, 0,
                            Value(Shape().DistrictKey(0, 0)),
                            db->ReadSnapshot(), hyrise_nv::storage::kTidNone);
  if (!rows.ok() || rows->size() != 1) fail("first query failed");
  (void)parts[0].district->GetRow(rows->front());
  out->first_end = NowNs();
  st = db->WaitUntilRecovered(120000);
  out->recovered_end = NowNs();
  if (!st.ok()) fail("recovery: " + st.ToString());
  std::function<void(const hyrise_nv::obs::SpanNode&)> walk =
      [&](const hyrise_nv::obs::SpanNode& n) {
        const auto& names = RecoverySpanNames();
        for (size_t i = 0; i < names.size() && i < 32; ++i) {
          if (names[i] == n.name) out->span_seconds[i] += n.seconds;
        }
        for (const auto& c : n.children) walk(c);
      };
  walk(db->last_recovery_report().trace);
  out->state.store(1, std::memory_order_release);
  for (;;) pause();
}

/// Appends every visible row of `table` at the current snapshot.
void ReadAll(Database* db, Table* table, std::vector<Row>* rows) {
  table->ForEachVisibleRow(db->ReadSnapshot(), hyrise_nv::storage::kTidNone,
                           [&](RowLocation loc) {
                             rows->push_back(ToRow(table->GetRow(loc)));
                           });
}

}  // namespace

RunResult RunTpcc(const RunConfig& config, bool nvm) {
  RunResult result;
  const std::string dir = config.work_dir + "/data-" + config.workload + "-" +
                          std::to_string(getpid());
  RemoveTree(dir);
  if (!MakeDirs(dir)) {
    result.errors.push_back("cannot create " + dir);
    return result;
  }
  auto* shared = new (MapShared(sizeof(Shared))) Shared();
  const pid_t pid = fork();
  if (pid == 0) EngineMain(config, nvm, dir, shared);

  // Wait for the measured phase to end (or the engine to fail).
  const uint64_t deadline = NowNs() + 150ull * 1000000000ull;
  int phase = kLoading;
  while ((phase = shared->phase.load(std::memory_order_acquire)) < kMeasured &&
         NowNs() < deadline) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) break;
    usleep(1000);
  }
  phase = shared->phase.load(std::memory_order_acquire);
  if (phase != kMeasured) {
    KillAndReap(pid);
    result.errors.push_back(std::string("engine did not finish: ") +
                            shared->error);
    RemoveTree(dir);
    return result;
  }
  usleep(kKillDelayMs * 1000);
  const uint64_t peak_rss = PeakRssBytes(pid);

  // Kill-and-restart cycles: each reopens the image in a fresh process,
  // answers one query, waits for full recovery, and is killed in turn.
  auto& v = result.values;
  SpanLog log(config.trace);
  std::vector<std::map<std::string, double>> cycles;
  pid_t victim = pid;
  uint64_t kill_ns = NowNs();
  KillAndReap(victim);
  const int num_cycles = nvm ? kNvmRestartCycles : kWalRestartCycles;
  for (int c = 0; c < num_cycles; ++c) {
    RestartSample* sample = &shared->restarts[c];
    victim = fork();
    if (victim == 0) ReopenMain(dir, nvm, sample);
    const uint64_t limit = NowNs() + 120ull * 1000000000ull;
    while (sample->state.load(std::memory_order_acquire) == 0 &&
           NowNs() < limit) {
      int status = 0;
      if (waitpid(victim, &status, WNOHANG) == victim) break;
      usleep(200);
    }
    if (sample->state.load(std::memory_order_acquire) != 1) {
      result.errors.push_back(std::string("restart failed: ") + sample->error);
      KillAndReap(victim);
      victim = -1;
      break;
    }
    log.Add(kRecoveryOpen, sample->open_start, sample->open_end);
    log.Add(kRecoveryFirstQuery, sample->open_end, sample->first_end);
    log.Add(kRecoveryDrain, sample->first_end, sample->recovered_end);
    std::map<std::string, double> m;
    m["restart_ms"] = static_cast<double>(sample->first_end - kill_ns) / 1e6;
    m["recovered_ms"] =
        static_cast<double>(sample->recovered_end - kill_ns) / 1e6;
    m["recovery.open_ms"] =
        static_cast<double>(sample->open_end - sample->open_start) / 1e6;
    m["recovery.first_query_ms"] =
        static_cast<double>(sample->first_end - sample->open_end) / 1e6;
    m["recovery.drain_ms"] =
        static_cast<double>(sample->recovered_end - sample->first_end) / 1e6;
    std::vector<std::pair<std::string, double>> nodes;
    for (size_t i = 0; i < RecoverySpanNames().size(); ++i) {
      nodes.emplace_back(RecoverySpanNames()[i], sample->span_seconds[i]);
    }
    AddRecoverySpans(nodes, &m);
    cycles.push_back(std::move(m));
    kill_ns = NowNs();
    KillAndReap(victim);
  }
  PutMedians(cycles, &v);

  // The checks open the image once more, in this process.
  std::unique_ptr<Database> db;
  std::vector<Tables> parts;
  const TpccShape shape = Shape();
  if (result.errors.empty()) {
    auto opened = Database::Open(Options(dir, nvm));
    Status st = opened.ok() ? Status::OK() : opened.status();
    if (st.ok()) {
      db = std::move(*opened);
      st = db->WaitUntilRecovered(120000);
    }
    if (st.ok()) st = BindTables(db.get(), &parts);
    if (!st.ok()) {
      result.errors.push_back("reopen for checks: " + st.ToString());
      db.reset();
    }
  }

  for (const Metric& metric : shared->metrics.Read()) {
    v[metric.name] = metric.value;
  }
  v["setup_s"] = static_cast<double>(shared->setup_end_ns.load() -
                                     config.start_ns) / 1e9;
  v["peak_rss_mb"] = static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  result.attempted = shared->attempted;
  result.failed = shared->failed;
  if (shared->failed > 0) {
    result.errors.push_back(std::string("operation failed: ") + shared->error);
  }

  if (db != nullptr) {
    // Read back the recovered state and check it.
    TpccState state;
    for (const Tables& t : parts) {
      ReadAll(db.get(), t.warehouse, &state.warehouse);
      ReadAll(db.get(), t.district, &state.district);
      ReadAll(db.get(), t.customer, &state.customer);
      ReadAll(db.get(), t.stock, &state.stock);
      ReadAll(db.get(), t.orders, &state.orders);
      ReadAll(db.get(), t.new_order, &state.new_order);
      ReadAll(db.get(), t.order_line, &state.order_line);
      ReadAll(db.get(), t.history, &state.history);
    }
    std::vector<TpccAck> acks;
    for (const AckLog& log_of_thread : shared->acks) {
      const uint64_t n = log_of_thread.count.load(std::memory_order_acquire);
      acks.insert(acks.end(), log_of_thread.records,
                  log_of_thread.records + n);
    }
    const Findings findings = CheckTpcc(shape, state, acks);
    for (const std::string& e : findings.errors) result.errors.push_back(e);

    uint64_t visible = 0, physical = 0, dict_entries = 0;
    for (const std::string& name : TableNames()) {
      Table* table = *db->GetTable(name);
      visible += table->CountVisible(db->ReadSnapshot(),
                                     hyrise_nv::storage::kTidNone);
      physical += table->main_row_count() + table->delta_row_count();
      for (size_t c = 0; c < table->schema().num_columns(); ++c) {
        dict_entries += table->delta().column(c).dictionary().size();
      }
    }
    const double rows = static_cast<double>(std::max<uint64_t>(1, visible));
    v["footprint_bytes_per_row"] =
        static_cast<double>(AllocatedBytes(dir)) / rows;
    v["storage.versions_per_row"] = static_cast<double>(physical) / rows;
    v["storage.delta_dict_entries"] = static_cast<double>(dict_entries);
    v["alloc.heap_bytes_per_row"] =
        static_cast<double>(db->heap().allocator().HeapUsedBytes()) / rows;
    if (config.trace) {
      WriteSpans(config.work_dir + "/" + config.workload + ".spans", {&log},
                 kSpanNames, true);
    }
  }
  if (db != nullptr) (void)db->Close();
  db.reset();
  result.correct = result.errors.empty();
  shared->~Shared();
  UnmapShared(shared, sizeof(Shared));
  RemoveTree(dir);
  return result;
}

}  // namespace perfbench
