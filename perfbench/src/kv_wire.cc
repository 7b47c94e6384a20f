// kv_wire: a read-mostly key-value mix served over pipelined wire-v2
// connections by a forked server process (kNvm, default NVM profile).
//
// Each connection owns one table of a dense key space and is the only
// client that reads or writes it (README: writer-owns-rows). Per
// connection the load is point reads of zipfian keys, short range scans
// over the ordered index and updates of existing keys (a read that
// locates the row, then a one-op DML batch that rewrites it). After a
// fixed number of operations the server is killed with SIGKILL while
// requests are in flight, a new server process reopens the image, and
// the harness times the first answer and checks every key.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <barrier>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "checks.h"
#include "common/json.h"
#include "core/database.h"
#include "net/client.h"
#include "net/pipeline_client.h"
#include "net/server.h"
#include "net/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hyrise_nv::Result;
using hyrise_nv::Status;
using hyrise_nv::core::Database;
using hyrise_nv::core::DatabaseOptions;
using hyrise_nv::net::Opcode;
using hyrise_nv::net::PipelinedClient;
using hyrise_nv::net::WireCode;
using hyrise_nv::net::WireReader;
using hyrise_nv::net::WireWriter;
using hyrise_nv::storage::RowLocation;
using hyrise_nv::storage::Value;

/// Two client threads and one server worker leave a core free; with four
/// connections and three workers (every core busy) the p99 latencies
/// spread 44 % run to run, with two and two 73 %.
constexpr int kConnections = 2;
constexpr int kServerWorkers = 1;
constexpr uint32_t kDepth = 16;
constexpr int64_t kKeysPerTable = 50000;
constexpr int64_t kScanLength = 10;
constexpr double kZipfTheta = 0.99;
/// Operations per second of --seconds, per connection.
constexpr uint64_t kOpsPerSecond = 80000;
constexpr uint64_t kKillDelayMs = 20;
constexpr int64_t kCheckChunk = 1000;
/// Measured rounds per run and kill-and-restart cycles per run; results
/// are medians over them.
constexpr int kRounds = 9;
constexpr int kRestartCycles = 9;

enum SpanName : uint16_t {
  kOpRead,
  kOpScan,
  kOpUpdate,
  kNetRequest,
  kRecoveryOpen,
  kRecoveryFirstQuery,
  kNumSpanNames,
};
const std::vector<std::string> kSpanNames = {
    "op.read",     "op.scan",       "op.update",
    "net.request", "recovery.open", "recovery.first_query"};

struct Shared {
  std::atomic<int> phase{0};  // 0 starting, 1 serving, 3 failed
  std::atomic<uint64_t> ready_ns{0};
  std::atomic<uint32_t> port{0};
  char error[512] = {};
};

std::string TableName(int c) { return "kv_" + std::to_string(c); }

int64_t InitialValue(int64_t key) { return key * 7 + 1; }

DatabaseOptions Options(const std::string& dir) {
  DatabaseOptions options;
  options.mode = hyrise_nv::core::DurabilityMode::kNvm;
  options.data_dir = dir;
  options.region_size = size_t{1} << 30;
  options.tracking = hyrise_nv::nvm::TrackingMode::kNone;
  options.nvm_latency = hyrise_nv::nvm::NvmLatencyModel::DefaultNvm();
  return options;
}

Status Preload(Database* db) {
  for (int c = 0; c < kConnections; ++c) {
    auto schema = hyrise_nv::storage::Schema::Make(
        {{"k", hyrise_nv::storage::DataType::kInt64},
         {"v", hyrise_nv::storage::DataType::kInt64}});
    if (!schema.ok()) return schema.status();
    auto table = db->CreateTable(TableName(c), *schema);
    if (!table.ok()) return table.status();
    HYRISE_NV_RETURN_NOT_OK(db->CreateOrderedIndex(TableName(c), 0));
    auto tx = db->Begin();
    if (!tx.ok()) return tx.status();
    for (int64_t k = 0; k < kKeysPerTable; ++k) {
      auto loc = db->Insert(*tx, *table, {Value(k), Value(InitialValue(k))});
      if (!loc.ok()) return loc.status();
      if (k % 1024 == 1023) {
        HYRISE_NV_RETURN_NOT_OK(db->Commit(*tx));
        tx = db->Begin();
        if (!tx.ok()) return tx.status();
      }
    }
    HYRISE_NV_RETURN_NOT_OK(db->Commit(*tx));
    auto merged = db->Merge(TableName(c));
    if (!merged.ok()) return merged.status();
  }
  return Status::OK();
}

/// Server process: creates (or reopens) the database, serves it, and
/// waits to be killed.
[[noreturn]] void ServerMain(const std::string& dir, bool create,
                             Shared* shared) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  auto fail = [shared](const std::string& what) {
    std::snprintf(shared->error, sizeof(shared->error), "%s", what.c_str());
    shared->phase.store(3, std::memory_order_release);
    _exit(1);
  };
  auto opened = create ? Database::Create(Options(dir))
                       : Database::Open(Options(dir));
  if (!opened.ok()) fail("open: " + opened.status().ToString());
  std::unique_ptr<Database> db = std::move(*opened);
  if (create) {
    Status st = Preload(db.get());
    if (!st.ok()) fail("preload: " + st.ToString());
  }
  hyrise_nv::net::ServerOptions options;
  options.num_workers = kServerWorkers;
  auto server = hyrise_nv::net::Server::Start(db.get(), options);
  if (!server.ok()) fail("server: " + server.status().ToString());
  shared->port.store((*server)->port());
  shared->ready_ns.store(NowNs());
  shared->phase.store(1, std::memory_order_release);
  for (;;) pause();
}

/// Forks a server process and waits until it serves. Returns its pid, or
/// -1 with `error` set.
pid_t StartServer(const std::string& dir, bool create, Shared* shared,
                  std::string* error) {
  shared->phase.store(0);
  const pid_t pid = fork();
  if (pid == 0) ServerMain(dir, create, shared);
  const uint64_t deadline = NowNs() + 120ull * 1000000000ull;
  while (shared->phase.load(std::memory_order_acquire) == 0 &&
         NowNs() < deadline) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) break;
    usleep(200);
  }
  if (shared->phase.load(std::memory_order_acquire) != 1) {
    *error = std::string("server did not start: ") + shared->error;
    KillAndReap(pid);
    return -1;
  }
  return pid;
}

std::vector<uint8_t> ScanRangePayload(const std::string& table, int64_t lo,
                                      int64_t hi) {
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  w.U8(static_cast<uint8_t>(Opcode::kScanRange));
  w.U64(0);
  w.Str(table);
  w.U32(0);
  w.Value(Value(lo));
  w.Value(Value(hi));
  w.U32(0);
  return payload;
}

std::vector<uint8_t> UpdatePayload(const std::string& table, RowLocation loc,
                                   int64_t key, int64_t value) {
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  w.U8(static_cast<uint8_t>(Opcode::kDmlBatch));
  w.U32(1);
  w.U8(2);  // update
  w.Str(table);
  w.Loc(loc);
  w.Row({Value(key), Value(value)});
  return payload;
}

struct ScanRow {
  RowLocation loc;
  int64_t k = 0, v = 0;
};

/// Decodes a scan response body into {loc, k, v} rows.
Result<std::vector<ScanRow>> ParseScan(const std::vector<uint8_t>& body) {
  WireReader r(body.data(), body.size());
  const bool truncated = r.U8() != 0;
  const uint32_t n = r.U32();
  std::vector<ScanRow> rows;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ScanRow row;
    row.loc = r.Loc();
    const auto values = r.Row();
    if (values.size() != 2) return Status::IOError("bad scan row");
    row.k = std::get<int64_t>(values[0]);
    row.v = std::get<int64_t>(values[1]);
    rows.push_back(row);
  }
  if (!r.ok() || truncated) return Status::IOError("truncated scan response");
  return rows;
}

/// One connection's closed loop. Owns table kv_<c> and its keys.
class Connection {
 public:
  Connection(int c, uint64_t seed, uint16_t port, const Zipf* zipf,
             bool trace)
      : log(trace),
        expect(kKeysPerTable),
        c_(c),
        table_(TableName(c)),
        rng_(StreamSeed(seed, static_cast<uint64_t>(c))),
        zipf_(zipf) {
    hyrise_nv::net::PipelineClientOptions options;
    options.port = port;
    options.request_window = kDepth;
    options.read_timeout_ms = 30000;
    client_ = PipelinedClient(options);
    for (int64_t k = 0; k < kKeysPerTable; ++k) {
      expect[static_cast<size_t>(k)].acked = InitialValue(k);
    }
  }

  Status Connect() { return client_.Connect(); }

  /// Runs `ops` operations with kDepth in flight into `round`, or, when
  /// `round` is null, keeps going until the connection fails (the tail).
  void Run(uint64_t ops, Round* round) {
    round_ = round;
    uint64_t started = 0;
    const bool tail = round == nullptr;
    while (true) {
      while ((tail || started < ops) && inflight_.size() < kDepth) {
        ++started;
        if (!Start()) return;
      }
      if (inflight_.empty()) return;
      auto done = client_.Next();
      if (!done.ok()) {
        alive = false;
        return;
      }
      if (!Complete(*done, tail)) return;
    }
  }

  /// Writes whose request reached the wire but got no answer before the
  /// kill: their keys may hold either value after the restart.
  void NoteInflightAtKill() {
    for (const Pending& p : inflight_) {
      if (p.kind == kOpUpdate && p.write_sent) {
        KvExpect& e = expect[static_cast<size_t>(p.key)];
        e.inflight = p.value;
        e.has_inflight = true;
      }
    }
  }

  bool alive = true;
  /// Per measured round: answered requests (ops), failed requests and
  /// latencies.
  std::vector<Round> rounds = std::vector<Round>(kRounds);
  std::string error;
  SpanLog log;
  std::vector<KvExpect> expect;

 private:
  struct Pending {
    uint16_t kind = kOpRead;
    int64_t key = 0, hi = 0, value = 0;
    uint64_t op_start = 0, req_start = 0;
    bool write_sent = false;
    uint32_t op = 0;
  };

  bool Submit(Pending p, const std::vector<uint8_t>& payload) {
    p.req_start = NowNs();
    // Queued before the send: a write whose send fails at the kill may
    // still have reached the server.
    inflight_.push_back(p);
    if (!client_.Submit(payload).ok()) {
      alive = false;
      return false;
    }
    return true;
  }

  bool Start() {
    Pending p;
    p.op = next_op_++;
    p.op_start = NowNs();
    const uint64_t roll = rng_.Uniform(100);
    if (roll < 80) {
      p.kind = kOpRead;
      p.key = static_cast<int64_t>(zipf_->Next(rng_));
      return Submit(p, hyrise_nv::net::MakeScanEqualPayload(table_, 0,
                                                            Value(p.key)));
    }
    if (roll < 90) {
      p.kind = kOpScan;
      p.key = rng_.Range(0, kKeysPerTable - kScanLength);
      p.hi = p.key + kScanLength - 1;
      return Submit(p, ScanRangePayload(table_, p.key, p.hi));
    }
    p.kind = kOpUpdate;
    p.key = rng_.Range(0, kKeysPerTable - 1);
    // Never two writes of one key in flight: take the next free key.
    while (busy_.count(p.key) != 0) p.key = (p.key + 1) % kKeysPerTable;
    busy_.insert(p.key);
    p.value = (static_cast<int64_t>(c_) << 40) | ++next_value_;
    return Submit(p, hyrise_nv::net::MakeScanEqualPayload(table_, 0,
                                                          Value(p.key)));
  }

  void Fail(const std::string& what) {
    ++round_->failed;
    if (error.empty()) error = what;
  }

  /// Handles the completion of the oldest in-flight request.
  bool Complete(const PipelinedClient::Completion& done, bool tail) {
    Pending p = inflight_.front();
    inflight_.pop_front();
    const uint64_t now = NowNs();
    if (!tail) {
      ++round_->ops;
      log.BeginOp(p.op);
      log.Add(kNetRequest, p.req_start, now);
    }
    if (done.code != WireCode::kOk) {
      if (!tail) Fail(std::string("request failed: ") +
                      hyrise_nv::net::WireCodeName(done.code));
      if (p.kind == kOpUpdate) busy_.erase(p.key);
      return true;
    }
    const double us = static_cast<double>(now - p.op_start) / 1e3;
    if (p.kind == kOpUpdate && p.write_sent) {
      expect[static_cast<size_t>(p.key)].acked = p.value;
      busy_.erase(p.key);
      if (!tail) {
        round_->lat.write_us.push_back(us);
        log.Add(kOpUpdate, p.op_start, now);
      }
      return true;
    }
    auto rows = ParseScan(done.body);
    if (!rows.ok()) {
      if (!tail) Fail(rows.status().ToString());
      return true;
    }
    if (p.kind == kOpScan) {
      Findings f;
      std::vector<int64_t> keys;
      for (const ScanRow& r : *rows) keys.push_back(r.k);
      CheckRangeScan(p.key, p.hi, keys, &f);
      if (!tail) {
        if (!f.ok()) Fail(f.errors.front());
        round_->lat.read_us.push_back(us);
        log.Add(kOpScan, p.op_start, now);
      }
      return true;
    }
    if (rows->size() != 1 || (*rows)[0].k != p.key) {
      if (!tail) {
        Fail("point read of key " + std::to_string(p.key) + " returned " +
             std::to_string(rows->size()) + " rows");
      }
      if (p.kind == kOpUpdate) busy_.erase(p.key);
      return true;
    }
    if (p.kind == kOpRead) {
      if (!tail) {
        round_->lat.read_us.push_back(us);
        log.Add(kOpRead, p.op_start, now);
      }
      return true;
    }
    // Update: the read located the row; now rewrite it.
    p.write_sent = true;
    return Submit(p, UpdatePayload(table_, (*rows)[0].loc, p.key, p.value));
  }

  int c_;
  std::string table_;
  Rng rng_;
  const Zipf* zipf_;
  PipelinedClient client_;
  std::deque<Pending> inflight_;
  std::set<int64_t> busy_;
  int64_t next_value_ = 0;
  uint32_t next_op_ = 0;
  Round* round_ = nullptr;
};

/// Server-side totals read through the stats opcode.
struct ServerTotals {
  double requests = 0, request_ns = 0;
  std::map<std::string, double> stage_ns;
  double fences = 0, lines = 0, bytes = 0, persists = 0, write_commits = 0;
};

Result<ServerTotals> ReadServerTotals(uint16_t port) {
  hyrise_nv::net::ClientOptions options;
  options.port = port;
  hyrise_nv::net::Client client(options);
  HYRISE_NV_RETURN_NOT_OK(client.Connect());
  auto json = client.Stats();
  if (!json.ok()) return json.status();
  auto doc = hyrise_nv::common::JsonParse(*json);
  if (!doc.ok()) return doc.status();
  const auto* metrics = doc->Find("metrics");
  if (metrics == nullptr) return Status::IOError("stats without metrics");
  ServerTotals t;
  const auto& hist = metrics->Get("histograms");
  const auto& counters = metrics->Get("counters");
  const auto& gauges = metrics->Get("gauges");
  const auto& request = hist.Get("net.request.latency_ns");
  t.requests = request.Get("count").AsDouble();
  t.request_ns = request.Get("sum").AsDouble();
  for (const auto& [name, h] : hist.members()) {
    const size_t at = name.find(".stage.");
    if (name.rfind("net.op.", 0) != 0 || at == std::string::npos) continue;
    const std::string stage =
        name.substr(at + 7, name.size() - (at + 7) - std::string(".latency_ns").size());
    t.stage_ns[stage] += h.Get("sum").AsDouble();
  }
  auto number = [&](const char* name) {
    const auto* c = counters.Find(name);
    if (c == nullptr) c = gauges.Find(name);
    return c == nullptr ? 0.0 : c->AsDouble();
  };
  t.fences = number("nvm.fence.count");
  t.lines = number("nvm.flush.lines");
  t.bytes = number("nvm.flush.bytes");
  t.persists = number("nvm.persist.count");
  t.write_commits =
      number("txn.commit.count") - number("txn.commit.read_only");
  return t;
}

/// Opens the killed server's image in this process and reads the storage
/// and allocator figures the server keeps to itself.
void AddStorageMetrics(const std::string& dir, double rows,
                       std::map<std::string, double>* v) {
  auto opened = Database::Open(Options(dir));
  if (!opened.ok()) return;
  Database* db = opened->get();
  uint64_t physical = 0, dict_entries = 0;
  for (int c = 0; c < kConnections; ++c) {
    auto table = db->GetTable(TableName(c));
    if (!table.ok()) return;
    physical += (*table)->main_row_count() + (*table)->delta_row_count();
    for (size_t col = 0; col < (*table)->schema().num_columns(); ++col) {
      dict_entries += (*table)->delta().column(col).dictionary().size();
    }
  }
  (*v)["storage.versions_per_row"] = static_cast<double>(physical) / rows;
  (*v)["storage.delta_dict_entries"] = static_cast<double>(dict_entries);
  (*v)["alloc.heap_bytes_per_row"] =
      static_cast<double>(db->heap().allocator().HeapUsedBytes()) / rows;
  (void)db->Close();
}

/// The server's RecoveryReport, from the recovery-info opcode.
Result<hyrise_nv::common::JsonValue> ReadRecoveryInfo(uint16_t port) {
  hyrise_nv::net::ClientOptions options;
  options.port = port;
  hyrise_nv::net::Client client(options);
  HYRISE_NV_RETURN_NOT_OK(client.Connect());
  auto info = client.RecoveryInfo();
  if (!info.ok()) return info.status();
  return hyrise_nv::common::JsonParse(*info);
}

/// Reads every row of every table through range scans and checks them.
void CheckRecovered(uint16_t port, std::vector<Connection*> conns,
                    RunResult* result) {
  hyrise_nv::net::ClientOptions options;
  options.port = port;
  options.read_timeout_ms = 60000;
  hyrise_nv::net::Client client(options);
  Status st = client.Connect();
  if (!st.ok()) {
    result->errors.push_back("check connect: " + st.ToString());
    return;
  }
  Findings f;
  for (int c = 0; c < kConnections; ++c) {
    std::vector<Row> rows;
    for (int64_t lo = 0; lo < kKeysPerTable; lo += kCheckChunk) {
      const int64_t hi = std::min(lo + kCheckChunk, kKeysPerTable) - 1;
      auto scan = client.ScanRange(TableName(c), 0, Value(lo), Value(hi),
                                   false, 0);
      if (!scan.ok() || scan->truncated) {
        f.Add("range scan after restart failed");
        continue;
      }
      std::vector<int64_t> keys;
      for (const auto& r : scan->rows) {
        keys.push_back(std::get<int64_t>(r.values.at(0)));
        rows.push_back({keys.back(), std::get<int64_t>(r.values.at(1))});
      }
      CheckRangeScan(lo, hi, keys, &f);
    }
    CheckKvValues(conns[static_cast<size_t>(c)]->expect, rows, &f);
  }
  for (const std::string& e : f.errors) result->errors.push_back(e);
}

}  // namespace

RunResult RunKvWire(const RunConfig& config) {
  RunResult result;
  const std::string dir =
      config.work_dir + "/data-kv_wire-" + std::to_string(getpid());
  RemoveTree(dir);
  if (!MakeDirs(dir)) {
    result.errors.push_back("cannot create " + dir);
    return result;
  }
  auto* shared = new (MapShared(sizeof(Shared))) Shared();
  std::string error;
  pid_t server = StartServer(dir, /*create=*/true, shared, &error);
  if (server < 0) {
    result.errors.push_back(error);
    RemoveTree(dir);
    return result;
  }
  auto& v = result.values;
  v["setup_s"] = static_cast<double>(shared->ready_ns.load() -
                                     config.start_ns) / 1e9;
  const uint16_t port = static_cast<uint16_t>(shared->port.load());

  const Zipf zipf(kKeysPerTable, kZipfTheta);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(c, config.seed, port, &zipf,
                                                 config.trace));
    Status st = conns.back()->Connect();
    if (!st.ok()) result.errors.push_back("connect: " + st.ToString());
  }
  auto before = ReadServerTotals(port);
  const uint64_t per_round =
      kOpsPerSecond * static_cast<uint64_t>(config.seconds) / kRounds;
  std::vector<uint64_t> stamps(kRounds + 1, 0);
  std::atomic<int> phases{0};
  std::barrier sync(kConnections, [&]() noexcept {
    stamps[static_cast<size_t>(phases.load())] = NowNs();
    phases.fetch_add(1, std::memory_order_release);
  });
  std::atomic<bool> tail{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections && result.errors.empty(); ++c) {
    threads.emplace_back([&, c] {
      sync.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        conns[c]->Run(per_round, &conns[c]->rounds[r]);
        sync.arrive_and_wait();
      }
      while (!tail.load()) usleep(200);
      if (conns[c]->alive) conns[c]->Run(0, nullptr);
    });
  }
  while (!threads.empty() &&
         phases.load(std::memory_order_acquire) < kRounds + 1) {
    usleep(200);
  }
  auto after = ReadServerTotals(port);
  tail.store(true);
  usleep(kKillDelayMs * 1000);
  const uint64_t peak_rss = PeakRssBytes(server);
  uint64_t kill_ns = NowNs();
  KillAndReap(server);
  for (std::thread& t : threads) t.join();
  for (auto& c : conns) c->NoteInflightAtKill();

  // Kill-and-restart cycles: a fresh server process reopens the image and
  // answers one query; the next cycle kills it again.
  SpanLog log(config.trace);
  std::vector<std::map<std::string, double>> cycles;
  for (int cycle = 0; cycle < kRestartCycles; ++cycle) {
    if (cycle > 0) {
      kill_ns = NowNs();
      KillAndReap(server);
    }
    const uint64_t open_start = NowNs();
    server = StartServer(dir, /*create=*/false, shared, &error);
    if (server < 0) {
      result.errors.push_back(error);
      break;
    }
    const uint64_t first_start = NowNs();
    log.Add(kRecoveryOpen, open_start, first_start);
    hyrise_nv::net::PipelineClientOptions options;
    options.port = static_cast<uint16_t>(shared->port.load());
    PipelinedClient client(options);
    Status st = client.Connect();
    Result<PipelinedClient::Completion> answer =
        Status::IOError("no answer");
    if (st.ok()) {
      auto tag = client.Submit(
          hyrise_nv::net::MakeScanEqualPayload(TableName(0), 0, Value(0)));
      if (tag.ok()) answer = client.Next();
    }
    const uint64_t first_ns = NowNs();
    log.Add(kRecoveryFirstQuery, first_start, first_ns);
    if (!answer.ok() || answer->code != WireCode::kOk) {
      result.errors.push_back("first query after restart failed");
      break;
    }
    std::map<std::string, double> m;
    m["restart_ms"] = static_cast<double>(first_ns - kill_ns) / 1e6;
    m["recovered_ms"] = m["restart_ms"];
    m["recovery.first_query_ms"] =
        static_cast<double>(first_ns - first_start) / 1e6;
    double open_ms = 0;
    auto info = ReadRecoveryInfo(options.port);
    if (info.ok()) {
      std::vector<std::pair<std::string, double>> nodes;
      std::function<void(const hyrise_nv::common::JsonValue&)> walk =
          [&](const hyrise_nv::common::JsonValue& n) {
            nodes.emplace_back(n.Get("name").AsString(),
                               n.Get("seconds").AsDouble());
            for (const auto& child : n.Get("children").items()) walk(child);
          };
      const auto& trace = info->Get("trace");
      walk(trace);
      open_ms = trace.Get("seconds").AsDouble() * 1e3;
      AddRecoverySpans(nodes, &m);
    }
    m["recovery.open_ms"] = open_ms;
    m["net.restart_exec_ms"] = m["restart_ms"] - open_ms;
    cycles.push_back(std::move(m));
  }
  PutMedians(cycles, &v);

  std::vector<Round> rounds(kRounds);
  for (auto& c : conns) {
    for (int r = 0; r < kRounds; ++r) {
      Round& into = rounds[r];
      const Round& from = c->rounds[r];
      into.ops += from.ops;
      into.lat.write_us.insert(into.lat.write_us.end(),
                               from.lat.write_us.begin(),
                               from.lat.write_us.end());
      into.lat.read_us.insert(into.lat.read_us.end(), from.lat.read_us.begin(),
                              from.lat.read_us.end());
      result.attempted += from.ops;
      result.failed += from.failed;
    }
    if (!c->error.empty()) result.errors.push_back(c->error);
  }
  for (int r = 0; r < kRounds; ++r) {
    rounds[r].start_ns = stamps[r];
    rounds[r].end_ns = stamps[r + 1];
  }
  for (const auto& [name, value] : SummarizeRounds(rounds)) v[name] = value;
  v["peak_rss_mb"] = static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  if (config.trace) v["trace.ops_per_s"] = v["ops_per_s"];

  if (server > 0) {
    std::vector<Connection*> views;
    for (auto& c : conns) views.push_back(c.get());
    CheckRecovered(static_cast<uint16_t>(shared->port.load()), views, &result);
    const double rows = static_cast<double>(kKeysPerTable) * kConnections;
    v["footprint_bytes_per_row"] =
        static_cast<double>(AllocatedBytes(dir)) / rows;
    KillAndReap(server);
    if (config.trace) AddStorageMetrics(dir, rows, &v);
  }

  if (config.trace && before.ok() && after.ok()) {
    const double n = std::max(1.0, after->requests - before->requests);
    std::vector<const SpanLog*> views;
    for (auto& c : conns) views.push_back(&c->log);
    const auto totals = AggregateSpans(views, kNumSpanNames);
    const SpanTotals& req = totals[kNetRequest];
    const double request_us =
        req.count == 0 ? 0 : req.total_ns / static_cast<double>(req.count) / 1e3;
    const double server_us = (after->request_ns - before->request_ns) / n / 1e3;
    v["net.request_us"] = request_us;
    v["net.server_us"] = server_us;
    v["net.outside_server_us"] = request_us - server_us;
    for (const char* stage : {"parse", "dispatch", "execute", "wal_sync",
                              "commit_publish", "write_flush"}) {
      v[std::string("net.stage.") + stage + "_us"] =
          (after->stage_ns[stage] - before->stage_ns[stage]) / n / 1e3;
    }
    const double txns =
        std::max(1.0, after->write_commits - before->write_commits);
    v["nvm.fences_per_txn"] = (after->fences - before->fences) / txns;
    v["nvm.lines_per_txn"] = (after->lines - before->lines) / txns;
    v["nvm.bytes_per_txn"] = (after->bytes - before->bytes) / txns;
    v["nvm.persists_per_txn"] = (after->persists - before->persists) / txns;
    views.push_back(&log);
    WriteSpans(config.work_dir + "/" + config.workload + ".spans", views,
               kSpanNames, false);
  }
  result.correct = result.errors.empty();
  shared->~Shared();
  UnmapShared(shared, sizeof(Shared));
  RemoveTree(dir);
  return result;
}

}  // namespace perfbench
