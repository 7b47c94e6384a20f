// Multi-threaded smoke tests: concurrent transactions across tables,
// concurrent readers against a writer on one table, and conflict-heavy
// contention on a single row. The engine's concurrency contract:
// arbitrary concurrent transactions, single writer per table.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/query.h"

namespace hyrise_nv::core {
namespace {

using storage::DataType;
using storage::Value;

std::unique_ptr<Database> MakeDb() {
  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 256 << 20;
  options.tracking = nvm::TrackingMode::kNone;
  return std::move(Database::Create(options)).ValueUnsafe();
}

storage::Schema KvSchema() {
  return *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"v", DataType::kString}});
}

TEST(ConcurrencyTest, ParallelWritersOnSeparateTables) {
  auto db = MakeDb();
  constexpr int kThreads = 4;
  constexpr int kRowsPerThread = 500;
  std::vector<storage::Table*> tables;
  for (int t = 0; t < kThreads; ++t) {
    tables.push_back(
        *db->CreateTable("t" + std::to_string(t), KvSchema()));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRowsPerThread; ++i) {
        auto tx = db->Begin();
        if (!tx.ok()) {
          ++failures;
          return;
        }
        auto insert = db->Insert(
            *tx, tables[t],
            {Value(int64_t{i}), Value(std::string("w"))});
        if (!insert.ok() || !db->Commit(*tx).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(CountRows(tables[t], db->ReadSnapshot(), storage::kTidNone),
              static_cast<uint64_t>(kRowsPerThread));
  }
}

TEST(ConcurrencyTest, ReadersNeverSeeTornStateUnderWriter) {
  auto db = MakeDb();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  // Writer inserts pairs transactionally: counts must always be even.
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread writer([&]() {
    for (int i = 0; i < 600 && !stop; ++i) {
      auto tx = *db->Begin();
      (void)db->Insert(tx, table, {Value(int64_t{2 * i}),
                                   Value(std::string("a"))});
      (void)db->Insert(tx, table, {Value(int64_t{2 * i + 1}),
                                   Value(std::string("b"))});
      (void)db->Commit(tx);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&]() {
      for (int i = 0; i < 300; ++i) {
        const uint64_t count =
            CountRows(table, db->ReadSnapshot(), storage::kTidNone);
        if (count % 2 != 0) ++violations;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop = true;
  writer.join();
  EXPECT_EQ(violations.load(), 0)
      << "a reader observed a half-committed transaction";
}

TEST(ConcurrencyTest, ContendedDeleteOnlyOneWins) {
  auto db = MakeDb();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  auto tx0 = *db->Begin();
  auto loc = *db->Insert(tx0, table,
                         {Value(int64_t{1}), Value(std::string("x"))});
  ASSERT_TRUE(db->Commit(tx0).ok());

  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      auto tx = *db->Begin();
      Status status = db->Delete(tx, table, loc);
      if (status.ok()) {
        if (db->Commit(tx).ok()) ++winners;
      } else {
        (void)db->Abort(tx);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(winners.load(), 1) << "exactly one delete may commit";
  EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 0u);
}

// Lost-update oracle for the claim protocol: every committed update of
// one row must have read the version it replaced. A claim stolen from a
// transaction that already committed its delete would let two updates of
// the same version both commit, leaving two live versions.
TEST(ConcurrencyTest, ContendedUpdatesNeverFork) {
  auto db = MakeDb();
  auto schema = *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"n", DataType::kInt64}});
  storage::Table* table = *db->CreateTable("counter", schema);
  ASSERT_TRUE(db->CreateIndex("counter", 0).ok());
  ASSERT_TRUE(
      db->InsertAutoCommit(table, {Value(int64_t{1}), Value(int64_t{0})})
          .ok());

  constexpr int kThreads = 4;
  constexpr int kAttempts = 400;
  std::atomic<int64_t> commits{0};
  std::atomic<int> forks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int a = 0; a < kAttempts; ++a) {
        auto tx = *db->Begin();
        auto rows = db->ScanEqual(table, 0, Value(int64_t{1}),
                                  tx.snapshot(), tx.tid());
        if (!rows.ok() || rows->size() != 1) {
          ++forks;
          (void)db->Abort(tx);
          continue;
        }
        const int64_t n =
            std::get<int64_t>(table->GetValue((*rows)[0], 1));
        auto updated = db->Update(tx, table, (*rows)[0],
                                  {Value(int64_t{1}), Value(n + 1)});
        if (!updated.ok()) {
          (void)db->Abort(tx);
          continue;
        }
        if (db->Commit(tx).ok()) ++commits;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto rows = db->ScanEqual(table, 0, Value(int64_t{1}), db->ReadSnapshot(),
                            storage::kTidNone);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u) << "exactly one live version";
  EXPECT_EQ(std::get<int64_t>(table->GetValue((*rows)[0], 1)),
            commits.load())
      << "every successful commit updated the latest version";
  EXPECT_EQ(forks.load(), 0) << "a snapshot saw the row forked";
  EXPECT_GT(commits.load(), 0);
}

TEST(ConcurrencyTest, ParallelTidsAreUnique) {
  auto db = MakeDb();
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 2000;
  std::vector<std::vector<storage::Tid>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      seen[t].reserve(kTxnsPerThread);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto tx = *db->Begin();
        seen[t].push_back(tx.tid());
        (void)db->Commit(tx);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<storage::Tid> all;
  for (const auto& tids : seen) {
    for (const auto tid : tids) {
      EXPECT_TRUE(all.insert(tid).second) << "duplicate TID " << tid;
    }
  }
  EXPECT_EQ(all.size(), size_t{kThreads} * kTxnsPerThread);
}

}  // namespace
}  // namespace hyrise_nv::core
