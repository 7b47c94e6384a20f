// Lock-free delta-dictionary lookups racing inserts of fresh values.
//
// Two writers insert rows whose values are new to the dictionary (every
// insert appends, and every few hundred one grows or rehashes a buffer)
// while two readers probe the same columns through hash indexes, which
// resolve the probe value with DeltaDictionary::Lookup on every call.
// The oracle: no crash, every returned row holds the probed value, and
// every value committed before the reader's snapshot is found.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"

namespace hyrise_nv::core {
namespace {

using storage::DataType;
using storage::Value;

constexpr int kWriters = 2;
constexpr int kReaders = 2;
constexpr auto kRunFor = std::chrono::seconds(2);

int64_t KeyOf(int writer, int64_t i) { return int64_t{writer} << 40 | i; }
std::string NameOf(int64_t key) { return "name-" + std::to_string(key); }

TEST(DictionaryConcurrencyTest, LookupsRaceFreshInserts) {
  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 512 << 20;
  options.tracking = nvm::TrackingMode::kNone;
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  auto schema = *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"name", DataType::kString}});
  storage::Table* table = *db->CreateTable("t", schema);
  ASSERT_TRUE(db->CreateIndex("t", 0).ok());
  ASSERT_TRUE(db->CreateIndex("t", 1).ok());

  // committed[w] = how many of writer w's rows are committed.
  std::atomic<int64_t> committed[kWriters];
  for (auto& c : committed) c = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> write_failures{0};
  std::atomic<int> wrong_rows{0};
  std::atomic<int> missed{0};
  std::atomic<int64_t> probes{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const int64_t key = KeyOf(w, i);
        auto tx = db->Begin();
        if (!tx.ok() ||
            !db->Insert(*tx, table, {Value(key), Value(NameOf(key))}).ok() ||
            !db->Commit(*tx).ok()) {
          ++write_failures;
          return;
        }
        committed[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(77 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(rng() % kWriters);
        const int64_t done = committed[w].load(std::memory_order_acquire);
        // Taken after `done`: the snapshot covers every counted commit.
        const storage::Cid snapshot = db->ReadSnapshot();
        // Mostly committed values, sometimes one still being inserted.
        const int64_t i = static_cast<int64_t>(rng() % (done + 2));
        const int64_t key = KeyOf(w, i);
        const bool by_name = (rng() & 1) != 0;
        const Value probe = by_name ? Value(NameOf(key)) : Value(key);
        auto rows = db->ScanEqual(table, by_name ? 1 : 0, probe, snapshot,
                                  storage::kTidNone);
        ++probes;
        if (!rows.ok()) {
          ++wrong_rows;
          continue;
        }
        for (const storage::RowLocation& loc : *rows) {
          if (table->GetValue(loc, by_name ? 1 : 0) != probe ||
              table->GetValue(loc, 0) != Value(key)) {
            ++wrong_rows;
          }
        }
        if (i < done && rows->size() != 1) ++missed;
      }
    });
  }
  std::this_thread::sleep_for(kRunFor);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(wrong_rows.load(), 0) << "a scan returned a row of another value";
  EXPECT_EQ(missed.load(), 0) << "a committed value was not found";
  EXPECT_GT(probes.load(), 0);
  EXPECT_GT(committed[0].load() + committed[1].load(), 1000)
      << "too few inserts to exercise growth and rehash";
  EXPECT_GT(table->delta().column(1).dictionary().size(), 1000u);
}

}  // namespace
}  // namespace hyrise_nv::core
