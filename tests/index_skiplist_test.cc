#include "index/pskiplist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "nvm/nvm_env.h"

#include "common/random.h"
#include "core/database.h"
#include "core/query.h"
#include "index/index_set.h"
#include "recovery/verify.h"
#include "storage/catalog.h"
#include "storage/merge.h"

namespace hyrise_nv::index {
namespace {

using storage::DataType;
using storage::RowLocation;
using storage::Value;

class SkipListTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kShadow;
    auto heap_result = alloc::PHeap::Create(32 << 20, opts);
    ASSERT_TRUE(heap_result.ok());
    heap_ = std::move(heap_result).ValueUnsafe();
    auto meta_off = heap_->allocator().Alloc(sizeof(storage::PIndexMeta));
    ASSERT_TRUE(meta_off.ok());
    meta_ = heap_->Resolve<storage::PIndexMeta>(*meta_off);
    std::memset(meta_, 0, sizeof(storage::PIndexMeta));
  }

  PSkipList MakeList(DataType type) {
    EXPECT_TRUE(PSkipList::Create(type, *heap_, meta_, 0).ok());
    PSkipList list(type, heap_.get(), meta_);
    EXPECT_TRUE(list.Attach().ok());
    return list;
  }

  std::vector<uint64_t> RangeRows(const PSkipList& list, const Value& lo,
                                  const Value& hi) {
    std::vector<uint64_t> rows;
    list.ForEachInRange(lo, hi, [&](uint64_t row) { rows.push_back(row); });
    return rows;
  }

  std::unique_ptr<alloc::PHeap> heap_;
  storage::PIndexMeta* meta_ = nullptr;
};

TEST_F(SkipListTest, EmptyListRangeIsEmpty) {
  auto list = MakeList(DataType::kInt64);
  EXPECT_TRUE(
      RangeRows(list, Value(int64_t{0}), Value(int64_t{100})).empty());
  EXPECT_EQ(list.entry_count(), 0u);
}

TEST_F(SkipListTest, OrderedIterationOverRandomInserts) {
  auto list = MakeList(DataType::kInt64);
  Rng rng(5);
  std::vector<int64_t> keys;
  for (uint64_t row = 0; row < 500; ++row) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(10000)) - 5000;
    keys.push_back(key);
    ASSERT_TRUE(list.Insert(Value(key), row).ok());
  }
  // Full-range walk must return rows in key order.
  std::vector<int64_t> walked;
  list.ForEachInRange(Value(int64_t{-5000}), Value(int64_t{5000}),
                      [&](uint64_t row) { walked.push_back(keys[row]); });
  ASSERT_EQ(walked.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
}

TEST_F(SkipListTest, RangeBoundsInclusive) {
  auto list = MakeList(DataType::kInt64);
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(list.Insert(Value(k), static_cast<uint64_t>(k)).ok());
  }
  const auto rows = RangeRows(list, Value(int64_t{5}), Value(int64_t{8}));
  EXPECT_EQ(rows, (std::vector<uint64_t>{5, 6, 7, 8}));
  EXPECT_TRUE(RangeRows(list, Value(int64_t{100}), Value(int64_t{200}))
                  .empty());
}

TEST_F(SkipListTest, DuplicateKeysAllReturned) {
  auto list = MakeList(DataType::kInt64);
  for (uint64_t row = 0; row < 10; ++row) {
    ASSERT_TRUE(list.Insert(Value(int64_t{7}), row).ok());
  }
  std::vector<uint64_t> rows;
  list.ForEachEqual(Value(int64_t{7}),
                    [&](uint64_t row) { rows.push_back(row); });
  EXPECT_EQ(rows.size(), 10u);
}

TEST_F(SkipListTest, NegativeAndDoubleKeysOrderCorrectly) {
  auto list = MakeList(DataType::kDouble);
  const std::vector<double> values{-3.5, -0.1, 0.0, 2.25, 100.0};
  for (uint64_t row = 0; row < values.size(); ++row) {
    ASSERT_TRUE(list.Insert(Value(values[row]), row).ok());
  }
  const auto rows = RangeRows(list, Value(-1.0), Value(50.0));
  EXPECT_EQ(rows, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(SkipListTest, StringKeysLexicographic) {
  auto list = MakeList(DataType::kString);
  const std::vector<std::string> values{"pear", "apple", "fig", "banana"};
  for (uint64_t row = 0; row < values.size(); ++row) {
    ASSERT_TRUE(list.Insert(Value(values[row]), row).ok());
  }
  std::vector<uint64_t> rows;
  list.ForEachInRange(Value(std::string("b")), Value(std::string("g")),
                      [&](uint64_t row) { rows.push_back(row); });
  // banana (3), fig (2) — in lexicographic order.
  EXPECT_EQ(rows, (std::vector<uint64_t>{3, 2}));
}

TEST_F(SkipListTest, SurvivesCrash) {
  auto list = MakeList(DataType::kInt64);
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(list.Insert(Value(k), static_cast<uint64_t>(k)).ok());
  }
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  PSkipList fresh(DataType::kInt64, heap_.get(), meta_);
  ASSERT_TRUE(fresh.Attach().ok());
  EXPECT_EQ(fresh.entry_count(), 100u);
  EXPECT_EQ(RangeRows(fresh, Value(int64_t{10}), Value(int64_t{12})).size(),
            3u);
}

TEST_F(SkipListTest, CrashMidInsertLosesOnlyThatEntry) {
  auto list = MakeList(DataType::kInt64);
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(list.Insert(Value(k), static_cast<uint64_t>(k)).ok());
  }
  // Freeze after 1 more fence: the next insert's node persist lands but
  // its publication does not (or vice versa).
  heap_->region().FreezeShadowAfterFences(1);
  ASSERT_TRUE(list.Insert(Value(int64_t{999}), 999).ok());
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  alloc::PAllocator fresh_alloc(heap_->region());
  ASSERT_TRUE(fresh_alloc.Recover().ok());
  PSkipList fresh(DataType::kInt64, heap_.get(), meta_);
  ASSERT_TRUE(fresh.Attach().ok());
  EXPECT_EQ(fresh.entry_count(), 50u) << "torn insert must not appear";
}

TEST_F(SkipListTest, CorruptLinkEndsWalksWithCorruption) {
  auto list = MakeList(DataType::kInt64);
  for (int64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(list.Insert(Value(k), static_cast<uint64_t>(k)).ok());
  }
  // Point the 10th node's level-0 link past the end of the region.
  auto& region = heap_->region();
  auto* node = heap_->Resolve<storage::PSkipNode>(meta_->head_off);
  for (int i = 0; i < 10; ++i) {
    node = heap_->Resolve<storage::PSkipNode>(node->next[0]);
  }
  region.AtomicPersist64(&node->next[0], region.size() + 4096);

  PSkipList fresh(DataType::kInt64, heap_.get(), meta_);
  ASSERT_TRUE(fresh.Attach().ok()) << "attach no longer walks the list";
  std::vector<uint64_t> rows;
  const Status scan = fresh.ForEachInRange(
      Value(int64_t{0}), Value(int64_t{29}),
      [&](uint64_t row) { rows.push_back(row); });
  EXPECT_TRUE(scan.IsCorruption());
  EXPECT_EQ(rows.size(), 10u) << "rows before the bad link are returned";
  // Key 10's level-0 search must cross the bad link after key 9.
  EXPECT_TRUE(fresh.Insert(Value(int64_t{10}), 100).IsCorruption());
  EXPECT_EQ(fresh.entry_count(), 10u);
}

// Engine-level: ordered index drives range scans across main and delta,
// survives merge and crash.
TEST(OrderedIndexEngineTest, RangeScanViaOrderedIndex) {
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.tracking = nvm::TrackingMode::kShadow;
  auto db = std::move(core::Database::Create(options)).ValueUnsafe();
  auto schema = *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"v", DataType::kString}});
  storage::Table* table = *db->CreateTable("kv", schema);
  ASSERT_TRUE(db->CreateOrderedIndex("kv", 0).ok());

  for (int64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(db->InsertAutoCommit(
                      table, {Value(k), Value(std::string("m"))})
                    .ok());
  }
  ASSERT_TRUE(db->Merge("kv").ok());  // 60 rows into main
  for (int64_t k = 60; k < 100; ++k) {
    ASSERT_TRUE(db->InsertAutoCommit(
                      table, {Value(k), Value(std::string("d"))})
                    .ok());
  }

  auto rows = core::ScanRange(table, 0, Value(int64_t{50}),
                              Value(int64_t{69}), db->ReadSnapshot(),
                              storage::kTidNone, db->indexes(table));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);

  // Equality through the ordered index too.
  auto equal = db->ScanEqual(table, 0, Value(int64_t{42}),
                             db->ReadSnapshot(), storage::kTidNone);
  ASSERT_TRUE(equal.ok());
  EXPECT_EQ(equal->size(), 1u);

  // Crash + recover: ordered index still serves ranges with no rebuild.
  auto recovered =
      std::move(core::Database::CrashAndRecover(std::move(db)))
          .ValueUnsafe();
  storage::Table* rtable = *recovered->GetTable("kv");
  auto rrows = core::ScanRange(rtable, 0, Value(int64_t{50}),
                               Value(int64_t{69}),
                               recovered->ReadSnapshot(),
                               storage::kTidNone,
                               recovered->indexes(rtable));
  ASSERT_TRUE(rrows.ok());
  EXPECT_EQ(rrows->size(), 20u);
}

TEST(OrderedIndexEngineTest, FastOpenSurvivesCorruptLinkDeepVerifyFindsIt) {
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.tracking = nvm::TrackingMode::kShadow;
  auto db = std::move(core::Database::Create(options)).ValueUnsafe();
  auto schema = *storage::Schema::Make({{"k", DataType::kInt64}});
  storage::Table* table = *db->CreateTable("kv", schema);
  ASSERT_TRUE(db->CreateOrderedIndex("kv", 0).ok());
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(k)}).ok());
  }
  const storage::PIndexMeta* idx = nullptr;
  for (const auto& slot : table->group()->indexes) {
    if (slot.state == 1) idx = &slot;
  }
  ASSERT_NE(idx, nullptr);
  auto& region = db->heap().region();
  auto* node = db->heap().Resolve<storage::PSkipNode>(idx->head_off);
  for (int i = 0; i < 20; ++i) {
    node = db->heap().Resolve<storage::PSkipNode>(node->next[0]);
  }
  region.AtomicPersist64(&node->next[0], region.size() + 4096);

  auto recovered = core::Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  db = std::move(recovered).ValueUnsafe();
  table = *db->GetTable("kv");
  auto rows = db->ScanRange(table, 0, Value(int64_t{0}), Value(int64_t{49}),
                            db->ReadSnapshot(), storage::kTidNone);
  EXPECT_TRUE(rows.status().IsCorruption());
  const auto report = recovery::DeepVerify(db->heap().region());
  EXPECT_TRUE(report.HasStructure("index")) << report.Summary();
}

TEST(OrderedIndexEngineTest, WalRecoveryRebuildsOrderedIndex) {
  const std::string dir = nvm::TempPath("ordered_wal");
  std::filesystem::create_directories(dir);
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kWalValue;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  auto db = std::move(core::Database::Create(options)).ValueUnsafe();
  auto schema = *storage::Schema::Make({{"k", DataType::kInt64}});
  storage::Table* table = *db->CreateTable("kv", schema);
  ASSERT_TRUE(db->CreateOrderedIndex("kv", 0).ok());
  for (int64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(k)}).ok());
  }
  auto recovered =
      std::move(core::Database::CrashAndRecover(std::move(db)))
          .ValueUnsafe();
  storage::Table* rtable = *recovered->GetTable("kv");
  ASSERT_TRUE(recovered->indexes(rtable)->HasOrderedIndex(0));
  auto rows = core::ScanRange(rtable, 0, Value(int64_t{10}),
                              Value(int64_t{19}),
                              recovered->ReadSnapshot(), storage::kTidNone,
                              recovered->indexes(rtable));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace hyrise_nv::index
