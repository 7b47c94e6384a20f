#include "storage/dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/pheap.h"
#include "core/database.h"
#include "index/delta_index.h"
#include "recovery/verify.h"

namespace hyrise_nv::storage {
namespace {

class DictionaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kShadow;
    auto result = alloc::PHeap::Create(8 << 20, opts);
    ASSERT_TRUE(result.ok());
    heap_ = std::move(result).ValueUnsafe();
    auto delta_off = heap_->allocator().Alloc(sizeof(PDeltaColumnMeta));
    ASSERT_TRUE(delta_off.ok());
    delta_meta_ = heap_->Resolve<PDeltaColumnMeta>(*delta_off);
    DeltaDictionary::Format(heap_->region(), delta_meta_);
    auto main_off = heap_->allocator().Alloc(sizeof(PMainColumnMeta));
    ASSERT_TRUE(main_off.ok());
    main_meta_ = heap_->Resolve<PMainColumnMeta>(*main_off);
    MainColumnFormat();
  }

  void MainColumnFormat() {
    alloc::PVector<uint64_t>::Format(heap_->region(),
                                     &main_meta_->dict_values);
    alloc::PVector<char>::Format(heap_->region(), &main_meta_->dict_blob);
  }

  DeltaDictionary MakeDelta(DataType type) {
    return DeltaDictionary(type, &heap_->region(), &heap_->allocator(),
                           delta_meta_);
  }

  MainDictionary MakeMain(DataType type) {
    return MainDictionary(type, &heap_->region(), &heap_->allocator(),
                          main_meta_);
  }

  std::unique_ptr<alloc::PHeap> heap_;
  PDeltaColumnMeta* delta_meta_ = nullptr;
  PMainColumnMeta* main_meta_ = nullptr;
};

TEST_F(DictionaryTest, NumericEncodingRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{42},
                    int64_t{INT64_MIN}, int64_t{INT64_MAX}}) {
    const uint64_t bits = EncodeNumeric(Value(v), DataType::kInt64);
    EXPECT_EQ(std::get<int64_t>(DecodeNumeric(bits, DataType::kInt64)), v);
  }
  for (double v : {0.0, -1.5, 3.14159, 1e300, -1e-300}) {
    const uint64_t bits = EncodeNumeric(Value(v), DataType::kDouble);
    EXPECT_EQ(std::get<double>(DecodeNumeric(bits, DataType::kDouble)), v);
  }
}

TEST_F(DictionaryTest, NumericCompareSignedness) {
  const auto enc = [](int64_t v) {
    return EncodeNumeric(Value(v), DataType::kInt64);
  };
  EXPECT_LT(CompareNumericEncoded(DataType::kInt64, enc(-5), enc(3)), 0);
  EXPECT_GT(CompareNumericEncoded(DataType::kInt64, enc(7), enc(-7)), 0);
  EXPECT_EQ(CompareNumericEncoded(DataType::kInt64, enc(9), enc(9)), 0);
  const auto encd = [](double v) {
    return EncodeNumeric(Value(v), DataType::kDouble);
  };
  EXPECT_LT(CompareNumericEncoded(DataType::kDouble, encd(-0.5), encd(0.5)),
            0);
}

TEST_F(DictionaryTest, DeltaDedupsValues) {
  auto dict = MakeDelta(DataType::kInt64);
  auto a = dict.GetOrInsert(Value(int64_t{10}));
  auto b = dict.GetOrInsert(Value(int64_t{20}));
  auto c = dict.GetOrInsert(Value(int64_t{10}));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *c);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(dict.size(), 2u);
}

TEST_F(DictionaryTest, DeltaLookupAndGetValue) {
  auto dict = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(dict.GetOrInsert(Value(int64_t{7})).ok());
  EXPECT_NE(dict.Lookup(Value(int64_t{7})), kInvalidValueId);
  EXPECT_EQ(dict.Lookup(Value(int64_t{8})), kInvalidValueId);
  EXPECT_EQ(std::get<int64_t>(dict.GetValue(0)), 7);
}

TEST_F(DictionaryTest, DeltaStringsDedupAndRoundTrip) {
  auto dict = MakeDelta(DataType::kString);
  auto a = dict.GetOrInsert(Value(std::string("alpha")));
  auto b = dict.GetOrInsert(Value(std::string("beta")));
  auto c = dict.GetOrInsert(Value(std::string("alpha")));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *c);
  EXPECT_EQ(std::get<std::string>(dict.GetValue(*b)), "beta");
  EXPECT_EQ(dict.Lookup(Value(std::string("beta"))), *b);
  EXPECT_EQ(dict.Lookup(Value(std::string("gamma"))), kInvalidValueId);
}

TEST_F(DictionaryTest, DeltaEmptyStringSupported) {
  auto dict = MakeDelta(DataType::kString);
  auto id = dict.GetOrInsert(Value(std::string("")));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(std::get<std::string>(dict.GetValue(*id)), "");
}

TEST_F(DictionaryTest, DeltaAttachRebuildsDedupMap) {
  {
    auto dict = MakeDelta(DataType::kString);
    ASSERT_TRUE(dict.GetOrInsert(Value(std::string("x"))).ok());
    ASSERT_TRUE(dict.GetOrInsert(Value(std::string("y"))).ok());
  }
  // Simulate restart: fresh handle, Attach rebuilds the map.
  auto dict = MakeDelta(DataType::kString);
  ASSERT_TRUE(dict.Attach().ok());
  EXPECT_EQ(dict.size(), 2u);
  auto again = dict.GetOrInsert(Value(std::string("x")));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u) << "attach must rediscover existing entries";
}

TEST_F(DictionaryTest, DeltaSurvivesCrash) {
  auto dict = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(dict.GetOrInsert(Value(int64_t{1})).ok());
  ASSERT_TRUE(dict.GetOrInsert(Value(int64_t{2})).ok());
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  auto fresh = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(fresh.Attach().ok());
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(fresh.GetValue(1)), 2);
}

TEST_F(DictionaryTest, MainBinarySearchNumeric) {
  auto main = MakeMain(DataType::kInt64);
  std::vector<uint64_t> sorted;
  for (int64_t v : {-100, -5, 0, 3, 42, 999}) {
    sorted.push_back(EncodeNumeric(Value(v), DataType::kInt64));
  }
  ASSERT_TRUE(main.values().BulkAppend(sorted.data(), sorted.size()).ok());

  EXPECT_EQ(main.Find(Value(int64_t{42})), 4u);
  EXPECT_EQ(main.Find(Value(int64_t{43})), kInvalidValueId);
  EXPECT_EQ(main.LowerBound(Value(int64_t{-100})), 0u);
  EXPECT_EQ(main.LowerBound(Value(int64_t{1})), 3u);
  EXPECT_EQ(main.UpperBound(Value(int64_t{3})), 4u);
  EXPECT_EQ(main.LowerBound(Value(int64_t{10000})), main.size());
  EXPECT_EQ(std::get<int64_t>(main.GetValue(0)), -100);
}

TEST_F(DictionaryTest, MainBinarySearchStrings) {
  auto main = MakeMain(DataType::kString);
  std::vector<uint64_t> offsets;
  for (const char* s : {"apple", "banana", "cherry"}) {
    auto off = BlobAppend(main.blob(), s);
    ASSERT_TRUE(off.ok());
    offsets.push_back(*off);
  }
  ASSERT_TRUE(
      main.values().BulkAppend(offsets.data(), offsets.size()).ok());

  EXPECT_EQ(main.Find(Value(std::string("banana"))), 1u);
  EXPECT_EQ(main.Find(Value(std::string("blueberry"))), kInvalidValueId);
  EXPECT_EQ(main.LowerBound(Value(std::string("b"))), 1u);
  EXPECT_EQ(main.UpperBound(Value(std::string("cherry"))), 3u);
  EXPECT_EQ(std::get<std::string>(main.GetValue(2)), "cherry");
}

TEST_F(DictionaryTest, EmptyMainDictionaryBehaves) {
  auto main = MakeMain(DataType::kInt64);
  EXPECT_EQ(main.size(), 0u);
  EXPECT_EQ(main.Find(Value(int64_t{1})), kInvalidValueId);
  EXPECT_EQ(main.LowerBound(Value(int64_t{1})), 0u);
}

TEST_F(DictionaryTest, BlobReadWriteRoundTrip) {
  auto desc_off = heap_->allocator().Alloc(sizeof(alloc::PVectorDesc));
  ASSERT_TRUE(desc_off.ok());
  auto* desc = heap_->Resolve<alloc::PVectorDesc>(*desc_off);
  alloc::PVector<char>::Format(heap_->region(), desc);
  alloc::PVector<char> blob(&heap_->region(), &heap_->allocator(), desc);
  auto a = BlobAppend(blob, "hello");
  auto b = BlobAppend(blob, "");
  auto c = BlobAppend(blob, std::string(1000, 'z'));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(BlobRead(blob, *a), "hello");
  EXPECT_EQ(BlobRead(blob, *b), "");
  EXPECT_EQ(BlobRead(blob, *c).size(), 1000u);
}

// ---------------------------------------------------------------------------
// Persistent hash: lookups, rehash, restart, crash at every fence.

Value TestValue(DataType type, int i) {
  if (type == DataType::kString) return Value("value-" + std::to_string(i));
  return Value(int64_t{i} * 7919 - 100000);
}

TEST_F(DictionaryTest, HashFindsEveryValueAcrossRehashes) {
  for (DataType type : {DataType::kInt64, DataType::kString}) {
    SetUp();
    auto dict = MakeDelta(type);
    ASSERT_TRUE(dict.Attach().ok());
    EXPECT_EQ(dict.Lookup(TestValue(type, 1)), kInvalidValueId);
    constexpr int kValues = 1000;  // crosses several bucket doublings
    for (int i = 0; i < kValues; ++i) {
      auto id = dict.GetOrInsert(TestValue(type, i));
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, static_cast<ValueId>(i));
    }
    for (int i = 0; i < kValues; ++i) {
      EXPECT_EQ(dict.Lookup(TestValue(type, i)), static_cast<ValueId>(i));
      EXPECT_EQ(*dict.GetOrInsert(TestValue(type, i)),
                static_cast<ValueId>(i));
    }
    EXPECT_EQ(dict.size(), static_cast<uint64_t>(kValues));
    EXPECT_EQ(dict.Lookup(TestValue(type, kValues)), kInvalidValueId);

    // A restart re-attaches without rebuilding anything.
    ASSERT_TRUE(heap_->region().SimulateCrash().ok());
    auto fresh = MakeDelta(type);
    ASSERT_TRUE(fresh.Attach().ok());
    ASSERT_TRUE(fresh.RepairTornInsert().ok());
    for (int i = 0; i < kValues; i += 37) {
      EXPECT_EQ(fresh.Lookup(TestValue(type, i)), static_cast<ValueId>(i));
    }
  }
}

TEST_F(DictionaryTest, RebuildHashMatchesIncrementalInserts) {
  auto dict = MakeDelta(DataType::kString);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(dict.GetOrInsert(TestValue(DataType::kString, i)).ok());
  }
  // Drop the hash (as a checkpoint load does) and derive it again.
  alloc::PVector<uint32_t>::Format(heap_->region(), &delta_meta_->dict_hash);
  EXPECT_FALSE(dict.Attach().ok()) << "values without a hash are corrupt";
  ASSERT_TRUE(dict.RebuildHash().ok());
  ASSERT_TRUE(dict.Attach().ok());
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(dict.Lookup(TestValue(DataType::kString, i)),
              static_cast<ValueId>(i));
  }
}

TEST_F(DictionaryTest, CorruptHashHeaderFailsAttach) {
  auto dict = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(dict.GetOrInsert(Value(int64_t{1})).ok());
  alloc::PVector<uint32_t> hash(&heap_->region(), &heap_->allocator(),
                                &delta_meta_->dict_hash);
  hash.data()[0] = static_cast<uint32_t>(hash.capacity());  // no room
  EXPECT_TRUE(dict.Attach().IsCorruption());
}

/// The sizes and the head of an insert persist under one fence, so a
/// crash on real hardware may keep either without the other. Both torn
/// states are rebuilt by hand here and must be finished by repair.
TEST_F(DictionaryTest, RepairFinishesEitherHalfOfACommit) {
  for (DataType type : {DataType::kInt64, DataType::kString}) {
    for (bool head_landed : {true, false}) {
      SetUp();
      auto dict = MakeDelta(type);
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(dict.GetOrInsert(TestValue(type, i)).ok());
      }
      alloc::PVector<uint64_t> values(&heap_->region(), &heap_->allocator(),
                                      &delta_meta_->dict_values);
      alloc::PVector<uint32_t> hash(&heap_->region(), &heap_->allocator(),
                                    &delta_meta_->dict_hash);
      uint32_t* table = hash.data();
      const uint32_t buckets = table[0];
      if (head_landed) {
        values.TruncateTo(19);
        hash.TruncateTo(hash.size() - 1);
      } else {
        const uint64_t bucket = DictBucketOf(
            index::HashValue(TestValue(type, 19), type), buckets);
        table[1 + bucket] = table[1 + buckets + 19];
      }
      auto fresh = MakeDelta(type);
      ASSERT_TRUE(fresh.Attach().ok());
      ASSERT_TRUE(fresh.RepairTornInsert().ok());
      EXPECT_EQ(fresh.size(), 20u);
      EXPECT_EQ(hash.size(), 1u + buckets + 20);
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(fresh.Lookup(TestValue(type, i)), static_cast<ValueId>(i));
      }
    }
  }
}

/// Crashes one GetOrInsert at every fence it issues — for a numeric and
/// a string column, on a plain append and on an insert that rehashes —
/// then recovers through the engine's fast open. No value may be lost or
/// duplicated, and DeepVerify must find both the torn and the repaired
/// image consistent.
TEST(DictionaryCrashTest, EveryFenceOfGetOrInsertRecovers) {
  for (DataType type : {DataType::kInt64, DataType::kString}) {
    for (int prefill : {5, 16}) {  // 16: the next insert doubles buckets
      for (uint64_t fences = 0;; ++fences) {
        SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)) +
                     " prefill " + std::to_string(prefill) + " fences " +
                     std::to_string(fences));
        core::DatabaseOptions options;
        options.mode = core::DurabilityMode::kNvm;
        options.region_size = 16 << 20;
        options.tracking = nvm::TrackingMode::kShadow;
        auto db = std::move(core::Database::Create(options)).ValueUnsafe();
        auto schema = *Schema::Make({{"c", type}});
        Table* table = *db->CreateTable("t", schema);
        std::vector<ValueId> ids;
        for (int i = 0; i < prefill; ++i) {
          ids.push_back(
              *table->delta().column(0).dictionary().GetOrInsert(
                  TestValue(type, i)));
        }
        nvm::PmemRegion& region = db->heap().region();
        region.FreezeShadowAfterFences(fences);
        auto inserted = table->delta().column(0).dictionary().GetOrInsert(
            TestValue(type, prefill));
        ASSERT_TRUE(inserted.ok());
        const bool cut = region.shadow_frozen();

        ASSERT_TRUE(region.SimulateCrash().ok());
        const auto torn = recovery::DeepVerify(region);
        EXPECT_TRUE(torn.clean()) << torn.Summary();

        auto recovered = core::Database::CrashAndRecover(std::move(db));
        ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        db = std::move(recovered).ValueUnsafe();
        DeltaDictionary& dict =
            (*db->GetTable("t"))->delta().column(0).dictionary();
        for (int i = 0; i < prefill; ++i) {
          EXPECT_EQ(dict.Lookup(TestValue(type, i)), ids[i]);
        }
        const ValueId survivor = dict.Lookup(TestValue(type, prefill));
        if (!cut) EXPECT_EQ(survivor, *inserted);
        auto again = dict.GetOrInsert(TestValue(type, prefill));
        ASSERT_TRUE(again.ok());
        if (survivor != kInvalidValueId) EXPECT_EQ(*again, survivor);
        EXPECT_EQ(dict.size(), static_cast<uint64_t>(prefill) + 1)
            << "no duplicate after re-insert";
        const auto repaired = recovery::DeepVerify(db->heap().region());
        EXPECT_TRUE(repaired.clean()) << repaired.Summary();
        if (!cut) break;
      }
    }
  }
}

}  // namespace
}  // namespace hyrise_nv::storage
