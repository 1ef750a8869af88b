// Tests for the memory manager + block store (src/runtime/memory.h):
// budget accounting, LRU victim selection, pin semantics, spill-reload
// byte identity, the kDataLoss -> lineage-recompute fallback, spill
// footer validation against truncated/corrupted files, concurrent
// publish/pin contention, and end-to-end out-of-core execution through
// the engine.
#include "src/runtime/memory.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/runtime/engine.h"
#include "src/storage/spill.h"
#include "src/storage/tiled.h"

namespace sac::runtime::memory {
namespace {

using sac::Sac;

std::string TestDir(const std::string& tag) {
  return ::testing::TempDir() + "sac-memtest-" + tag + "-" +
         std::to_string(::getpid());
}

ValueVec Rows(int64_t salt, int count = 4) {
  ValueVec out;
  for (int i = 0; i < count; ++i) out.push_back(VInt(salt * 1000 + i));
  return out;
}

/// A store plus caller-owned slots, the way DatasetImpl owns parts_.
struct Fixture {
  explicit Fixture(uint64_t budget, const std::string& tag)
      : store(BlockStore::Options{budget, TestDir(tag)}) {
    slots.resize(64);
  }
  ~Fixture() { store.Shutdown(); }

  Status Publish(int owner, int part, int64_t salt, uint64_t bytes) {
    ValueVec& slot = slots[owner * 8 + part];
    slot = Rows(salt);
    return store.Publish(OwnerKey(owner), part, &slot, bytes,
                         "owner" + std::to_string(owner));
  }
  const void* OwnerKey(int owner) const { return &slots[owner * 8]; }

  BlockStore store;
  std::vector<ValueVec> slots;
};

TEST(MemoryManager, ChargeReleaseAndPeak) {
  MemoryManager mgr(1000);
  EXPECT_FALSE(mgr.unlimited());
  mgr.Charge(600);
  mgr.Charge(300);
  EXPECT_EQ(mgr.resident_bytes(), 900u);
  EXPECT_EQ(mgr.peak_resident_bytes(), 900u);
  mgr.Release(500);
  EXPECT_EQ(mgr.resident_bytes(), 400u);
  EXPECT_EQ(mgr.peak_resident_bytes(), 900u);  // peak is monotone
  mgr.RearmPeak();
  EXPECT_EQ(mgr.peak_resident_bytes(), 400u);  // until re-armed
}

TEST(BudgetFromEnv, ParsesSuffixesAndFallsBack) {
  ::setenv("SAC_MEM_BUDGET", "256M", 1);
  EXPECT_EQ(BudgetFromEnv(7), 256ULL << 20);
  ::setenv("SAC_MEM_BUDGET", "2g", 1);
  EXPECT_EQ(BudgetFromEnv(7), 2ULL << 30);
  ::setenv("SAC_MEM_BUDGET", "512K", 1);
  EXPECT_EQ(BudgetFromEnv(7), 512ULL << 10);
  ::setenv("SAC_MEM_BUDGET", "12345", 1);
  EXPECT_EQ(BudgetFromEnv(7), 12345u);
  ::setenv("SAC_MEM_BUDGET", "lots", 1);
  EXPECT_EQ(BudgetFromEnv(7), 7u);  // unparseable: fall back
  ::unsetenv("SAC_MEM_BUDGET");
  EXPECT_EQ(BudgetFromEnv(7), 7u);  // unset: fall back
}

TEST(BlockStore, UnlimitedBudgetNeverEvicts) {
  Fixture f(0, "unlimited");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(f.Publish(0, i, i, 1 << 20).ok());
  }
  EXPECT_EQ(f.store.evictions(), 0u);
  EXPECT_EQ(f.store.resident_bytes(), 8ULL << 20);
}

TEST(BlockStore, EvictsLeastRecentlyUsedFirst) {
  Fixture f(350, "lru");
  ASSERT_TRUE(f.Publish(0, 0, 10, 100).ok());
  ASSERT_TRUE(f.Publish(1, 0, 11, 100).ok());
  ASSERT_TRUE(f.Publish(2, 0, 12, 100).ok());
  // Touch owner0 so owner1 becomes the coldest block.
  ASSERT_TRUE(f.store.Pin(f.OwnerKey(0), 0).ok());
  f.store.Unpin(f.OwnerKey(0), 0);
  ASSERT_TRUE(f.Publish(3, 0, 13, 100).ok());  // 400 > 350: one eviction
  EXPECT_EQ(f.store.evictions(), 1u);
  EXPECT_TRUE(f.store.IsEvicted(f.OwnerKey(1), 0));
  EXPECT_FALSE(f.store.IsEvicted(f.OwnerKey(0), 0));
  EXPECT_FALSE(f.store.IsEvicted(f.OwnerKey(2), 0));
  EXPECT_LE(f.store.resident_bytes(), 350u);
}

TEST(BlockStore, PinnedBlocksAreNeverEvicted) {
  Fixture f(250, "pin");
  ASSERT_TRUE(f.Publish(0, 0, 20, 100).ok());
  ASSERT_TRUE(f.store.Pin(f.OwnerKey(0), 0).ok());  // oldest, but pinned
  ASSERT_TRUE(f.Publish(1, 0, 21, 100).ok());
  ASSERT_TRUE(f.Publish(2, 0, 22, 100).ok());  // 300 > 250: evict owner1
  EXPECT_FALSE(f.store.IsEvicted(f.OwnerKey(0), 0));
  EXPECT_TRUE(f.store.IsEvicted(f.OwnerKey(1), 0));
  EXPECT_EQ(f.store.pinned_blocks(), 1);
  f.store.Unpin(f.OwnerKey(0), 0);
  EXPECT_EQ(f.store.pinned_blocks(), 0);
}

TEST(BlockStore, AllPinnedRunsOverBudgetInsteadOfDeadlocking) {
  Fixture f(150, "overcommit");
  ASSERT_TRUE(f.Publish(0, 0, 30, 100).ok());
  ASSERT_TRUE(f.store.Pin(f.OwnerKey(0), 0).ok());
  ASSERT_TRUE(f.Publish(1, 0, 31, 100).ok());
  ASSERT_TRUE(f.store.Pin(f.OwnerKey(1), 0).ok());
  // Both blocks pinned, 200 resident against 150: Publish must still
  // succeed (over budget) rather than fail or spin.
  ASSERT_TRUE(f.Publish(2, 0, 32, 100).ok());
  EXPECT_GE(f.store.resident_bytes(), 200u);
  f.store.Unpin(f.OwnerKey(0), 0);
  f.store.Unpin(f.OwnerKey(1), 0);
}

TEST(BlockStore, PriorityBlocksOutliveOrdinaryOnes) {
  Fixture f(250, "priority");
  ASSERT_TRUE(f.Publish(0, 0, 40, 100).ok());
  f.store.SetPriority(f.OwnerKey(0), true);  // oldest but priority
  ASSERT_TRUE(f.Publish(1, 0, 41, 100).ok());
  ASSERT_TRUE(f.Publish(2, 0, 42, 100).ok());  // evicts owner1, not owner0
  EXPECT_FALSE(f.store.IsEvicted(f.OwnerKey(0), 0));
  EXPECT_TRUE(f.store.IsEvicted(f.OwnerKey(1), 0));
}

TEST(BlockStore, ReloadRestoresIdenticalRows) {
  Fixture f(250, "reload");
  ASSERT_TRUE(f.Publish(0, 0, 50, 100).ok());
  const ValueVec original = f.slots[0];  // copy before eviction
  ASSERT_TRUE(f.Publish(1, 0, 51, 100).ok());
  ASSERT_TRUE(f.Publish(2, 0, 52, 100).ok());  // evicts owner0
  ASSERT_TRUE(f.store.IsEvicted(f.OwnerKey(0), 0));
  EXPECT_TRUE(f.slots[0].empty());  // rows really left memory

  auto outcome = f.store.Pin(f.OwnerKey(0), 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), PinOutcome::kReloaded);
  ASSERT_EQ(f.slots[0].size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(f.slots[0][i].Compare(original[i]), 0);
  }
  EXPECT_EQ(f.store.reloads(), 1u);
  f.store.Unpin(f.OwnerKey(0), 0);
}

TEST(BlockStore, UnreadableSpillRoutesToRecompute) {
  const std::string dir = TestDir("recompute");
  Fixture f(250, "recompute");
  ASSERT_TRUE(f.Publish(0, 0, 60, 100).ok());
  ASSERT_TRUE(f.Publish(1, 0, 61, 100).ok());
  ASSERT_TRUE(f.Publish(2, 0, 62, 100).ok());  // evicts owner0
  ASSERT_TRUE(f.store.IsEvicted(f.OwnerKey(0), 0));

  // Truncate the eviction spill behind the store's back: the footer
  // check must fail the reload and the store must hand the block back
  // for lineage recomputation instead of erroring out.
  FILE* fp = std::fopen((dir + "/evict-0.spill").c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(::ftruncate(::fileno(fp), 10), 0);
  std::fclose(fp);

  auto outcome = f.store.Pin(f.OwnerKey(0), 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), PinOutcome::kNeedsRecompute);
  // The block was dropped: the recompute path re-publishes it fresh.
  EXPECT_FALSE(f.store.IsRegistered(f.OwnerKey(0), 0));
}

TEST(BlockStore, AccountingIsExactlyZeroAfterTeardown) {
  Fixture f(350, "teardown");
  for (int owner = 0; owner < 4; ++owner) {
    ASSERT_TRUE(f.Publish(owner, 0, 70 + owner, 100).ok());
  }
  EXPECT_GT(f.store.evictions(), 0u);  // budget forced spills
  for (int owner = 0; owner < 4; ++owner) {
    f.store.Unregister(f.OwnerKey(owner));
  }
  EXPECT_EQ(f.store.resident_bytes(), 0u);
  EXPECT_EQ(f.store.registered_blocks(), 0u);
  f.store.Shutdown();
  EXPECT_EQ(f.store.resident_bytes(), 0u);
}

TEST(BlockStore, RepublishReplacesFootprintAndStaleSpill) {
  Fixture f(250, "republish");
  ASSERT_TRUE(f.Publish(0, 0, 80, 100).ok());
  ASSERT_TRUE(f.Publish(1, 0, 81, 100).ok());
  ASSERT_TRUE(f.Publish(2, 0, 82, 100).ok());  // evicts owner0 to disk
  ASSERT_TRUE(f.store.IsEvicted(f.OwnerKey(0), 0));
  // Recompute-style re-publish with a different footprint: the stale
  // spill is dropped and the new charge replaces the old one.
  ASSERT_TRUE(f.Publish(0, 0, 99, 60).ok());
  EXPECT_FALSE(f.store.IsEvicted(f.OwnerKey(0), 0));
  auto outcome = f.store.Pin(f.OwnerKey(0), 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), PinOutcome::kResident);
  EXPECT_EQ(f.slots[0][0].Compare(VInt(99000)), 0);
  f.store.Unpin(f.OwnerKey(0), 0);
}

// Hammers one store from several threads: concurrent Publish / Pin /
// Unpin / Discard on distinct owners with a budget tight enough that
// every thread's blocks keep evicting everyone else's. Run under tsan
// by scripts/check.sh; correctness here is "no race, no lost
// accounting".
TEST(BlockStore, ConcurrentContentionKeepsAccountingConsistent) {
  constexpr int kThreads = 4;
  constexpr int kParts = 8;
  constexpr int kIters = 200;
  BlockStore store(BlockStore::Options{600, TestDir("concurrent")});
  std::vector<std::vector<ValueVec>> slots(kThreads);
  for (auto& s : slots) s.resize(kParts);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const void* owner = &slots[t];
      for (int it = 0; it < kIters; ++it) {
        const int part = it % kParts;
        ValueVec& slot = slots[t][part];
        slot = Rows(t * 100 + part);
        ASSERT_TRUE(store
                        .Publish(owner, part, &slot, 100,
                                 "t" + std::to_string(t))
                        .ok());
        auto outcome = store.Pin(owner, part);
        ASSERT_TRUE(outcome.ok());
        if (outcome.value() != PinOutcome::kNeedsRecompute) {
          ASSERT_FALSE(slot.empty());  // pin really blocks eviction
          store.Unpin(owner, part);
        }
        if (it % 17 == 0) store.Discard(owner, part);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) store.Unregister(&slots[t]);
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_EQ(store.pinned_blocks(), 0);
  store.Shutdown();
}

// ---------------------------------------------------------------------------
// Spill footer hardening (v2 format)
// ---------------------------------------------------------------------------

class SpillFooterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("spill");
    ASSERT_TRUE(storage::EnsureSpillDir(dir_).ok());
    path_ = dir_ + "/footer.spill";
    ASSERT_TRUE(storage::WriteSpill(path_, Rows(7, 16)).ok());
  }
  void TearDown() override { storage::RemoveSpillDir(dir_); }

  void Truncate(long size) {
    FILE* fp = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(fp), size), 0);
    std::fclose(fp);
  }

  std::string dir_;
  std::string path_;
};

TEST_F(SpillFooterTest, RoundTripReadsBack) {
  uint64_t bytes = 0;
  auto rows = storage::ReadSpill(path_, &bytes);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 16u);
  EXPECT_GT(bytes, 0u);
}

TEST_F(SpillFooterTest, TruncatedFileIsDataLoss) {
  Truncate(30);  // mid-payload: footer gone
  auto rows = storage::ReadSpill(path_);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDataLoss);
}

TEST_F(SpillFooterTest, TruncatedFooterIsDataLoss) {
  // Chop 8 bytes off the end: size and magic no longer line up.
  FILE* fp = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 0, SEEK_END);
  const long size = std::ftell(fp);
  std::fclose(fp);
  Truncate(size - 8);
  auto rows = storage::ReadSpill(path_);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDataLoss);
}

TEST_F(SpillFooterTest, FlippedPayloadByteIsDataLoss) {
  FILE* fp = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 24, SEEK_SET);  // inside the payload
  int c = std::fgetc(fp);
  std::fseek(fp, 24, SEEK_SET);
  std::fputc(c ^ 0xFF, fp);
  std::fclose(fp);
  auto rows = storage::ReadSpill(path_);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDataLoss);
}

TEST_F(SpillFooterTest, WrongMagicStaysIoError) {
  // Not a spill file at all: that is a caller bug or a foreign file, not
  // recoverable data loss.
  FILE* fp = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  std::fputc('X', fp);
  std::fclose(fp);
  auto rows = storage::ReadSpill(path_);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Engine-level out-of-core execution
// ---------------------------------------------------------------------------

ValueVec Ints(int n) {
  ValueVec out;
  for (int i = 0; i < n; ++i) out.push_back(VInt(i));
  return out;
}

ValueVec Sorted(ValueVec v) {
  std::sort(v.begin(), v.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return v;
}

TEST(EngineOutOfCore, BudgetedRunIsByteIdenticalToUnlimited) {
  ClusterConfig unlimited{2, 2, 8};
  Engine ref(unlimited);
  Dataset ds0 = ref.Parallelize(Ints(400), 8);
  auto mapped0 =
      ref.Map(ds0, [](const Value& v) { return VInt(v.AsInt() * 3); });
  ASSERT_TRUE(mapped0.ok());
  const ValueVec expected = Sorted(ref.Collect(mapped0.value()).value());
  const uint64_t working_set = ref.block_store().peak_resident_bytes();
  ASSERT_GT(working_set, 0u);

  ClusterConfig tight{2, 2, 8};
  tight.memory_budget_bytes = working_set / 4;
  Engine eng(tight);
  Dataset ds = eng.Parallelize(Ints(400), 8);
  auto mapped =
      eng.Map(ds, [](const Value& v) { return VInt(v.AsInt() * 3); });
  ASSERT_TRUE(mapped.ok());
  const ValueVec got = Sorted(eng.Collect(mapped.value()).value());

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].Compare(expected[i]), 0);
  }
  const MetricsSnapshot m = eng.metrics().Snapshot();
  EXPECT_GT(m.evictions, 0u);
  EXPECT_GT(m.bytes_evicted, 0u);
  EXPECT_GT(m.bytes_reloaded, 0u);
  EXPECT_GT(m.peak_resident_bytes, 0u);
}

/// The engine nests a private `sac-spill-<pid>-<n>` directory under the
/// configured base; this wipes those (simulating an operator reclaiming
/// scratch space mid-run).
void RemoveNestedSpillDirs(const std::string& base) {
  DIR* d = ::opendir(base.c_str());
  if (d == nullptr) return;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.rfind("sac-spill-", 0) == 0) {
      storage::RemoveSpillDir(base + "/" + name);
    }
  }
  ::closedir(d);
}

TEST(EngineOutOfCore, LostEvictionSpillFallsBackToLineage) {
  ClusterConfig ref_cfg{2, 2, 4};
  Engine ref(ref_cfg);
  auto expected = storage::ToLocal(
      &ref, storage::RandomTiled(&ref, 64, 64, 8, 5, 0.0, 1.0).value())
                      .value();

  ClusterConfig cfg{2, 2, 4};
  cfg.memory_budget_bytes = 4096;  // far below one 8x8 tile working set
  cfg.spill_dir = TestDir("lostspill");
  ASSERT_TRUE(storage::EnsureSpillDir(cfg.spill_dir).ok());
  Engine eng(cfg);
  auto m = storage::RandomTiled(&eng, 64, 64, 8, 5, 0.0, 1.0).value();
  ASSERT_GT(eng.metrics().Snapshot().evictions, 0u);

  // Destroy every eviction spill behind the engine's back, then read the
  // whole matrix: reloads fail and every lost partition is recomputed
  // from lineage (the deterministic generator), byte-identically.
  RemoveNestedSpillDirs(cfg.spill_dir);
  auto got = storage::ToLocal(&eng, m).value();
  ASSERT_TRUE(expected == got);
  EXPECT_GT(eng.metrics().Snapshot().reload_recomputes, 0u);
  storage::RemoveSpillDir(cfg.spill_dir);
}

TEST(EngineOutOfCore, DatasetTeardownReturnsEveryByte) {
  ClusterConfig cfg{2, 2, 8};
  cfg.memory_budget_bytes = 1 << 20;
  Engine eng(cfg);
  {
    Dataset ds = eng.Parallelize(Ints(300), 8);
    auto sq = eng.Map(ds, [](const Value& v) {
      return VInt(v.AsInt() * v.AsInt());
    });
    ASSERT_TRUE(sq.ok());
    EXPECT_GT(eng.block_store().resident_bytes(), 0u);
  }
  // Both datasets are gone: the budget must be fully repaid.
  EXPECT_EQ(eng.block_store().resident_bytes(), 0u);
  EXPECT_EQ(eng.block_store().registered_blocks(), 0u);
  EXPECT_EQ(eng.block_store().pinned_blocks(), 0);
}

TEST(EngineOutOfCore, TiledMultiplyUnderQuarterBudgetMatches) {
  // fig4b-shaped smoke: C = A * B on tiles, unlimited vs quarter budget.
  la::Tile ref_local;
  uint64_t peak = 0;
  {
    Sac ctx(ClusterConfig{2, 2, 4});
    auto a = ctx.RandomMatrix(96, 96, 16, 1).value();
    auto b = ctx.RandomMatrix(96, 96, 16, 2).value();
    auto c = algo::Multiply(&ctx, a, b);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ref_local = ctx.ToLocal(c.value()).value();
    peak = ctx.engine().block_store().peak_resident_bytes();
    ASSERT_GT(peak, 0u);
  }
  {
    ClusterConfig tight{2, 2, 4};
    tight.memory_budget_bytes = peak / 4;
    Sac ctx(tight);
    auto a = ctx.RandomMatrix(96, 96, 16, 1).value();
    auto b = ctx.RandomMatrix(96, 96, 16, 2).value();
    auto c = algo::Multiply(&ctx, a, b);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    la::Tile local = ctx.ToLocal(c.value()).value();

    ASSERT_TRUE(ref_local == local);  // byte-identical, not approximately
    EXPECT_GT(ctx.metrics().Snapshot().evictions, 0u);
    EXPECT_GT(ctx.metrics().Snapshot().bytes_reloaded, 0u);
  }
}

}  // namespace
}  // namespace sac::runtime::memory
