// The acceptance test for crash safety of the snapshot commit path: every
// injected failure point — open, write, short-write, fsync, close, rename,
// for each of the three files the commit touches (shards.mvps, MANIFEST,
// CURRENT), each as both a clean error and a simulated crash — is
// enumerated, and after EVERY one the store must still serve the prior
// generation: load succeeds, generation number unchanged, query results
// bit-identical. Never a corrupt, unloadable, or half-new store.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "dynamic/mvp_forest.h"
#include "fault/failpoint.h"
#include "fault/fault_fs.h"
#include "metric/lp.h"
#include "snapshot/snapshot_store.h"

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;
using Forest = dynamic::MvpForest<Vector, L2>;

/// One injected failure: a syscall-level failpoint restricted (by path
/// substring) to one of the files the commit writes, failing either with
/// an error return or a simulated crash at that exact syscall.
struct Scenario {
  const char* failpoint;   // "fs/open", "fs/write", ...
  const char* file;        // substring of the path: which file to hit
  bool crash;              // error return vs CrashError unwind
  std::int64_t short_write;  // >= 0: partial progress before failing

  std::string Name() const {
    std::string name = std::string(failpoint) + ":" + file;
    if (short_write >= 0) name += ":short";
    name += crash ? ":crash" : ":error";
    return name;
  }
};

/// The full commit-path enumeration. WriteFileAtomic drives every one of
/// these syscalls for each file; CURRENT's rename is the commit point.
std::vector<Scenario> EnumerateScenarios() {
  const char* kFiles[] = {SnapshotStore::kContainerFile,
                          SnapshotStore::kManifestFile,
                          SnapshotStore::kCurrentFile};
  std::vector<Scenario> scenarios;
  for (const char* file : kFiles) {
    for (const bool crash : {false, true}) {
      scenarios.push_back({"fs/open", file, crash, -1});
      scenarios.push_back({"fs/write", file, crash, -1});
      scenarios.push_back({"fs/write", file, crash, 7});  // partial progress
      scenarios.push_back({"fs/fsync", file, crash, -1});
      scenarios.push_back({"fs/close", file, crash, -1});
      scenarios.push_back({"fs/rename", file, crash, -1});
    }
  }
  return scenarios;
}

class SnapshotFaultpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/snapfault_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    fault::Failpoints::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  static Index BuildIndex(std::size_t n, std::uint64_t seed) {
    Index::Options options;
    options.num_shards = 2;
    options.tree.leaf_capacity = 8;
    options.tree.seed = seed;
    auto built =
        Index::Build(dataset::UniformVectors(n, 4, seed + 50), L2(), options);
    EXPECT_TRUE(built.ok());
    return std::move(built).ValueOrDie();
  }

  static fault::FailpointConfig ConfigFor(const Scenario& s) {
    fault::FailpointConfig config;
    config.match = s.file;
    config.crash = s.crash;
    config.short_write = s.short_write;
    return config;
  }

  std::string dir_;
};

TEST_F(SnapshotFaultpointsTest, EveryCommitFailurePointLeavesPriorGenServing) {
  SnapshotStore store(dir_);

  // Stable state: generation 1, with known query answers.
  const Index gen1_index = BuildIndex(150, 1);
  ASSERT_TRUE(store.SaveFlat(gen1_index).ok());
  const auto queries = dataset::UniformQueryVectors(6, 4, 9);
  std::vector<std::vector<Neighbor>> expected;
  for (const auto& q : queries) expected.push_back(gen1_index.RangeSearch(q, 0.7));

  const Index gen2_index = BuildIndex(220, 2);
  const auto scenarios = EnumerateScenarios();
  ASSERT_EQ(scenarios.size(), 36u);

  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.Name());
    fault::Failpoints::Instance().Arm(s.failpoint, ConfigFor(s));

    // The interrupted commit: either a clean error status or a simulated
    // process death at the armed syscall. Neither may advance CURRENT.
    bool failed = false;
    try {
      const auto saved = store.SaveFlat(gen2_index);
      failed = !saved.ok();
    } catch (const fault::CrashError&) {
      failed = true;
    }
    EXPECT_TRUE(failed) << "the armed failpoint did not interrupt the save";
    fault::Failpoints::Instance().DisarmAll();

    // Recovery ("restart after the crash"): the store must still name and
    // serve generation 1, answers bit-identical.
    auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().generation, 1u);
    EXPECT_EQ(loaded.value().index.size(), 150u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto got = loaded.value().index.RangeSearch(queries[i], 0.7);
      ASSERT_EQ(got.size(), expected[i].size()) << "query " << i;
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].id, expected[i][j].id);
        EXPECT_EQ(got[j].distance, expected[i][j].distance);
      }
    }
  }

  // With nothing armed the same save commits, and generation 2 serves.
  ASSERT_TRUE(store.SaveFlat(gen2_index).ok());
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().generation, 2u);
  EXPECT_EQ(loaded.value().index.size(), 220u);
}

TEST_F(SnapshotFaultpointsTest, ForestCommitPathSurvivesTheSameEnumeration) {
  // The delta commit path (a forest chunk over a base generation) under the
  // same enumeration: after every interrupted SaveDelta the committed delta
  // still loads with its forest intact.
  SnapshotStore store(dir_);
  ASSERT_TRUE(store.SaveFlat(BuildIndex(50, 3)).ok());

  auto save_delta = [&](const Forest& forest) {
    std::vector<std::uint64_t> stable_ids(forest.size());
    for (std::size_t f = 0; f < stable_ids.size(); ++f) stable_ids[f] = 50 + f;
    return store.SaveDelta(forest, stable_ids, /*base_tombstones=*/{0, 7},
                           /*base_generation=*/1, stable_ids.size(),
                           50 + stable_ids.size(), VectorCodec());
  };
  Forest forest{L2()};
  const auto data = dataset::UniformVectors(90, 4, 3);
  for (const auto& v : data) forest.Insert(v);
  ASSERT_TRUE(save_delta(forest).ok());
  const auto queries = dataset::UniformQueryVectors(4, 4, 11);
  std::vector<std::vector<Neighbor>> expected;
  for (const auto& q : queries) expected.push_back(forest.RangeSearch(q, 0.7));

  Forest bigger{L2()};
  for (const auto& v : dataset::UniformVectors(140, 4, 4)) bigger.Insert(v);

  for (const Scenario& s : EnumerateScenarios()) {
    SCOPED_TRACE(s.Name());
    fault::Failpoints::Instance().Arm(s.failpoint, ConfigFor(s));
    bool failed = false;
    try {
      failed = !save_delta(bigger).ok();
    } catch (const fault::CrashError&) {
      failed = true;
    }
    EXPECT_TRUE(failed) << "the armed failpoint did not interrupt the save";
    fault::Failpoints::Instance().DisarmAll();

    auto loaded = store.LoadDelta<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().generation, 2u);
    EXPECT_EQ(loaded.value().base_tombstones,
              (std::vector<std::uint64_t>{0, 7}));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto got = loaded.value().forest.RangeSearch(queries[i], 0.7);
      ASSERT_EQ(got.size(), expected[i].size()) << "query " << i;
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].id, expected[i][j].id);
        EXPECT_EQ(got[j].distance, expected[i][j].distance);
      }
    }
  }

  ASSERT_TRUE(save_delta(bigger).ok());
  auto loaded = store.LoadDelta<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().generation, 3u);
  EXPECT_EQ(loaded.value().forest.size(), 140u);
}

TEST_F(SnapshotFaultpointsTest, OrphanedGenerationFromCrashIsPrunable) {
  SnapshotStore store(dir_);
  ASSERT_TRUE(store.SaveFlat(BuildIndex(100, 5)).ok());

  // Crash at the CURRENT swap: gen-000002 fully written but never named.
  fault::FailpointConfig config;
  config.match = SnapshotStore::kCurrentFile;
  config.crash = true;
  fault::Failpoints::Instance().Arm("fs/rename", config);
  EXPECT_THROW((void)store.SaveFlat(BuildIndex(130, 6)),
               fault::CrashError);
  fault::Failpoints::Instance().DisarmAll();

  EXPECT_EQ(store.ListGenerations().size(), 2u);  // the orphan is on disk
  EXPECT_EQ(store.PruneStaleGenerations().value(), 1u);   // and prunable
  EXPECT_EQ(store.ListGenerations().size(), 1u);
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().generation, 1u);
}

}  // namespace
}  // namespace mvp::snapshot
