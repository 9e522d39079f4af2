// Save -> load -> search round-trips for every factory-constructible
// method, asserting bit-identical results: equal neighbor ids AND equal
// float distances, with identical graph adjacency where a base graph
// exists. A snapshot that changes any answer is a persistence bug even if
// recall looks fine.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "methods/factory.h"
#include "synth/generators.h"

namespace gass::io {
namespace {

using core::Dataset;
using methods::GraphIndex;

std::string TempSnapshotPath(const std::string& method) {
  // Process-unique: ctest runs this binary and its forced-scalar variant
  // concurrently, and they must not clobber each other's snapshots.
  return std::string(::testing::TempDir()) + "/roundtrip_" +
         std::to_string(::getpid()) + "_" + method + ".gass";
}

void ExpectIdenticalResults(const methods::SearchResult& a,
                            const methods::SearchResult& b,
                            const std::string& what) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << what;
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << what << " rank " << i;
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance)
        << what << " rank " << i;
  }
  // The paper's hardware-independent cost measure must survive the reload
  // too: identical traversals imply identical instrumented counts.
  EXPECT_EQ(a.stats.distance_computations, b.stats.distance_computations)
      << what;
  EXPECT_EQ(a.stats.hops, b.stats.hops) << what;
}

class SnapshotRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundTripTest, SearchResultsBitIdenticalAfterReload) {
  const std::string& method = GetParam();
  const Dataset data = synth::UniformHypercube(240, 8, 19);
  const Dataset queries = synth::UniformHypercube(12, 8, 20);

  auto original = methods::CreateIndex(method, 7);
  original->Build(data);
  const std::string path = TempSnapshotPath(method);
  ASSERT_TRUE(methods::SaveIndex(*original, path).ok());

  auto restored = methods::CreateIndex(method, 7);
  ASSERT_TRUE(methods::LoadIndex(restored.get(), data, path).ok());

  // Structural identity first: same adjacency everywhere.
  if (original->HasBaseGraph()) {
    const core::Graph want = original->graph();
    const core::Graph got = restored->graph();
    ASSERT_EQ(got.size(), want.size());
    for (core::VectorId v = 0; v < want.size(); ++v) {
      ASSERT_EQ(got.Neighbors(v), want.Neighbors(v))
          << method << " vertex " << v;
    }
  }

  methods::SearchParams params;
  params.k = 10;
  params.beam_width = 48;
  if (original->SupportsConcurrentSearch()) {
    // Identically-seeded contexts pin every random choice, so the results
    // must match bit for bit.
    methods::SearchContext ctx_a = original->MakeSearchContext(99);
    methods::SearchContext ctx_b = restored->MakeSearchContext(99);
    for (core::VectorId q = 0; q < queries.size(); ++q) {
      const auto a = original->Search(queries.Row(q), params, &ctx_a);
      const auto b = restored->Search(queries.Row(q), params, &ctx_b);
      ExpectIdenticalResults(a, b, method + " query " + std::to_string(q));
    }
  } else {
    // Composite indexes (ELPIS) search deterministically through their
    // internal serial state; same query sequence -> same stream.
    for (core::VectorId q = 0; q < queries.size(); ++q) {
      const auto a = original->Search(queries.Row(q), params);
      const auto b = restored->Search(queries.Row(q), params);
      ExpectIdenticalResults(a, b, method + " query " + std::to_string(q));
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SnapshotRoundTripTest,
                         ::testing::ValuesIn(methods::AllMethodNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SnapshotMismatchTest, DifferentBuildSeedRejectedByFingerprint) {
  const Dataset data = synth::UniformHypercube(200, 8, 21);
  auto original = methods::CreateIndex("hnsw", 7);
  original->Build(data);
  const std::string path = TempSnapshotPath("fingerprint");
  ASSERT_TRUE(methods::SaveIndex(*original, path).ok());

  auto other_seed = methods::CreateIndex("hnsw", 8);
  const core::Status status = methods::LoadIndex(other_seed.get(), data, path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(SnapshotMismatchTest, WrongMethodRejectedByName) {
  const Dataset data = synth::UniformHypercube(200, 8, 22);
  auto original = methods::CreateIndex("hnsw", 7);
  original->Build(data);
  const std::string path = TempSnapshotPath("wrong_method");
  ASSERT_TRUE(methods::SaveIndex(*original, path).ok());

  auto vamana = methods::CreateIndex("vamana", 7);
  EXPECT_FALSE(methods::LoadIndex(vamana.get(), data, path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotMismatchTest, WrongDatasetShapeRejected) {
  const Dataset data = synth::UniformHypercube(200, 8, 23);
  auto original = methods::CreateIndex("hnsw", 7);
  original->Build(data);
  const std::string path = TempSnapshotPath("wrong_shape");
  ASSERT_TRUE(methods::SaveIndex(*original, path).ok());

  const Dataset fewer = synth::UniformHypercube(150, 8, 23);
  auto fresh = methods::CreateIndex("hnsw", 7);
  EXPECT_FALSE(methods::LoadIndex(fresh.get(), fewer, path).ok());
  const Dataset wider = synth::UniformHypercube(200, 12, 23);
  auto fresh2 = methods::CreateIndex("hnsw", 7);
  EXPECT_FALSE(methods::LoadIndex(fresh2.get(), wider, path).ok());
  std::remove(path.c_str());
}

TEST(LoadAnyIndexTest, ResolvesMethodFromSnapshotHeader) {
  const Dataset data = synth::UniformHypercube(200, 8, 24);
  auto original = methods::CreateIndex("vamana", 7);
  original->Build(data);
  const std::string path = TempSnapshotPath("loadany");
  ASSERT_TRUE(methods::SaveIndex(*original, path).ok());

  std::unique_ptr<methods::GraphIndex> loaded;
  ASSERT_TRUE(methods::LoadAnyIndex(path, data, 7, &loaded).ok());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Name(), original->Name());
  methods::SearchParams params;
  params.k = 5;
  const auto result = loaded->Search(data.Row(11), params);
  ASSERT_FALSE(result.neighbors.empty());
  EXPECT_EQ(result.neighbors[0].id, 11u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gass::io
