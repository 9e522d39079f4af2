// Bit-identity pins for every factory method with a base graph: for a
// seeded 1,500-row set, the build's distance count, the XXH64 of the
// snapshot image, and one digest per search path (the serial Search and
// the context Search) over 20 queries of each answer's ids and distance
// bits, its distance count and its hops. The same index loaded from its
// image must save the same bytes and give the same context answers. Any
// change to a graph, a seed strategy, a random stream or the search moves
// a pin. Distances are
// bit-identical across SIMD levels, so the pins hold under forced-scalar
// kernels too.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/hash.h"
#include "methods/factory.h"
#include "synth/generators.h"

namespace gass::methods {
namespace {

using core::Dataset;
using core::VectorId;

struct Pin {
  const char* method;
  std::uint64_t build_distances;
  std::uint64_t snapshot;
  std::uint64_t serial;
  std::uint64_t context;
};

// Outside the SIMD kernels (built with contraction off), GCC fuses
// a * b + c into one FMA instruction whenever the target has one, as
// -march=native builds do on current x86-64. The data generator, LSH
// projections and tree splits then round differently, so a target with
// FMA has its own pins. The sanitizer presets build without
// -march=native and take the second table.
#if defined(__FMA__)
constexpr Pin kPins[] = {
    {"kgraph", 865623, 0x52aa7fbf0fb281beULL, 0x2f923626fd6c4e82ULL,
     0xdce325633eb9abb6ULL},
    {"ieh", 1389985, 0x4f4920519859e97dULL, 0xe3d726d71b98b669ULL,
     0xc8ff6de2760ff44bULL},
    {"fanng", 1396735, 0x633150ae2cf7ead9ULL, 0x270a60285200098cULL,
     0xad5d16bc4415e44dULL},
    {"efanna", 1119032, 0xce1c15abdbf214e1ULL, 0x87c87dff1b831787ULL,
     0x87c87dff1b831787ULL},
    {"nsw", 366748, 0x47892801029b7741ULL, 0xa592dbb4f9d77466ULL,
     0x1c051ee1da9a288dULL},
    {"hnsw", 569289, 0x85dd0ec5e772262eULL, 0x419715ece477bd86ULL,
     0x419715ece477bd86ULL},
    {"hvs", 605269, 0x30f496abac74ac50ULL, 0x4f6141df8df2b65cULL,
     0x4f6141df8df2b65cULL},
    {"dpg", 1549518, 0x06680be95eb37987ULL, 0x07c491a980720952ULL,
     0x92f5beb56472d28fULL},
    {"ngt", 992632, 0xe951c6aecf374772ULL, 0x5d4702416d0559dcULL,
     0x5d4702416d0559dcULL},
    {"nsg", 1414987, 0x28d8e493e034f2c8ULL, 0x8232a0e330359b60ULL,
     0x40979c706b6bc288ULL},
    {"ssg", 1904136, 0xda2719ecb503f7cbULL, 0x526e1e17b7070a3fULL,
     0x9aea9eaa87c76133ULL},
    {"vamana", 3935663, 0x2eccaa4a00235234ULL, 0x789999e39b52ded1ULL,
     0xac5fe0fdaef4d56bULL},
    {"sptag-kdt", 4606618, 0x2972de77248f0065ULL, 0xfbc207de6ae87f83ULL,
     0xfbc207de6ae87f83ULL},
    {"sptag-bkt", 4606618, 0x1fe2bfbd9b9c9105ULL, 0xeee9cc8479b7f65fULL,
     0xeee9cc8479b7f65fULL},
    {"hcnng", 1830175, 0xf7705267917c43b1ULL, 0xc94acf6be8db6f45ULL,
     0xc94acf6be8db6f45ULL},
    {"lshapg", 569289, 0x36051c2bd2a85d94ULL, 0x0c8899091caf1106ULL,
     0xe9373545b50c62c6ULL},
};
#else
constexpr Pin kPins[] = {
    {"kgraph", 865623, 0x52aa7fbf0fb281beULL, 0xa2c28680a8cd1d7bULL,
     0x0bf64e6f035c06c8ULL},
    {"ieh", 1389985, 0x910c45c79393f83dULL, 0xe13ddd5a2c1d5f9fULL,
     0xf0b28a13e5ff15d6ULL},
    {"fanng", 1396641, 0xd5e3d01cebe277beULL, 0x5ad330309b447031ULL,
     0xc54bfb44b248bffbULL},
    {"efanna", 1119032, 0xf471cfb4d87dd7b1ULL, 0xd0105c1c658e4283ULL,
     0xd0105c1c658e4283ULL},
    {"nsw", 366748, 0x47892801029b7741ULL, 0xa5b18dd96027485dULL,
     0x44e1522c10725c9fULL},
    {"hnsw", 569289, 0x85dd0ec5e772262eULL, 0x5bf654fc483afff2ULL,
     0x5bf654fc483afff2ULL},
    {"hvs", 605269, 0x7e17468033b6d454ULL, 0x9383d1ac72f09d88ULL,
     0x9383d1ac72f09d88ULL},
    {"dpg", 1549518, 0x06680be95eb37987ULL, 0xdb5d7fe222b4a7c9ULL,
     0x3907116c36d5d874ULL},
    {"ngt", 992632, 0xfda51ecc32c5d09eULL, 0x631d4f087ddf8447ULL,
     0x631d4f087ddf8447ULL},
    {"nsg", 1414987, 0x28d8e493e034f2c8ULL, 0xb0b978d93094a844ULL,
     0x3dfde048e7e6f450ULL},
    {"ssg", 1904136, 0xda2719ecb503f7cbULL, 0xda1e313cd0b1a40aULL,
     0xa90fe07861930ad6ULL},
    {"vamana", 3935663, 0x2eccaa4a00235234ULL, 0x765acfd6fa15c799ULL,
     0x0cdc397bcc46d522ULL},
    {"sptag-kdt", 4606618, 0xaccaad00a51c819dULL, 0xa44161328d72e912ULL,
     0xa44161328d72e912ULL},
    {"sptag-bkt", 4606618, 0x58afafd79e488bdaULL, 0x6a9de489140d4871ULL,
     0x6a9de489140d4871ULL},
    {"hcnng", 1830175, 0x5867d780843b82d3ULL, 0x8eba52d38a92ecefULL,
     0x8eba52d38a92ecefULL},
    {"lshapg", 569289, 0x49e5ee0578452c49ULL, 0x3716e1334cfbd0b9ULL,
     0x89085629f50084adULL},
};
#endif

void PrintTo(const Pin& pin, std::ostream* os) { *os << pin.method; }

class MethodPinTest : public ::testing::TestWithParam<Pin> {
 protected:
  static void SetUpTestSuite() {
    synth::ClusterParams params;
    params.num_clusters = 10;
    data_ = new Dataset(synth::GaussianClusters(1500, 16, params, 5));
    queries_ = new Dataset(synth::GaussianClusters(20, 16, params, 6));
  }
  static void TearDownTestSuite() {
    delete queries_;
    delete data_;
    queries_ = nullptr;
    data_ = nullptr;
  }

  static SearchParams Params() {
    SearchParams params;
    params.k = 10;
    params.beam_width = 48;
    params.num_seeds = 8;
    return params;
  }

  /// Appends one answer's ids, distance bits and work counters to `out`.
  static void Record(const SearchResult& result,
                     std::vector<std::uint8_t>* out) {
    const auto put = [out](const void* bytes, std::size_t len) {
      const auto* p = static_cast<const std::uint8_t*>(bytes);
      out->insert(out->end(), p, p + len);
    };
    const std::uint64_t size = result.neighbors.size();
    put(&size, sizeof(size));
    for (const core::Neighbor& nb : result.neighbors) {
      put(&nb.id, sizeof(nb.id));
      put(&nb.distance, sizeof(nb.distance));
    }
    put(&result.stats.distance_computations,
        sizeof(result.stats.distance_computations));
    put(&result.stats.hops, sizeof(result.stats.hops));
  }

  static std::uint64_t Hash(const std::vector<std::uint8_t>& bytes) {
    return io::Hash64(bytes.data(), bytes.size());
  }

  static Dataset* data_;
  static Dataset* queries_;
};

Dataset* MethodPinTest::data_ = nullptr;
Dataset* MethodPinTest::queries_ = nullptr;

TEST_P(MethodPinTest, BuildSnapshotAndSearchesMatchPins) {
  const Pin& pin = GetParam();
  auto index = CreateIndex(pin.method, 42);
  ASSERT_TRUE(index->HasBaseGraph());
  const std::uint64_t build_distances =
      index->Build(*data_).distance_computations;

  std::vector<std::uint8_t> image;
  ASSERT_TRUE(SerializeIndex(*index, &image).ok());
  const std::uint64_t snapshot = Hash(image);

  // The serial path first, on the freshly built index, so its internal
  // random streams start where a build leaves them.
  std::vector<std::uint8_t> serial;
  for (VectorId q = 0; q < queries_->size(); ++q) {
    Record(index->Search(queries_->Row(q), Params()), &serial);
  }
  std::vector<std::uint8_t> context;
  SearchContext ctx = index->MakeSearchContext(99);
  for (VectorId q = 0; q < queries_->size(); ++q) {
    Record(index->Search(queries_->Row(q), Params(), &ctx), &context);
  }

  // A load decodes the image back into the searched form: it must save
  // the same bytes and answer the context searches the same way.
  io::SnapshotReader reader;
  ASSERT_TRUE(io::SnapshotReader::OpenBytes(
                  std::make_shared<const std::vector<std::uint8_t>>(image),
                  "pin image", &reader)
                  .ok());
  auto loaded = CreateIndex(pin.method, 42);
  ASSERT_TRUE(LoadIndexFrom(loaded.get(), *data_, reader).ok());
  std::vector<std::uint8_t> reloaded_image;
  ASSERT_TRUE(SerializeIndex(*loaded, &reloaded_image).ok());
  EXPECT_EQ(Hash(reloaded_image), pin.snapshot);
  std::vector<std::uint8_t> loaded_context;
  SearchContext loaded_ctx = loaded->MakeSearchContext(99);
  for (VectorId q = 0; q < queries_->size(); ++q) {
    Record(loaded->Search(queries_->Row(q), Params(), &loaded_ctx),
           &loaded_context);
  }
  EXPECT_EQ(Hash(loaded_context), pin.context);

  EXPECT_EQ(build_distances, pin.build_distances);
  EXPECT_EQ(snapshot, pin.snapshot);
  EXPECT_EQ(Hash(serial), pin.serial);
  EXPECT_EQ(Hash(context), pin.context);
  if (build_distances != pin.build_distances || snapshot != pin.snapshot ||
      Hash(serial) != pin.serial || Hash(context) != pin.context) {
    std::printf("    {\"%s\", %llu, 0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL},\n",
                pin.method, static_cast<unsigned long long>(build_distances),
                static_cast<unsigned long long>(snapshot),
                static_cast<unsigned long long>(Hash(serial)),
                static_cast<unsigned long long>(Hash(context)));
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodPinTest, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<Pin>& info) {
                           std::string name = info.param.method;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Every factory method with a base graph is pinned above.
TEST(MethodPinCoverageTest, PinsEveryMethodWithABaseGraph) {
  std::vector<std::string> pinned;
  for (const Pin& pin : kPins) pinned.push_back(pin.method);
  std::vector<std::string> expected;
  for (const std::string& name : AllMethodNames()) {
    if (CreateIndex(name, 42)->HasBaseGraph()) expected.push_back(name);
  }
  EXPECT_EQ(pinned, expected);
}

}  // namespace
}  // namespace gass::methods
