#include "methods/search_params.h"

#include <cfloat>

#include <gtest/gtest.h>

namespace gass::methods {
namespace {

TEST(MakeSearchParamsTest, SetsCommonKnobsOnly) {
  const SearchParams params = MakeSearchParams(5, 40, 12);
  EXPECT_EQ(params.k, 5u);
  EXPECT_EQ(params.beam_width, 40u);
  EXPECT_EQ(params.num_seeds, 12u);
  EXPECT_EQ(params.prune_bound, FLT_MAX);
  EXPECT_EQ(params.deadline, nullptr);
}

TEST(ParseSearchParamsTest, ParsesFullSpec) {
  SearchParams params;
  std::string error;
  ASSERT_TRUE(ParseSearchParams("k=3,beam=128,seeds=7", &params, &error))
      << error;
  EXPECT_EQ(params.k, 3u);
  EXPECT_EQ(params.beam_width, 128u);
  EXPECT_EQ(params.num_seeds, 7u);
}

TEST(ParseSearchParamsTest, LayersOverExistingValues) {
  SearchParams params = MakeSearchParams(10, 64, 48);
  ASSERT_TRUE(ParseSearchParams("beam=200", &params));
  EXPECT_EQ(params.k, 10u);         // Untouched.
  EXPECT_EQ(params.beam_width, 200u);
  EXPECT_EQ(params.num_seeds, 48u); // Untouched.
}

TEST(ParseSearchParamsTest, EmptySpecIsNoOp) {
  SearchParams params = MakeSearchParams(10, 64, 48);
  ASSERT_TRUE(ParseSearchParams("", &params));
  EXPECT_EQ(params.k, 10u);
  EXPECT_EQ(params.beam_width, 64u);
}

TEST(ParseSearchParamsTest, ParsesPruneBound) {
  SearchParams params;
  ASSERT_TRUE(ParseSearchParams("prune=2.5", &params));
  EXPECT_FLOAT_EQ(params.prune_bound, 2.5f);
}

TEST(ParseSearchParamsTest, RejectsUnknownKey) {
  SearchParams params;
  std::string error;
  EXPECT_FALSE(ParseSearchParams("width=3", &params, &error));
  EXPECT_NE(error.find("width"), std::string::npos);
}

TEST(ParseSearchParamsTest, RejectsMalformedEntries) {
  SearchParams params;
  EXPECT_FALSE(ParseSearchParams("k", &params));           // No '='.
  EXPECT_FALSE(ParseSearchParams("k=", &params));          // Empty value.
  EXPECT_FALSE(ParseSearchParams("k=abc", &params));       // Not a number.
  EXPECT_FALSE(ParseSearchParams("k=3x", &params));        // Trailing junk.
  EXPECT_TRUE(ParseSearchParams("k=3,,beam=4", &params));  // Empty entries OK.
  EXPECT_EQ(params.beam_width, 4u);
}

TEST(ParseSearchParamsTest, RejectsZeroKAndBeam) {
  SearchParams params;
  std::string error;
  EXPECT_FALSE(ParseSearchParams("k=0", &params, &error));
  EXPECT_FALSE(ParseSearchParams("beam=0", &params, &error));
  EXPECT_TRUE(ParseSearchParams("seeds=0", &params));  // Zero seeds is legal.
}

TEST(ParseSearchParamsTest, ErrorsNameTheKeyAndValue) {
  SearchParams params;
  std::string error;
  EXPECT_FALSE(ParseSearchParams("k=abc", &params, &error));
  EXPECT_NE(error.find("'k'"), std::string::npos) << error;
  EXPECT_NE(error.find("'abc'"), std::string::npos) << error;

  EXPECT_FALSE(ParseSearchParams("beam=0", &params, &error));
  EXPECT_NE(error.find("'beam'"), std::string::npos) << error;
  EXPECT_NE(error.find("'0'"), std::string::npos) << error;

  EXPECT_FALSE(ParseSearchParams("prune=fast", &params, &error));
  EXPECT_NE(error.find("'prune'"), std::string::npos) << error;
  EXPECT_NE(error.find("'fast'"), std::string::npos) << error;

  EXPECT_FALSE(ParseSearchParams("degrade=99", &params, &error));
  EXPECT_NE(error.find("'degrade'"), std::string::npos) << error;
  EXPECT_NE(error.find("'99'"), std::string::npos) << error;
}

TEST(ParseSearchParamsTest, RejectsDuplicateKeys) {
  SearchParams params;
  std::string error;
  EXPECT_FALSE(ParseSearchParams("k=3,beam=64,k=5", &params, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_NE(error.find("'k'"), std::string::npos) << error;
  EXPECT_NE(error.find("'5'"), std::string::npos) << error;

  // Same value twice is still a duplicate: the spec is malformed either way.
  EXPECT_FALSE(ParseSearchParams("seeds=8,seeds=8", &params, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_NE(error.find("'seeds'"), std::string::npos) << error;

  // Distinct keys never trip the duplicate check.
  EXPECT_TRUE(
      ParseSearchParams("k=3,beam=64,seeds=8,prune=1.5,degrade=1", &params));
}

TEST(ParseSearchParamsTest, NullErrorPointerIsSafe) {
  SearchParams params;
  EXPECT_FALSE(ParseSearchParams("bogus=1", &params, nullptr));
}

TEST(SearchParamsToStringTest, RoundTripsThroughParse) {
  SearchParams original = MakeSearchParams(17, 96, 5);
  const std::string spec = SearchParamsToString(original);
  EXPECT_EQ(spec, "k=17,beam=96,seeds=5");

  SearchParams reparsed;
  ASSERT_TRUE(ParseSearchParams(spec, &reparsed));
  EXPECT_EQ(reparsed.k, original.k);
  EXPECT_EQ(reparsed.beam_width, original.beam_width);
  EXPECT_EQ(reparsed.num_seeds, original.num_seeds);
}

TEST(SearchParamsToStringTest, IncludesPruneOnlyWhenSet) {
  SearchParams params = MakeSearchParams(10, 64, 48);
  EXPECT_EQ(SearchParamsToString(params).find("prune"), std::string::npos);

  params.prune_bound = 1.5f;
  const std::string spec = SearchParamsToString(params);
  EXPECT_NE(spec.find("prune=1.5"), std::string::npos);

  SearchParams reparsed;
  ASSERT_TRUE(ParseSearchParams(spec, &reparsed));
  EXPECT_FLOAT_EQ(reparsed.prune_bound, 1.5f);
}

TEST(ParseSearchParamsTest, ParsesDegradeStep) {
  SearchParams params;
  ASSERT_TRUE(ParseSearchParams("k=5,beam=64,degrade=2", &params));
  EXPECT_EQ(params.degrade_step, 2u);
  ASSERT_TRUE(ParseSearchParams("degrade=0", &params));
  EXPECT_EQ(params.degrade_step, 0u);
}

TEST(ParseSearchParamsTest, RejectsOversizedDegradeStep) {
  // Steps above 62 would shift past the width of beam_width; the parser
  // rejects them instead of letting EffectiveBeamWidth clamp silently.
  SearchParams params;
  std::string error;
  EXPECT_TRUE(ParseSearchParams("degrade=62", &params));
  EXPECT_FALSE(ParseSearchParams("degrade=63", &params, &error));
  EXPECT_NE(error.find("degrade"), std::string::npos);
}

TEST(SearchParamsToStringTest, IncludesDegradeOnlyWhenSet) {
  SearchParams params = MakeSearchParams(10, 64, 48);
  EXPECT_EQ(SearchParamsToString(params).find("degrade"), std::string::npos);

  params.degrade_step = 3;
  const std::string spec = SearchParamsToString(params);
  EXPECT_NE(spec.find("degrade=3"), std::string::npos);

  SearchParams reparsed;
  ASSERT_TRUE(ParseSearchParams(spec, &reparsed));
  EXPECT_EQ(reparsed.degrade_step, 3u);
}

TEST(EffectiveBeamWidthTest, HalvesPerStepAndFloorsAtK) {
  SearchParams params = MakeSearchParams(10, 64, 48);
  EXPECT_EQ(EffectiveBeamWidth(params), 64u);  // Step 0: untouched.
  params.degrade_step = 1;
  EXPECT_EQ(EffectiveBeamWidth(params), 32u);
  params.degrade_step = 2;
  EXPECT_EQ(EffectiveBeamWidth(params), 16u);
  params.degrade_step = 3;
  EXPECT_EQ(EffectiveBeamWidth(params), 10u);  // 8 < k: floor at k.
  params.degrade_step = 62;                    // Deep steps never underflow.
  EXPECT_EQ(EffectiveBeamWidth(params), 10u);
}

}  // namespace
}  // namespace gass::methods
