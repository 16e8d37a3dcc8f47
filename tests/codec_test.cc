#include <gtest/gtest.h>

#include "codec/compression.h"
#include "codec/encoding.h"
#include "common/coding.h"
#include "common/random.h"

namespace streamlake::codec {
namespace {

class CompressionRoundTrip : public ::testing::TestWithParam<Compression> {};

TEST_P(CompressionRoundTrip, EmptyInput) {
  Bytes in;
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), 0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->empty());
}

TEST_P(CompressionRoundTrip, RepetitiveText) {
  std::string s;
  for (int i = 0; i < 500; ++i) s += "the quick brown fox jumps ";
  Bytes in = ToBytes(s);
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), in.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

TEST_P(CompressionRoundTrip, RandomBytes) {
  Random rng(11);
  Bytes in;
  for (int i = 0; i < 10000; ++i) {
    in.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), in.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

TEST_P(CompressionRoundTrip, LongRuns) {
  Bytes in(100000, 0x7A);
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), in.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CompressionRoundTrip,
                         ::testing::Values(Compression::kNone,
                                           Compression::kLz));

TEST(LzTest, CompressesRepetitiveDataWell) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "province=guangdong|url=http://a.com|";
  Bytes in = ToBytes(s);
  Bytes compressed = Compress(Compression::kLz, ByteView(in));
  EXPECT_LT(compressed.size() * 5, in.size());  // at least 5x on logs
}

TEST(LzTest, DecompressRejectsCorruptStream) {
  Bytes in = ToBytes(std::string(4096, 'q') + "tail variation 123");
  Bytes compressed = Compress(Compression::kLz, ByteView(in));
  // Wrong expected size must be detected.
  EXPECT_TRUE(Decompress(Compression::kLz, ByteView(compressed), in.size() + 1)
                  .status()
                  .IsCorruption());
  // Truncated stream must be detected.
  Bytes truncated(compressed.begin(), compressed.begin() + compressed.size() / 2);
  EXPECT_FALSE(
      Decompress(Compression::kLz, ByteView(truncated), in.size()).ok());
}

TEST(Int64EncodingTest, PlainDeltaRleRoundTrip) {
  std::vector<int64_t> sorted;
  std::vector<int64_t> runs;
  std::vector<int64_t> random_vals;
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    sorted.push_back(1656806400 + i * 3);
    runs.push_back(i / 100);
    random_vals.push_back(static_cast<int64_t>(rng.Next()) >> 8);
  }
  for (Encoding e : {Encoding::kPlain, Encoding::kDelta, Encoding::kRle}) {
    for (const auto& vals : {sorted, runs}) {
      Bytes buf;
      EncodeInt64s(vals, e, &buf);
      auto decoded = DecodeInt64s(ByteView(buf), e, vals.size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(*decoded, vals);
    }
  }
  Bytes buf;
  EncodeInt64s(random_vals, Encoding::kPlain, &buf);
  auto decoded = DecodeInt64s(ByteView(buf), Encoding::kPlain,
                              random_vals.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, random_vals);
}

TEST(Int64EncodingTest, ChooserPrefersDeltaForSorted) {
  std::vector<int64_t> sorted;
  for (int i = 0; i < 1000; ++i) sorted.push_back(i * 17);
  EXPECT_EQ(ChooseInt64Encoding(sorted), Encoding::kDelta);
}

TEST(Int64EncodingTest, ChooserPrefersRleForRuns) {
  std::vector<int64_t> runs(1000, 42);
  EXPECT_EQ(ChooseInt64Encoding(runs), Encoding::kRle);
}

TEST(Int64EncodingTest, ChooserPrefersPlainForRandom) {
  Random rng(6);
  std::vector<int64_t> random_vals;
  for (int i = 0; i < 1000; ++i) {
    random_vals.push_back(static_cast<int64_t>(rng.Next()));
  }
  EXPECT_EQ(ChooseInt64Encoding(random_vals), Encoding::kPlain);
}

TEST(Int64EncodingTest, DeltaBeatsPlainOnTimestamps) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 10000; ++i) ts.push_back(1656806400LL * 1000 + i * 7);
  Bytes plain, delta;
  EncodeInt64s(ts, Encoding::kPlain, &plain);
  EncodeInt64s(ts, Encoding::kDelta, &delta);
  EXPECT_LT(delta.size() * 2, plain.size());
}

TEST(Int64EncodingTest, RleRejectsBadRuns) {
  Bytes buf;
  PutVarint64Signed(&buf, 7);
  PutVarint64(&buf, 100);  // run longer than requested count
  EXPECT_TRUE(DecodeInt64s(ByteView(buf), Encoding::kRle, 5)
                  .status()
                  .IsCorruption());
}

TEST(DoubleEncodingTest, RoundTrip) {
  std::vector<double> vals = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  Bytes buf;
  EncodeDoubles(vals, &buf);
  auto decoded = DecodeDoubles(ByteView(buf), vals.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, vals);
}

TEST(StringEncodingTest, PlainAndDictRoundTrip) {
  std::vector<std::string> provinces;
  Random rng(7);
  const std::vector<std::string> kNames = {"beijing", "shanghai", "guangdong",
                                           "sichuan", "hubei"};
  for (int i = 0; i < 500; ++i) {
    provinces.push_back(kNames[rng.Uniform(kNames.size())]);
  }
  const std::vector<std::string_view> views(provinces.begin(),
                                            provinces.end());
  for (Encoding e : {Encoding::kPlain, Encoding::kDict}) {
    Bytes buf;
    EncodeStrings(views, e, &buf);
    auto decoded = DecodeStrings(ByteView(buf), e, provinces.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, provinces);
  }
}

TEST(StringEncodingTest, DictMuchSmallerForLowCardinality) {
  std::vector<std::string_view> vals(2000, "http://streamlake_fin_app.com");
  Bytes plain, dict;
  EncodeStrings(vals, Encoding::kPlain, &plain);
  EncodeStrings(vals, Encoding::kDict, &dict);
  EXPECT_LT(dict.size() * 10, plain.size());
  EXPECT_EQ(ChooseStringEncoding(vals), Encoding::kDict);
}

TEST(StringEncodingTest, ChooserPrefersPlainForHighCardinality) {
  Random rng(8);
  std::vector<std::string> vals;
  for (int i = 0; i < 200; ++i) vals.push_back(rng.NextString(12));
  EXPECT_EQ(ChooseStringEncoding(std::vector<std::string_view>(vals.begin(),
                                                               vals.end())),
            Encoding::kPlain);
}

TEST(BoolEncodingTest, RoundTripOddCount) {
  std::vector<uint8_t> vals;
  Random rng(9);
  for (int i = 0; i < 77; ++i) vals.push_back(rng.OneIn(2) ? 1 : 0);
  Bytes buf;
  EncodeBools(vals, &buf);
  EXPECT_EQ(buf.size(), 10u);  // ceil(77/8)
  auto decoded = DecodeBools(ByteView(buf), vals.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, vals);
}

// Property test: random int64 columns round-trip under the chooser-selected
// encoding.
TEST(EncodingProperty, ChooserSelectedEncodingAlwaysRoundTrips) {
  Random rng(10);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int64_t> vals;
    size_t n = 1 + rng.Uniform(2000);
    int mode = static_cast<int>(rng.Uniform(3));
    int64_t cur = static_cast<int64_t>(rng.Uniform(1000000));
    for (size_t i = 0; i < n; ++i) {
      if (mode == 0) {
        cur += static_cast<int64_t>(rng.Uniform(100));  // sorted-ish
      } else if (mode == 1) {
        if (rng.OneIn(50)) cur = static_cast<int64_t>(rng.Uniform(10));  // runs
      } else {
        cur = static_cast<int64_t>(rng.Next());  // random
      }
      vals.push_back(cur);
    }
    Encoding e = ChooseInt64Encoding(vals);
    Bytes buf;
    EncodeInt64s(vals, e, &buf);
    auto decoded = DecodeInt64s(ByteView(buf), e, vals.size());
    ASSERT_TRUE(decoded.ok()) << "trial " << trial;
    EXPECT_EQ(*decoded, vals) << "trial " << trial;
  }
}

}  // namespace
}  // namespace streamlake::codec
