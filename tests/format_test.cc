#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/random.h"
#include "format/lakefile.h"
#include "format/row_codec.h"
#include "format/schema.h"
#include "format/types.h"

namespace streamlake::format {
namespace {

Schema DpiSchema() {
  return Schema{{"url", DataType::kString},
                {"start_time", DataType::kInt64},
                {"province", DataType::kString},
                {"bytes", DataType::kInt64},
                {"roaming", DataType::kBool},
                {"score", DataType::kDouble}};
}

Row MakeDpiRow(Random* rng, int64_t t) {
  static const std::vector<std::string> kProvinces = {
      "beijing", "shanghai", "guangdong", "sichuan", "hubei"};
  Row row;
  row.fields = {Value(std::string("http://app") +
                      std::to_string(rng->Uniform(10)) + ".com"),
                Value(t),
                Value(kProvinces[rng->Uniform(kProvinces.size())]),
                Value(static_cast<int64_t>(rng->Uniform(4096))),
                Value(rng->OneIn(10)),
                Value(rng->NextDouble())};
  return row;
}

TEST(ValueTest, TypeOfAndCompare) {
  EXPECT_EQ(TypeOf(Value(true)), DataType::kBool);
  EXPECT_EQ(TypeOf(Value(int64_t{5})), DataType::kInt64);
  EXPECT_EQ(TypeOf(Value(1.5)), DataType::kDouble);
  EXPECT_EQ(TypeOf(Value(std::string("x"))), DataType::kString);

  EXPECT_LT(CompareValues(Value(int64_t{1}), Value(int64_t{2})), 0);
  EXPECT_GT(CompareValues(Value(std::string("b")), Value(std::string("a"))), 0);
  EXPECT_EQ(CompareValues(Value(1.5), Value(1.5)), 0);
}

TEST(ValueTest, EncodeDecodeAllTypes) {
  std::vector<Value> values = {Value(true), Value(int64_t{-42}), Value(2.75),
                               Value(std::string("hello"))};
  Bytes buf;
  for (const Value& v : values) EncodeValue(&buf, v);
  Decoder dec{ByteView(buf)};
  for (const Value& expected : values) {
    auto got = DecodeValue(&dec);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(CompareValues(*got, expected), 0);
  }
}

TEST(SchemaTest, FieldLookupAndValidate) {
  Schema schema = DpiSchema();
  EXPECT_EQ(schema.num_fields(), 6u);
  EXPECT_EQ(schema.FieldIndex("province"), 2);
  EXPECT_EQ(schema.FieldIndex("missing"), -1);

  Random rng(1);
  Row good = MakeDpiRow(&rng, 100);
  EXPECT_TRUE(schema.ValidateRow(good).ok());

  Row short_row;
  short_row.fields = {Value(std::string("u"))};
  EXPECT_TRUE(schema.ValidateRow(short_row).IsInvalidArgument());

  Row wrong_type = good;
  wrong_type.fields[1] = Value(std::string("not an int"));
  EXPECT_TRUE(schema.ValidateRow(wrong_type).IsInvalidArgument());
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema schema = DpiSchema();
  Bytes buf;
  schema.EncodeTo(&buf);
  Decoder dec{ByteView(buf)};
  auto decoded = Schema::DecodeFrom(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, schema);
}

TEST(RowCodecTest, RoundTrip) {
  Schema schema = DpiSchema();
  Random rng(2);
  for (int i = 0; i < 50; ++i) {
    Row row = MakeDpiRow(&rng, 1656806400 + i);
    Bytes buf;
    EncodeRow(schema, row, &buf);
    auto decoded = DecodeRow(schema, ByteView(buf));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, row);
  }
}

TEST(RowCodecTest, DecodeRejectsTruncation) {
  Schema schema = DpiSchema();
  Random rng(3);
  Row row = MakeDpiRow(&rng, 1);
  Bytes buf;
  EncodeRow(schema, row, &buf);
  buf.resize(buf.size() / 2);
  EXPECT_FALSE(DecodeRow(schema, ByteView(buf)).ok());
}

TEST(LakeFileTest, WriteReadSingleGroup) {
  Schema schema = DpiSchema();
  LakeFileWriter writer(schema);
  Random rng(4);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(MakeDpiRow(&rng, 1000 + i));
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());

  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->num_row_groups(), 1u);
  EXPECT_EQ(reader->num_rows(), 100u);
  EXPECT_EQ(reader->schema(), schema);

  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ((*all)[i], rows[i]);
}

TEST(LakeFileTest, MultipleRowGroupsAndStats) {
  Schema schema = DpiSchema();
  LakeFileOptions options;
  options.rows_per_group = 64;
  LakeFileWriter writer(schema, options);
  Random rng(5);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(writer.Append(MakeDpiRow(&rng, 5000 + i)).ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_row_groups(), 5u);  // ceil(300/64)
  EXPECT_EQ(reader->num_rows(), 300u);

  // start_time stats per group should be tight and monotone across groups.
  int time_col = schema.FieldIndex("start_time");
  for (size_t g = 0; g < reader->num_row_groups(); ++g) {
    const ColumnStats& stats = reader->row_group(g).columns[time_col].stats;
    ASSERT_TRUE(stats.min.has_value());
    ASSERT_TRUE(stats.max.has_value());
    int64_t lo = std::get<int64_t>(*stats.min);
    int64_t hi = std::get<int64_t>(*stats.max);
    EXPECT_EQ(lo, 5000 + static_cast<int64_t>(g) * 64);
    EXPECT_EQ(hi, std::min<int64_t>(5000 + 299, lo + 63));
  }
}

TEST(LakeFileTest, StatsEnableRowGroupSkipping) {
  // Count how many groups a [t0, t1) predicate can skip using stats only.
  Schema schema{{"t", DataType::kInt64}};
  LakeFileOptions options;
  options.rows_per_group = 100;
  LakeFileWriter writer(schema, options);
  for (int64_t i = 0; i < 1000; ++i) {
    Row row;
    row.fields = {Value(i)};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  int skipped = 0;
  for (size_t g = 0; g < reader->num_row_groups(); ++g) {
    const ColumnStats& stats = reader->row_group(g).columns[0].stats;
    int64_t lo = std::get<int64_t>(*stats.min);
    int64_t hi = std::get<int64_t>(*stats.max);
    if (hi < 500 || lo >= 600) ++skipped;  // predicate: 500 <= t < 600
  }
  EXPECT_EQ(skipped, 9);  // only one of ten groups overlaps
}

TEST(LakeFileTest, ReadSingleColumn) {
  Schema schema = DpiSchema();
  LakeFileWriter writer(schema);
  Random rng(6);
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(MakeDpiRow(&rng, i));
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());

  auto col = reader->ReadColumn(0, 1);  // start_time
  ASSERT_TRUE(col.ok());
  const auto& times = std::get<std::vector<int64_t>>(*col);
  ASSERT_EQ(times.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(times[i], i);

  EXPECT_TRUE(reader->ReadColumn(0, 99).status().IsInvalidArgument());
  EXPECT_TRUE(reader->ReadColumn(9, 0).status().IsInvalidArgument());
}

TEST(LakeFileTest, ColumnarBeatsRowFormatOnSize) {
  // The row_2_col archive claim: columnar + compression is much smaller.
  Schema schema = DpiSchema();
  Random rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(MakeDpiRow(&rng, 100000 + i));

  Bytes row_format;
  for (const Row& r : rows) EncodeRow(schema, r, &row_format);

  LakeFileWriter writer(schema);
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  EXPECT_LT(file->size() * 2, row_format.size());
}

TEST(LakeFileTest, OpenRejectsCorruptFile) {
  Schema schema{{"x", DataType::kInt64}};
  LakeFileWriter writer(schema);
  Row row;
  row.fields = {Value(int64_t{1})};
  ASSERT_TRUE(writer.Append(row).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());

  Bytes bad_magic = *file;
  bad_magic[0] = 'X';
  EXPECT_TRUE(LakeFileReader::Open(bad_magic).status().IsCorruption());

  Bytes tiny = {1, 2, 3};
  EXPECT_TRUE(LakeFileReader::Open(tiny).status().IsCorruption());
}

TEST(LakeFileTest, ChunkCrcDetectsPayloadCorruption) {
  Schema schema{{"s", DataType::kString}};
  LakeFileWriter writer(schema);
  for (int i = 0; i < 100; ++i) {
    Row row;
    row.fields = {Value(std::string("value-") + std::to_string(i))};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  // Flip a byte inside the first chunk (just past the 4-byte magic + header).
  Bytes corrupted = *file;
  corrupted[20] ^= 0xFF;
  auto reader = LakeFileReader::Open(std::move(corrupted));
  ASSERT_TRUE(reader.ok());  // footer still parses
  EXPECT_TRUE(reader->ReadColumn(0, 0).status().IsCorruption());
}

TEST(LakeFileTest, WriterCannotBeReusedAfterFinish) {
  Schema schema{{"x", DataType::kInt64}};
  LakeFileWriter writer(schema);
  Row row;
  row.fields = {Value(int64_t{1})};
  ASSERT_TRUE(writer.Append(row).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(writer.Append(row).IsInvalidArgument());
  EXPECT_TRUE(writer.Finish().status().IsInvalidArgument());
}

TEST(LakeFileTest, EmptyFileRoundTrips) {
  Schema schema{{"x", DataType::kInt64}};
  LakeFileWriter writer(schema);
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_row_groups(), 0u);
  EXPECT_EQ(reader->num_rows(), 0u);
  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

// Parameterized sweep: every (compression, rows_per_group) combination
// round-trips and keeps correct stats.
class LakeFileParam
    : public ::testing::TestWithParam<std::pair<codec::Compression, size_t>> {
};

TEST_P(LakeFileParam, RoundTripWithStats) {
  auto [compression, rows_per_group] = GetParam();
  Schema schema = DpiSchema();
  LakeFileOptions options;
  options.compression = compression;
  options.rows_per_group = rows_per_group;
  LakeFileWriter writer(schema, options);
  Random rng(static_cast<uint64_t>(rows_per_group) * 31 +
             static_cast<uint64_t>(compression));
  std::vector<Row> rows;
  for (int i = 0; i < 333; ++i) rows.push_back(MakeDpiRow(&rng, 7000 + i));
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_rows(), 333u);
  EXPECT_EQ(reader->num_row_groups(),
            (333 + rows_per_group - 1) / rows_per_group);
  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < rows.size(); ++i) ASSERT_EQ((*all)[i], rows[i]);
  // Per-group stats stay tight regardless of layout.
  int time_col = schema.FieldIndex("start_time");
  for (size_t g = 0; g < reader->num_row_groups(); ++g) {
    const ColumnStats& stats = reader->row_group(g).columns[time_col].stats;
    ASSERT_TRUE(stats.min.has_value());
    EXPECT_EQ(std::get<int64_t>(*stats.min),
              7000 + static_cast<int64_t>(g * rows_per_group));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LakeFileParam,
    ::testing::Values(
        std::make_pair(codec::Compression::kNone, size_t{1}),
        std::make_pair(codec::Compression::kNone, size_t{64}),
        std::make_pair(codec::Compression::kNone, size_t{8192}),
        std::make_pair(codec::Compression::kLz, size_t{1}),
        std::make_pair(codec::Compression::kLz, size_t{64}),
        std::make_pair(codec::Compression::kLz, size_t{8192})));

// Property test: random schemas and rows round-trip through LakeFile.
TEST(LakeFileProperty, RandomTablesRoundTrip) {
  Random rng(2025);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Field> fields;
    size_t num_fields = 1 + rng.Uniform(6);
    for (size_t f = 0; f < num_fields; ++f) {
      fields.push_back(Field{"c" + std::to_string(f),
                             static_cast<DataType>(rng.Uniform(4))});
    }
    Schema schema(fields);
    LakeFileOptions options;
    options.rows_per_group = 1 + rng.Uniform(100);
    LakeFileWriter writer(schema, options);
    size_t num_rows = rng.Uniform(500);
    std::vector<Row> rows;
    for (size_t i = 0; i < num_rows; ++i) {
      Row row;
      for (const Field& f : schema.fields()) {
        switch (f.type) {
          case DataType::kBool:
            row.fields.emplace_back(rng.OneIn(2));
            break;
          case DataType::kInt64:
            row.fields.emplace_back(static_cast<int64_t>(rng.Next()));
            break;
          case DataType::kDouble:
            row.fields.emplace_back(rng.NextDouble());
            break;
          case DataType::kString:
            row.fields.emplace_back(rng.NextString(rng.Uniform(30)));
            break;
        }
      }
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(writer.AppendBatch(rows).ok());
    auto file = writer.Finish();
    ASSERT_TRUE(file.ok());
    auto reader = LakeFileReader::Open(std::move(*file));
    ASSERT_TRUE(reader.ok()) << "trial " << trial;
    auto all = reader->ReadAll();
    ASSERT_TRUE(all.ok()) << "trial " << trial;
    ASSERT_EQ(all->size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ((*all)[i], rows[i]) << "trial " << trial << " row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// File-level statistics: the writer's single typed pass must give exactly
// what a pass over the boxed rows gives.

/// Oracle: file statistics computed from boxed rows with a std::set of
/// Values, as the table layer derived them before the writer became their
/// only source.
std::vector<ColumnStats> BoxedFileStats(const Schema& schema,
                                        const std::vector<Row>& rows) {
  std::vector<ColumnStats> out;
  if (rows.empty()) return out;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnStats s;
    s.has_extended = true;
    std::set<Value> distinct;
    double total_width = 0.0;
    for (const Row& row : rows) {
      const Value& v = row.fields[c];
      if (IsNull(v)) {
        ++s.null_count;
        continue;
      }
      if (!s.min.has_value() || CompareValues(v, *s.min) < 0) s.min = v;
      if (!s.max.has_value() || CompareValues(v, *s.max) > 0) s.max = v;
      distinct.insert(v);
      switch (schema.field(c).type) {
        case DataType::kBool:
          total_width += 1.0;
          break;
        case DataType::kInt64:
        case DataType::kDouble:
          total_width += 8.0;
          break;
        case DataType::kString:
          total_width += static_cast<double>(std::get<std::string>(v).size());
          break;
        case DataType::kNull:
          break;
      }
    }
    s.ndv = distinct.size();
    uint64_t non_null = rows.size() - s.null_count;
    s.avg_width =
        non_null > 0 ? total_width / static_cast<double>(non_null) : 0.0;
    out.push_back(std::move(s));
  }
  return out;
}

/// Byte-level identity of two stats (a double's sign bit included).
void ExpectSameStats(const ColumnStats& got, const ColumnStats& want,
                     const std::string& where) {
  auto bytes = [](const std::optional<Value>& v) {
    Bytes b;
    if (v.has_value()) EncodeValue(&b, *v);
    return b;
  };
  EXPECT_EQ(bytes(got.min), bytes(want.min)) << where;
  EXPECT_EQ(bytes(got.max), bytes(want.max)) << where;
  EXPECT_EQ(got.has_extended, want.has_extended) << where;
  EXPECT_EQ(got.null_count, want.null_count) << where;
  EXPECT_EQ(got.ndv, want.ndv) << where;
  EXPECT_EQ(got.avg_width, want.avg_width) << where;
}

/// The writer's file stats in field order.
std::vector<ColumnStats> WriterFileStats(const Schema& schema,
                                         const std::vector<Row>& rows,
                                         LakeFileOptions options) {
  LakeFileWriter writer(schema, options);
  EXPECT_TRUE(writer.AppendBatch(rows).ok());
  EXPECT_TRUE(writer.Finish().ok());
  std::vector<ColumnStats> out;
  for (const Field& field : schema.fields()) {
    auto it = writer.file_stats().find(field.name);
    if (it != writer.file_stats().end()) out.push_back(it->second);
  }
  EXPECT_TRUE(out.empty() || out.size() == schema.num_fields());
  return out;
}

TEST(FileStatsTest, WriterMatchesBoxedPassOnRandomRows) {
  const Schema schema{{"b", DataType::kBool},
                      {"i", DataType::kInt64},
                      {"d", DataType::kDouble},
                      {"s", DataType::kString},
                      {"none", DataType::kInt64}};
  const std::vector<double> doubles = {-0.0, 0.0, 1.5, -2.25, 1e300};
  const std::vector<std::string> strings = {"", "a", "bb",
                                           std::string("a\0b", 3), "zz"};
  const Value null{std::monostate{}};
  Random rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Row> rows;
    const size_t num_rows = rng.Uniform(300);
    const uint64_t null_one_in = 2 + rng.Uniform(5);
    const int sign = trial % 3;  // 0 mixed, 1 non-negative, 2 non-positive
    for (size_t r = 0; r < num_rows; ++r) {
      Row row;
      row.fields.push_back(rng.OneIn(null_one_in) ? null
                                                  : Value(rng.OneIn(2)));
      row.fields.push_back(
          rng.OneIn(null_one_in)
              ? null
              : Value(static_cast<int64_t>(rng.Uniform(40)) - 20));
      double d = rng.OneIn(3) ? doubles[rng.Uniform(doubles.size())]
                              : static_cast<double>(rng.Uniform(64)) / 4.0;
      // Same-signed trials make a signed zero the min (or max) to tie on.
      if ((sign == 1 && d < 0) || (sign == 2 && d > 0)) d = -d;
      row.fields.push_back(rng.OneIn(null_one_in) ? null : Value(d));
      row.fields.push_back(
          rng.OneIn(null_one_in)
              ? null
              : Value(rng.OneIn(2) ? strings[rng.Uniform(strings.size())]
                                   : rng.NextString(rng.Uniform(4))));
      row.fields.push_back(null);  // all-NULL column
      rows.push_back(std::move(row));
    }
    const std::vector<ColumnStats> want = BoxedFileStats(schema, rows);
    for (size_t rows_per_group : {size_t{1}, size_t{3}, size_t{7},
                                  size_t{64}, size_t{8192}}) {
      LakeFileOptions options;
      options.rows_per_group = rows_per_group;
      const std::vector<ColumnStats> got =
          WriterFileStats(schema, rows, options);
      ASSERT_EQ(got.size(), want.size());
      for (size_t c = 0; c < got.size(); ++c) {
        ExpectSameStats(got[c], want[c],
                        "trial " + std::to_string(trial) + " group " +
                            std::to_string(rows_per_group) + " column " +
                            schema.field(c).name);
      }
    }
  }
}

TEST(FileStatsTest, FileStatsDoNotDependOnChunkStats) {
  const Schema schema{{"x", DataType::kInt64}};
  std::vector<Row> rows;
  for (int64_t v : {5, 3, 9, 3}) rows.push_back(Row{{Value(v)}});
  LakeFileOptions options;
  options.enable_stats = false;
  options.rows_per_group = 2;
  const std::vector<ColumnStats> got = WriterFileStats(schema, rows, options);
  ASSERT_EQ(got.size(), 1u);
  ExpectSameStats(got[0], BoxedFileStats(schema, rows)[0], "no chunk stats");
  EXPECT_TRUE(WriterFileStats(schema, {}, options).empty());
}

// NaN compares equal to every double: it decides min, max and NDV only when
// it is the first value of the file, whichever row group the rest is in.
TEST(FileStatsTest, NaNFollowsCompareValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Schema schema{{"d", DataType::kDouble}};
  auto stats_of = [&](const std::vector<double>& values, size_t group) {
    std::vector<Row> rows;
    for (double v : values) rows.push_back(Row{{Value(v)}});
    LakeFileOptions options;
    options.rows_per_group = group;
    return WriterFileStats(schema, rows, options).at(0);
  };
  for (size_t group : {size_t{1}, size_t{2}, size_t{8}}) {
    ColumnStats trailing = stats_of({1.0, nan, 0.5, 1.0}, group);
    EXPECT_EQ(std::get<double>(*trailing.min), 0.5);
    EXPECT_EQ(std::get<double>(*trailing.max), 1.0);
    EXPECT_EQ(trailing.ndv, 2u);

    ColumnStats leading = stats_of({nan, 3.0, -1.0}, group);
    EXPECT_TRUE(std::isnan(std::get<double>(*leading.min)));
    EXPECT_TRUE(std::isnan(std::get<double>(*leading.max)));
    EXPECT_EQ(leading.ndv, 1u);

    // A later group that starts with NaN still contributes its numbers.
    ColumnStats later = stats_of({2.0, 4.0, nan, -3.0, 2.0}, group);
    EXPECT_EQ(std::get<double>(*later.min), -3.0);
    EXPECT_EQ(std::get<double>(*later.max), 4.0);
    EXPECT_EQ(later.ndv, 3u);
  }
}

}  // namespace
}  // namespace streamlake::format
