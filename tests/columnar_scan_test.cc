// Late-materialization columnar scans: extended footer stats round-trip,
// predicate evaluation on dictionary codes vs decode-then-filter, the
// selection vector composed with merge-on-read deletes, and the per-column
// decoded-block cache keying.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/threadpool.h"
#include "format/lakefile.h"
#include "table/block_cache.h"
#include "table/lakehouse.h"

namespace streamlake::table {
namespace {

format::Schema WideSchema() {
  return format::Schema{{"id", format::DataType::kInt64},
                        {"tag", format::DataType::kString},
                        {"score", format::DataType::kDouble},
                        {"flag", format::DataType::kBool}};
}

struct ColumnarFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore object_index;
  kv::KvStore meta_cache;
  std::unique_ptr<ThreadPool> scan_pool;
  std::unique_ptr<DecodedBlockCache> cache;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<storage::ObjectStore> objects;
  std::unique_ptr<MetadataStore> meta;
  std::unique_ptr<LakehouseService> lakehouse;

  explicit ColumnarFixture(int scan_threads = 0, uint64_t cache_bytes = 0,
                           DeleteMode delete_mode = DeleteMode::kCopyOnWrite) {
    pool.AddCluster(3, 2, 512 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 16;
    config.plog.capacity = 32 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<storage::ObjectStore>(plogs.get(),
                                                     &object_index);
    meta = std::make_unique<MetadataStore>(objects.get(), &meta_cache,
                                           MetadataMode::kAccelerated);
    if (scan_threads > 0) {
      scan_pool = std::make_unique<ThreadPool>(scan_threads, "test.scan");
    }
    if (cache_bytes > 0) {
      cache = std::make_unique<DecodedBlockCache>(cache_bytes);
    }
    TableOptions options;
    options.max_rows_per_file = 128;
    options.file_options.rows_per_group = 64;
    options.delete_mode = delete_mode;
    lakehouse = std::make_unique<LakehouseService>(
        meta.get(), objects.get(), &clock, &compute_link, options,
        scan_pool.get(), cache.get());
  }
};

/// Randomized rows exercising all encoding choosers: `tag` repeats few
/// distinct values (dictionary), `id` is mostly sorted (delta) or constant
/// runs (RLE), `score`/`flag` stay plain/bit-packed.
std::vector<format::Row> RandomRows(size_t n, uint64_t seed,
                                    size_t distinct_tags) {
  Random rng(seed);
  std::vector<format::Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    format::Row row;
    row.fields = {
        format::Value(static_cast<int64_t>(i / 7)),  // long runs -> RLE
        format::Value("t-" + std::to_string(rng.Uniform(distinct_tags))),
        format::Value(static_cast<double>(rng.Uniform(1000)) / 10.0),
        format::Value(rng.Uniform(2) == 0)};
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Extended footer statistics round-trip through the file format.

TEST(ColumnarScanTest, FooterStatsRoundTrip) {
  format::Schema schema{{"s", format::DataType::kString},
                        {"v", format::DataType::kInt64}};
  format::LakeFileOptions options;
  options.rows_per_group = 8;
  format::LakeFileWriter writer(schema, options);
  // One full group: 2 NULLs in "s", 3 distinct non-NULL strings with a
  // known total width; "v" has one NULL and 4 distinct values.
  const std::vector<std::pair<format::Value, format::Value>> cells = {
      {format::Value(std::string("aa")), format::Value(int64_t{1})},
      {format::Value(std::string("bbbb")), format::Value(int64_t{2})},
      {format::Value(std::monostate{}), format::Value(int64_t{2})},
      {format::Value(std::string("aa")), format::Value(int64_t{3})},
      {format::Value(std::string("cccccc")), format::Value(int64_t{4})},
      {format::Value(std::monostate{}), format::Value(std::monostate{})},
      {format::Value(std::string("aa")), format::Value(int64_t{1})},
      {format::Value(std::string("bbbb")), format::Value(int64_t{2})},
  };
  for (const auto& [s, v] : cells) {
    format::Row row;
    row.fields = {s, v};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = format::LakeFileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->num_row_groups(), 1u);

  const format::ColumnStats& s = reader->row_group(0).columns[0].stats;
  EXPECT_TRUE(s.has_extended);
  EXPECT_EQ(s.null_count, 2u);
  EXPECT_EQ(s.ndv, 3u);  // aa, bbbb, cccccc
  // 6 non-NULL strings: aa(2)*3 + bbbb(4)*2 + cccccc(6) = 20 bytes / 6.
  EXPECT_DOUBLE_EQ(s.avg_width, 20.0 / 6.0);
  ASSERT_TRUE(s.min.has_value());
  EXPECT_EQ(std::get<std::string>(*s.min), "aa");
  EXPECT_EQ(std::get<std::string>(*s.max), "cccccc");

  const format::ColumnStats& v = reader->row_group(0).columns[1].stats;
  EXPECT_TRUE(v.has_extended);
  EXPECT_EQ(v.null_count, 1u);
  EXPECT_EQ(v.ndv, 4u);
  EXPECT_DOUBLE_EQ(v.avg_width, 8.0);
  EXPECT_EQ(std::get<int64_t>(*v.min), 1);
  EXPECT_EQ(std::get<int64_t>(*v.max), 4);
}

TEST(ColumnarScanTest, FooterStatsAllNullChunk) {
  format::Schema schema{{"s", format::DataType::kString}};
  format::LakeFileWriter writer(schema);
  for (int i = 0; i < 5; ++i) {
    format::Row row;
    row.fields = {format::Value(std::monostate{})};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = format::LakeFileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->num_row_groups(), 1u);
  const format::ColumnStats& s = reader->row_group(0).columns[0].stats;
  EXPECT_TRUE(s.has_extended);
  EXPECT_EQ(s.null_count, 5u);
  EXPECT_EQ(s.ndv, 0u);
  EXPECT_DOUBLE_EQ(s.avg_width, 0.0);
  EXPECT_FALSE(s.min.has_value());
  EXPECT_FALSE(s.max.has_value());

  // The all-NULL chunk round-trips its rows too.
  auto rows = reader->ReadAll();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  for (const format::Row& row : *rows) {
    EXPECT_TRUE(format::IsNull(row.fields[0]));
  }
}

TEST(ColumnarScanTest, FooterStatsEmptyFile) {
  format::LakeFileWriter writer(WideSchema());
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = format::LakeFileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_row_groups(), 0u);
  EXPECT_EQ(reader->num_rows(), 0u);
}

// ---------------------------------------------------------------------------
// Predicate-on-codes must agree with decode-then-filter, on randomized data
// covering dictionary, RLE, delta, and plain chunks.

TEST(ColumnarScanTest, PredicateOnCodesMatchesDecodeThenFilter) {
  ColumnarFixture f;
  auto table = f.lakehouse->CreateTable("wide", WideSchema(),
                                        PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(RandomRows(1000, /*seed=*/7,
                                          /*distinct_tags=*/6)).ok());

  std::vector<query::QuerySpec> specs;
  {  // Equality on the dictionary column.
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-3"))));
    spec.order_by = "id";
    specs.push_back(spec);
  }
  {  // IN on the dictionary column + range on the RLE column.
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::In(
        "tag", {format::Value(std::string("t-0")),
                format::Value(std::string("t-5"))}));
    spec.where.Add(query::Predicate::Lt("id", format::Value(int64_t{100})));
    spec.order_by = "id";
    specs.push_back(spec);
  }
  {  // Ne + a plain-column predicate (no code-space shortcut possible).
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::Ne("tag", format::Value(std::string("t-1"))));
    spec.where.Add(query::Predicate::Ge("score", format::Value(50.0)));
    spec.order_by = "id";
    specs.push_back(spec);
  }
  {  // Equality on a value INSIDE every group's [min, max] ("t-2" < "t-2x"
     // < "t-3") but absent from every dictionary: min/max stats cannot
     // prune, the code-space check must — and still count visible rows.
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-2x"))));
    specs.push_back(spec);
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    SelectOptions pushdown;  // default: predicate-on-codes path
    SelectOptions shipped;
    shipped.pushdown = false;  // decode whole files, filter in the engine
    SelectMetrics pm;
    auto fast = (*table)->Select(specs[i], pushdown, &pm);
    auto slow = (*table)->Select(specs[i], shipped);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    EXPECT_EQ(fast->rows, slow->rows) << "spec " << i;
    if (i == 3) {
      EXPECT_TRUE(fast->rows.empty());
      EXPECT_EQ(fast->rows_scanned, 1000u)
          << "code-space prune must still count the groups' visible rows";
      EXPECT_GT(pm.dict_code_prunes, 0u)
          << "absent literal must short-circuit in code space";
    }
  }
}

TEST(ColumnarScanTest, NarrowSelectDecodesOnlyRequiredColumns) {
  ColumnarFixture f;
  auto table = f.lakehouse->CreateTable("wide", WideSchema(),
                                        PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(RandomRows(1000, /*seed=*/11,
                                          /*distinct_tags=*/6)).ok());

  query::QuerySpec narrow;  // touches tag (predicate) + id (projection)
  narrow.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-2"))));
  narrow.projection = {"id"};
  query::QuerySpec star;  // decodes everything
  star.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-2"))));

  SelectMetrics nm, sm;
  auto nr = (*table)->Select(narrow, {}, &nm);
  auto sr = (*table)->Select(star, {}, &sm);
  ASSERT_TRUE(nr.ok());
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(nr->rows.size(), sr->rows.size());
  EXPECT_LT(nm.columns_decoded, sm.columns_decoded);
  EXPECT_LT(nm.bytes_decoded, sm.bytes_decoded);
  EXPECT_EQ(nm.rows_materialized, nr->rows.size());
  // The narrow result's id values match the star result's id column.
  for (size_t r = 0; r < nr->rows.size(); ++r) {
    EXPECT_EQ(nr->rows[r].fields[0], sr->rows[r].fields[0]);
  }
}

// ---------------------------------------------------------------------------
// The selection vector composes with merge-on-read delete masks: a deleted
// row must neither match nor be counted as visible.

TEST(ColumnarScanTest, SelectionVectorComposesWithMergeOnReadDeletes) {
  ColumnarFixture with_mor(/*scan_threads=*/0, /*cache_bytes=*/0,
                           DeleteMode::kMergeOnRead);
  auto table = with_mor.lakehouse->CreateTable("wide", WideSchema(),
                                               PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  std::vector<format::Row> rows = RandomRows(600, /*seed=*/3,
                                             /*distinct_tags=*/4);
  ASSERT_TRUE((*table)->Insert(rows).ok());

  // Merge-on-read delete of one dictionary value.
  auto deleted = (*table)->Delete(query::Conjunction{query::Predicate::Eq(
      "tag", format::Value(std::string("t-1")))});
  ASSERT_TRUE(deleted.ok());
  ASSERT_GT(*deleted, 0u);

  // Reference: filter the original rows in plain C++.
  uint64_t expect_match = 0;
  for (const format::Row& row : rows) {
    const std::string& tag = std::get<std::string>(row.fields[1]);
    if (tag == "t-1") continue;  // masked
    if (std::get<int64_t>(row.fields[0]) < 20) ++expect_match;
  }

  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Lt("id", format::Value(int64_t{20})));
  spec.order_by = "id";
  auto got = (*table)->Select(spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->rows.size(), expect_match);
  for (const format::Row& row : got->rows) {
    EXPECT_NE(std::get<std::string>(row.fields[1]), "t-1");
  }

  // And composed with a dictionary-code predicate on the same column the
  // delete masks.
  query::QuerySpec dict_spec;
  dict_spec.where.Add(query::Predicate::In(
      "tag", {format::Value(std::string("t-0")),
              format::Value(std::string("t-1"))}));
  auto only_t0 = (*table)->Select(dict_spec);
  ASSERT_TRUE(only_t0.ok());
  for (const format::Row& row : only_t0->rows) {
    EXPECT_EQ(std::get<std::string>(row.fields[1]), "t-0")
        << "deleted t-1 rows must stay masked under code-space filtering";
  }
}

// ---------------------------------------------------------------------------
// Per-column cache keying: a narrow query caches only the columns it
// touches; invalidation still drops every column of a replaced file.

TEST(ColumnarScanTest, CacheIsKeyedPerColumn) {
  ColumnarFixture f(/*scan_threads=*/0, /*cache_bytes=*/64ULL << 20);
  auto table = f.lakehouse->CreateTable("wide", WideSchema(),
                                        PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(RandomRows(256, /*seed=*/5,
                                          /*distinct_tags=*/4)).ok());

  query::QuerySpec narrow;
  narrow.where.Add(query::Predicate::Ge("id", format::Value(int64_t{0})));
  narrow.projection = {"id"};
  ASSERT_TRUE((*table)->Select(narrow).ok());

  auto files = (*table)->LiveFiles();
  ASSERT_TRUE(files.ok());
  ASSERT_FALSE(files->empty());
  const format::Schema schema = WideSchema();
  int id_col = schema.FieldIndex("id");
  int score_col = schema.FieldIndex("score");
  for (const DataFileMeta& file : *files) {
    EXPECT_NE(f.cache->GetColumn(file.path, 0, id_col), nullptr)
        << "required column must be cached: " << file.path;
    EXPECT_EQ(f.cache->GetColumn(file.path, 0, score_col), nullptr)
        << "untouched column must NOT be cached: " << file.path;
  }

  // A repeat of the narrow query is a pure cache hit...
  SelectMetrics warm;
  ASSERT_TRUE((*table)->Select(narrow, {}, &warm).ok());
  EXPECT_EQ(warm.data_bytes_read, 0u);
  EXPECT_EQ(warm.bytes_decoded, 0u);
  EXPECT_EQ(warm.columns_decoded, 0u);
  // ...while widening to another column decodes only the new chunks.
  query::QuerySpec wider = narrow;
  wider.projection = {"id", "score"};
  SelectMetrics widen;
  ASSERT_TRUE((*table)->Select(wider, {}, &widen).ok());
  EXPECT_GT(widen.columns_decoded, 0u);
  for (const DataFileMeta& file : *files) {
    EXPECT_NE(f.cache->GetColumn(file.path, 0, score_col), nullptr);
  }

  // Rewrite (UPDATE) replaces the files: every per-column entry must go.
  ASSERT_TRUE((*table)
                  ->Update(query::Conjunction{}, "flag", format::Value(true))
                  .ok());
  for (const DataFileMeta& file : *files) {
    EXPECT_FALSE(f.cache->ContainsFile(file.path))
        << "replaced file keeps cached columns: " << file.path;
  }
}

// ---------------------------------------------------------------------------
// The parallel path stays byte-identical under late materialization.

TEST(ColumnarScanTest, ParallelNarrowScanMatchesSerial) {
  ColumnarFixture serial(/*scan_threads=*/0, /*cache_bytes=*/0);
  ColumnarFixture parallel(/*scan_threads=*/4, /*cache_bytes=*/64ULL << 20);
  for (ColumnarFixture* f : {&serial, &parallel}) {
    auto table = f->lakehouse->CreateTable("wide", WideSchema(),
                                           PartitionSpec::None());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Insert(RandomRows(800, /*seed=*/19,
                                            /*distinct_tags=*/5)).ok());
  }
  auto st = serial.lakehouse->GetTable("wide");
  auto pt = parallel.lakehouse->GetTable("wide");
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(pt.ok());

  query::QuerySpec spec;
  spec.where.Add(query::Predicate::In(
      "tag", {format::Value(std::string("t-0")),
              format::Value(std::string("t-4"))}));
  spec.projection = {"id", "tag"};
  spec.order_by = "id";
  auto expect = (*st)->Select(spec);
  ASSERT_TRUE(expect.ok());
  for (int round = 0; round < 2; ++round) {
    auto got = (*pt)->Select(spec);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->rows, expect->rows) << "round " << round;
    EXPECT_EQ(got->rows_scanned, expect->rows_scanned);
    EXPECT_EQ(got->rows_matched, expect->rows_matched);
  }
}

// ---------------------------------------------------------------------------
// Golden bytes of the write path: the whole LakeFile and the encoded
// DataFileMeta (file stats) of a fixed mixed-type input are pinned by CRC32C,
// so a change to how statistics are computed cannot silently change what is
// stored. The data-file path is replaced by a constant before encoding.

format::Schema GoldenSchema() {
  return format::Schema{{"id", format::DataType::kInt64},
                        {"tag", format::DataType::kString},
                        {"score", format::DataType::kDouble},
                        {"flag", format::DataType::kBool},
                        {"gone", format::DataType::kString}};
}

/// Every type, NULLs in every column, an all-NULL column, empty strings and
/// both signed zeros (which compare equal, so min/max keep the first seen).
std::vector<format::Row> GoldenRows() {
  Random rng(20240601);
  std::vector<format::Row> rows;
  for (int i = 0; i < 300; ++i) {
    format::Row row;
    row.fields.assign(5, format::Value(std::monostate{}));  // all NULL
    if (i % 11 != 0) row.fields[0] = int64_t{i * 3 - 400};
    if (i % 5 == 0 && i % 7 != 0) {
      row.fields[1] = std::string();
    } else if (i % 7 != 0) {
      row.fields[1] = "t-" + std::to_string(rng.Uniform(9));
    }
    if (i % 4 == 0 && i % 13 != 0) {
      row.fields[2] = i % 8 == 0 ? -0.0 : 0.0;
    } else if (i % 13 != 0) {
      row.fields[2] = static_cast<double>(rng.Uniform(1000)) / 8.0;
    }
    if (i % 6 != 0) row.fields[3] = rng.OneIn(3);
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(ColumnarScanTest, WritePathBytesAreGolden) {
  format::LakeFileOptions options;
  options.rows_per_group = 64;
  format::LakeFileWriter writer(GoldenSchema(), options);
  ASSERT_TRUE(writer.AppendBatch(GoldenRows()).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 3048u);
  EXPECT_EQ(Crc32c(ByteView(*file)), 2576978099u);

  ColumnarFixture f;  // 128 rows per file, 64 rows per group
  auto table = f.lakehouse->CreateTable("golden", GoldenSchema(),
                                        PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(GoldenRows()).ok());
  auto files = (*table)->LiveFiles();
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 3u);
  std::sort(files->begin(), files->end(),
            [](const DataFileMeta& a, const DataFileMeta& b) {
              return format::CompareValues(*a.column_stats.at("id").min,
                                           *b.column_stats.at("id").min) < 0;
            });
  Bytes encoded;
  for (DataFileMeta meta : *files) {
    meta.path = "golden";
    meta.EncodeTo(&encoded);
  }
  EXPECT_EQ(encoded.size(), 380u);
  EXPECT_EQ(Crc32c(ByteView(encoded)), 2094318245u);
}

}  // namespace
}  // namespace streamlake::table
