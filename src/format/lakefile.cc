#include "format/lakefile.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"

namespace streamlake::format {

namespace {

constexpr char kMagic[4] = {'L', 'K', 'F', '1'};

// Stats flag bits (persisted; append-only).
constexpr uint8_t kStatsMinMax = 1;
constexpr uint8_t kStatsExtended = 2;

}  // namespace

void EncodeColumnStats(Bytes* dst, const ColumnStats& stats) {
  uint8_t flag = 0;
  if (stats.min.has_value() && stats.max.has_value()) flag |= kStatsMinMax;
  if (stats.has_extended) flag |= kStatsExtended;
  dst->push_back(flag);
  if (flag & kStatsMinMax) {
    EncodeValue(dst, *stats.min);
    EncodeValue(dst, *stats.max);
  }
  if (flag & kStatsExtended) {
    PutVarint64(dst, stats.null_count);
    PutVarint64(dst, stats.ndv);
    uint64_t bits;
    std::memcpy(&bits, &stats.avg_width, 8);
    PutFixed64(dst, bits);
  }
}

Result<ColumnStats> DecodeColumnStats(Decoder* dec) {
  ColumnStats stats;
  if (dec->Remaining() < 1) return Status::Corruption("stats flag");
  uint8_t flag = *dec->position();
  dec->Skip(1);
  if (flag > (kStatsMinMax | kStatsExtended)) {
    return Status::Corruption("stats: bad flag");
  }
  if (flag & kStatsMinMax) {
    SL_ASSIGN_OR_RETURN(Value min, DecodeValue(dec));
    SL_ASSIGN_OR_RETURN(Value max, DecodeValue(dec));
    stats.min = std::move(min);
    stats.max = std::move(max);
  }
  if (flag & kStatsExtended) {
    stats.has_extended = true;
    uint64_t bits;
    if (!dec->GetVarint(&stats.null_count) || !dec->GetVarint(&stats.ndv) ||
        !dec->GetFixed64(&bits)) {
      return Status::Corruption("stats: extended");
    }
    std::memcpy(&stats.avg_width, &bits, 8);
  }
  return stats;
}

namespace {

template <typename T>
bool IsNan(T v) {
  if constexpr (std::is_floating_point_v<T>) return std::isnan(v);
  return false;
}

bool IsNanValue(const std::optional<Value>& v) {
  return v.has_value() && std::holds_alternative<double>(*v) &&
         std::isnan(std::get<double>(*v));
}

Value ToValue(uint8_t v) { return Value(v != 0); }
Value ToValue(int64_t v) { return Value(v); }
Value ToValue(double v) { return Value(v); }
Value ToValue(std::string_view v) { return Value(std::string(v)); }

/// Plain-encoded width of one value (the avg_width statistic).
uint64_t PlainWidth(uint8_t) { return 1; }
uint64_t PlainWidth(int64_t) { return 8; }
uint64_t PlainWidth(double) { return 8; }
uint64_t PlainWidth(std::string_view v) { return v.size(); }

/// Column `col` of `rows` as typed values; NULL rows hold T's default.
template <typename Cell, typename T = Cell>
std::vector<T> TypedValues(const std::vector<Row>& rows, size_t col,
                           const std::vector<uint8_t>& nulls) {
  std::vector<T> vals(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!nulls[i]) vals[i] = std::get<Cell>(rows[i].fields[col]);
  }
  return vals;
}

/// One chunk's non-NULL values folded in row order under CompareValues:
/// min/max keep the first of equal values (-0.0 vs 0.0), and NaN, equal to
/// everything, decides min, max and NDV only as the first value.
template <typename T>
struct ChunkSummary {
  std::optional<T> first;     // first non-NULL value
  std::optional<T> min, max;  // over the non-NaN values
  std::vector<T> distinct;    // sorted, unique, NaN-free
  uint64_t non_null = 0;
  uint64_t width = 0;  // plain-encoded bytes of the non-NULL values

  bool leading_nan() const { return first.has_value() && IsNan(*first); }
  Value min_value() const { return ToValue(leading_nan() ? *first : *min); }
  Value max_value() const { return ToValue(leading_nan() ? *first : *max); }
  uint64_t ndv() const { return leading_nan() ? 1 : distinct.size(); }
};

template <typename T>
ChunkSummary<T> Summarize(const std::vector<T>& vals,
                          const std::vector<uint8_t>& nulls) {
  ChunkSummary<T> s;
  s.distinct.reserve(vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    if (nulls[i]) continue;
    const T v = vals[i];
    if (!s.first.has_value()) s.first = v;
    ++s.non_null;
    s.width += PlainWidth(v);
    if (IsNan(v)) continue;
    if (!s.min.has_value() || v < *s.min) s.min = v;
    if (!s.max.has_value() || *s.max < v) s.max = v;
    s.distinct.push_back(v);
  }
  std::sort(s.distinct.begin(), s.distinct.end());
  s.distinct.erase(std::unique(s.distinct.begin(), s.distinct.end()),
                   s.distinct.end());
  return s;
}

/// Merges a chunk's sorted distinct values into the file's owned, sorted
/// distinct set; returns the merged size.
template <typename Owned, typename T>
uint64_t MergeDistinct(const std::vector<T>& chunk, ColumnData* file) {
  if (!std::holds_alternative<std::vector<Owned>>(*file)) {
    file->emplace<std::vector<Owned>>();
  }
  auto& have = std::get<std::vector<Owned>>(*file);
  const std::vector<Owned> added(chunk.begin(), chunk.end());
  std::vector<Owned> merged;
  std::set_union(std::make_move_iterator(have.begin()),
                 std::make_move_iterator(have.end()), added.begin(),
                 added.end(), std::back_inserter(merged));
  have = std::move(merged);
  return have.size();
}

/// The one statistics pass of a chunk: fills its footer stats when enabled
/// (bool chunks carry no min/max) and folds it into the column's file stats,
/// which then equal one in-order pass over the file's rows. The only group
/// of a file (`keep_distinct` false) hands over its NDV without copying
/// values. Returns the chunk's NDV for the encoding choice.
template <typename Owned, typename T>
uint64_t ChunkStats(const std::vector<T>& vals,
                    const std::vector<uint8_t>& nulls,
                    const LakeFileOptions& options, bool keep_distinct,
                    FileColumnStats* file, ColumnStats* chunk) {
  const ChunkSummary<T> s = Summarize(vals, nulls);
  const uint64_t null_count = vals.size() - s.non_null;
  if (options.enable_stats) {
    if (!std::is_same_v<T, uint8_t> && s.non_null > 0) {
      chunk->min = s.min_value();
      chunk->max = s.max_value();
    }
    chunk->has_extended = true;
    chunk->null_count = null_count;
    chunk->ndv = s.ndv();
    chunk->avg_width = s.non_null > 0 ? static_cast<double>(s.width) /
                                            static_cast<double>(s.non_null)
                                      : 0.0;
  }

  ColumnStats& fs = file->stats;
  fs.null_count += null_count;
  file->total_width += s.width;
  if (s.non_null > 0 && !fs.min.has_value()) {
    fs.min = s.min_value();
    fs.max = s.max_value();
  } else if (s.min.has_value() && !IsNanValue(fs.min)) {
    Value mn = ToValue(*s.min);
    if (CompareValues(mn, *fs.min) < 0) fs.min = std::move(mn);
    Value mx = ToValue(*s.max);
    if (CompareValues(mx, *fs.max) > 0) fs.max = std::move(mx);
  }
  if (!keep_distinct) {
    fs.ndv = s.ndv();
  } else {
    const uint64_t merged = MergeDistinct<Owned>(s.distinct, &file->distinct);
    fs.ndv = IsNanValue(fs.min) ? 1 : merged;
  }
  return s.ndv();
}

/// Encodes one column of `rows` into a chunk appended to `file` and folds
/// its statistics into `file_column`.
///
/// The chunk's raw payload is `[null_count][null bitmap iff null_count > 0]
/// [encoded values]` where NULL rows carry the type's default in the value
/// stream. Stats come first so the encoding choice can use the distinct
/// count instead of re-sampling.
ChunkMeta WriteChunk(const Schema& schema, const std::vector<Row>& rows,
                     size_t col, const LakeFileOptions& options,
                     bool keep_distinct, FileColumnStats* file_column,
                     Bytes* file) {
  ChunkMeta meta;
  meta.offset = file->size();

  uint64_t null_count = 0;
  std::vector<uint8_t> nulls(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (IsNull(rows[i].fields[col])) {
      nulls[i] = 1;
      ++null_count;
    }
  }

  Bytes raw;
  PutVarint64(&raw, null_count);
  if (null_count > 0) codec::EncodeBools(nulls, &raw);

  codec::Encoding encoding = codec::Encoding::kPlain;
  switch (schema.field(col).type) {
    case DataType::kBool: {
      const auto vals = TypedValues<bool, uint8_t>(rows, col, nulls);
      ChunkStats<uint8_t>(vals, nulls, options, keep_distinct, file_column,
                          &meta.stats);
      encoding = codec::Encoding::kBitPack;
      codec::EncodeBools(vals, &raw);
      break;
    }
    case DataType::kInt64: {
      const auto vals = TypedValues<int64_t>(rows, col, nulls);
      encoding = codec::ChooseInt64Encoding(
          vals, ChunkStats<int64_t>(vals, nulls, options, keep_distinct,
                                    file_column, &meta.stats));
      codec::EncodeInt64s(vals, encoding, &raw);
      break;
    }
    case DataType::kDouble: {
      const auto vals = TypedValues<double>(rows, col, nulls);
      ChunkStats<double>(vals, nulls, options, keep_distinct, file_column,
                         &meta.stats);
      codec::EncodeDoubles(vals, &raw);
      break;
    }
    case DataType::kString: {
      const auto vals =
          TypedValues<std::string, std::string_view>(rows, col, nulls);
      encoding = codec::ChooseStringEncoding(
          vals, ChunkStats<std::string>(vals, nulls, options, keep_distinct,
                                        file_column, &meta.stats));
      codec::EncodeStrings(vals, encoding, &raw);
      break;
    }
    case DataType::kNull:
      break;  // schemas never carry kNull fields
  }

  Bytes compressed = codec::Compress(options.compression, ByteView(raw));
  codec::Compression codec_used = options.compression;
  if (compressed.size() >= raw.size()) {
    // Incompressible chunk: store raw to avoid negative savings.
    compressed = raw;
    codec_used = codec::Compression::kNone;
  }

  file->push_back(static_cast<uint8_t>(encoding));
  file->push_back(static_cast<uint8_t>(codec_used));
  PutVarint64(file, raw.size());
  PutVarint64(file, compressed.size());
  AppendBytes(file, ByteView(compressed));
  PutFixed32(file, Crc32c(ByteView(compressed)));

  meta.size = file->size() - meta.offset;
  return meta;
}

}  // namespace

LakeFileWriter::LakeFileWriter(Schema schema, LakeFileOptions options)
    : schema_(std::move(schema)),
      options_(options),
      file_columns_(schema_.num_fields()) {
  file_.insert(file_.end(), kMagic, kMagic + 4);
}

Status LakeFileWriter::Append(const Row& row) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SL_RETURN_NOT_OK(schema_.ValidateRow(row));
  pending_.push_back(row);
  ++rows_written_;
  if (pending_.size() >= options_.rows_per_group) {
    return FlushRowGroup(/*last=*/false);
  }
  return Status::OK();
}

Status LakeFileWriter::AppendBatch(const std::vector<Row>& rows) {
  for (const Row& row : rows) SL_RETURN_NOT_OK(Append(row));
  return Status::OK();
}

Status LakeFileWriter::FlushRowGroup(bool last) {
  if (pending_.empty()) return Status::OK();
  RowGroupMeta group;
  group.num_rows = pending_.size();
  // The only group of a file needs no file-level distinct set: its chunk
  // NDV is the file's.
  const bool keep_distinct = !(last && groups_.empty());
  for (size_t col = 0; col < schema_.num_fields(); ++col) {
    group.columns.push_back(WriteChunk(schema_, pending_, col, options_,
                                       keep_distinct, &file_columns_[col],
                                       &file_));
  }
  groups_.push_back(std::move(group));
  pending_.clear();
  return Status::OK();
}

Result<Bytes> LakeFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SL_RETURN_NOT_OK(FlushRowGroup(/*last=*/true));
  finished_ = true;
  for (size_t c = 0; rows_written_ > 0 && c < file_columns_.size(); ++c) {
    ColumnStats& stats = file_columns_[c].stats;
    stats.has_extended = true;
    const uint64_t non_null = rows_written_ - stats.null_count;
    stats.avg_width = non_null > 0
                          ? static_cast<double>(file_columns_[c].total_width) /
                                static_cast<double>(non_null)
                          : 0.0;
    file_stats_[schema_.field(c).name] = std::move(stats);
  }
  file_columns_.clear();

  Bytes footer;
  schema_.EncodeTo(&footer);
  PutVarint64(&footer, groups_.size());
  for (const RowGroupMeta& group : groups_) {
    PutVarint64(&footer, group.num_rows);
    for (const ChunkMeta& chunk : group.columns) {
      PutVarint64(&footer, chunk.offset);
      PutVarint64(&footer, chunk.size);
      EncodeColumnStats(&footer, chunk.stats);
    }
  }
  AppendBytes(&file_, ByteView(footer));
  PutFixed32(&file_, static_cast<uint32_t>(footer.size()));
  file_.insert(file_.end(), kMagic, kMagic + 4);
  return std::move(file_);
}

Result<LakeFileReader> LakeFileReader::Open(Bytes file) {
  if (file.size() < 12 ||
      std::memcmp(file.data(), kMagic, 4) != 0 ||
      std::memcmp(file.data() + file.size() - 4, kMagic, 4) != 0) {
    return Status::Corruption("lakefile: bad magic");
  }
  uint32_t footer_size = DecodeFixed32(file.data() + file.size() - 8);
  if (footer_size + 12 > file.size()) {
    return Status::Corruption("lakefile: bad footer size");
  }
  ByteView footer(file.data() + file.size() - 8 - footer_size, footer_size);
  Decoder dec(footer);
  SL_ASSIGN_OR_RETURN(Schema schema, Schema::DecodeFrom(&dec));
  uint64_t num_groups;
  if (!dec.GetVarint(&num_groups)) {
    return Status::Corruption("lakefile: group count");
  }
  if (num_groups > footer.size()) {
    return Status::Corruption("lakefile: group count bogus");
  }
  std::vector<RowGroupMeta> groups;
  groups.reserve(num_groups);
  for (uint64_t g = 0; g < num_groups; ++g) {
    RowGroupMeta group;
    if (!dec.GetVarint(&group.num_rows)) {
      return Status::Corruption("lakefile: group rows");
    }
    // Bools pack 8 per byte; more rows than 8x the file size is corrupt.
    if (group.num_rows > file.size() * 8) {
      return Status::Corruption("lakefile: row count bogus");
    }
    for (size_t col = 0; col < schema.num_fields(); ++col) {
      ChunkMeta chunk;
      if (!dec.GetVarint(&chunk.offset) || !dec.GetVarint(&chunk.size)) {
        return Status::Corruption("lakefile: chunk meta");
      }
      if (chunk.offset + chunk.size > file.size()) {
        return Status::Corruption("lakefile: chunk out of bounds");
      }
      SL_ASSIGN_OR_RETURN(chunk.stats, DecodeColumnStats(&dec));
      group.columns.push_back(std::move(chunk));
    }
    groups.push_back(std::move(group));
  }

  LakeFileReader reader;
  reader.file_ = std::move(file);
  reader.schema_ = std::move(schema);
  reader.groups_ = std::move(groups);
  return reader;
}

uint64_t LakeFileReader::num_rows() const {
  uint64_t total = 0;
  for (const RowGroupMeta& g : groups_) total += g.num_rows;
  return total;
}

Value ColumnChunkData::ValueAt(size_t row) const {
  if (IsNullAt(row)) return Value(std::monostate{});
  const ColumnData& src = dict_view ? dict : values;
  const size_t idx = dict_view ? codes[row] : row;
  switch (type) {
    case DataType::kBool:
      return Value(std::get<std::vector<uint8_t>>(src)[idx] != 0);
    case DataType::kInt64:
      return Value(std::get<std::vector<int64_t>>(src)[idx]);
    case DataType::kDouble:
      return Value(std::get<std::vector<double>>(src)[idx]);
    case DataType::kString:
      return Value(std::get<std::vector<std::string>>(src)[idx]);
    case DataType::kNull:
      break;
  }
  return Value(std::monostate{});
}

Result<ColumnChunkData> LakeFileReader::ReadColumnChunk(size_t group,
                                                        size_t column) const {
  if (group >= groups_.size() || column >= schema_.num_fields()) {
    return Status::InvalidArgument("lakefile: group/column out of range");
  }
  const ChunkMeta& chunk = groups_[group].columns[column];
  const size_t num_rows = groups_[group].num_rows;
  Decoder dec(ByteView(file_.data() + chunk.offset, chunk.size));
  if (dec.Remaining() < 2) return Status::Corruption("chunk: header");
  auto encoding = static_cast<codec::Encoding>(*dec.position());
  dec.Skip(1);
  auto compression = static_cast<codec::Compression>(*dec.position());
  dec.Skip(1);
  uint64_t raw_len, data_len;
  if (!dec.GetVarint(&raw_len) || !dec.GetVarint(&data_len)) {
    return Status::Corruption("chunk: lengths");
  }
  if (dec.Remaining() < data_len + 4) return Status::Corruption("chunk: data");
  ByteView payload(dec.position(), data_len);
  dec.Skip(data_len);
  uint32_t expected_crc;
  if (!dec.GetFixed32(&expected_crc)) return Status::Corruption("chunk: crc");
  if (Crc32c(payload) != expected_crc) {
    return Status::Corruption("chunk: crc mismatch");
  }
  SL_ASSIGN_OR_RETURN(Bytes raw,
                      codec::Decompress(compression, payload, raw_len));

  ColumnChunkData out;
  out.type = schema_.field(column).type;
  out.num_rows = num_rows;
  out.raw_bytes = raw.size();

  Decoder body((ByteView(raw)));
  uint64_t null_count;
  if (!body.GetVarint(&null_count)) {
    return Status::Corruption("chunk: null count");
  }
  if (null_count > num_rows) {
    return Status::Corruption("chunk: null count bogus");
  }
  if (null_count > 0) {
    const size_t mask_bytes = (num_rows + 7) / 8;
    if (body.Remaining() < mask_bytes) {
      return Status::Corruption("chunk: null mask");
    }
    SL_ASSIGN_OR_RETURN(
        out.null_mask,
        codec::DecodeBools(ByteView(body.position(), mask_bytes), num_rows));
    body.Skip(mask_bytes);
  }
  ByteView vals(body.position(), body.Remaining());

  switch (out.type) {
    case DataType::kBool: {
      SL_ASSIGN_OR_RETURN(auto decoded, codec::DecodeBools(vals, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kInt64: {
      if (encoding == codec::Encoding::kDict) {
        SL_ASSIGN_OR_RETURN(auto parts,
                            codec::DecodeInt64DictParts(vals, num_rows));
        out.dict_view = true;
        out.dict = std::move(parts.dict);
        out.codes = std::move(parts.codes);
        return out;
      }
      SL_ASSIGN_OR_RETURN(auto decoded,
                          codec::DecodeInt64s(vals, encoding, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kDouble: {
      SL_ASSIGN_OR_RETURN(auto decoded, codec::DecodeDoubles(vals, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kString: {
      if (encoding == codec::Encoding::kDict) {
        SL_ASSIGN_OR_RETURN(auto parts,
                            codec::DecodeStringDictParts(vals, num_rows));
        out.dict_view = true;
        out.dict = std::move(parts.dict);
        out.codes = std::move(parts.codes);
        return out;
      }
      SL_ASSIGN_OR_RETURN(auto decoded,
                          codec::DecodeStrings(vals, encoding, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kNull:
      break;
  }
  return Status::Corruption("chunk: unknown column type");
}

Result<ColumnData> LakeFileReader::ReadColumn(size_t group,
                                              size_t column) const {
  SL_ASSIGN_OR_RETURN(ColumnChunkData chunk, ReadColumnChunk(group, column));
  if (!chunk.dict_view) return std::move(chunk.values);
  // Expand dictionary codes into plain values (NULL rows already carry the
  // dictionary entry their default code points at).
  return std::visit(
      [&chunk](const auto& dict) {
        std::decay_t<decltype(dict)> vals;
        vals.reserve(chunk.codes.size());
        for (uint32_t c : chunk.codes) vals.push_back(dict[c]);
        return ColumnData(std::move(vals));
      },
      chunk.dict);
}

Result<std::vector<Row>> LakeFileReader::ReadRowGroup(size_t group) const {
  if (group >= groups_.size()) {
    return Status::InvalidArgument("lakefile: group out of range");
  }
  const size_t num_rows = groups_[group].num_rows;
  std::vector<Row> rows(num_rows);
  for (Row& r : rows) r.fields.resize(schema_.num_fields());
  for (size_t col = 0; col < schema_.num_fields(); ++col) {
    SL_ASSIGN_OR_RETURN(ColumnChunkData data, ReadColumnChunk(group, col));
    for (size_t i = 0; i < num_rows; ++i) {
      rows[i].fields[col] = data.ValueAt(i);
    }
  }
  return rows;
}

Result<std::vector<Row>> LakeFileReader::ReadAll() const {
  std::vector<Row> all;
  all.reserve(num_rows());
  for (size_t g = 0; g < groups_.size(); ++g) {
    SL_ASSIGN_OR_RETURN(std::vector<Row> rows, ReadRowGroup(g));
    for (Row& r : rows) all.push_back(std::move(r));
  }
  return all;
}

}  // namespace streamlake::format
