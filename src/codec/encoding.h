#ifndef STREAMLAKE_CODEC_ENCODING_H_
#define STREAMLAKE_CODEC_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace streamlake::codec {

/// Light-weight column encodings applied inside LakeFile column chunks
/// before block compression. Chosen adaptively per chunk.
enum class Encoding : uint8_t {
  kPlain = 0,    // zigzag varints / fixed64 / length-prefixed strings
  kRle = 1,      // (value, run_length) pairs
  kDelta = 2,    // zigzag varint deltas; wins on sorted/monotonic ints
  kDict = 3,     // dictionary + varint codes; wins on low cardinality
  kBitPack = 4,  // 1 bit per bool
};

/// Dictionary chunks split into their compressed parts: the distinct values
/// in first-appearance order plus one code per row. Scans evaluate equality
/// predicates on the codes without ever materializing row values.
struct Int64DictParts {
  std::vector<int64_t> dict;
  std::vector<uint32_t> codes;
};
struct StringDictParts {
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;
};

// ---- int64 columns ----
void EncodeInt64s(const std::vector<int64_t>& values, Encoding encoding,
                  Bytes* dst);
Result<std::vector<int64_t>> DecodeInt64s(ByteView data, Encoding encoding,
                                          size_t count);
/// Decodes a kDict chunk without materializing per-row values.
Result<Int64DictParts> DecodeInt64DictParts(ByteView data, size_t count);
/// Picks RLE for runs, DICT for low cardinality (when the caller knows the
/// distinct count), DELTA for near-sorted data, PLAIN otherwise. `ndv == 0`
/// means "unknown" and disables the dictionary choice.
Encoding ChooseInt64Encoding(const std::vector<int64_t>& values,
                             uint64_t ndv = 0);

// ---- double columns ----
void EncodeDoubles(const std::vector<double>& values, Bytes* dst);
Result<std::vector<double>> DecodeDoubles(ByteView data, size_t count);

// ---- string columns ----
// Encoders take views so a writer can encode cells in place.
void EncodeStrings(const std::vector<std::string_view>& values,
                   Encoding encoding, Bytes* dst);
Result<std::vector<std::string>> DecodeStrings(ByteView data,
                                               Encoding encoding,
                                               size_t count);
/// Decodes a kDict chunk without materializing per-row values.
Result<StringDictParts> DecodeStringDictParts(ByteView data, size_t count);
/// Picks DICT when distinct values are few (provinces, urls), else PLAIN.
/// `ndv != 0` (a precomputed distinct count) skips the sampling pass.
Encoding ChooseStringEncoding(const std::vector<std::string_view>& values,
                              uint64_t ndv = 0);

// ---- bool columns ----
void EncodeBools(const std::vector<uint8_t>& values, Bytes* dst);
Result<std::vector<uint8_t>> DecodeBools(ByteView data, size_t count);

}  // namespace streamlake::codec

#endif  // STREAMLAKE_CODEC_ENCODING_H_
