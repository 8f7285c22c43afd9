// Attribute encodings (paper §5.1, Figs. 2–3).
//
// PrivBayes supports four encodings of a general-domain dataset:
//   Binary       — each attribute becomes ceil(log2 ℓ) binary attributes via
//                  the natural binary code (MSB first);
//   Gray         — as Binary but using the reflected Gray code, so adjacent
//                  values differ in one bit (more robust to bit noise);
//   Vanilla      — attributes kept intact, taxonomies flattened;
//   Hierarchical — attributes kept intact with their taxonomy trees.
//
// Binary/Gray are implemented by BinaryEncoder, which rewrites the dataset
// into an all-binary schema and can decode synthetic binary data back
// (out-of-domain codes are clamped to the nearest valid value). Vanilla /
// Hierarchical are schema transforms only.

#ifndef PRIVBAYES_DATA_ENCODING_H_
#define PRIVBAYES_DATA_ENCODING_H_

#include <memory>
#include <vector>

#include "data/dataset.h"

namespace privbayes {

/// The four encodings evaluated in §6.3.
enum class EncodingKind { kBinary, kGray, kVanilla, kHierarchical };

/// Human-readable name ("Binary", "Gray", "Vanilla", "Hierarchical").
const char* EncodingName(EncodingKind kind);

/// Reversible binarization of a general-domain dataset.
class BinaryEncoder {
 public:
  /// Builds the encoder for `schema`. `gray` selects the Gray code.
  explicit BinaryEncoder(const Schema& schema, bool gray);

  /// The all-binary schema: attribute "age" with 16 values becomes "age.b0"
  /// (most significant) … "age.b3".
  const Schema& binary_schema() const { return binary_schema_; }

  /// Number of bits assigned to original attribute `attr`.
  int BitsOf(int attr) const { return bits_[attr]; }

  /// Index in the binary schema of bit `b` (0 = MSB) of original attribute
  /// `attr`.
  int BitColumn(int attr, int b) const { return offsets_[attr] + b; }

  /// Encodes a dataset over the original schema.
  Dataset Encode(const Dataset& data) const;

  /// Decodes an all-binary dataset (e.g. PrivBayes synthetic output) back to
  /// the original schema. Codes outside an attribute's domain — possible
  /// because ceil(log2 ℓ) bits can express up to 2^bits > ℓ values — are
  /// clamped to ℓ − 1.
  Dataset Decode(const Dataset& binary) const;

  /// Code (bit pattern, MSB-first packed into an int) of value `v` of
  /// attribute `attr`.
  int EncodeValue(int attr, Value v) const;

  /// Value of attribute `attr` for bit pattern `code` (clamped into domain).
  Value DecodeValue(int attr, int code) const;

 private:
  Schema original_;
  Schema binary_schema_;
  bool gray_ = false;
  std::vector<int> bits_;     // bits per original attribute
  std::vector<int> offsets_;  // first binary column per original attribute
};

/// Returns `schema` with every taxonomy flattened (vanilla encoding).
Schema FlattenTaxonomies(const Schema& schema);

/// Returns the dataset re-schemed for the requested encoding:
///   kBinary / kGray   — binarized dataset (use the returned encoder to
///                       decode synthetic output);
///   kVanilla          — the same columns (shared, not copied) under the
///                       flattened schema;
///   kHierarchical     — the input itself (a copy shares its rows and
///                       snapshot).
struct EncodedDataset {
  Dataset data;
  /// Set only for kBinary / kGray.
  std::shared_ptr<const BinaryEncoder> encoder;
};
EncodedDataset ApplyEncoding(const Dataset& data, EncodingKind kind);

/// Maps synthetic data produced under `kind` back to the original schema.
/// Binary/Gray decode into new columns; Vanilla/Hierarchical only restore
/// the taxonomies, so the result shares `synthetic`'s columns
/// (Dataset::WithSchema) and throws if the cardinalities differ.
Dataset DecodeToOriginal(const Dataset& synthetic, const Schema& original,
                         EncodingKind kind, const BinaryEncoder* encoder);

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_ENCODING_H_
