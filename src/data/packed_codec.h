// The one bit-packed column codec. The column store (data/column_backend.h,
// and so the PBPACKED payload) and the SAMPLEB row frames (serve/wire.h)
// both lay values out through it, so a store slice and a wire column are the
// same bytes by construction.
//
// Layout: `n` values at b = 2^log2_bits bits each, b ∈ {1, 2, 4, 8, 16} the
// minimal power of two a cardinality needs. Value i sits at bits
// [i·b, i·b + b) of the byte stream, LSB-first within a byte; 16-bit values
// are little-endian. Packing is byte-granular: it writes every one of the
// PackedBytes(n, log2_bits) bytes, with the tail bits past value n-1 zero, so
// no destination needs clearing first. Each width has its own loop, so every
// shift and mask is a constant and the compiler vectorizes the sub-byte
// splits.

#ifndef PRIVBAYES_DATA_PACKED_CODEC_H_
#define PRIVBAYES_DATA_PACKED_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "prob/prob_table.h"

namespace privbayes {

/// log2 of the minimal power-of-two bit width (1/2/4/8/16) for a
/// cardinality in [1, 65536].
constexpr uint32_t PackedLog2Bits(int cardinality) {
  if (cardinality <= 2) return 0;
  if (cardinality <= 4) return 1;
  if (cardinality <= 16) return 2;
  if (cardinality <= 256) return 3;
  return 4;  // Value is uint16_t; cardinality is capped at 65536
}

/// Bytes `n` values occupy at 2^log2_bits bits each.
constexpr size_t PackedBytes(size_t n, uint32_t log2_bits) {
  return ((n << log2_bits) + 7) / 8;
}

/// Calls op(i, v) for the `count` values stored from `bytes` on, at
/// 2^kLog2Bits bits each. Sub-byte widths read a byte at a time.
template <uint32_t kLog2Bits, typename Op>
inline void ForEachPacked(const uint8_t* bytes, size_t count, Op&& op) {
  constexpr uint32_t kBits = 1u << kLog2Bits;
  if constexpr (kBits == 16) {
    for (size_t i = 0; i < count; ++i) {
      op(i, uint32_t{bytes[2 * i]} | uint32_t{bytes[2 * i + 1]} << 8);
    }
  } else {
    constexpr size_t kPerByte = 8 / kBits;
    constexpr uint32_t kMask = (1u << kBits) - 1;
    const size_t full = count / kPerByte;
    for (size_t b = 0; b < full; ++b) {
      const uint32_t byte = bytes[b];
      for (size_t j = 0; j < kPerByte; ++j) {
        op(b * kPerByte + j, (byte >> (j * kBits)) & kMask);
      }
    }
    for (size_t i = full * kPerByte; i < count; ++i) {
      op(i, (uint32_t{bytes[i / kPerByte]} >> ((i % kPerByte) * kBits)) &
                kMask);
    }
  }
}

/// Packs the `n` values get(0) .. get(n-1) at 2^kLog2Bits bits each into
/// exactly PackedBytes(n, kLog2Bits) bytes at `out`.
template <uint32_t kLog2Bits, typename Get>
inline void PackEach(size_t n, uint8_t* out, Get&& get) {
  constexpr uint32_t kBits = 1u << kLog2Bits;
  if constexpr (kBits == 16) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t v = get(i);
      out[2 * i] = static_cast<uint8_t>(v);
      out[2 * i + 1] = static_cast<uint8_t>(v >> 8);
    }
  } else {
    constexpr size_t kPerByte = 8 / kBits;
    constexpr uint32_t kMask = (1u << kBits) - 1;
    const size_t full = n / kPerByte;
    for (size_t b = 0; b < full; ++b) {
      uint32_t byte = 0;
      for (size_t j = 0; j < kPerByte; ++j) {
        byte |= (uint32_t{get(b * kPerByte + j)} & kMask) << (j * kBits);
      }
      out[b] = static_cast<uint8_t>(byte);
    }
    if (full * kPerByte < n) {
      uint32_t byte = 0;
      for (size_t i = full * kPerByte; i < n; ++i) {
        byte |= (uint32_t{get(i)} & kMask) << ((i % kPerByte) * kBits);
      }
      out[full] = static_cast<uint8_t>(byte);
    }
  }
}

/// Calls fn(std::integral_constant<uint32_t, log2_bits>{}): the one switch
/// from a runtime width to the width-specialized loops above.
template <typename Fn>
inline decltype(auto) WithLog2Bits(uint32_t log2_bits, Fn&& fn) {
  switch (log2_bits) {
    case 0: return fn(std::integral_constant<uint32_t, 0>{});
    case 1: return fn(std::integral_constant<uint32_t, 1>{});
    case 2: return fn(std::integral_constant<uint32_t, 2>{});
    case 3: return fn(std::integral_constant<uint32_t, 3>{});
    default: return fn(std::integral_constant<uint32_t, 4>{});
  }
}

/// Packs values[0, n) into PackedBytes(n, log2_bits) bytes at `out`.
void PackValues(const Value* values, size_t n, uint32_t log2_bits,
                uint8_t* out);

/// Decodes `n` values packed at 2^log2_bits bits from `bytes` into `out`.
void UnpackValues(const uint8_t* bytes, size_t n, uint32_t log2_bits,
                  Value* out);

/// Largest of values[0, n); 0 for n == 0. The domain check of decoded
/// columns.
Value MaxValue(const Value* values, size_t n);

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_PACKED_CODEC_H_
