#include "data/packed_codec.h"

#include <algorithm>

namespace privbayes {

void PackValues(const Value* values, size_t n, uint32_t log2_bits,
                uint8_t* out) {
  WithLog2Bits(log2_bits, [&](auto k) {
    PackEach<decltype(k)::value>(n, out, [&](size_t i) { return values[i]; });
  });
}

void UnpackValues(const uint8_t* bytes, size_t n, uint32_t log2_bits,
                  Value* out) {
  WithLog2Bits(log2_bits, [&](auto k) {
    ForEachPacked<decltype(k)::value>(bytes, n, [&](size_t i, uint32_t v) {
      out[i] = static_cast<Value>(v);
    });
  });
}

Value MaxValue(const Value* values, size_t n) {
  // A plain reduction loop vectorizes; std::max_element does not.
  Value max_value = 0;
  for (size_t i = 0; i < n; ++i) max_value = std::max(max_value, values[i]);
  return max_value;
}

}  // namespace privbayes
