#include "data/column_backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/numa.h"

namespace privbayes {

namespace {

// Calls op(i, v) for the `count` values stored from `bytes` on, at
// 2^kLog2Bits bits each. One loop per width, so every shift and mask is a
// constant; sub-byte widths read a byte at a time (row j of a byte sits at
// bit j·bits in the little-endian word stream), which the compiler turns
// into vector nibble/crumb splits.
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

// Byte address of row `row` (a multiple of 64, so word- and byte-aligned).
inline const uint8_t* RowBytes(const uint64_t* words, size_t row,
                               uint32_t log2_bits) {
  return reinterpret_cast<const uint8_t*>(words + (row >> (6 - log2_bits)));
}

template <uint32_t kLog2Bits, bool kLeading>
void Fold(const uint64_t* words, size_t first_row, size_t rows, uint32_t card,
          uint32_t* idx) {
  ForEachPacked<kLog2Bits>(RowBytes(words, first_row, kLog2Bits), rows,
                           [&](size_t i, uint32_t v) {
                             idx[i] = kLeading ? v : idx[i] * card + v;
                           });
}

template <uint32_t kLog2Bits>
void Unpack(const uint64_t* words, size_t first_row, size_t rows, Value* out) {
  ForEachPacked<kLog2Bits>(
      RowBytes(words, first_row, kLog2Bits), rows,
      [&](size_t i, uint32_t v) { out[i] = static_cast<Value>(v); });
}

// Packs `n` rows — col[r], or leaf_map[col[r]] for a generalized level —
// at 2^kLog2Bits bits each. Every word is written whole, so bits past row
// n-1 are zero.
template <uint32_t kLog2Bits>
void Pack(const Value* col, const Value* leaf_map, size_t n, uint64_t* words) {
  constexpr uint32_t kBits = 1u << kLog2Bits;
  constexpr size_t kPerWord = 64 / kBits;
  for (size_t w = 0; w * kPerWord < n; ++w) {
    const size_t end = std::min(n - w * kPerWord, kPerWord);
    const Value* src = col + w * kPerWord;
    uint64_t word = 0;
    for (size_t j = 0; j < end; ++j) {
      const uint64_t v = leaf_map == nullptr ? src[j] : leaf_map[src[j]];
      word |= v << (j * kBits);
    }
    words[w] = word;
  }
}

void PackSlice(const Value* col, const Value* leaf_map, size_t n,
               uint32_t log2_bits, uint64_t* words) {
  switch (log2_bits) {
    case 0: return Pack<0>(col, leaf_map, n, words);
    case 1: return Pack<1>(col, leaf_map, n, words);
    case 2: return Pack<2>(col, leaf_map, n, words);
    case 3: return Pack<3>(col, leaf_map, n, words);
    default: return Pack<4>(col, leaf_map, n, words);
  }
}

// Rows decoded per step of the open-time domain scan.
constexpr int64_t kScanRows = 4096;

// Rejects a mapped slice holding a value >= its cardinality. Every kernel
// indexes histograms and conditional tables by decoded values without a
// range check, so this scan is the only guard against an out-of-domain
// payload; widths whose every value is in domain (cardinality == 2^bits)
// need none.
void CheckSliceDomain(const ColumnBackend& backend, int attr, int level) {
  const int card = backend.schema().CardinalityAt(attr, level);
  const PackedSlice s = backend.Packed(attr, level);
  if (card >= (1 << (1 << s.log2_bits))) return;
  Value buf[kScanRows] = {};
  for (int64_t begin = 0; begin < backend.num_rows(); begin += kScanRows) {
    const int64_t end = std::min(backend.num_rows(), begin + kScanRows);
    UnpackValues(s, begin, end, buf);
    // A plain reduction loop vectorizes; std::max_element does not.
    Value max_value = 0;
    for (int64_t i = 0; i < end - begin; ++i) {
      max_value = std::max(max_value, buf[i]);
    }
    if (static_cast<int>(max_value) >= card) {
      throw std::runtime_error(
          "packed file: value " + std::to_string(max_value) +
          " out of domain (cardinality " + std::to_string(card) +
          ") for attribute '" + backend.schema().attr(attr).name +
          "' level " + std::to_string(level));
    }
  }
  backend.ReleaseResidency(attr, level);
}

}  // namespace

// ------------------------------------------------------------------- heap

ColumnBackend::ColumnBackend(const Schema& schema,
                             const std::vector<std::vector<Value>>& columns,
                             int64_t num_rows) {
  const int d = schema.num_attrs();
  PB_CHECK(static_cast<int>(columns.size()) == d);
  header_.schema = schema;
  header_.num_rows = num_rows;
  // Slice offsets are multiples of 64 bytes, so every slice starts on a
  // whole word of owned_.
  owned_.resize(LayoutPackedSlices(schema, num_rows, 0, header_.slices) /
                sizeof(uint64_t));
  base_ = reinterpret_cast<const uint8_t*>(owned_.data());

  const size_t n = static_cast<size_t>(num_rows);
  for (int a = 0; a < d; ++a) {
    PB_CHECK(columns[a].size() == n);
    const TaxonomyTree& tax = schema.attr(a).taxonomy;
    for (int l = 0; l < tax.num_levels(); ++l) {
      const PackedSliceInfo& s = header_.slices[a][l];
      PackSlice(columns[a].data(), l == 0 ? nullptr : tax.LeafMapAt(l).data(),
                n, s.log2_bits,
                owned_.data() + s.byte_offset / sizeof(uint64_t));
    }
  }
}

// ------------------------------------------------------------------- mmap

std::shared_ptr<const ColumnBackend> ColumnBackend::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("packed file: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    throw std::runtime_error("packed file: '" + path +
                             "' is not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* map = ::mmap(nullptr, std::max<size_t>(size, 1), PROT_READ,
                     MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    throw std::runtime_error("packed file: cannot map '" + path +
                             "': " + std::strerror(errno));
  }

  auto backend = std::shared_ptr<ColumnBackend>(new ColumnBackend());
  backend->base_ = static_cast<const uint8_t*>(map);
  backend->map_size_ = std::max<size_t>(size, 1);
  // On any validation throw, `backend`'s destructor unmaps.
  backend->header_ = ParsePackedHeader(backend->base_, size);
  if (backend->header_.file_bytes > size) {
    throw std::runtime_error(
        "packed file: truncated payload (header promises " +
        std::to_string(backend->header_.file_bytes) + " bytes, file has " +
        std::to_string(size) + ")");
  }

  // Counting streams each slice sequentially; tell the kernel, and spread
  // the pages across NUMA nodes so every node's shards read mostly-local
  // memory. Both are best-effort hints. Deliberately NOT MADV_WILLNEED:
  // prefetching the whole file would make the entire mapping resident on an
  // unpressured machine, defeating the point of the out-of-core store —
  // pages fault in per scan and ReleaseResidency drops them afterwards.
  ::madvise(map, size, MADV_SEQUENTIAL);
  InterleaveMemory(map, size);
  for (int a = 0; a < backend->num_attrs(); ++a) {
    for (int l = 0; l < backend->schema().attr(a).taxonomy.num_levels();
         ++l) {
      CheckSliceDomain(*backend, a, l);
    }
  }
  return backend;
}

void ColumnBackend::ReleaseResidency(int attr, int level) const {
  if (map_size_ == 0) return;
  const PackedSliceInfo& s = header_.slices[attr][level];
  // Round inward to whole pages so a neighbouring slice mid-scan keeps its
  // boundary page. MADV_DONTNEED on a read-only shared file mapping only
  // drops this process's PTEs — the pages stay in the page cache and
  // re-access is a minor fault.
  const long page = ::sysconf(_SC_PAGESIZE);
  const uint64_t mask = static_cast<uint64_t>(page) - 1;
  const uint64_t lo = (s.byte_offset + mask) & ~mask;
  const uint64_t hi = (s.byte_offset + s.word_count * 8) & ~mask;
  if (hi > lo) {
    ::madvise(const_cast<uint8_t*>(base_ + lo), hi - lo, MADV_DONTNEED);
  }
}

ColumnBackend::~ColumnBackend() {
  if (map_size_ != 0) ::munmap(const_cast<uint8_t*>(base_), map_size_);
}

// ------------------------------------------------------------------ codec

void UnpackValues(const PackedSlice& slice, int64_t begin, int64_t end,
                  Value* out) {
  PB_CHECK(begin % 64 == 0 && begin <= end);
  const size_t first = static_cast<size_t>(begin);
  const size_t rows = static_cast<size_t>(end - begin);
  switch (slice.log2_bits) {
    case 0: return Unpack<0>(slice.words, first, rows, out);
    case 1: return Unpack<1>(slice.words, first, rows, out);
    case 2: return Unpack<2>(slice.words, first, rows, out);
    case 3: return Unpack<3>(slice.words, first, rows, out);
    default: return Unpack<4>(slice.words, first, rows, out);
  }
}

PackedFoldFn SelectPackedFold(uint32_t log2_bits, bool leading) {
  static constexpr PackedFoldFn kFolds[2][5] = {
      {Fold<0, false>, Fold<1, false>, Fold<2, false>, Fold<3, false>,
       Fold<4, false>},
      {Fold<0, true>, Fold<1, true>, Fold<2, true>, Fold<3, true>,
       Fold<4, true>}};
  PB_CHECK(log2_bits <= 4);
  return kFolds[leading ? 1 : 0][log2_bits];
}

}  // namespace privbayes
