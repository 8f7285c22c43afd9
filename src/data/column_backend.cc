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
#include "data/packed_codec.h"

namespace privbayes {

namespace {

template <uint32_t kLog2Bits, bool kLeading>
void Fold(const uint64_t* words, size_t first_row, size_t rows, uint32_t card,
          uint32_t* idx) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words) +
                         PackedBytes(first_row, kLog2Bits);
  ForEachPacked<kLog2Bits>(bytes, rows, [&](size_t i, uint32_t v) {
    idx[i] = kLeading ? v : idx[i] * card + v;
  });
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
    const size_t rows = static_cast<size_t>(
        std::min(backend.num_rows() - begin, kScanRows));
    UnpackValues(s.bytes() + PackedBytes(begin, s.log2_bits), rows,
                 s.log2_bits, buf);
    const Value max_value = MaxValue(buf, rows);
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
  // Packing writes only each slice's PackedBytes; the rest of its last word
  // keeps resize's zeros.
  auto* owned_bytes = reinterpret_cast<uint8_t*>(owned_.data());

  const size_t n = static_cast<size_t>(num_rows);
  for (int a = 0; a < d; ++a) {
    PB_CHECK(columns[a].size() == n);
    const TaxonomyTree& tax = schema.attr(a).taxonomy;
    for (int l = 0; l < tax.num_levels(); ++l) {
      const PackedSliceInfo& s = header_.slices[a][l];
      const Value* col = columns[a].data();
      uint8_t* out = owned_bytes + s.byte_offset;
      if (l == 0) {
        PackValues(col, n, s.log2_bits, out);
        continue;
      }
      const Value* leaf_map = tax.LeafMapAt(l).data();
      WithLog2Bits(s.log2_bits, [&](auto k) {
        PackEach<decltype(k)::value>(
            n, out, [&](size_t i) { return leaf_map[col[i]]; });
      });
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

  // Counting streams each slice sequentially; tell the kernel (a
  // best-effort hint). Deliberately NOT MADV_WILLNEED: prefetching the
  // whole file would make the entire mapping resident on an unpressured
  // machine, defeating the point of the out-of-core store — pages fault in
  // per scan and ReleaseResidency drops them afterwards.
  ::madvise(map, size, MADV_SEQUENTIAL);
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

// ------------------------------------------------------------------- fold

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
