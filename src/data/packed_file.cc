#include "data/packed_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace privbayes {

namespace {

constexpr size_t kFixedHeaderBytes = 40;
constexpr size_t kSliceTableEntryBytes = 24;
// Per-slice write buffer: 8K words = 64 KB. Peak writer memory is
// attrs × levels × this — a few MB even for Adult's deep taxonomies.
constexpr size_t kWriterBufferWords = 8192;

size_t Align64(size_t x) { return (x + 63) & ~size_t{63}; }

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("packed file: " + what);
}

// ----------------------------------------------------------- serialization

void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}
void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutF64(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

// Bounds-checked little-endian reader over the header bytes.
struct Reader {
  const uint8_t* p;
  size_t size;
  size_t off = 0;

  void Need(size_t n) const {
    if (off + n > size) Fail("truncated header");
  }
  uint16_t U16() {
    Need(2);
    uint16_t v = static_cast<uint16_t>(p[off] | (p[off + 1] << 8));
    off += 2;
    return v;
  }
  uint32_t U32() {
    Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[off + i]) << (8 * i);
    off += 4;
    return v;
  }
  uint64_t U64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str(size_t n) {
    Need(n);
    std::string s(reinterpret_cast<const char*>(p + off), n);
    off += n;
    return s;
  }
};

// The attribute table (everything needed to rebuild the Schema, taxonomies
// included) followed by nothing: the slice table is fixed-width and appended
// separately so its size is known before the attribute table is built.
std::string SerializeAttrTable(const Schema& schema) {
  std::string out;
  for (int a = 0; a < schema.num_attrs(); ++a) {
    const Attribute& attr = schema.attr(a);
    PB_THROW_IF(attr.name.size() > 0xffff, "attribute name too long");
    PutU16(out, static_cast<uint16_t>(attr.name.size()));
    out.append(attr.name);
    out.push_back(static_cast<char>(attr.kind));
    const int levels = attr.taxonomy.num_levels();
    out.push_back(static_cast<char>(levels));
    PutF64(out, attr.numeric_lo);
    PutF64(out, attr.numeric_hi);
    for (int l = 0; l < levels; ++l) {
      PutU32(out, static_cast<uint32_t>(attr.taxonomy.CardinalityAt(l)));
    }
    for (int l = 1; l < levels; ++l) {
      const std::vector<Value>& map = attr.taxonomy.LeafMapAt(l);
      for (Value v : map) PutU16(out, v);
    }
  }
  return out;
}

}  // namespace

uint64_t LayoutPackedSlices(const Schema& schema, int64_t num_rows,
                            uint64_t offset,
                            std::vector<std::vector<PackedSliceInfo>>& slices) {
  slices.assign(static_cast<size_t>(schema.num_attrs()), {});
  for (int a = 0; a < schema.num_attrs(); ++a) {
    const TaxonomyTree& tax = schema.attr(a).taxonomy;
    for (int l = 0; l < tax.num_levels(); ++l) {
      PackedSliceInfo s;
      s.log2_bits = PackedLog2Bits(tax.CardinalityAt(l));
      const uint64_t rpw = uint64_t{64} >> s.log2_bits;
      s.byte_offset = Align64(offset);
      s.word_count = (static_cast<uint64_t>(num_rows) + rpw - 1) / rpw;
      offset = s.byte_offset + s.word_count * 8;
      slices[a].push_back(s);
    }
  }
  return Align64(offset);
}

PackedFileHeader ParsePackedHeader(const uint8_t* bytes, size_t size) {
  // Magic before size: "not a packed dataset" is the more useful diagnosis
  // for a wrong-format file, however short it is.
  if (size >= sizeof(kPackedMagic) &&
      std::memcmp(bytes, kPackedMagic, sizeof(kPackedMagic)) != 0) {
    Fail("bad magic (not a packed dataset)");
  }
  if (size < kFixedHeaderBytes) Fail("truncated header");
  Reader r{bytes, size, 8};
  PackedFileHeader h;
  h.version = r.U32();
  if (h.version == 0 || h.version > kPackedFormatVersion) {
    std::ostringstream os;
    os << "format version " << h.version << " is newer than this binary's "
       << kPackedFormatVersion << "; upgrade this binary";
    Fail(os.str());
  }
  h.header_bytes = r.U32();
  h.generation = r.U64();
  h.num_rows = static_cast<int64_t>(r.U64());
  if (h.num_rows < 0) Fail("negative row count");
  const uint32_t num_attrs = r.U32();
  const uint32_t num_slices = r.U32();
  if (h.header_bytes > size) Fail("truncated header");

  // Attribute table.
  std::vector<Attribute> attrs;
  attrs.reserve(num_attrs);
  uint32_t expect_slices = 0;
  for (uint32_t a = 0; a < num_attrs; ++a) {
    Attribute attr;
    attr.name = r.Str(r.U16());
    uint8_t kind = static_cast<uint8_t>(r.Str(1)[0]);
    if (kind > static_cast<uint8_t>(AttributeKind::kContinuous)) {
      Fail("unknown attribute kind");
    }
    attr.kind = static_cast<AttributeKind>(kind);
    const int levels = static_cast<uint8_t>(r.Str(1)[0]);
    if (levels < 1 || levels > kGenVarStride) Fail("bad taxonomy depth");
    attr.numeric_lo = r.F64();
    attr.numeric_hi = r.F64();
    std::vector<int> cards(levels);
    for (int l = 0; l < levels; ++l) {
      cards[l] = static_cast<int>(r.U32());
      if (cards[l] < 1 || cards[l] > 65536) Fail("bad cardinality");
    }
    attr.cardinality = cards[0];
    std::vector<std::vector<Value>> maps(levels);
    maps[0].resize(cards[0]);
    for (int v = 0; v < cards[0]; ++v) maps[0][v] = static_cast<Value>(v);
    for (int l = 1; l < levels; ++l) {
      maps[l].resize(cards[0]);
      for (int v = 0; v < cards[0]; ++v) maps[l][v] = r.U16();
    }
    try {
      attr.taxonomy = TaxonomyTree::FromLeafMaps(std::move(maps));
    } catch (const std::exception& e) {
      Fail(std::string("invalid taxonomy for attribute '") + attr.name +
           "': " + e.what());
    }
    expect_slices += static_cast<uint32_t>(levels);
    attrs.push_back(std::move(attr));
  }
  if (expect_slices != num_slices) Fail("slice count mismatch");
  try {
    h.schema = Schema(std::move(attrs));
  } catch (const std::exception& e) {
    Fail(std::string("invalid schema: ") + e.what());
  }

  // Slice table. Validate geometry against the row count and record the
  // minimum file size the payload implies so the caller can detect a
  // truncated payload before mapping.
  h.slices.resize(num_attrs);
  h.file_bytes = h.header_bytes;
  for (uint32_t a = 0; a < num_attrs; ++a) {
    const int levels = h.schema.attr(a).taxonomy.num_levels();
    h.slices[a].resize(levels);
    for (int l = 0; l < levels; ++l) {
      PackedSliceInfo& s = h.slices[a][l];
      s.log2_bits = r.U32();
      (void)r.U32();  // reserved
      s.byte_offset = r.U64();
      s.word_count = r.U64();
      if (s.log2_bits > 4) Fail("bad packed width");
      if (s.log2_bits != PackedLog2Bits(h.schema.CardinalityAt(a, l))) {
        Fail("packed width does not match cardinality");
      }
      const uint64_t rpw = uint64_t{64} >> s.log2_bits;
      const uint64_t want =
          (static_cast<uint64_t>(h.num_rows) + rpw - 1) / rpw;
      if (s.word_count != want) Fail("slice word count mismatch");
      if (s.byte_offset % 64 != 0) Fail("misaligned slice");
      if (s.byte_offset < h.header_bytes) Fail("slice overlaps header");
      const uint64_t end = s.byte_offset + s.word_count * 8;
      if (end < s.byte_offset) Fail("slice offset overflow");
      if (end > h.file_bytes) h.file_bytes = end;
    }
  }
  if (r.off > h.header_bytes) Fail("header overruns its declared size");
  return h;
}

// ------------------------------------------------------------------ writer

struct PackedFileWriter::SliceWriter {
  const Value* leaf_map = nullptr;  // nullptr for level 0 (identity)
  uint32_t log2_bits = 0;
  uint32_t row_mask = 0;  // rows per word − 1
  uint64_t cur = 0;       // word being assembled
  uint64_t byte_offset = 0;
  uint64_t bytes_flushed = 0;
  std::vector<uint64_t> buf;
};

PackedFileWriter::PackedFileWriter(const std::string& path,
                                   const Schema& schema, int64_t num_rows,
                                   uint64_t generation)
    : schema_(schema), num_rows_(num_rows) {
  PB_THROW_IF(num_rows < 0, "negative row count");
  if (generation == 0) generation = 1;

  // Layout: fixed header + attr table + slice table, payload 64-aligned.
  const std::string attr_table = SerializeAttrTable(schema_);
  uint32_t num_slices = 0;
  for (int a = 0; a < schema_.num_attrs(); ++a) {
    num_slices += static_cast<uint32_t>(schema_.attr(a).taxonomy.num_levels());
  }
  const size_t header_bytes = kFixedHeaderBytes + attr_table.size() +
                              static_cast<size_t>(num_slices) *
                                  kSliceTableEntryBytes;
  PB_THROW_IF(header_bytes > 0xffffffffu, "header too large");

  std::string header;
  header.append(kPackedMagic, sizeof(kPackedMagic));
  PutU32(header, kPackedFormatVersion);
  PutU32(header, static_cast<uint32_t>(header_bytes));
  PutU64(header, generation);
  PutU64(header, static_cast<uint64_t>(num_rows));
  PutU32(header, static_cast<uint32_t>(schema_.num_attrs()));
  PutU32(header, num_slices);
  header.append(attr_table);

  std::vector<std::vector<PackedSliceInfo>> layout;
  const uint64_t file_bytes =
      LayoutPackedSlices(schema_, num_rows, Align64(header_bytes), layout);
  for (int a = 0; a < schema_.num_attrs(); ++a) {
    const TaxonomyTree& tax = schema_.attr(a).taxonomy;
    for (int l = 0; l < tax.num_levels(); ++l) {
      const PackedSliceInfo& info = layout[a][l];
      SliceWriter s;
      s.log2_bits = info.log2_bits;
      s.row_mask = (uint32_t{64} >> s.log2_bits) - 1;
      s.leaf_map = l == 0 ? nullptr : tax.LeafMapAt(l).data();
      s.byte_offset = info.byte_offset;
      s.buf.reserve(kWriterBufferWords);
      PutU32(header, info.log2_bits);
      PutU32(header, 0);
      PutU64(header, info.byte_offset);
      PutU64(header, info.word_count);
      slices_.push_back(std::move(s));
    }
  }
  PB_CHECK(header.size() == header_bytes);

  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) Fail("cannot create '" + path + "': " + std::strerror(errno));
  if (::ftruncate(fd_, static_cast<off_t>(file_bytes)) != 0) {
    Fail("cannot size '" + path + "': " + std::strerror(errno));
  }
  ssize_t w = ::pwrite(fd_, header.data(), header.size(), 0);
  if (w != static_cast<ssize_t>(header.size())) {
    Fail("short header write to '" + path + "'");
  }
}

PackedFileWriter::~PackedFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void PackedFileWriter::FlushSlice(SliceWriter& s) {
  const size_t bytes = s.buf.size() * 8;
  if (bytes == 0) return;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(s.buf.data());
  size_t done = 0;
  while (done < bytes) {
    ssize_t w = ::pwrite(fd_, p + done, bytes - done,
                         static_cast<off_t>(s.byte_offset + s.bytes_flushed +
                                            done));
    if (w < 0) {
      if (errno == EINTR) continue;
      Fail(std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  s.bytes_flushed += bytes;
  s.buf.clear();
}

void PackedFileWriter::AppendRow(std::span<const Value> row) {
  PB_THROW_IF(finished_, "writer already finished");
  PB_THROW_IF(static_cast<int>(row.size()) != schema_.num_attrs(),
              "row width " << row.size() << " != " << schema_.num_attrs());
  PB_THROW_IF(rows_written_ >= num_rows_,
              "more rows than the declared " << num_rows_);
  const uint64_t r = static_cast<uint64_t>(rows_written_);
  size_t slice = 0;
  for (int a = 0; a < schema_.num_attrs(); ++a) {
    const Value v = row[a];
    PB_THROW_IF(static_cast<int>(v) >= schema_.Cardinality(a),
                "value " << v << " out of domain for attribute '"
                         << schema_.attr(a).name << "'");
    const int levels = schema_.attr(a).taxonomy.num_levels();
    for (int l = 0; l < levels; ++l, ++slice) {
      SliceWriter& s = slices_[slice];
      const uint64_t g = s.leaf_map == nullptr ? v : s.leaf_map[v];
      const uint32_t pos = static_cast<uint32_t>(r) & s.row_mask;
      s.cur |= g << (pos << s.log2_bits);
      if (pos == s.row_mask) {
        s.buf.push_back(s.cur);
        s.cur = 0;
        if (s.buf.size() >= kWriterBufferWords) FlushSlice(s);
      }
    }
  }
  ++rows_written_;
}

void PackedFileWriter::Finish() {
  PB_THROW_IF(finished_, "writer already finished");
  PB_THROW_IF(rows_written_ != num_rows_,
              "wrote " << rows_written_ << " of " << num_rows_
                       << " declared rows");
  for (SliceWriter& s : slices_) {
    const uint64_t rpw = uint64_t{64} >> s.log2_bits;
    // Tail word: bits past the last row stay zero (kernel contract).
    if (static_cast<uint64_t>(num_rows_) % rpw != 0) {
      s.buf.push_back(s.cur);
      s.cur = 0;
    }
    FlushSlice(s);
  }
  if (::fsync(fd_) != 0) {
    Fail(std::string("fsync failed: ") + std::strerror(errno));
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    Fail(std::string("close failed: ") + std::strerror(errno));
  }
  fd_ = -1;
  finished_ = true;
}

}  // namespace privbayes
