#include "serve/row_sink.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "data/packed_codec.h"
#include "serve/wire.h"

namespace privbayes {

void DatasetSink::Begin(const Schema& schema) {
  schema_ = schema;
  columns_.assign(static_cast<size_t>(schema_.num_attrs()), {});
  result_ = Dataset();
}

void DatasetSink::Chunk(const Dataset& rows) {
  PB_THROW_IF(rows.num_attrs() != schema_.num_attrs(),
              "chunk schema mismatch");
  for (int c = 0; c < rows.num_attrs(); ++c) {
    const std::vector<Value>& col = rows.column(c);
    columns_[c].insert(columns_[c].end(), col.begin(), col.end());
  }
}

void DatasetSink::End() {
  result_ = Dataset::FromColumns(schema_, std::move(columns_));
  columns_.clear();
}

void BinaryRowSink::WriteFrame(const std::string& payload) {
  PB_CHECK(payload.size() <= kMaxWireFrame);
  std::string framed;
  AppendU32(framed, static_cast<uint32_t>(payload.size()));
  framed += payload;
  out_->write(framed.data(), static_cast<std::streamsize>(framed.size()));
}

void BinaryRowSink::Begin(const Schema& schema) {
  log2_bits_.resize(static_cast<size_t>(schema.num_attrs()));
  std::string frame(1, static_cast<char>(kWireFrameSchema));
  AppendU16(frame, static_cast<uint16_t>(schema.num_attrs()));
  size_t bits_per_row = 0;
  for (int c = 0; c < schema.num_attrs(); ++c) {
    int card = schema.Cardinality(c);
    log2_bits_[static_cast<size_t>(c)] = PackedLog2Bits(card);
    bits_per_row += size_t{1} << log2_bits_[static_cast<size_t>(c)];
    // Cardinality 65536 wires as 0 (a u16 can't hold it; 0 is never valid).
    AppendU16(frame, static_cast<uint16_t>(card == 65536 ? 0 : card));
  }
  // Rows per frame: the u16 row-count ceiling, tightened so the payload of
  // a full frame (per-column packed bytes, each padded up to a byte, plus
  // the 3-byte header) can never exceed kMaxWireFrame however wide the
  // schema is — Chunk's frame-size check must hold for every model.
  const size_t budget =
      kMaxWireFrame - 3 - static_cast<size_t>(schema.num_attrs());
  rows_per_frame_ = static_cast<int>(std::min<size_t>(
      kMaxWireFrameRows, std::max<size_t>(1, budget * 8 / bits_per_row)));
  WriteFrame(frame);
}

void BinaryRowSink::Chunk(const Dataset& rows) {
  PB_THROW_IF(rows.num_attrs() != static_cast<int>(log2_bits_.size()),
              "chunk schema mismatch");
  // A row frame counts rows in a u16 and is capped at kMaxWireFrame bytes;
  // split oversized chunks.
  for (int64_t first = 0; first < rows.num_rows(); first += rows_per_frame_) {
    const int n = static_cast<int>(
        std::min<int64_t>(rows.num_rows() - first, rows_per_frame_));
    size_t len = 3;
    for (uint32_t log2_bits : log2_bits_) len += PackedBytes(n, log2_bits);
    PB_CHECK(len <= kMaxWireFrame);
    if (frame_.size() < 4 + len) frame_.resize(4 + len);
    char* p = frame_.data();
    StoreU32(p, static_cast<uint32_t>(len));
    p[4] = static_cast<char>(kWireFrameRows);
    StoreU16(p + 5, static_cast<uint16_t>(n));
    auto* at = reinterpret_cast<uint8_t*>(p + 7);
    for (int c = 0; c < rows.num_attrs(); ++c) {
      const uint32_t log2_bits = log2_bits_[static_cast<size_t>(c)];
      PackValues(rows.column(c).data() + first, static_cast<size_t>(n),
                 log2_bits, at);
      at += PackedBytes(n, log2_bits);
    }
    out_->write(p, static_cast<std::streamsize>(4 + len));
    rows_written_ += n;
  }
}

void BinaryRowSink::End() {
  WriteFrame(std::string(1, static_cast<char>(kWireFrameEnd)));
}

void BinaryRowSink::Abort(const std::string& message) {
  std::string frame(1, static_cast<char>(kWireFrameError));
  frame.append(message, 0, std::min(message.size(), size_t{4096}));
  WriteFrame(frame);
}

}  // namespace privbayes
