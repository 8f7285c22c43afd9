#include "serve/row_sink.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/check.h"
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

void BinaryRowSink::WriteFrame() {
  PB_CHECK(frame_.size() <= kMaxWireFrame);
  std::string prefix;
  AppendU32(prefix, static_cast<uint32_t>(frame_.size()));
  out_->write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  out_->write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
  frame_.clear();
}

void BinaryRowSink::Begin(const Schema& schema) {
  bits_.resize(static_cast<size_t>(schema.num_attrs()));
  frame_.clear();
  frame_.push_back(static_cast<char>(kWireFrameSchema));
  AppendU16(frame_, static_cast<uint16_t>(schema.num_attrs()));
  size_t bits_per_row = 0;
  for (int c = 0; c < schema.num_attrs(); ++c) {
    int card = schema.Cardinality(c);
    bits_[static_cast<size_t>(c)] = WirePackedBits(card);
    bits_per_row += static_cast<size_t>(bits_[static_cast<size_t>(c)]);
    // Cardinality 65536 wires as 0 (a u16 can't hold it; 0 is never valid).
    AppendU16(frame_, static_cast<uint16_t>(card == 65536 ? 0 : card));
  }
  // Rows per frame: the u16 row-count ceiling, tightened so the payload of
  // a full frame (per-column packed bytes, each padded up to a byte, plus
  // the 3-byte header) can never exceed kMaxWireFrame however wide the
  // schema is — WriteFrame's size invariant must hold for every model.
  const size_t budget =
      kMaxWireFrame - 3 - static_cast<size_t>(schema.num_attrs());
  rows_per_frame_ = static_cast<int>(std::min<size_t>(
      kMaxWireFrameRows, std::max<size_t>(1, budget * 8 / bits_per_row)));
  WriteFrame();
}

void BinaryRowSink::Chunk(const Dataset& rows) {
  PB_THROW_IF(rows.num_attrs() != static_cast<int>(bits_.size()),
              "chunk schema mismatch");
  // A row frame counts rows in a u16 and is capped at kMaxWireFrame bytes;
  // split oversized chunks.
  for (int64_t first = 0; first < rows.num_rows(); first += rows_per_frame_) {
    const int n = static_cast<int>(
        std::min<int64_t>(rows.num_rows() - first, rows_per_frame_));
    frame_.push_back(static_cast<char>(kWireFrameRows));
    AppendU16(frame_, static_cast<uint16_t>(n));
    for (int c = 0; c < rows.num_attrs(); ++c) {
      PackWireColumn(rows.column(c).data() + first, n,
                     bits_[static_cast<size_t>(c)], frame_);
    }
    WriteFrame();
    rows_written_ += n;
  }
}

void BinaryRowSink::End() {
  frame_.push_back(static_cast<char>(kWireFrameEnd));
  WriteFrame();
}

void BinaryRowSink::Abort(const std::string& message) {
  frame_.clear();
  frame_.push_back(static_cast<char>(kWireFrameError));
  frame_.append(message, 0, std::min(message.size(), size_t{4096}));
  WriteFrame();
}

}  // namespace privbayes
