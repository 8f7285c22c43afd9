#include "serve/sampling_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "data/encoding.h"

namespace privbayes {

SamplingService::SamplingService(ModelRegistry* registry, int chunk_rows,
                                 int max_active_batches)
    : registry_(registry),
      admission_(max_active_batches),
      chunk_rows_(chunk_rows) {
  PB_THROW_IF(chunk_rows_ <= 0 ||
                  chunk_rows_ % NetworkSampler::kShardRows != 0,
              "chunk_rows must be a positive multiple of "
                  << NetworkSampler::kShardRows);
}

ChunkedSampler::ChunkedSampler(const SamplingService* service,
                               const SampleRequest& request)
    : service_(service),
      num_rows_(request.num_rows),
      deadline_(request.deadline),
      span_(request.span) {
  PB_THROW_IF(num_rows_ < 0, "negative row count");
  StageTimer parse_timer(span_, Stage::kParse);
  handle_ = service_->registry_->Require(request.model);
  const PrivBayesModel& model = handle_->model();
  const Schema& original = model.original_schema;

  // Resolve the projection (empty = identity) against the original schema.
  keep_ = request.columns;
  identity_ = keep_.empty();
  if (identity_) {
    keep_.resize(static_cast<size_t>(original.num_attrs()));
    for (size_t i = 0; i < keep_.size(); ++i) keep_[i] = static_cast<int>(i);
  } else {
    std::vector<bool> seen(static_cast<size_t>(original.num_attrs()), false);
    for (int c : keep_) {
      PB_THROW_IF(c < 0 || c >= original.num_attrs(),
                  "projection column " << c << " out of range");
      PB_THROW_IF(seen[c], "duplicate projection column " << c);
      seen[c] = true;
    }
  }
  std::vector<Attribute> kept_attrs;
  kept_attrs.reserve(keep_.size());
  for (int c : keep_) kept_attrs.push_back(original.attr(c));
  out_schema_ = Schema(std::move(kept_attrs));

  // The same base-seed derivation as NetworkSampler::Sample(n, Rng(seed)),
  // so a served batch is bit-identical to SampleSyntheticData with
  // Rng(request.seed) — the property the determinism tests pin down.
  Rng rng(request.seed);
  base_seed_ = rng.engine()();
  parse_timer.Stop();

  // Admission: shed outright when the active-batch cap is already met —
  // before Begin, so the refusal goes out on the clean ERR channel and the
  // client can retry with backoff instead of queueing on a busy server.
  StageTimer admission_timer(span_, Stage::kAdmission);
  std::optional<AdmissionGate::Ticket> ticket =
      service_->admission_.TryEnter();
  admission_timer.Stop();
  if (!ticket) {
    throw ResourceExhausted(
        "RESOURCE_EXHAUSTED: " +
        std::to_string(service_->admission_.active()) +
        " batches already in flight (cap " +
        std::to_string(service_->admission_.max_active()) +
        "); retry with backoff");
  }
  ticket_.emplace(std::move(*ticket));  // Ticket moves-constructs only
}

bool ChunkedSampler::Step(RowSink& sink) {
  PB_THROW_IF(done_, "Step() after the stream ended");
  if (!begun_) {
    begun_ = true;
    StageTimer write_timer(span_, Stage::kWrite);
    sink.Begin(out_schema_);
  }
  if (row_ < num_rows_) {
    if (row_ > 0 && deadline_ &&
        std::chrono::steady_clock::now() > *deadline_) {
      throw DeadlineExceeded(
          "DEADLINE_EXCEEDED: request deadline expired after " +
          std::to_string(row_) + " of " + std::to_string(num_rows_) +
          " rows");
    }
    const int rows_this = static_cast<int>(
        std::min<int64_t>(service_->chunk_rows_, num_rows_ - row_));
    const int64_t first_shard = row_ / NetworkSampler::kShardRows;
    const PrivBayesModel& model = handle_->model();
    StageTimer sample_timer(span_, Stage::kSample);
    Dataset encoded =
        handle_->sampler().SampleChunk(base_seed_, first_shard, rows_this);
    Dataset decoded = DecodeToOriginal(encoded, model.original_schema,
                                       model.encoding, model.encoder.get());
    Dataset projected = [&] {
      if (identity_) return std::move(decoded);
      std::vector<std::vector<Value>> cols;
      cols.reserve(keep_.size());
      for (int c : keep_) cols.push_back(decoded.column(c));
      return Dataset::FromColumns(out_schema_, std::move(cols));
    }();
    sample_timer.Stop();
    {
      StageTimer write_timer(span_, Stage::kWrite);
      sink.Chunk(projected);
    }
    result_.rows += rows_this;
    ++result_.chunks;
    row_ += rows_this;
    if (row_ < num_rows_) return true;
  }
  {
    StageTimer write_timer(span_, Stage::kWrite);
    sink.End();
  }
  done_ = true;
  ticket_.reset();  // free the admission slot the moment END is queued
  return false;
}

SampleResult SamplingService::Sample(const SampleRequest& request,
                                     RowSink& sink) const {
  ChunkedSampler cursor(this, request);
  while (cursor.Step(sink)) {
  }
  return cursor.result();
}

std::unique_ptr<ChunkedSampler> SamplingService::StartChunked(
    const SampleRequest& request) const {
  return std::unique_ptr<ChunkedSampler>(new ChunkedSampler(this, request));
}

Dataset SamplingService::SampleToDataset(const SampleRequest& request) const {
  DatasetSink sink;
  Sample(request, sink);
  return std::move(sink.dataset());
}

}  // namespace privbayes
