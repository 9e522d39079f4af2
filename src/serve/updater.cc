#include "serve/updater.h"

#include <algorithm>

#include "core/macros.h"
#include "io/serialize.h"

namespace gass::serve {

std::string Updater::CheckpointPath(const UpdaterOptions& options) {
  return options.directory + "/" + options.name + ".ckpt";
}

std::string Updater::WalPath(const UpdaterOptions& options,
                             std::uint32_t stream) {
  return options.directory + "/" + options.name + ".wal" +
         std::to_string(stream);
}

Updater::Updater(LiveIndex* live, const UpdaterOptions& options)
    : live_(live), options_(options) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
    metrics_bound_ = true;
  } else {
    owned_metrics_ = std::make_unique<ServeMetrics>();
    metrics_ = owned_metrics_.get();
  }
  tombstones_.Resize(live_->id_capacity());
}

void Updater::BindMetrics(ServeMetrics* metrics) {
  if (metrics_bound_ || metrics == nullptr) return;
  metrics_ = metrics;
  metrics_bound_ = true;
}

io::WalHeader Updater::HeaderFor(std::uint32_t stream,
                                 std::uint64_t base_sequence) const {
  io::WalHeader header;
  header.stream = stream;
  header.dim = live_->dim();
  header.base_sequence = base_sequence;
  header.fingerprint = live_->ParamsFingerprint();
  return header;
}

core::Status Updater::Create(LiveIndex* live, const UpdaterOptions& options,
                             std::unique_ptr<Updater>* out) {
  auto updater = std::unique_ptr<Updater>(new Updater(live, options));
  GASS_RETURN_IF_ERROR(updater->WriteCheckpoint(0));
  updater->wals_.resize(live->num_streams());
  for (std::uint32_t s = 0; s < live->num_streams(); ++s) {
    GASS_RETURN_IF_ERROR(io::WalWriter::Create(WalPath(options, s),
                                               updater->HeaderFor(s, 0),
                                               options.wal,
                                               &updater->wals_[s]));
    updater->metrics_->Add(ServeCounter::kWalBytes,
                           io::kWalFileHeaderBytes);
  }
  *out = std::move(updater);
  return core::Status::Ok();
}

core::Status Updater::Open(LiveIndex* live, const UpdaterOptions& options,
                           std::unique_ptr<Updater>* out,
                           RecoveryReport* report) {
  *report = RecoveryReport{};
  auto updater = std::unique_ptr<Updater>(new Updater(live, options));

  // 1. Load the checkpoint (the durable baseline every WAL is relative to).
  const std::string ckpt = CheckpointPath(options);
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(ckpt, &reader));
  if (reader.method() != live->MethodName()) {
    return core::Status::InvalidArgument(
        ckpt + ": checkpoint holds a " + reader.method() +
        " index, cannot recover into " + live->MethodName());
  }
  if (reader.params_fingerprint() != live->ParamsFingerprint()) {
    return core::Status::InvalidArgument(
        ckpt + ": checkpoint was written with different " +
        live->MethodName() + " parameters (fingerprint mismatch)");
  }

  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection("upd.meta", &buffer, &dec));
  const std::uint64_t watermark = dec.U64();
  const std::uint64_t ckpt_next_id = dec.U64();
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(ckpt_next_id == reader.data_n(),
            "checkpoint next-id disagrees with its own header");
  if (!dec.ok()) return dec.status();

  GASS_RETURN_IF_ERROR(live->LoadSections(reader));
  if (live->next_id() != ckpt_next_id) {
    return core::Status::Corruption(
        ckpt + ": live index restored " + std::to_string(live->next_id()) +
        " ids, checkpoint recorded " + std::to_string(ckpt_next_id));
  }

  updater->tombstones_.Resize(live->id_capacity());
  std::vector<std::uint64_t> dead;
  GASS_RETURN_IF_ERROR(reader.OpenSection("upd.tombstones", &buffer, &dec));
  dec.VecU64(&dead, live->id_capacity());
  if (!dec.ExpectEnd()) return dec.status();
  for (std::uint64_t id : dead) {
    dec.Check(id < live->id_capacity(), "tombstoned id out of range");
    if (!dec.ok()) return dec.status();
    updater->tombstones_.Insert(static_cast<core::VectorId>(id));
  }

  updater->sequence_ = watermark;
  report->watermark = watermark;

  // 2. Scan each stream's WAL past the watermark, collecting the surviving
  // records. Application is deferred until every stream is read: sequence
  // numbers are assigned globally under update_mutex_, so inserts from
  // different streams interleave in id order, and only a merge by sequence
  // re-creates the original order the ids were assigned in. (Within one
  // stream file order and sequence order coincide.)
  struct PendingRecord {
    std::uint64_t sequence = 0;
    std::uint64_t id = 0;
    std::uint32_t stream = 0;
    std::uint8_t op = 0;
    std::vector<float> vec;  // Inserts only.
  };
  std::vector<PendingRecord> pending;
  updater->wals_.resize(live->num_streams());
  std::uint64_t max_seq = watermark;
  for (std::uint32_t s = 0; s < live->num_streams(); ++s) {
    const std::string path = WalPath(options, s);
    io::WalReplayStats stats;
    auto collect = [&](std::uint8_t op, std::uint64_t seq, std::uint64_t id,
                       const float* vec) -> core::Status {
      PendingRecord record;
      record.sequence = seq;
      record.id = id;
      record.stream = s;
      record.op = op;
      if (op == io::kWalOpInsert) {
        record.vec.assign(vec, vec + live->dim());
      }
      pending.push_back(std::move(record));
      return core::Status::Ok();
    };
    GASS_RETURN_IF_ERROR(
        io::ReplayWal(path, updater->HeaderFor(s, 0), watermark, collect,
                      &stats));
    report->records_skipped += stats.records_old + stats.records_duplicate;

    if (!stats.header_valid) {
      // Missing or header-corrupt log: under the crash model it was never
      // durably created, so nothing in it was acknowledged. Start fresh at
      // the watermark.
      ++report->wals_recreated;
      GASS_RETURN_IF_ERROR(io::WalWriter::Create(
          path, updater->HeaderFor(s, watermark), options.wal,
          &updater->wals_[s]));
      updater->metrics_->Add(ServeCounter::kWalBytes,
                             io::kWalFileHeaderBytes);
      continue;
    }
    if (stats.torn_tail) {
      ++report->torn_tails;
      report->bytes_truncated += stats.torn_bytes;
      GASS_RETURN_IF_ERROR(io::TruncateWal(path, stats.valid_bytes));
    }
    GASS_RETURN_IF_ERROR(io::WalWriter::OpenForAppend(
        path, updater->HeaderFor(s, 0), options.wal, &updater->wals_[s]));
    max_seq = std::max(max_seq, stats.last_sequence);
  }

  // 3. Apply the merged records in global sequence order.
  std::sort(pending.begin(), pending.end(),
            [](const PendingRecord& a, const PendingRecord& b) {
              return a.sequence < b.sequence;
            });
  for (const PendingRecord& record : pending) {
    const std::string path = WalPath(options, record.stream);
    if (record.op == io::kWalOpInsert) {
      if (record.id != live->next_id()) {
        return core::Status::Corruption(
            path + ": replayed insert id " + std::to_string(record.id) +
            " but index expects " + std::to_string(live->next_id()));
      }
      if (!live->CanInsert(record.stream)) {
        return core::Status::Corruption(
            path + ": replayed insert overflows stream " +
            std::to_string(record.stream));
      }
      GASS_RETURN_IF_ERROR(live->ApplyInsert(
          record.stream, static_cast<core::VectorId>(record.id),
          record.vec.data()));
    } else {
      if (record.id >= live->id_capacity()) {
        return core::Status::Corruption(path + ": replayed delete of id " +
                                        std::to_string(record.id) +
                                        " beyond the id space");
      }
      updater->tombstones_.Insert(static_cast<core::VectorId>(record.id));
    }
    ++report->records_applied;
  }
  updater->metrics_->Add(ServeCounter::kWalReplayRecords, pending.size());
  updater->sequence_ = max_seq;

  *out = std::move(updater);
  return core::Status::Ok();
}

UpdateResult Updater::Insert(const float* vec, obs::QueryTrace* trace) {
  UpdateResult result;
  std::lock_guard<std::mutex> guard(update_mutex_);

  const std::uint32_t stream = live_->RouteInsert(vec);
  if (!live_->CanInsert(stream)) {
    result.status = core::Status::Error(
        "live index full: stream " + std::to_string(stream) +
        " has no arena room (rebuild with a larger reserve)");
    return result;
  }
  const auto id = static_cast<core::VectorId>(live_->next_id());
  const std::uint64_t seq = sequence_ + 1;

  {
    obs::StageTimer wal_timer(trace, obs::Stage::kWalAppend);
    io::WalWriter& wal = *wals_[stream];
    const std::uint64_t before = wal.bytes_written();
    result.status =
        wal.Append(io::kWalOpInsert, seq, id, vec, live_->dim());
    if (!result.status.ok()) return result;  // Not acknowledged.
    metrics_->Add(ServeCounter::kWalBytes, wal.bytes_written() - before);
  }
  sequence_ = seq;

  {
    obs::StageTimer apply_timer(trace, obs::Stage::kApply);
    std::unique_lock<std::shared_mutex> lock(search_mutex_);
    // A logged insert that cannot apply is an invariant violation (the
    // routing/capacity checks above ran under the same lock), not a
    // recoverable condition — failing here would desync log and memory.
    const core::Status applied = live_->ApplyInsert(stream, id, vec);
    GASS_CHECK_MSG(applied.ok(), "apply after WAL append failed: %s",
                   applied.message().c_str());
  }
  metrics_->Add(ServeCounter::kUpdatesApplied);
  ++applied_since_checkpoint_;

  result.id = id;
  result.sequence = seq;
  if (options_.checkpoint_every > 0 &&
      applied_since_checkpoint_ >= options_.checkpoint_every) {
    result.status = CheckpointLocked();
  }
  return result;
}

UpdateResult Updater::Delete(core::VectorId id, obs::QueryTrace* trace) {
  UpdateResult result;
  std::lock_guard<std::mutex> guard(update_mutex_);

  // tombstones_ is only mutated under update_mutex_ (held here), so this
  // read needs no search-side lock.
  if (!live_->Exists(id)) {
    result.status = core::Status::InvalidArgument(
        "delete of id " + std::to_string(id) + ": never inserted");
    return result;
  }
  if (tombstones_.Contains(id)) {
    result.status = core::Status::InvalidArgument(
        "delete of id " + std::to_string(id) + ": already deleted");
    return result;
  }
  const std::uint32_t stream = live_->RouteDelete(id);
  const std::uint64_t seq = sequence_ + 1;

  {
    obs::StageTimer wal_timer(trace, obs::Stage::kWalAppend);
    io::WalWriter& wal = *wals_[stream];
    const std::uint64_t before = wal.bytes_written();
    result.status = wal.Append(io::kWalOpDelete, seq, id, nullptr, 0);
    if (!result.status.ok()) return result;  // Not acknowledged.
    metrics_->Add(ServeCounter::kWalBytes, wal.bytes_written() - before);
  }
  sequence_ = seq;

  {
    obs::StageTimer apply_timer(trace, obs::Stage::kApply);
    std::unique_lock<std::shared_mutex> lock(search_mutex_);
    tombstones_.Insert(id);
  }
  metrics_->Add(ServeCounter::kDeletesApplied);
  ++applied_since_checkpoint_;

  result.id = id;
  result.sequence = seq;
  if (options_.checkpoint_every > 0 &&
      applied_since_checkpoint_ >= options_.checkpoint_every) {
    result.status = CheckpointLocked();
  }
  return result;
}

core::Status Updater::Checkpoint() {
  std::lock_guard<std::mutex> guard(update_mutex_);
  return CheckpointLocked();
}

core::Status Updater::CheckpointLocked() {
  // update_mutex_ is held: the live state is frozen for writers, while
  // searches (shared holders of search_mutex_) read on undisturbed — the
  // checkpoint only reads.
  const std::uint64_t watermark = sequence_;
  GASS_RETURN_IF_ERROR(WriteCheckpoint(watermark));
  // Rotate after the snapshot is durable: each stream restarts from an
  // empty log based at the watermark. Create() replaces the old file
  // atomically (tmp + rename + dir fsync), so a crash mid-rotation leaves
  // either the old log (fully covered by the new checkpoint — its records
  // are all <= watermark and will be skipped) or the new empty one.
  for (std::uint32_t s = 0; s < live_->num_streams(); ++s) {
    GASS_RETURN_IF_ERROR(io::WalWriter::Create(WalPath(options_, s),
                                               HeaderFor(s, watermark),
                                               options_.wal, &wals_[s]));
    metrics_->Add(ServeCounter::kWalBytes, io::kWalFileHeaderBytes);
  }
  applied_since_checkpoint_ = 0;
  metrics_->Add(ServeCounter::kCheckpoints);
  return core::Status::Ok();
}

core::Status Updater::WriteCheckpoint(std::uint64_t watermark) const {
  io::SnapshotWriter writer(live_->MethodName(), live_->ParamsFingerprint(),
                            live_->next_id(), live_->dim());
  io::Encoder meta;
  meta.U64(watermark);
  meta.U64(live_->next_id());
  GASS_RETURN_IF_ERROR(writer.AddSection("upd.meta", std::move(meta)));

  io::Encoder dead;
  dead.VecU64(tombstones_.ToVector());
  GASS_RETURN_IF_ERROR(writer.AddSection("upd.tombstones", std::move(dead)));

  GASS_RETURN_IF_ERROR(live_->SaveSections(&writer));
  return writer.WriteTo(CheckpointPath(options_));
}

}  // namespace gass::serve
