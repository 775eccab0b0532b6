#include "core/database.h"

#include <thread>

#include "core/retry.h"

namespace nestedtx {

Database::Database(EngineOptions options) : manager_(options) {
  WriteAheadLog* wal = manager_.wal();
  if (wal != nullptr && manager_.options().wal_checkpoint_every_bytes > 0) {
    wal->SetCheckpointTrigger([this] {
      {
        std::lock_guard<std::mutex> lk(ckpt_mutex_);
        ckpt_requested_ = true;
      }
      ckpt_cv_.notify_one();
    });
    checkpoint_thread_ = std::thread([this] { CheckpointThreadMain(); });
  }
}

Database::~Database() {
  if (checkpoint_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ckpt_mutex_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.notify_all();
    checkpoint_thread_.join();
  }
}

void Database::CheckpointThreadMain() {
  std::unique_lock<std::mutex> lk(ckpt_mutex_);
  for (;;) {
    ckpt_cv_.wait(lk, [&] { return ckpt_requested_ || ckpt_stop_; });
    if (ckpt_stop_) return;
    ckpt_requested_ = false;
    lk.unlock();
    // Best-effort: a failed checkpoint leaves the log whole (durability
    // never regresses) and the odometer keeps counting, so the next
    // flush re-triggers.
    (void)Checkpoint();
    lk.lock();
  }
}

Status Database::Checkpoint() {
  WriteAheadLog* wal = manager_.wal();
  if (wal == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint requires wal_enabled and a wal_dir");
  }
  return wal->Checkpoint(
      [this](const std::function<void(const std::string&, int64_t)>& emit) {
        manager_.locks().SnapshotBase(emit);
      });
}

Status Database::EnableTracing() {
  if (manager_.stats().Snapshot().txns_begun != 0) {
    return Status::FailedPrecondition(
        "EnableTracing must be called before the first transaction");
  }
  if (trace_ == nullptr) {
    trace_ = std::make_unique<EngineTraceRecorder>();
    manager_.locks().SetTraceRecorder(trace_.get());
  }
  return Status::OK();
}

void Database::Preload(const std::string& key, int64_t value) {
  manager_.locks().SetBase(key, value);
  if (trace_ != nullptr) trace_->RecordPreload(key, value);
  WriteAheadLog* wal = manager_.wal();
  if (wal != nullptr) {
    // Best-effort: a preload is setup, not a transaction, so it does not
    // participate in group commit (no release follows) and a failed
    // append only means recovery restarts from a re-run of setup. The
    // immediate flush makes the preload durable now — nothing else would
    // flush it until the first transactional group commit.
    std::vector<WalWrite> image;
    image.push_back(WalWrite{key, value});
    (void)wal->AppendImage(/*shard_hint=*/0, image, /*release_follows=*/false);
    (void)wal->FlushAll();
  }
}

Status Database::Recover() {
  WriteAheadLog* wal = manager_.wal();
  if (wal == nullptr) {
    return Status::FailedPrecondition(
        "Recover requires wal_enabled and a wal_dir");
  }
  if (manager_.stats().Snapshot().txns_begun != 0) {
    return Status::FailedPrecondition(
        "Recover must be called before the first transaction");
  }
  const Status s = wal->Recover(
      [this](const std::string& key, std::optional<int64_t> value) {
        manager_.locks().SetBase(key, value);
      });
  if (!s.ok() && !s.IsFailedPrecondition()) {
    // A failed replay may have installed a half-applied prefix into the
    // base store. Serving transactions over it would silently expose an
    // inconsistent state, so the engine is poisoned: every Begin()
    // returns nullptr (with this status behind manager().failure())
    // until the process restarts and recovery succeeds.
    manager_.MarkFailed(s);
  }
  return s;
}

std::optional<int64_t> Database::ReadCommitted(const std::string& key) {
  return manager_.locks().ReadBase(key);
}

std::string Database::ExportMetricsText() {
  MetricsRegistry& metrics = manager_.metrics();
  return metrics.ExportText(
      manager_.stats().Snapshot(),
      manager_.locks().CollectHotKeys(MetricsRegistry::kHotKeyTopK));
}

std::string Database::ExportMetricsJson() {
  MetricsRegistry& metrics = manager_.metrics();
  return metrics.ExportJson(
      manager_.stats().Snapshot(),
      manager_.locks().CollectHotKeys(MetricsRegistry::kHotKeyTopK));
}

Status Database::RunTransaction(int max_attempts, const TxnBody& body) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  return RetryExecutor(this, policy).Run(body);
}

Status Database::RunNested(Transaction& parent, int max_attempts,
                           const TxnBody& body) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.escalate_cancels_parent = false;
  return RetryExecutor(parent.manager(), policy).RunChild(parent, body);
}

}  // namespace nestedtx
