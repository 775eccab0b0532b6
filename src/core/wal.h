// Write-ahead log with per-shard files and leader-based group commit.
//
// The paper's commit structure dictates the log format: subtransaction
// outcomes fold into the parent (lock inheritance in the locking family,
// buffer merges under OCC), so only TOP-LEVEL commit is externally
// meaningful — and therefore only top-level commit images are logged.
// One record per durable top-level commit, carrying the transaction's
// merged write image (puts and deletes); aborted subtrees never reach
// the log at all.
//
// Ordering invariant (what makes replay correct): a committer appends
// its image while it still holds every write lock it is about to
// release (the locking family appends before ReleaseBatch touches the
// holder sets; OCC appends between validation and install, write-set
// words still locked). A later writer of any key K can only acquire K
// after this commit releases it, hence appends strictly after it — so
// ascending record sequence number IS per-key commit order, and
// last-writer-wins replay reconstructs exactly the committed store.
//
// Group commit rides the engine's commit fan-out: Append() runs before
// the three-phase ReleaseBatch, WaitDurable() after it. A parked waiter
// becomes the shard's flush leader and holds the group open for up to
// `wal_group_commit_us`, cutting early the moment no committer in the
// whole engine sits between append and release (the commit path reports
// back through NoteCommitReleased once its install and release fan-out
// finish). One write+sync then covers every record that joined — the
// release fan-out itself is the batching window, no dedicated flusher
// thread needed.
//
// Cross-shard consistent cut (what makes an ack safe with >1 shard): a
// commit's effects install before WaitDurable, so a later commit on
// ANOTHER shard may have read them and must not become durable first —
// or a crash would replay the dependent commit without its dependency.
// Seq assignment is atomic with buffering, so once seq S exists, every
// record with seq < S is already buffered (or flushed) somewhere.
// WaitDurable(S) therefore returns OK only when EVERY shard is durable
// through S (Silo-style epoch durability with seq as the epoch): after
// its own shard flushes, the waiter visits each other shard and, if
// records <= S are still pending there, rides or becomes that shard's
// flush leader too. The acked prefix of the seq order is then always
// transaction-consistent.
//
// Crash model: a shard whose flush fails goes sticky-broken. Appends to
// it return Status::IoError — a clean abort before install, retryable.
// WaitDurable returns Status::kDurabilityLost for any commit whose seq
// is at or above the broken shard's lost floor (the lowest seq the
// failed flush dropped): those effects are installed in memory but can
// never be part of a durable consistent cut, and the caller must NOT
// retry (the work is already applied). Recovery scans each shard file,
// verifies CRC framing, truncates the first torn record and everything
// after it (a crashed process can only tear the tail — records are
// buffered whole and the buffer is written in order), then replays only
// the contiguous global-seq prefix: a gap in the merged seq sequence
// marks a group that was lost in a crash, and every record above the
// gap — on any shard — is dropped and physically truncated (it may
// depend on the lost commit). Appending then resumes above the cut.
//
// Checkpointing (what bounds the log): Checkpoint() captures the base
// store as of a durable cut C without stalling commits. The scan is
// fuzzy — it walks the shards under their ordinary key mutexes while
// commits keep installing — and C is read AFTER the scan finishes, so
// the scan can never contain the effect of a record with seq > C
// (installs happen strictly after seq assignment). It CAN be missing
// the effect of a record <= C whose install was still in flight; the
// fix-up pass repairs exactly that by replaying every surviving log
// record <= C onto the scanned image (possible because truncation never
// drops a record whose commit has not finished its release fan-out —
// the truncation floor F is min(C, lowest-unreleased-seq - 1)). The
// snapshot then goes to disk CRC-framed (tmp + fsync + rename), a
// two-generation `CHECKPOINT` manifest is installed atomically, and
// each shard's log drops its prefix <= F by rotation. Every crash point
// in that ordering recovers: before the manifest rename the old
// manifest still governs; after it the new snapshot is fsynced; the log
// prefix only shrinks after both.
//
// Recovery with a snapshot: load the newest manifest generation (CRC
// failure falls back to the previous one), apply the snapshot, then
// replay only records with seq > C0 — shard files are parsed by
// parallel per-shard threads (CRC + decode dominate) and fed through a
// seq-ordered merge. A gap at or below a manifest cut means the log
// prefix was truncated against a snapshot we failed to read; that is
// unrecoverable corruption and Recover refuses with IoError rather
// than silently dropping acked commits.
//
// File formats, little-endian. Per shard (`wal-<shard>.log`):
//
//   +--------- 8 bytes ---------+
//   | magic "NTXWAL01"          |   once, at offset 0
//   +---------------------------+
//   | u32 payload_len           |-+ record, repeated
//   | u32 crc32(payload)        | |
//   | payload:                  | |
//   |   u64 seq                 | |  global commit sequence number
//   |   u32 nwrites             | |
//   |   nwrites x {             | |
//   |     u32 klen, key bytes   | |
//   |     u8  has_value         | |  0 = delete (tombstone)
//   |     i64 value (if 1)      | |
//   |   }                       |-+
//   +---------------------------+
//
// Snapshot (`ckpt-<C>.snap`): magic "NTXCKPT1", then CRC frames with
// the same [u32 len][u32 crc][payload] framing: a header frame
// {u64 cut, u64 nkeys}, entry frames {u32 count, count x {u32 klen,
// key bytes, i64 value}}, and a footer frame {u64 footer_magic} whose
// presence (plus the entry count matching nkeys) proves the file is
// complete. Manifest (`CHECKPOINT`): magic "NTXMAN01" and one frame
// {u32 ngen, ngen x {u64 cut, u32 namelen, name}}, newest generation
// first, installed by tmp + fsync + rename.
#ifndef NESTEDTX_CORE_WAL_H_
#define NESTEDTX_CORE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/options.h"
#include "core/stats.h"
#include "util/status.h"

namespace nestedtx {

/// One entry of a write image: a put (value set) or a delete (nullopt
/// tombstone). A top-level commit image is a key-sorted vector of these;
/// it is also the shape of a transaction's own write image (the locking
/// path's WAL image and the OCC write buffer alike).
struct WalWrite {
  std::string key;
  std::optional<int64_t> value;
};

/// Handle a committer holds between Append and WaitDurable. seq == 0
/// means "nothing appended" (read-only commit, or WAL disabled) and
/// WaitDurable returns OK immediately.
struct WalTicket {
  uint32_t shard = 0;
  uint64_t seq = 0;
};

class WriteAheadLog {
 public:
  /// Opens (creating if needed) `wal_shards` shard files under
  /// `options.wal_dir`. An open failure is sticky: every subsequent
  /// Append/Recover returns it. `stats` / `metrics` may be null (tests).
  WriteAheadLog(const EngineOptions& options, EngineStats* stats,
                MetricsRegistry* metrics);
  /// Flushes every shard (best effort) and closes the files, so a clean
  /// shutdown loses nothing even in kNone fsync mode.
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// The sticky open status (OK when the shard files are usable).
  Status OpenStatus() const;

  /// Append one top-level commit image. `shard_hint` (the top-level
  /// begin ordinal) picks the shard; `writes` need not be sorted. Must be
  /// called while the commit still holds its write locks (see the
  /// ordering invariant above). With `release_follows` the committer
  /// promises a NoteCommitReleased(ticket) will follow once its install
  /// and release fan-out finish; flush leaders hold groups open for
  /// such committers, and checkpoints never truncate their records.
  /// Returns the ticket to later WaitDurable on, or IoError when the
  /// shard is broken — at which point nothing was installed and the
  /// caller can abort cleanly.
  Result<WalTicket> AppendImage(uint64_t shard_hint,
                                const std::vector<WalWrite>& writes,
                                bool release_follows = true);

  /// Block until the ticket's record — and, with multiple shards, every
  /// record with a smaller seq on ANY shard — is durable per the fsync
  /// mode (the cross-shard consistent cut above). The first waiter
  /// parked on an unflushed shard becomes its flush leader; everyone
  /// else rides the batch. Returns kDurabilityLost (never plain
  /// IoError) when a broken shard makes the cut unreachable: the
  /// caller's effects are installed but must not be retried.
  Status WaitDurable(const WalTicket& ticket);

  /// The committer that appended `ticket` has now installed its effects
  /// and finished releasing its locks: a flush leader no longer needs
  /// to hold the group open for it, and a checkpoint may truncate its
  /// record once durable. Never blocks. Call exactly once per appended
  /// ticket with release_follows (tickets with seq == 0 are ignored).
  void NoteCommitReleased(const WalTicket& ticket);

  /// Flush every shard's buffered records now (clean-shutdown path; also
  /// what tests call to make assertions about file contents).
  Status FlushAll();

  /// A full scan of the committed base store: the engine calls
  /// `emit(key, value)` once per present key. The scan may be fuzzy
  /// with respect to concurrent commits — Checkpoint repairs the
  /// difference from the log itself (see the checkpoint notes above).
  using BaseScan = std::function<void(
      const std::function<void(const std::string&, int64_t)>& emit)>;

  /// What a completed checkpoint did (for tests and the bench).
  struct CheckpointInfo {
    uint64_t cut = 0;              // C: the snapshot covers seqs <= C
    uint64_t snapshot_keys = 0;    // keys written into the snapshot
    uint64_t truncated_bytes = 0;  // log bytes dropped by rotation
    bool skipped = false;          // nothing new since the last one
  };

  /// Write a snapshot of the base store (obtained through `scan`) as of
  /// a durable cut C, install it in the `CHECKPOINT` manifest (keeping
  /// the previous generation as a fallback), and rotate every shard's
  /// log to drop the prefix the snapshot covers. Runs concurrently with
  /// commits; serialized against itself. On any failure the log is left
  /// whole and the previous manifest still governs — a failed
  /// checkpoint never costs durability. DurabilityLost if a broken
  /// shard makes the cut unreachable.
  Status Checkpoint(const BaseScan& scan, CheckpointInfo* info = nullptr);

  /// Install the automatic-checkpoint kick: when
  /// `wal_checkpoint_every_bytes` > 0 and a flush leader observes that
  /// many bytes appended since the last checkpoint, it calls `trigger`
  /// (which must not block — typically it nudges a background thread
  /// that calls Checkpoint). Set once at engine construction, before
  /// any append.
  void SetCheckpointTrigger(std::function<void()> trigger);

  /// What Recover loaded and replayed (for tests and the bench).
  struct RecoveryInfo {
    uint64_t snapshot_cut = 0;   // C0 of the snapshot used (0 = none)
    uint64_t snapshot_keys = 0;  // keys applied from the snapshot
    uint64_t replayed = 0;       // log records applied (seq > C0)
    uint64_t cut = 0;            // final durable cut
  };

  /// Rebuild the durable consistent cut: load the newest valid snapshot
  /// (falling back one generation on CRC failure), apply it, then scan
  /// all shard files with per-shard threads, truncate torn tails, drop
  /// (and truncate) every record above the first gap in the merged
  /// global seq sequence — see the cross-shard cut above — and call
  /// `apply(key, value)` for each write of each surviving record with
  /// seq > snapshot cut, in ascending seq order (nullopt = delete).
  /// Requires a fresh log — no appends issued yet. Idempotent:
  /// replaying the same log twice converges to the same store
  /// (last-writer-wins). On return the log appends after the cut.
  /// IoError if no snapshot generation is readable while the log prefix
  /// is already truncated (see the header notes): that state cannot be
  /// reconstructed and must not be silently dropped.
  Status Recover(
      const std::function<void(const std::string& key,
                               std::optional<int64_t> value)>& apply,
      RecoveryInfo* info = nullptr);

  /// Number of shards (for tests and the bench).
  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Test hook: force `shard` into the sticky-broken state with the
  /// given lost floor (0 = "broke before recording any lost seq") so
  /// the poisoning rules can be pinned without racing a real IO error.
  void BreakShardForTest(uint32_t shard, uint64_t lost_floor, Status why);

 private:
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    int fd = -1;
    std::string path;
    std::string buffer;         // encoded records awaiting flush
    uint64_t buffered_seq = 0;  // highest seq in buffer (or flushed)
    uint64_t buffer_min_seq = 0;   // lowest seq in buffer (0 = empty)
    uint64_t inflight_min_seq = 0; // lowest seq in the group being
                                   // written (0 = none in flight)
    uint64_t flushed_seq = 0;   // highest seq durable on disk
    bool flushing = false;      // a leader is cutting/writing a group
    bool broken = false;        // sticky after any write/sync failure
    uint64_t lost_floor = 0;    // lowest seq the failed flush dropped
    Status broken_status;
    /// Seqs appended with release_follows whose NoteCommitReleased has
    /// not arrived yet: their installs may still be in flight, so a
    /// checkpoint must not truncate them (the fix-up pass needs them).
    std::vector<uint64_t> unreleased;
  };

  /// One manifest generation: a snapshot file and the cut it covers.
  struct ManifestEntry {
    uint64_t cut = 0;
    std::string file;
  };

  Result<WalTicket> AppendRecord(uint64_t shard_hint,
                                 const std::string& body,
                                 bool release_follows);
  /// Cut and write the shard's buffered group. Called with `lk` held and
  /// sh.flushing set by the caller; drops the lock for the IO itself.
  Status FlushLocked(Shard& sh, std::unique_lock<std::mutex>& lk);
  /// Cross-shard half of WaitDurable: block until every record of `sh`
  /// with seq <= bound is durable, flushing the shard ourselves if no
  /// leader is on it. kDurabilityLost if the shard broke losing one.
  Status EnsureShardDurableThrough(Shard& sh, uint64_t bound);
  /// The unlocked write+sync of one cut group (failpoint injection,
  /// chunked writes, fsync mode, stats/metrics).
  Status WriteAndSync(Shard& sh, const std::string& group);
  /// Write `data` to `path` atomically: tmp file, full write, fsync
  /// (unless kNone), rename over `path`, directory fsync. With
  /// `inject_short_write` the kWalCheckpoint torn-snapshot failpoint
  /// may cut the write short (the torn file stays at the tmp name).
  Status WriteFileAtomic(const std::string& path, const std::string& data,
                         bool inject_short_write);
  /// Parse the `CHECKPOINT` manifest into manifest_ (missing file is an
  /// empty manifest, not an error). Caller holds checkpoint_mutex_.
  Status LoadManifestLocked();
  /// Write manifest_ back out atomically. Caller holds checkpoint_mutex_.
  Status StoreManifestLocked();
  /// Load snapshot `entry` and call `apply` per key; validates magic,
  /// framing, CRC, entry count and footer.
  Status LoadSnapshot(const ManifestEntry& entry,
                      const std::function<void(const std::string&,
                                               std::optional<int64_t>)>& apply,
                      uint64_t* keys_loaded);
  /// Rewrite `sh`'s file keeping only records with seq > floor (and any
  /// bytes past the last well-framed record, so a broken shard's torn
  /// tail survives for recovery to judge). Caller holds checkpoint
  /// serialization; takes sh.mu itself.
  Status RotateShardDropPrefix(Shard& sh, uint64_t floor,
                               uint64_t* dropped_bytes);

  EngineOptions options_;
  EngineStats* stats_;
  MetricsRegistry* metrics_;
  Status open_status_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global commit sequence; assigned under the shard mutex so each
  /// shard file is internally seq-ascending (tail truncation then never
  /// drops a record that a surviving later record depends on).
  std::atomic<uint64_t> next_seq_{0};
  /// Committers that appended and have not yet finished their release
  /// fan-out — the group-commit leader's "someone is still coming".
  std::atomic<uint64_t> release_pending_{0};
  /// Set by the first append; Recover requires it clear.
  std::atomic<bool> appended_{false};
  /// Log bytes appended since the last completed checkpoint — the
  /// automatic-trigger odometer.
  std::atomic<uint64_t> bytes_since_checkpoint_{0};
  /// True while a Checkpoint() runs (keeps the trigger from re-kicking).
  std::atomic<bool> checkpoint_running_{false};
  /// Non-blocking kick installed by SetCheckpointTrigger (never changes
  /// after the first append).
  std::function<void()> checkpoint_trigger_;
  /// Serializes Checkpoint() bodies and guards the manifest state.
  std::mutex checkpoint_mutex_;
  bool manifest_loaded_ = false;
  /// A manifest file existed but failed validation: Recover refuses
  /// (the log prefix may be truncated against snapshots we cannot
  /// name); Checkpoint rebuilds the manifest from scratch (its new
  /// snapshot is self-contained).
  bool manifest_corrupt_ = false;
  /// Manifest generations, newest first (at most two are kept).
  std::vector<ManifestEntry> manifest_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_WAL_H_
