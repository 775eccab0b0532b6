// txbench: the repository's benchmark. A single-process, closed-loop
// driver over the public engine API (Database, Transaction,
// RetryBackoffDelayUs) that runs one named workload, checks the engine's
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}; the exit code is nonzero when an output check fails.
//
//   txbench --workload NAME --seed N --seconds S --trace 0|1
//           [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics over one S-second window.
// --trace 1 runs an untraced S/2 window (engine counters, the untraced
// rate) and then a traced S/2 window (driver-side spans), and prints the
// per-layer metrics. Both start after a one-second warm-up.
//
// Each transaction has the shape of bench/engine_harness.h's
// RunOneTransaction: accesses spread over a chain of nesting levels,
// TryGet for reads, Add(key, +1) for writes, an optional injected abort
// of the deepest subtransaction, and one retry of a failed subtransaction
// as a fresh child. It is re-stated here, not called, because the driver
// must time each engine call and count the adds that survive commit.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/retry.h"
#include "latency_recorder.h"
#include "span_trace.h"
#include "util/random.h"

namespace txbench {
namespace {

using nestedtx::CcProtocol;
using nestedtx::Database;
using nestedtx::EngineOptions;
using nestedtx::HistogramId;
using nestedtx::HistogramSnapshot;
using nestedtx::Rng;
using nestedtx::StatsSnapshot;
using nestedtx::Status;
using nestedtx::Transaction;
using nestedtx::Zipf;

// Sizes and mixes are part of each workload's definition; see
// BENCHMARK.json for why each workload exists.
struct Workload {
  const char* name;
  CcProtocol protocol;
  int num_keys;
  double zipf_theta;
  double read_ratio;
  int accesses;
  int levels;
  double leaf_abort_prob;
};

constexpr Workload kWorkloads[] = {
    {"read_mostly", CcProtocol::kDetect, 65536, 0.5, 0.95, 12, 2, 0},
    {"hot_nested", CcProtocol::kDetect, 256, 0.99, 0.5, 8, 3, 0.02},
    {"occ_mixed", CcProtocol::kOcc, 4096, 0.8, 0.8, 8, 2, 0},
};

// Two closed-loop clients with no think time on the 4-core reference
// host (a share of a shared machine), leaving cores for the main (clock)
// thread and the rest of the system. Two clients still contend for locks
// and validate against each other; with three, the run-to-run spread of
// txn_per_s and of hot_nested's txn_p99_us was beyond the bounds, because
// a client that blocks then waits on the host to wake its virtual CPU.
// Threads are not pinned: pinned clients fell into a slow regime (half
// the rate, p99 several ms) in more runs.
constexpr int kClients = 2;
constexpr double kWarmupSeconds = 1.0;
// A measured window is cut into slices by commit time. txn_per_s and
// txn_p99_us are medians over the slices, so a slice disturbed by another
// tenant of the host does not move them. Slices are short because one
// host preemption of a lock holder moves the p99 of the slice it lands in.
constexpr uint64_t kSliceNs = 100'000'000;
// Attempts before a logical transaction gives up (counted as failed).
constexpr int kMaxAttempts = 100;
// Spans of this many logical transactions per client are written out.
constexpr size_t kExportTxnsPerClient = 500;
// Span self times must sum to the logical transaction time within this
// relative tolerance (they partition it exactly when spans nest).
constexpr double kSelfTimeTolerance = 1e-3;

enum Phase : int { kWarmup, kMeasure, kTraced, kStop };

// Mirrors Database::Retryable (private): the statuses after which a
// re-run cannot double-apply effects.
bool Retryable(const Status& s) {
  return s.IsDeadlock() || s.IsTimedOut() || s.IsAborted() || s.IsIoError();
}

uint64_t ClientSeed(uint64_t seed, int client) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + uint64_t(client + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct PhaseStats {
  uint64_t started = 0;       // logical transactions begun in this phase
  uint64_t committed = 0;
  uint64_t failed = 0;        // gave up, or a non-retryable status
  uint64_t attempts = 0;      // top-level attempts
  uint64_t child_retries = 0;  // second runs of a failed subtransaction
  uint64_t backoff_ns = 0;    // time slept between top-level attempts
};

// One client's latencies (first Begin .. successful Commit) of one
// measured window, by the slice its commit landed in. The main thread
// drains finished slices while the window runs, so a few slots serve
// any window length.
struct SliceRing {
  static constexpr uint64_t kSlots = 16;

  // Client side. Slices at or past `full` are outside the window.
  void Record(uint64_t commit_ns, uint64_t latency_ns) {
    const uint64_t slice = (commit_ns - start_ns) / kSliceNs;
    if (slice >= full) return;
    // Publishing the new slice (release) tells the main thread every
    // earlier slice of this client is final.
    if (slice != current.load(std::memory_order_relaxed)) {
      current.store(slice, std::memory_order_release);
    }
    if (slice >= drained.load(std::memory_order_acquire) + kSlots) {
      ++lost;  // the main thread fell a whole ring behind
      return;
    }
    slots[slice % kSlots].Record(latency_ns);
  }

  // Set by the main thread before the window's phase is released.
  uint64_t start_ns = 0;
  uint64_t full = 0;  // slices in the window
  std::atomic<uint64_t> current{0};  // written by the client
  std::atomic<uint64_t> drained{0};  // slices below are merged and cleared
  uint64_t lost = 0;                 // read after the client has stopped
  LatencyRecorder slots[kSlots];
};

struct alignas(64) Client {
  PhaseStats phase[kStop];
  SliceRing rings[kStop];  // used by the measured phases
  int64_t surviving_adds = 0;  // +1 adds that reached a top-level commit
  SpanRecorder spans{kExportTxnsPerClient};
};

// One client's transaction logic. `tr` is non-null in the traced phase.
class TxnRunner {
 public:
  TxnRunner(const Workload& w, const std::vector<std::string>& keys,
            uint64_t seed)
      : w_(w), keys_(keys), rng_(seed), zipf_(w.num_keys, w.zipf_theta) {}

  int Open(SpanName n) { return tr_ ? tr_->Open(n) : -1; }
  void Close(int idx) {
    if (tr_) tr_->Close(idx);
  }
  template <typename F>
  auto Timed(SpanName n, F&& f) {
    const int idx = Open(n);
    auto r = f();
    Close(idx);
    return r;
  }

  void RunLogical(Database& db, Client& c, PhaseStats& st, SliceRing& ring,
                  SpanRecorder* tr, uint64_t id) {
    static const nestedtx::RetryPolicy kPolicy{};
    tr_ = tr;
    ++st.started;
    int root = -1;
    if (tr_) {
      tr_->StartTxn(id);
      root = tr_->Open(kTxn);
    }
    const uint64_t t0 = NowNs();
    bool committed = false;
    for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
      ++st.attempts;
      const int span = Open(kAttempt);
      std::unique_ptr<Transaction> txn = Timed(kBegin, [&] { return db.Begin(); });
      if (txn == nullptr) {  // engine poisoned: never retried
        Close(span);
        break;
      }
      int64_t adds = 0;
      remaining_ = w_.accesses;
      Status s = RunLevel(*txn, 0, &adds, st);
      if (s.ok()) s = Timed(kCommit, [&] { return txn->Commit(); });
      if (s.ok()) {
        Close(span);
        c.surviving_adds += adds;
        committed = true;
        break;
      }
      if (!txn->returned()) (void)Timed(kAbort, [&] { return txn->Abort(); });
      const nestedtx::TransactionId scope = txn->id();
      txn.reset();
      Close(span);
      if (!Retryable(s) || attempt == kMaxAttempts) break;
      const uint64_t us = nestedtx::RetryBackoffDelayUs(kPolicy, scope, attempt);
      const int b = Open(kBackoff);
      const uint64_t b0 = NowNs();
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      st.backoff_ns += NowNs() - b0;
      Close(b);
    }
    const uint64_t t1 = NowNs();
    if (committed) {
      ++st.committed;
      if (ring.full > 0) ring.Record(t1, t1 - t0);
    } else {
      ++st.failed;
    }
    if (tr_) {
      tr_->Close(root);
      tr_->Finish();
    }
  }

 private:
  // This level's accesses, then the next level as a subtransaction.
  // `*adds` receives the adds of this level and of committed children.
  Status RunLevel(Transaction& t, int level, int64_t* adds, PhaseStats& st) {
    const int per_level = (w_.accesses + w_.levels - 1) / w_.levels;
    const int mine =
        level == w_.levels - 1 ? remaining_ : std::min(per_level, remaining_);
    remaining_ -= mine;
    for (int i = 0; i < mine; ++i) {
      const std::string& key = keys_[zipf_.Next(rng_)];
      if (rng_.Bernoulli(w_.read_ratio)) {
        auto r = Timed(kRead, [&] { return t.TryGet(key); });
        if (!r.ok()) return r.status();
      } else {
        auto r = Timed(kWrite, [&] { return t.Add(key, 1); });
        if (!r.ok()) return r.status();
        ++*adds;
      }
    }
    if (level + 1 >= w_.levels || remaining_ <= 0) return Status::OK();
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (attempt > 0) ++st.child_retries;
      const int span = Open(kSubtxn);
      auto child = Timed(kBeginChild, [&] { return t.BeginChild(); });
      if (!child.ok()) {
        Close(span);
        return child.status();
      }
      const int saved_remaining = remaining_;
      int64_t child_adds = 0;
      Status s = RunLevel(**child, level + 1, &child_adds, st);
      if (s.ok() && level + 1 == w_.levels - 1 && w_.leaf_abort_prob > 0 &&
          rng_.Bernoulli(w_.leaf_abort_prob)) {
        s = Status::Aborted("injected subtransaction failure");
      }
      if (s.ok()) {
        s = Timed(kChildCommit, [&] { return (*child)->Commit(); });
        if (s.ok()) {
          Close(span);
          *adds += child_adds;
          return Status::OK();
        }
      }
      if (!(*child)->returned()) {
        (void)Timed(kChildAbort, [&] { return (*child)->Abort(); });
      }
      Close(span);
      if (!Retryable(s)) return s;
      remaining_ = saved_remaining;  // redo the subtree's work
    }
    return Status::Aborted("subtree failed twice");
  }

  const Workload& w_;
  const std::vector<std::string>& keys_;
  Rng rng_;
  Zipf zipf_;
  SpanRecorder* tr_ = nullptr;
  int remaining_ = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Engine counters and latency histograms: a sample, or the difference of
// two samples (histograms keep only count and sum).
struct EngineCounters {
  StatsSnapshot stats;
  HistogramSnapshot hist[nestedtx::kHistNumHistograms];

  static EngineCounters Sample(Database& db) {
    EngineCounters c;
    c.stats = db.stats().Snapshot();
    for (int h = 0; h < nestedtx::kHistNumHistograms; ++h) {
      c.hist[h] = db.metrics().SnapshotHistogram(HistogramId(h));
    }
    return c;
  }

  EngineCounters Since(const EngineCounters& before) const {
    EngineCounters d;
#define TXBENCH_STAT_DELTA(id, field) \
  d.stats.field = stats.field - before.stats.field;
    NESTEDTX_STAT_COUNTERS(TXBENCH_STAT_DELTA)
#undef TXBENCH_STAT_DELTA
    for (int h = 0; h < nestedtx::kHistNumHistograms; ++h) {
      d.hist[h].count = hist[h].count - before.hist[h].count;
      d.hist[h].sum_ns = hist[h].sum_ns - before.hist[h].sum_ns;
    }
    return d;
  }
};

struct Window {
  double seconds = 0;
  double cpu_seconds = 0;
  EngineCounters engine;  // changes over the window
  // Filled as the clients' slices are drained.
  uint64_t drained = 0;       // slices merged so far
  std::vector<double> rates;  // per slice: commits per second
  std::vector<double> p99s;   // per slice: p99 latency, ns
  LatencyRecorder latency;    // every slice merged
  uint64_t lost = 0;          // commits the ring had no slot for
  // Set by Summarize.
  uint64_t committed = 0;  // commits inside the window's slices
  double txn_per_s = 0;    // median slice commit rate
  double p99_ns = 0;       // median slice p99 latency
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {
    options_.cc_protocol = w.protocol;
    keys_.reserve(w.num_keys);
    for (int k = 0; k < w.num_keys; ++k) keys_.push_back("k" + std::to_string(k));
  }

  int Run(double seconds, bool trace, const char* spans_out) {
    std::vector<double> setup_times;
    SetUpRepeatedly(&setup_times);  // the last set-up serves the clients

    clients_ = std::make_unique<Client[]>(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([this, i] { ClientMain(i); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    Window untraced = MeasureWindow(kMeasure, trace ? seconds / 2 : seconds);
    Window traced;
    if (trace) traced = MeasureWindow(kTraced, seconds / 2);
    phase_.store(kStop, std::memory_order_release);
    for (auto& t : threads) t.join();
    const double max_rss_mb = MaxRssMb();
    bool correct = Summarize(kMeasure, &untraced);
    if (trace) correct &= Summarize(kTraced, &traced);

    correct &= CheckConservation();
    // A second batch of set-ups, half a minute after the first, so the
    // median spans more of the host's slow and fast phases.
    SetUpRepeatedly(&setup_times);
    db_.reset();
    const double setup_s = Median(setup_times);
    std::printf("setup: %zu runs, min %.6f median %.6f max %.6f s\n",
                setup_times.size(),
                *std::min_element(setup_times.begin(), setup_times.end()),
                setup_s,
                *std::max_element(setup_times.begin(), setup_times.end()));

    PhaseStats m;
    PhaseStats counted;  // both windows: the result's attempted/failed
    SpanTotals spans;
    std::vector<Span> exported;
    for (int i = 0; i < kClients; ++i) {
      Merge(clients_[i].phase[kMeasure], &m);
      Merge(clients_[i].phase[kMeasure], &counted);
      if (trace) {
        Merge(clients_[i].phase[kTraced], &counted);
        spans.Merge(clients_[i].spans.totals());
        const auto& e = clients_[i].spans.exported();
        exported.insert(exported.end(), e.begin(), e.end());
      }
    }

    std::vector<Metric> metrics;
    if (!trace) {
      metrics = {
          {"setup_s", setup_s, "s"},
          {"txn_per_s", untraced.txn_per_s, "1/s"},
          {"txn_p50_us", untraced.latency.Percentile(0.50) / 1e3, "us"},
          {"txn_p99_us", untraced.p99_ns / 1e3, "us"},
          {"goodput", Ratio(m.committed, m.attempts), "ratio"},
          {"cpu_us_per_txn",
           Ratio(untraced.cpu_seconds * 1e6, untraced.committed), "us"},
          {"max_rss_mb", max_rss_mb, "MB"},
      };
    } else {
      const double self_error =
          spans.root_ns == 0
              ? 0
              : std::fabs(double(spans.SelfSum()) - double(spans.root_ns)) /
                    double(spans.root_ns);
      if (self_error > kSelfTimeTolerance) {
        std::fprintf(stderr,
                     "txbench: span self times sum off by %.6f of txn time "
                     "(tolerance %.6f)\n",
                     self_error, kSelfTimeTolerance);
        correct = false;
      }
      metrics = PerLayer(untraced, traced, m, spans, self_error);
      if (spans_out != nullptr && !WriteSpans(spans_out, exported)) {
        std::fprintf(stderr, "txbench: cannot write spans to %s\n", spans_out);
      }
    }

    for (const Metric& x : metrics) {
      std::printf("%-36s %16.6f %s\n", x.name.c_str(), x.value, x.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(counted.started),
                static_cast<unsigned long long>(counted.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  // Time set-ups (Database construction plus a Preload of every key with
  // 0) into `times`: at least 5, and cheap ones until 0.75 s of them have
  // run. db_ is left holding the last one.
  void SetUpRepeatedly(std::vector<double>* times) {
    double total = 0;
    for (int n = 0; n < 5 || (total < 0.75 && n < 100); ++n) {
      db_.reset();
      const uint64_t t0 = NowNs();
      db_ = std::make_unique<Database>(options_);
      for (const std::string& k : keys_) db_->Preload(k, 0);
      times->push_back(double(NowNs() - t0) * 1e-9);
      total += times->back();
    }
  }

  void ClientMain(int i) {
    // A backoff sleep lasts what RetryBackoffDelayUs asked for: with the
    // default 50 us timer slack the kernel's timer coalescing, not the
    // retry policy, set most of a 1-50 us first-retry sleep, and
    // occ_mixed's txn_per_s spread (IQR/median) was 0.087 against 0.046.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    Client& c = clients_[i];
    TxnRunner runner(w_, keys_, ClientSeed(seed_, i));
    uint64_t seq = 0;
    for (;;) {
      const int p = phase_.load(std::memory_order_acquire);
      if (p == kStop) break;
      SpanRecorder* tr = p == kTraced ? &c.spans : nullptr;
      runner.RunLogical(*db_, c, c.phase[p], c.rings[p], tr,
                        (uint64_t(i) << 48) | ++seq);
    }
  }

  // Run phase `p` for `seconds`, a whole number of slices, draining the
  // clients' finished slices as it goes.
  Window MeasureWindow(Phase p, double seconds) {
    const uint64_t full =
        std::max<uint64_t>(1, uint64_t(seconds * 1e9) / kSliceNs);
    Window w;
    const EngineCounters before = EngineCounters::Sample(*db_);
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t start = NowNs();
    for (int i = 0; i < kClients; ++i) {
      clients_[i].rings[p].start_ns = start;
      clients_[i].rings[p].full = full;
    }
    phase_.store(p, std::memory_order_release);
    const uint64_t end = start + full * kSliceNs;
    for (uint64_t now = NowNs(); now < end; now = NowNs()) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(kSliceNs, end - now)));
      Drain(p, &w, /*all=*/false);
    }
    w.seconds = double(NowNs() - start) * 1e-9;
    w.cpu_seconds = ProcessCpuSeconds() - cpu0;
    w.engine = EngineCounters::Sample(*db_).Since(before);
    return w;
  }

  // Merge the slices of phase `p` that every client has finished (all of
  // them once the clients have stopped) and clear their slots.
  void Drain(Phase p, Window* w, bool all) {
    uint64_t ready = clients_[0].rings[p].full;
    if (!all) {
      for (int i = 0; i < kClients; ++i) {
        ready = std::min(ready, clients_[i].rings[p].current.load(
                                    std::memory_order_acquire));
      }
    }
    for (; w->drained < ready; ++w->drained) {
      LatencyRecorder slice;
      for (int i = 0; i < kClients; ++i) {
        LatencyRecorder& slot =
            clients_[i].rings[p].slots[w->drained % SliceRing::kSlots];
        slice.Merge(slot);
        slot.Clear();
      }
      w->rates.push_back(double(slice.count()) * 1e9 / double(kSliceNs));
      w->p99s.push_back(slice.Percentile(0.99));
      w->latency.Merge(slice);
    }
    for (int i = 0; i < kClients; ++i) {
      clients_[i].rings[p].drained.store(ready, std::memory_order_release);
    }
  }

  // Drain what is left of phase `p` and compute the window's figures.
  // False when a ring overflowed (the figures would miss commits).
  bool Summarize(Phase p, Window* w) {
    Drain(p, w, /*all=*/true);
    for (int i = 0; i < kClients; ++i) w->lost += clients_[i].rings[p].lost;
    w->committed = w->latency.count();
    w->txn_per_s = Median(w->rates);
    w->p99_ns = Median(w->p99s);
    const auto& r = w->rates;
    const auto& q = w->p99s;
    std::printf("window %.2f s: %zu slices of %.2f s, %llu commits; slice "
                "rate min %.0f median %.0f max %.0f /s; slice p99 min %.1f "
                "median %.1f max %.1f us\n",
                w->seconds, r.size(), double(kSliceNs) * 1e-9,
                static_cast<unsigned long long>(w->committed),
                *std::min_element(r.begin(), r.end()), w->txn_per_s,
                *std::max_element(r.begin(), r.end()),
                *std::min_element(q.begin(), q.end()) / 1e3, w->p99_ns / 1e3,
                *std::max_element(q.begin(), q.end()) / 1e3);
    if (w->lost > 0) {
      std::fprintf(stderr, "txbench: %llu commits fell outside the slice ring\n",
                   static_cast<unsigned long long>(w->lost));
    }
    return w->lost == 0;
  }

  // Every committed Add is +1 and every key was preloaded with 0, so the
  // store must sum to the adds the driver saw reach a top-level commit
  // (adds of aborted subtrees and aborted attempts are not counted).
  bool CheckConservation() {
    int64_t expected = 0;
    for (int i = 0; i < kClients; ++i) expected += clients_[i].surviving_adds;
    int64_t actual = 0;
    for (const std::string& k : keys_) actual += db_->ReadCommitted(k).value_or(0);
    std::printf("check conservation: store sum %lld, committed adds %lld: %s\n",
                static_cast<long long>(actual), static_cast<long long>(expected),
                actual == expected ? "ok" : "FAILED");
    return actual == expected;
  }

  std::vector<Metric> PerLayer(const Window& u, const Window& t,
                               const PhaseStats& m, const SpanTotals& spans,
                               double self_error) const {
    const StatsSnapshot& s = u.engine.stats;
    const double commits = double(m.committed);
    auto mean_ns = [&](SpanName n) {
      return Ratio(double(spans.total_ns[n]), double(spans.calls[n]));
    };
    const HistogramSnapshot& lock_wait = u.engine.hist[nestedtx::kHistLockWaitNs];
    const HistogramSnapshot& release =
        u.engine.hist[nestedtx::kHistCommitReleaseNs];
    std::vector<Metric> out = {
        {"transaction.begin_ns", mean_ns(kBegin), "ns"},
        {"transaction.read_ns", mean_ns(kRead), "ns"},
        {"transaction.write_ns", mean_ns(kWrite), "ns"},
        {"transaction.begin_child_ns", mean_ns(kBeginChild), "ns"},
        {"transaction.child_commit_ns", mean_ns(kChildCommit), "ns"},
        {"transaction.child_abort_ns", mean_ns(kChildAbort), "ns"},
        {"transaction.commit_ns", mean_ns(kCommit), "ns"},
        {"transaction.abort_ns", mean_ns(kAbort), "ns"},
        {"retry.backoff_us_per_txn", Ratio(m.backoff_ns / 1e3, commits), "us"},
        {"retry.attempts_per_txn", Ratio(m.attempts, commits), "count"},
        {"retry.child_retries_per_txn", Ratio(m.child_retries, commits),
         "count"},
        {"retry.fail_ratio", Ratio(m.failed, m.started), "ratio"},
        {"lock_manager.fast_grant_ratio",
         Ratio(double(s.fast_read_grants + s.fast_write_grants +
                      s.fast_read_reacquires + s.fast_write_reacquires),
               double(s.lock_grants)),
         "ratio"},
        {"lock_manager.inflations_per_ktxn",
         Ratio(1e3 * s.lock_word_inflations, commits), "count"},
        {"lock_manager.waits_per_txn", Ratio(s.lock_waits, commits), "count"},
        {"lock_manager.wait_us_per_txn",
         Ratio(lock_wait.sum_ns / 1e3, commits), "us"},
        {"lock_manager.wakeups_per_txn", Ratio(s.wakeups_issued, commits),
         "count"},
        {"lock_manager.commit_release_ns",
         Ratio(double(release.sum_ns), double(release.count)), "ns"},
        {"cc_policy.deadlocks_per_ktxn", Ratio(1e3 * s.deadlocks, commits),
         "count"},
        {"cc_policy.timeouts", double(s.lock_timeouts), "count"},
        {"occ.validation_abort_ratio",
         Ratio(s.occ_validation_aborts,
               double(s.occ_validation_aborts + s.occ_commits)),
         "ratio"},
        {"trace.overhead", Ratio(t.txn_per_s, u.txn_per_s), "ratio"},
        {"trace.self_time_error", self_error, "ratio"},
    };
    // Each span's self time as a share of logical transaction time (the
    // shares of the spans inside a transaction sum to 1).
    for (int n = 0; n < kNumSpanNames; ++n) {
      out.push_back({std::string(SpanNameString(n)) + ".share",
                     Ratio(double(spans.self_ns[n]), double(spans.root_ns)),
                     "ratio"});
    }
    return out;
  }

  static void Merge(const PhaseStats& a, PhaseStats* out) {
    out->started += a.started;
    out->committed += a.committed;
    out->failed += a.failed;
    out->attempts += a.attempts;
    out->child_retries += a.child_retries;
    out->backoff_ns += a.backoff_ns;
  }

  static double MaxRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
  }

  const Workload& w_;
  const uint64_t seed_;
  EngineOptions options_;
  std::vector<std::string> keys_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Client[]> clients_;
  std::atomic<int> phase_{kWarmup};
};

int Usage() {
  std::fprintf(stderr,
               "usage: txbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace txbench

int main(int argc, char** argv) {
  using namespace txbench;
  const char* workload = nullptr;
  const char* spans_out = nullptr;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") seed = std::atoll(v);
    else if (flag == "--seconds") seconds = std::atof(v);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--spans-out") spans_out = v;
    else return Usage();
  }
  if (argc % 2 == 0 || workload == nullptr ||
      seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, workload) == 0) {
      Bench bench(w, static_cast<uint64_t>(seed));
      return bench.Run(seconds, trace == 1, spans_out);
    }
  }
  std::fprintf(stderr, "txbench: unknown workload %s\n", workload);
  return 2;
}
