// The repository benchmark driver: one process that sets up the served
// stack through each layer's public API, generates load against it, checks
// every served ranking, and prints the end-to-end (untraced) or per-layer
// (traced) metrics. See perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload http_session|fused_direct|ingest_mixed
//                    --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--commit SHA]
//                    [--rate OPS_PER_S] [--inject-delay-us D]
//
// The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// host context. Exit code 0 means the run completed (correct or not);
// anything else means it could not run.

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/cache/result_cache.h"
#include "ivr/core/arrivals.h"
#include "ivr/core/rng.h"
#include "ivr/core/string_util.h"
#include "ivr/ingest/live_engine.h"
#include "ivr/net/http_client.h"
#include "ivr/net/http_server.h"
#include "ivr/net/json.h"
#include "ivr/net/service_handler.h"
#include "ivr/obs/metrics.h"
#include "ivr/obs/trace.h"
#include "ivr/profile/profile_reranker.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/fusion.h"
#include "ivr/retrieval/rocchio.h"
#include "ivr/service/session_manager.h"
#include "ivr/video/generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ivr;  // NOLINT: a single-file driver
using net::JsonQuote;

// ---------------------------------------------------------------------------
// Fixed benchmark constants. Offered rates are about half of each
// workload's max_ops_s on the code the benchmark was defined on; they are
// never recomputed, so a parent and a child commit see the same load.

constexpr uint64_t kCollectionSeed = 2008;
constexpr size_t kCollectionVideos = 25;
constexpr size_t kCollectionTopics = 10;
constexpr size_t kQueryPoolSize = 300;
constexpr double kQueryZipfExponent = 1.0;
constexpr size_t kCacheBytes = 16u << 20;
constexpr int kSetupRepeats = 15;
constexpr double kWarmupSeconds = 1.0;
/// An arrival counts as late when it is sent this long after its due time
/// (covers timer wake-up slack, not queueing behind an earlier op).
constexpr int64_t kLateToleranceNs = 100'000;
constexpr size_t kProfileUsers = 16;


/// The five implicit indicators the paper studies, as event types: click,
/// playback (with played time), slider seek, metadata highlight and
/// tooltip dwell (with hover time).
constexpr EventType kIndicators[] = {
    EventType::kClickKeyframe, EventType::kPlayStop, EventType::kSeek,
    EventType::kHighlightMetadata, EventType::kTooltipHover};

// ingest_mixed writer cadence and stream shape.
// One small video per publish keeps the corpus growth, and so the merge
// cost, modest over a run: merges stay short next to their interval and
// rarely hold up a publish.
constexpr int64_t kAppendIntervalNs = 100'000'000;   // 10 videos/s
constexpr int64_t kPublishIntervalNs = 100'000'000;  // 10 publishes/s
constexpr int64_t kPublishOffsetNs = 50'000'000;
constexpr size_t kMergeAfterSegments = 8;

/// A run of CPUs, as positions in the list of CPUs the process may use.
struct CpuRange {
  int first = 0;
  int count = 1;
};

/// Everything that differs between workloads; ConfigFor is the one place
/// that defines each of them.
struct WorkloadConfig {
  std::string name;
  double rate = 0;      ///< offered ops/s in the open-loop phases
  size_t senders = 0;   ///< connections (HTTP) or caller threads (direct)
  size_t slots = 0;     ///< concurrently open sessions
  size_t k = 0;         ///< result depth per search
  /// Sessions run a search, then `rounds` times 3 events and the next,
  /// feedback-adapted search, then close and reopen; 0 issues searches only.
  int rounds = 0;
  bool http = false;    ///< served by an HttpServer, else direct calls
  bool live_ingest = false;  ///< a LiveEngine with a writer, else static
  /// Perturbed keyframes per query, with a topic title as text; 0 draws
  /// text-only queries from the Zipf pool.
  size_t visual_examples = 0;
  bool use_implicit = false;  ///< expand queries from implicit evidence
  bool use_profile = false;   ///< re-rank by the session user's profile
  size_t profile_every = 0;   ///< every n-th slot has a profile (0: none)
  /// The program's own threads (HttpServer event loop and workers, the
  /// LiveEngine merge thread, the ingest writer) run on `program_cpus`;
  /// the senders run on `sender_cpus`, apart from them, so generator CPU
  /// is not charged to the program.
  CpuRange program_cpus;
  CpuRange sender_cpus;
};

Result<WorkloadConfig> ConfigFor(const std::string& name) {
  if (name == "http_session") {
    return WorkloadConfig{.name = name, .rate = 2000, .senders = 4,
                          .slots = 64, .k = 10, .rounds = 2,
                          .http = true, .use_implicit = true,
                          .use_profile = true, .profile_every = 4,
                          .program_cpus = {0, 2}, .sender_cpus = {2, 1}};
  }
  if (name == "fused_direct") {
    // The paper's baseline system: events are logged, but queries are
    // neither expanded nor re-ranked by profile.
    return WorkloadConfig{.name = name, .rate = 1000, .senders = 2,
                          .slots = 64, .k = 200, .rounds = 1,
                          .visual_examples = 2,
                          .program_cpus = {2, 1}, .sender_cpus = {0, 2}};
  }
  if (name == "ingest_mixed") {
    return WorkloadConfig{.name = name, .rate = 3000, .senders = 2,
                          .slots = 16, .k = 10, .live_ingest = true,
                          .use_implicit = true,
                          .program_cpus = {2, 1}, .sender_cpus = {0, 2}};
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Small utilities.

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = MonoNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

/// Waits for an arrival's due time: sleeps to just before it, then spins,
/// so the generator's own wake-up latency does not pass for the program's.
/// Returns the nanoseconds spent spinning (CPU the program did not use).
/// Sender threads run with a 1 ns timer slack (see RunPhase), which keeps
/// the sleep's overshoot mostly below kSpinNs.
constexpr int64_t kSpinNs = 50'000;
int64_t WaitForDue(int64_t due_ns) {
  SleepUntilNs(due_ns - kSpinNs);
  const int64_t spin_start = MonoNs();
  int64_t now = spin_start;
  while (now < due_ns) now = MonoNs();
  return now - spin_start;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Fingerprint of a ranking over the exact bits of every (shot, score):
/// equal fingerprints <=> equal %.17g renderings, because %.17g
/// round-trips an IEEE double.
uint64_t RankingHash(const std::vector<RankedShot>& ranking) {
  uint64_t h = 1469598103934665603ull;
  auto feed = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  const uint64_t n = ranking.size();
  feed(&n, sizeof(n));
  for (const RankedShot& r : ranking) {
    uint64_t bits = 0;
    std::memcpy(&bits, &r.score, sizeof(bits));
    feed(&r.shot, sizeof(r.shot));
    feed(&bits, sizeof(bits));
  }
  return h;
}

/// Exact nearest-rank quantile of raw samples, in microseconds.
double QuantileUs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1000.0;
}

double MeanUs(const std::vector<int64_t>& ns) {
  if (ns.empty()) return 0.0;
  long double total = 0;
  for (int64_t v : ns) total += v;
  return static_cast<double>(total / ns.size()) / 1000.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0;
  double five = 0;
  double fifteen = 0;
  if (!(in >> one >> five >> fifteen)) return "null";
  return StrFormat("[%.2f, %.2f, %.2f]", one, five, fifteen);
}

/// The CPUs the process may run on, read once, before any thread is pinned.
const std::vector<int>& Allowed() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

/// The CPUs `range` names, wrapping round when the process may use fewer.
std::vector<int> CpusOf(CpuRange range) {
  std::vector<int> out;
  const std::vector<int>& allowed = Allowed();
  for (int i = 0; i < range.count && !allowed.empty(); ++i) {
    const int cpu = allowed[(range.first + i) % allowed.size()];
    if (std::find(out.begin(), out.end(), cpu) == out.end()) out.push_back(cpu);
  }
  return out;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out = "[";
  for (size_t i = 0; i < cpus.size(); ++i) {
    out += StrFormat("%s%d", i == 0 ? "" : ", ", cpus[i]);
  }
  return out + "]";
}

/// Pins the calling thread, and so the threads it creates later, to `cpus`.
void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Every CPU a workload's threads run on: the program's, then the senders'.
std::vector<int> PinnedCpus(const WorkloadConfig& config) {
  std::vector<int> cpus = CpusOf(config.program_cpus);
  for (int cpu : CpusOf(config.sender_cpus)) {
    if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Steal and total jiffies of a set of CPUs, from /proc/stat. "Steal" is
/// time the hypervisor gave to other guests while these vCPUs wanted to
/// run; on a shared host it marks runs taken under outside load.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;

  static CpuTimes Read(const std::vector<int>& cpus) {
    CpuTimes times;
    std::ifstream in("/proc/stat");
    std::string line;
    while (std::getline(in, line)) {
      if (line.compare(0, 3, "cpu") != 0 || line.size() < 4 ||
          line[3] == ' ') {
        continue;
      }
      const int cpu = std::atoi(line.c_str() + 3);
      if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) continue;
      std::istringstream fields(line.substr(line.find(' ')));
      uint64_t field = 0;
      for (int i = 0; i < 8 && (fields >> field); ++i) {
        times.total += field;
        if (i == 7) times.steal += field;
      }
    }
    return times;
  }
  /// Share of the time since `before` that was stolen.
  double StealSince(const CpuTimes& before) const {
    return Ratio(static_cast<double>(steal - before.steal),
                 static_cast<double>(total - before.total));
  }
};

/// Keeps a set of vCPUs from halting while the benchmark runs. On a VM, a
/// vCPU that halts when idle has to be scheduled again by the hypervisor
/// at its next wake-up. When other guests load the host that takes up to
/// milliseconds, and it hits every hand-off between threads (sender, event
/// loop, worker) and every timer wake-up: on http_session it cut capacity
/// threefold and showed as 20% steal. Instead one SCHED_IDLE thread per CPU
/// spins, as the kernel's idle=poll would. The scheduler preempts it at
/// once for any other runnable thread, so it takes no time the program or
/// the senders want; its CPU time is left out of proc.cpu_us_per_op.
class IdlePoller {
 public:
  explicit IdlePoller(const std::vector<int>& cpus) {
    for (int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        PinThread({cpu});
        sched_param param{};
        // Never spin at normal priority: that would take CPU time.
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdlePoller() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }

  /// CPU seconds the spinning threads have used so far.
  double CpuSeconds() {
    double total = 0;
    for (std::thread& t : threads_) {
      clockid_t clock;
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        total += ts.tv_sec + ts.tv_nsec / 1e9;
      }
    }
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Counter values and histogram (count, sum) pairs of the global registry.
struct RegistryView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, int64_t>> histograms;

  static RegistryView Take() {
    RegistryView view;
    const obs::RegistrySnapshot snap = obs::Registry::Global().TakeSnapshot();
    for (const auto& [name, value] : snap.counters) view.counters[name] = value;
    for (const auto& [name, h] : snap.histograms) {
      view.histograms[name] = {h.count, h.sum};
    }
    return view;
  }
  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::pair<uint64_t, int64_t> Histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? std::pair<uint64_t, int64_t>{0, 0}
                                  : it->second;
  }
};

/// Δsum / Δcount of a registry histogram between two views.
double HistogramMean(const RegistryView& before, const RegistryView& after,
                     const std::string& name) {
  const auto [c0, s0] = before.Histogram(name);
  const auto [c1, s1] = after.Histogram(name);
  return Ratio(static_cast<double>(s1 - s0), static_cast<double>(c1 - c0));
}

uint64_t CounterDelta(const RegistryView& before, const RegistryView& after,
                      const std::string& name) {
  return after.Counter(name) - before.Counter(name);
}

// ---------------------------------------------------------------------------
// Operations and session slots.

enum class OpKind : uint8_t { kOpen, kSearch, kEvent, kClose };

/// One operation as issued.
struct Op {
  OpKind kind = OpKind::kSearch;
  std::string session;
  std::string user;
  std::shared_ptr<const Query> query;
  InteractionEvent event;
};

/// What the program answered to one op. Ops themselves are not kept: a
/// slot's op sequence is a function of its seed and of the rankings it was
/// served, so the checks regenerate it from these records.
struct OpRecord {
  uint64_t hash = 0;  ///< served ranking fingerprint (searches)
  OpKind kind = OpKind::kSearch;
  uint8_t phase = 0;  ///< index of the phase that issued it
  bool ok = false;
  uint8_t tops = 0;   ///< served shots kept in Slot::tops (searches)
};

/// Events pick their shot among the first kEventDepth served results.
constexpr size_t kEventDepth = 10;

/// One session slot: a user who keeps opening a session, running the
/// script in it and closing it. The state a replay needs is (index, user,
/// seed) plus the records.
struct Slot {
  size_t index = 0;
  std::string user;
  uint64_t seed = 0;
  uint64_t generation = 0;
  int step = 0;
  Rng rng;
  TimeMs clock_ms = 0;
  std::vector<ShotId> shots;  ///< last served ranking, first kEventDepth
  std::vector<OpRecord> log;  ///< session-script workloads only
  std::vector<ShotId> tops;   ///< served shots of every logged search
  uint32_t phase_ops[4] = {0, 0, 0, 0};

  Slot() = default;
  Slot(size_t i, std::string u, uint64_t s)
      : index(i), user(std::move(u)), seed(s), rng(s) {}
  Slot Fresh() const { return Slot(index, user, seed); }

  std::string Session() const {
    return StrFormat("s%zu-%llu", index,
                     static_cast<unsigned long long>(generation));
  }
  Op OpenOp() const {
    Op op;
    op.kind = OpKind::kOpen;
    op.session = Session();
    op.user = user;
    return op;
  }
};

/// Everything that turns a slot's state into its next op.
struct OpFactory {
  const WorkloadConfig* config = nullptr;
  const std::vector<std::string>* pool = nullptr;
  const ZipfDistribution* zipf = nullptr;
  const GeneratedCollection* collection = nullptr;  ///< fused examples

  std::shared_ptr<const Query> MakeQuery(Rng* rng) const {
    auto query = std::make_shared<Query>();
    if (config->visual_examples > 0) {
      const auto& topics = collection->topics.topics;
      query->text = topics[rng->UniformInt(0, topics.size() - 1)].title;
      const auto& shots = collection->collection.shots();
      for (size_t e = 0; e < config->visual_examples; ++e) {
        const Shot& shot = shots[rng->UniformInt(0, shots.size() - 1)];
        // A perturbed keyframe: every example is distinct, so the
        // per-example visual cache never hits.
        query->examples.push_back(shot.keyframe.Perturb(rng, 0.05));
      }
    } else {
      query->text = (*pool)[zipf->Sample(rng)];
    }
    return query;
  }

  Op Next(Slot* slot) const {
    Op op;
    op.session = slot->Session();
    if (config->rounds == 0) {
      op.kind = OpKind::kSearch;
      op.query = MakeQuery(&slot->rng);
      return op;
    }
    // Steps: a search, `rounds` times (3 events, search), close, open.
    const int searches_end = 4 * config->rounds;
    const int step = slot->step;
    slot->step = (step + 1) % (searches_end + 3);
    if (step > searches_end) {
      if (step == searches_end + 1) {
        op.kind = OpKind::kClose;
      } else {
        op.kind = OpKind::kOpen;
        ++slot->generation;
        op.session = slot->Session();
        op.user = slot->user;
      }
      return op;
    }
    switch (step % 4) {
      case 0:
        op.kind = OpKind::kSearch;
        op.query = MakeQuery(&slot->rng);
        break;
      default: {
        op.kind = OpKind::kEvent;
        InteractionEvent& ev = op.event;
        ev.session_id = op.session;
        ev.type = kIndicators[slot->rng.UniformInt(0, 4)];
        slot->clock_ms += slot->rng.UniformInt(1000, 5000);
        ev.time = slot->clock_ms;
        if (!slot->shots.empty()) {
          const size_t pos = static_cast<size_t>(
              slot->rng.UniformInt(0, slot->shots.size() - 1));
          ev.shot = slot->shots[pos];
        } else {
          ev.shot = static_cast<ShotId>(slot->rng.UniformInt(0, 999));
        }
        if (ev.type == EventType::kPlayStop) {
          ev.value = static_cast<double>(slot->rng.UniformInt(1000, 20000));
        } else if (ev.type == EventType::kTooltipHover) {
          ev.value = static_cast<double>(slot->rng.UniformInt(200, 3000));
        } else if (ev.type == EventType::kSeek) {
          ev.value = static_cast<double>(slot->rng.UniformInt(0, 10000));
        }
        break;
      }
    }
    return op;
  }
};

/// Replays a served slot's exact op sequence: `fn(op, record)` for every
/// logged op, in order. Events are regenerated from the served rankings, so
/// the sequence matches what was sent even where a ranking was wrong.
/// Returns false if the regenerated kinds diverge from the records.
template <typename Fn>
bool ForEachOp(const OpFactory& factory, const Slot& served, Fn fn) {
  Slot slot = served.Fresh();
  size_t top = 0;
  for (size_t i = 0; i < served.log.size(); ++i) {
    const OpRecord& record = served.log[i];
    const Op op = i == 0 ? slot.OpenOp() : factory.Next(&slot);
    if (op.kind != record.kind) return false;
    fn(op, record);
    if (op.kind == OpKind::kSearch) {
      slot.shots.assign(served.tops.begin() + top,
                        served.tops.begin() + top + record.tops);
      top += record.tops;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Executors: how one sender issues an op to the program.

class Executor {
 public:
  virtual ~Executor() = default;
  /// Issues `op`; fills `ranking` for searches and `done_ns` with the
  /// completion time. Returns false when the op failed or was refused.
  virtual bool Execute(const Op& op, uint64_t rid,
                       std::vector<RankedShot>* ranking,
                       int64_t* done_ns) = 0;
};

bool Tracing() { return obs::TraceRecorder::Global().enabled(); }

/// Blocking keep-alive HTTP connection. Every request carries the
/// benchmark's request id in X-Request-Id, traced or not, so both modes put
/// the same bytes on the wire.
class HttpExecutor : public Executor {
 public:
  explicit HttpExecutor(size_t k) : k_(k) {}
  Status Connect(int port) { return client_.Connect("127.0.0.1", port); }

  bool Execute(const Op& op, uint64_t rid, std::vector<RankedShot>* ranking,
               int64_t* done_ns) override {
    const std::string session = JsonQuote(op.session);
    const char* path = nullptr;
    std::string body;
    switch (op.kind) {
      case OpKind::kOpen:
        path = "/v1/session/open";
        body = StrFormat("{\"session_id\": %s, \"user_id\": %s}",
                         session.c_str(), JsonQuote(op.user).c_str());
        break;
      case OpKind::kClose:
        path = "/v1/session/close";
        body = StrFormat("{\"session_id\": %s}", session.c_str());
        break;
      case OpKind::kSearch:
        path = "/v1/search";
        body = StrFormat(
            "{\"session_id\": %s, \"query\": {\"text\": %s}, \"k\": %zu}",
            session.c_str(), JsonQuote(op.query->text).c_str(), k_);
        break;
      case OpKind::kEvent:
        path = "/v1/feedback";
        body = StrFormat(
            "{\"session_id\": %s, \"event\": {\"type\": %s, \"shot\": %u, "
            "\"time\": %lld, \"value\": %.17g}}",
            session.c_str(),
            JsonQuote(std::string(EventTypeName(op.event.type))).c_str(),
            static_cast<unsigned>(op.event.shot),
            static_cast<long long>(op.event.time), op.event.value);
        break;
    }
    const std::string wire = StrFormat(
        "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Request-Id: %llu\r\n"
        "Content-Type: application/json\r\nContent-Length: %zu\r\n\r\n",
        path, static_cast<unsigned long long>(rid), body.size()) + body;
    Result<net::HttpClientResponse> response =
        Status::Internal("not sent");
    {
      obs::ScopedSpan span("net.request");
      if (Tracing()) span.Annotate("rid", std::to_string(rid));
      if (client_.SendRaw(wire).ok()) response = client_.ReadResponse();
    }
    *done_ns = MonoNs();
    if (!response.ok() || response->status != 200) return false;
    if (op.kind != OpKind::kSearch) return true;
    const Result<net::JsonValue> parsed = net::JsonValue::Parse(response->body);
    if (!parsed.ok()) return false;
    const net::JsonValue* results = parsed->Find("results");
    if (results == nullptr || !results->is_array()) return false;
    for (const net::JsonValue& item : results->items()) {
      const net::JsonValue* shot = item.Find("shot");
      const net::JsonValue* score = item.Find("score");
      if (shot == nullptr || score == nullptr) return false;
      ranking->push_back(RankedShot{
          static_cast<ShotId>(shot->number_value()), score->number_value()});
    }
    return true;
  }

 private:
  size_t k_;
  net::HttpClient client_;
};

/// Direct in-process calls into SessionManager, each inside a span.
class DirectExecutor : public Executor {
 public:
  DirectExecutor(SessionManager* manager, size_t k)
      : manager_(manager), k_(k) {}

  bool Execute(const Op& op, uint64_t rid, std::vector<RankedShot>* ranking,
               int64_t* done_ns) override {
    bool ok = false;
    switch (op.kind) {
      case OpKind::kOpen:
        ok = manager_->BeginSession(op.session, op.user).ok();
        break;
      case OpKind::kClose:
        ok = manager_->EndSession(op.session).ok();
        break;
      case OpKind::kEvent:
        ok = manager_->ObserveEvent(op.session, op.event).ok();
        break;
      case OpKind::kSearch: {
        obs::ScopedSpan span("service.search");
        if (Tracing()) span.Annotate("rid", std::to_string(rid));
        Result<ResultList> result = manager_->Search(op.session, *op.query, k_);
        if (result.ok()) {
          ok = true;
          *ranking = result->items();
        }
        break;
      }
    }
    *done_ns = MonoNs();
    return ok;
  }

 private:
  SessionManager* manager_;
  size_t k_;
};

// ---------------------------------------------------------------------------
// The served stack.

/// Benchmark-side hooks the resolver and handler wrappers consult.
struct Hooks {
  /// Layer-attribution self-test delay, added to every search in the
  /// HTTP Handler wrapper and in the EngineResolver wrapper.
  int64_t inject_delay_us = 0;
  std::atomic<uint64_t> shard_sum{0};
  std::atomic<uint64_t> shard_count{0};
};

/// Busy-waits rather than sleeps: the delay is exact and keeps the thread
/// on its CPU, as slower code would.
void InjectDelay(const Hooks& hooks) {
  if (hooks.inject_delay_us <= 0) return;
  const int64_t until = MonoNs() + hooks.inject_delay_us * 1000;
  while (MonoNs() < until) {
  }
}

/// Members are declared in dependency order so destruction runs clients,
/// server, handler, manager, live engine, engines, cache, collection.
struct Stack {
  /// Removes the ingest directory after everything using it is gone.
  struct DirGuard {
    std::string path;
    ~DirGuard() {
      std::error_code ec;
      if (!path.empty()) std::filesystem::remove_all(path, ec);
    }
  } dir;
  std::unique_ptr<GeneratedCollection> owned_collection;
  const GeneratedCollection* collection = nullptr;
  std::unique_ptr<GeneratedCollection> stream;
  std::map<std::string, std::shared_ptr<const UserProfile>> profiles;
  std::shared_ptr<ResultCache> cache;
  std::unique_ptr<RetrievalEngine> engine;
  std::unique_ptr<AdaptiveEngine> adaptive;
  std::unique_ptr<LiveEngine> live;
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<net::ServiceHandler> service;
  std::unique_ptr<net::HttpServer> server;
  std::vector<std::unique_ptr<Executor>> executors;
  std::vector<std::string> pool;
  std::unique_ptr<ZipfDistribution> zipf;
  std::vector<Slot> slots;
};

Result<GeneratedCollection> StandardCollection() {
  GeneratorOptions options;
  options.seed = kCollectionSeed;
  options.num_videos = kCollectionVideos;
  options.num_topics = kCollectionTopics;
  return GenerateCollection(options);
}

/// The fixed pool of 1-3 word queries drawn from each topic's title and
/// description words (only words the analyzer keeps). Independent of the
/// run seed: the seed only decides which pool entries are drawn.
std::vector<std::string> BuildQueryPool(const GeneratedCollection& g,
                                        const RetrievalEngine& engine) {
  std::vector<std::vector<std::string>> words(g.topics.size());
  for (size_t t = 0; t < g.topics.size(); ++t) {
    const SearchTopic& topic = g.topics.topics[t];
    std::string text = topic.title + " " + topic.description;
    std::string word;
    for (size_t i = 0; i <= text.size(); ++i) {
      const char c = i < text.size() ? text[i] : ' ';
      if (c == ' ') {
        if (!word.empty() && !engine.ParseText(word).empty() &&
            std::find(words[t].begin(), words[t].end(), word) ==
                words[t].end()) {
          words[t].push_back(word);
        }
        word.clear();
      } else {
        word.push_back(c);
      }
    }
  }
  Rng rng(kCollectionSeed);
  std::vector<std::string> pool;
  for (size_t i = 0; i < kQueryPoolSize; ++i) {
    const std::vector<std::string>& topic_words = words[i % words.size()];
    std::string query;
    const size_t n = 1 + i % 3;
    for (size_t w = 0; w < n && !topic_words.empty(); ++w) {
      if (!query.empty()) query += ' ';
      query += topic_words[rng.UniformInt(0, topic_words.size() - 1)];
    }
    pool.push_back(query);
  }
  return pool;
}

std::map<std::string, std::shared_ptr<const UserProfile>> BuildProfiles() {
  std::map<std::string, std::shared_ptr<const UserProfile>> profiles;
  Rng rng(kCollectionSeed + 1);
  for (size_t u = 0; u < kProfileUsers; ++u) {
    auto profile = std::make_shared<UserProfile>(StrFormat("u%zu", u));
    const auto first = static_cast<TopicLabel>(
        rng.UniformInt(0, kCollectionTopics - 1));
    const auto second = static_cast<TopicLabel>(
        (first + 1 + rng.UniformInt(0, kCollectionTopics - 2)) %
        kCollectionTopics);
    profile->SetInterest(first, 1.0);
    profile->SetInterest(second, 0.5);
    profile->Normalize();
    profiles[profile->user_id()] = std::move(profile);
  }
  return profiles;
}

AdaptiveOptions AdaptiveOptionsFor(const WorkloadConfig& config) {
  AdaptiveOptions options;
  options.use_implicit = config.use_implicit;
  options.use_profile = config.use_profile;
  return options;
}

// ---------------------------------------------------------------------------
// Phases.

struct Sample {
  int64_t due_ns = 0;
  int64_t ns = 0;
};

std::vector<int64_t> Latencies(const std::vector<Sample>& samples) {
  std::vector<int64_t> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.ns);
  return out;
}

/// A phase is cut into kWindows equal windows, and the CPU times of the
/// pinned CPUs are read at every window edge. On a shared VM, CPU time
/// stolen by other guests arrives in bursts, and a burst slows everything
/// that runs through it. Each figure is therefore taken over the quieter
/// half of the windows, the ones whose CPUs lost the least time to steal
/// (or over every window that lost under 1%, if those are more), as the
/// median over those windows of the figure within each.
constexpr int kWindows = 50;
/// Steal below this share is within the 10 ms resolution of /proc/stat
/// over a window of a few hundred milliseconds.
constexpr double kQuietSteal = 0.01;

struct TracedSearch {
  uint64_t rid = 0;
  int64_t late_ns = 0;
  int64_t e2e_ns = 0;
};

struct PhaseStats {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<uint64_t> window_ops = std::vector<uint64_t>(kWindows, 0);
  std::vector<CpuTimes> edges;  ///< pinned CPUs' times at the window edges
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t late = 0;
  int64_t spin_ns = 0;  ///< generator pacing CPU, excluded from cpu_us_per_op
  std::vector<Sample> search;  ///< latency from due time
  std::vector<Sample> event;   ///< latency from due time
  std::vector<int64_t> late_ns;
  std::vector<int64_t> search_service_ns;  ///< from send, for diagnosis
  std::vector<TracedSearch> traced;

  void Merge(PhaseStats&& other) {
    ops += other.ops;
    failed += other.failed;
    late += other.late;
    spin_ns += other.spin_ns;
    auto append = [](std::vector<int64_t>* to, std::vector<int64_t>* from) {
      to->insert(to->end(), from->begin(), from->end());
    };
    search.insert(search.end(), other.search.begin(), other.search.end());
    event.insert(event.end(), other.event.begin(), other.event.end());
    for (int w = 0; w < kWindows; ++w) window_ops[w] += other.window_ops[w];
    append(&late_ns, &other.late_ns);
    append(&search_service_ns, &other.search_service_ns);
    traced.insert(traced.end(), other.traced.begin(), other.traced.end());
  }

  /// Share of the pinned CPUs' time stolen over the whole phase.
  double Steal() const {
    return edges.size() < 2 ? 0.0 : edges.back().StealSince(edges.front());
  }

  /// The quieter half of `groups` equal groups of adjacent windows, or
  /// every group that lost under kQuietSteal of its time if there are more.
  std::vector<int> QuietGroups(int groups) const {
    std::vector<std::pair<double, int>> steal;
    for (int g = 0; g < groups; ++g) {
      const size_t first = static_cast<size_t>(g * kWindows / groups);
      const size_t last = static_cast<size_t>((g + 1) * kWindows / groups);
      steal.emplace_back(last < edges.size()
                             ? edges[last].StealSince(edges[first])
                             : 0.0,
                         g);
    }
    std::sort(steal.begin(), steal.end());
    std::vector<int> quiet;
    for (const auto& [share, g] : steal) {
      if (quiet.size() >= static_cast<size_t>(groups + 1) / 2 &&
          share > kQuietSteal) {
        break;
      }
      quiet.push_back(g);
    }
    return quiet;
  }

  /// The median over the quieter half of the windows of each window's
  /// exact quantile `q` of `samples` (binned by due time). Windows are
  /// grouped so that each keeps ten samples beyond the quantile.
  double QuietQuantileUs(const std::vector<Sample>& samples, double q) const {
    const double per_group = 10.0 / (1.0 - q);
    const int groups = static_cast<int>(std::clamp<double>(
        std::floor(samples.size() / per_group), 1, kWindows));
    const double width = static_cast<double>(end_ns - start_ns) / groups;
    std::vector<std::vector<int64_t>> per(groups);
    for (const Sample& s : samples) {
      const int g = static_cast<int>(std::clamp<double>(
          std::floor((s.due_ns - start_ns) / width), 0, groups - 1));
      per[g].push_back(s.ns);
    }
    std::vector<double> values;
    for (int g : QuietGroups(groups)) {
      values.push_back(QuantileUs(std::move(per[g]), q));
    }
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  }

  /// The median over the quieter half of the windows of the ops completed
  /// per second.
  double QuietRate() const {
    std::vector<uint64_t> counts;
    for (int w : QuietGroups(kWindows)) counts.push_back(window_ops[w]);
    std::sort(counts.begin(), counts.end());
    return static_cast<double>(counts[counts.size() / 2]) /
           ((end_ns - start_ns) / 1e9 / kWindows);
  }
};

std::atomic<uint64_t> g_next_rid{1};

struct PhaseContext {
  const OpFactory* factory = nullptr;
  uint8_t phase = 0;
  bool open = false;    ///< samples are kept for open-loop phases only
  bool traced = false;
  int64_t start_ns = 0;
  int64_t window_ns = 1;
};

/// Records a served search's answer in the slot: its fingerprint, and the
/// shots the next events pick from.
void RecordSearch(const std::vector<RankedShot>& ranking, Slot* slot,
                  OpRecord* record) {
  record->hash = RankingHash(ranking);
  slot->shots.clear();
  for (size_t i = 0; i < ranking.size() && i < kEventDepth; ++i) {
    slot->shots.push_back(ranking[i].shot);
  }
  record->tops = static_cast<uint8_t>(slot->shots.size());
}

/// Issues one op from `slot` through `executor` and records it.
void IssueOp(const PhaseContext& ctx, Executor* executor, Slot* slot,
             int64_t due_ns, PhaseStats* stats) {
  const Op op = ctx.factory->Next(slot);
  const uint64_t rid = g_next_rid.fetch_add(1, std::memory_order_relaxed);
  const int64_t send_ns = MonoNs();
  std::vector<RankedShot> ranking;
  int64_t done_ns = 0;
  OpRecord record;
  record.kind = op.kind;
  record.phase = ctx.phase;
  record.ok = executor->Execute(op, rid, &ranking, &done_ns);
  ++stats->ops;
  ++slot->phase_ops[ctx.phase];
  if (!record.ok) ++stats->failed;
  const int64_t window = (done_ns - ctx.start_ns) / ctx.window_ns;
  if (window >= 0 && window < kWindows) ++stats->window_ops[window];
  if (op.kind == OpKind::kSearch) RecordSearch(ranking, slot, &record);
  if (ctx.factory->config->rounds > 0) {
    slot->log.push_back(record);
    slot->tops.insert(slot->tops.end(), slot->shots.begin(),
                      slot->shots.begin() + record.tops);
  }
  if (!ctx.open) return;
  const int64_t late_ns = std::max<int64_t>(0, send_ns - due_ns);
  if (late_ns > kLateToleranceNs) ++stats->late;
  stats->late_ns.push_back(late_ns);
  if (op.kind == OpKind::kSearch) {
    stats->search.push_back({due_ns, done_ns - due_ns});
    stats->search_service_ns.push_back(done_ns - send_ns);
    if (ctx.traced) stats->traced.push_back({rid, late_ns, done_ns - due_ns});
  } else if (op.kind == OpKind::kEvent) {
    stats->event.push_back({due_ns, done_ns - due_ns});
  }
}

/// Runs one phase. Open loop: one Poisson schedule at `rate`, each arrival
/// on a random session. An idle sender claims the next arrival, waits for
/// its due time itself and issues it, so the senders form one queue in
/// front of n servers with no hand-off between threads; every op is timed
/// from its due time. Closed loop: every sender issues back to back with
/// no think time. Either way a session never has two ops in flight, so its
/// ops run in order.
PhaseStats RunPhase(Stack* stack, const OpFactory& factory, uint8_t phase,
                    double seconds, double rate, bool open, bool traced,
                    uint64_t seed) {
  const size_t n = stack->executors.size();
  std::vector<PhaseStats> per(n);
  const int64_t duration_ns = static_cast<int64_t>(seconds * 1e9);
  const int64_t start_ns = MonoNs() + 2'000'000;
  const int64_t end_ns = start_ns + duration_ns;
  PhaseContext ctx;
  ctx.factory = &factory;
  ctx.phase = phase;
  ctx.open = open;
  ctx.traced = traced;
  ctx.start_ns = start_ns;
  ctx.window_ns = std::max<int64_t>(1, duration_ns / kWindows);

  const size_t num_slots = stack->slots.size();
  std::vector<int64_t> schedule;
  std::vector<uint32_t> slot_of;
  if (open) {
    schedule = PoissonScheduleUs(rate, duration_ns / 1000, Mix(seed, phase));
    Rng rng(Mix(seed, phase + 64));
    for (size_t i = 0; i < schedule.size(); ++i) {
      slot_of.push_back(static_cast<uint32_t>(rng.UniformInt(0, num_slots - 1)));
    }
  }
  std::atomic<size_t> next{0};
  std::vector<std::atomic<bool>> busy(num_slots);
  auto try_acquire = [&](size_t i) {
    bool expected = false;
    return busy[i].compare_exchange_strong(expected, true,
                                           std::memory_order_acquire);
  };
  auto issue = [&](size_t s, size_t i, int64_t due) {
    IssueOp(ctx, stack->executors[s].get(), &stack->slots[i], due, &per[s]);
    busy[i].store(false, std::memory_order_release);
  };
  std::vector<std::thread> threads;
  for (size_t s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      // One CPU per sender, round robin: the load balancer does not always
      // spread threads over CPUs whose only other task is an IdlePoller.
      const std::vector<int> cpus = CpusOf(factory.config->sender_cpus);
      PinThread({cpus[s % cpus.size()]});
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      if (open) {
        for (size_t a = next++; a < schedule.size(); a = next++) {
          const int64_t due = start_ns + schedule[a] * 1000;
          per[s].spin_ns += WaitForDue(due);
          while (!try_acquire(slot_of[a])) std::this_thread::yield();
          issue(s, slot_of[a], due);
        }
        return;
      }
      Rng rng(Mix(seed, phase * 64 + s));
      SleepUntilNs(start_ns);
      while (MonoNs() < end_ns) {
        const size_t i = static_cast<size_t>(rng.UniformInt(0, num_slots - 1));
        if (try_acquire(i)) issue(s, i, MonoNs());
      }
    });
  }
  // Reads the pinned CPUs' times at every window edge.
  std::vector<CpuTimes> edges;
  std::thread sampler([&] {
    const std::vector<int> cpus = PinnedCpus(*factory.config);
    for (int w = 0; w <= kWindows; ++w) {
      SleepUntilNs(start_ns + w * ctx.window_ns);
      edges.push_back(CpuTimes::Read(cpus));
    }
  });
  for (std::thread& t : threads) t.join();
  sampler.join();
  PhaseStats total;
  total.start_ns = start_ns;
  total.end_ns = end_ns;
  total.edges = std::move(edges);
  for (PhaseStats& p : per) total.Merge(std::move(p));
  return total;
}

// ---------------------------------------------------------------------------
// The ingest writer: appends at a fixed rate and publishes at a fixed
// cadence until stopped; each publish is timed from its due time.

struct WriterStats {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<std::pair<int64_t, int64_t>> publishes;  ///< (due, latency)
};

class IngestWriter {
 public:
  IngestWriter(LiveEngine* live, const GeneratedCollection* stream)
      : live_(live), stream_(stream) {}
  ~IngestWriter() { Stop(); }

  void Start() {
    thread_ = std::thread([this] { Main(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const WriterStats& stats() const { return stats_; }

 private:
  void Main() {
    const int64_t origin = MonoNs();
    size_t next_video = 0;
    int64_t next_append = origin;
    int64_t next_publish = origin + kPublishOffsetNs;
    const auto& videos = stream_->collection.videos();
    while (!stop_.load()) {
      const bool publish = next_publish < next_append;
      const int64_t due = publish ? next_publish : next_append;
      // Sleep in short steps so Stop() is honoured promptly.
      while (!stop_.load() && MonoNs() < due) {
        SleepUntilNs(std::min(due, MonoNs() + 5'000'000));
      }
      if (stop_.load()) break;
      ++stats_.ops;
      if (publish) {
        const bool ok = live_->Publish().ok();
        stats_.publishes.emplace_back(due, MonoNs() - due);
        if (!ok) ++stats_.failed;
        next_publish += kPublishIntervalNs;
      } else {
        bool ok = false;
        {
          obs::ScopedSpan span("ingest.append");
          ok = live_->AppendVideoFrom(
                        stream_->collection,
                        videos[next_video++ % videos.size()].id)
                   .ok();
        }
        if (!ok) ++stats_.failed;
        next_append += kAppendIntervalNs;
      }
    }
  }

  LiveEngine* live_;
  const GeneratedCollection* stream_;
  std::atomic<bool> stop_{false};
  WriterStats stats_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Setup: from nothing to the first servable request.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string commit = "unknown";
  double rate_override = 0;
  int64_t inject_delay_us = 0;
};

Status OpenSessions(const WorkloadConfig& config, Stack* stack) {
  const size_t n = stack->executors.size();
  for (Slot& slot : stack->slots) {
    const Op op = slot.OpenOp();
    std::vector<RankedShot> unused;
    int64_t done = 0;
    if (!stack->executors[slot.index % n]->Execute(op, 0, &unused, &done)) {
      return Status::Internal("could not open " + op.session);
    }
    OpRecord record;
    record.kind = OpKind::kOpen;
    record.ok = true;
    if (config.rounds > 0) slot.log.push_back(record);
  }
  return Status::OK();
}

Result<std::unique_ptr<Stack>> BuildStack(const WorkloadConfig& config,
                                          const Options& options,
                                          Hooks* hooks, int attempt) {
  auto stack = std::make_unique<Stack>();
  IVR_ASSIGN_OR_RETURN(GeneratedCollection base, StandardCollection());
  ResultCacheOptions cache_options;
  cache_options.max_bytes = kCacheBytes;
  stack->cache = std::make_shared<ResultCache>(cache_options);
  stack->profiles = BuildProfiles();

  if (config.live_ingest) {
    GeneratorOptions stream_options;
    stream_options.seed = Mix(options.seed, 77);
    stream_options.num_topics = kCollectionTopics;
    stream_options.num_videos = static_cast<size_t>(
        (options.seconds + kWarmupSeconds + 5) * 1e9 / kAppendIntervalNs);
    stream_options.stories_per_video_mean = 1.0;
    stream_options.shots_per_story_mean = 2.0;
    IVR_ASSIGN_OR_RETURN(GeneratedCollection stream,
                         GenerateCollection(stream_options));
    stack->stream = std::make_unique<GeneratedCollection>(std::move(stream));

    IngestOptions ingest;
    ingest.dir = StrFormat("%s/ingest-%d", options.work_dir.c_str(), attempt);
    std::filesystem::remove_all(ingest.dir);
    stack->dir.path = ingest.dir;
    ingest.cache = stack->cache;
    ingest.adaptive = AdaptiveOptionsFor(config);
    ingest.merge_after_segments = kMergeAfterSegments;
    ingest.background_merge = true;
    IVR_ASSIGN_OR_RETURN(stack->live,
                         LiveEngine::Open(std::move(base), ingest));
    stack->collection = &stack->live->base();
    LiveEngine* live = stack->live.get();
    SessionManager::EngineResolver resolver =
        [live, hooks]() -> std::shared_ptr<const AdaptiveEngine> {
      obs::ScopedSpan span("service.resolve");
      InjectDelay(*hooks);
      std::shared_ptr<const EngineSnapshot> snapshot = live->Acquire();
      if (Tracing()) {
        hooks->shard_sum.fetch_add(snapshot->engine->num_shards(),
                                   std::memory_order_relaxed);
        hooks->shard_count.fetch_add(1, std::memory_order_relaxed);
      }
      // Aliasing: the session op pins the whole snapshot.
      return std::shared_ptr<const AdaptiveEngine>(snapshot,
                                                   snapshot->adaptive.get());
    };
    stack->manager = std::make_unique<SessionManager>(
        std::move(resolver), SessionManagerOptions());
    stack->pool = BuildQueryPool(*stack->collection, *live->Acquire()->engine);
  } else {
    stack->owned_collection =
        std::make_unique<GeneratedCollection>(std::move(base));
    stack->collection = stack->owned_collection.get();
    IVR_ASSIGN_OR_RETURN(stack->engine,
                         RetrievalEngine::Build(stack->collection->collection));
    stack->engine->AttachCache(stack->cache);
    stack->adaptive = std::make_unique<AdaptiveEngine>(
        *stack->engine, AdaptiveOptionsFor(config), nullptr);
    stack->manager = std::make_unique<SessionManager>(*stack->adaptive,
                                                      SessionManagerOptions());
    stack->pool = BuildQueryPool(*stack->collection, *stack->engine);
  }
  for (const auto& [user, profile] : stack->profiles) {
    IVR_RETURN_IF_ERROR(stack->manager->AddProfile(*profile));
  }
  stack->zipf = std::make_unique<ZipfDistribution>(
      static_cast<int64_t>(stack->pool.size()), kQueryZipfExponent);

  if (config.http) {
    stack->service = std::make_unique<net::ServiceHandler>(stack->manager.get());
    net::ServiceHandler* service = stack->service.get();
    net::HttpServerOptions server_options;
    server_options.num_workers = 2;
    stack->server = std::make_unique<net::HttpServer>(
        server_options, [service, hooks](const net::HttpRequest& request) {
          obs::ScopedSpan span("net.handler");
          if (Tracing()) {
            const std::string* rid = request.FindHeader("x-request-id");
            if (rid != nullptr) span.Annotate("rid", *rid);
          }
          if (request.path == "/v1/search") InjectDelay(*hooks);
          return service->Handle(request);
        });
    IVR_RETURN_IF_ERROR(stack->server->Start());
    for (size_t s = 0; s < config.senders; ++s) {
      auto executor = std::make_unique<HttpExecutor>(config.k);
      IVR_RETURN_IF_ERROR(executor->Connect(stack->server->port()));
      stack->executors.push_back(std::move(executor));
    }
  } else {
    for (size_t s = 0; s < config.senders; ++s) {
      stack->executors.push_back(
          std::make_unique<DirectExecutor>(stack->manager.get(), config.k));
    }
  }

  for (size_t i = 0; i < config.slots; ++i) {
    std::string user;
    if (config.profile_every > 0 && i % config.profile_every == 0) {
      user = StrFormat("u%zu", (i / config.profile_every) % kProfileUsers);
    }
    stack->slots.emplace_back(i, std::move(user), Mix(options.seed, 1000 + i));
  }
  IVR_RETURN_IF_ERROR(OpenSessions(config, stack.get()));
  return stack;
}

// ---------------------------------------------------------------------------
// Output checks.

/// Replays every slot's op sequence, per session in order, on a fresh,
/// uncached direct SessionManager stack and counts served ops whose answer
/// differs. Sessions are independent, so they are spread over 4 threads.
Result<uint64_t> CheckAgainstReference(const WorkloadConfig& config,
                                       const OpFactory& factory,
                                       const Stack& served) {
  IVR_ASSIGN_OR_RETURN(std::unique_ptr<RetrievalEngine> engine,
                       RetrievalEngine::Build(served.collection->collection));
  AdaptiveEngine adaptive(*engine, AdaptiveOptionsFor(config), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  for (const auto& [user, profile] : served.profiles) {
    IVR_RETURN_IF_ERROR(manager.AddProfile(*profile));
  }
  std::atomic<uint64_t> wrong{0};
  const size_t threads = 4;
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      DirectExecutor reference(&manager, config.k);
      for (size_t i = w; i < served.slots.size(); i += threads) {
        const bool same_ops = ForEachOp(
            factory, served.slots[i], [&](const Op& op, const OpRecord& r) {
              std::vector<RankedShot> ranking;
              int64_t done = 0;
              const bool ok = reference.Execute(op, 0, &ranking, &done);
              // A served failure is already counted; count a divergence
              // only for ops the program claimed to answer.
              if (r.ok && (!ok || (op.kind == OpKind::kSearch &&
                                   RankingHash(ranking) != r.hash))) {
                wrong.fetch_add(1);
              }
            });
        if (!same_ops) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return wrong.load();
}

/// ingest_mixed: the final generation must rank every pool query exactly
/// as a monolithic build over the exported collection does.
Result<uint64_t> CheckAgainstMonolithic(const EngineSnapshot& snapshot,
                                        const GeneratedCollection& exported,
                                        const std::vector<std::string>& pool,
                                        size_t k) {
  IVR_ASSIGN_OR_RETURN(std::unique_ptr<RetrievalEngine> oracle,
                       RetrievalEngine::Build(exported.collection));
  AdaptiveEngine oracle_adaptive(*oracle, snapshot.adaptive->options(),
                                 nullptr);
  uint64_t wrong = 0;
  for (const std::string& text : pool) {
    Query query;
    query.text = text;
    SessionContext live_ctx = snapshot.adaptive->MakeContext("check", "");
    SessionContext oracle_ctx = oracle_adaptive.MakeContext("check", "");
    const ResultList live = snapshot.adaptive->Search(&live_ctx, query, k);
    const ResultList mono = oracle_adaptive.Search(&oracle_ctx, query, k);
    if (RankingHash(live.items()) != RankingHash(mono.items())) ++wrong;
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Traced run: span breakdown and the per-function replay.

struct SpanBreakdown {
  size_t searches = 0;
  /// Traced searches whose root span, or on HTTP whose server handler
  /// span, was not found by request id.
  size_t unlinked = 0;
  /// Child spans not inside their parent's interval: mislinked, or a
  /// child that outlasted its parent.
  size_t bad_spans = 0;
  double e2e_us = 0;
  double wait_us = 0;
  std::map<std::string, double> self_us;       ///< by span name, per search
  std::map<std::string, double> span_mean_us;  ///< mean over all spans
};

/// Self time of every span under the traced searches' roots. The server's
/// handler span is linked to the client span by the request id annotation.
/// Each child must lie inside its parent (to the microsecond the recorder
/// rounds to); only then do the self times partition the root span.
SpanBreakdown AnalyzeSpans(const std::vector<obs::TraceEvent>& events,
                           const std::vector<TracedSearch>& searches,
                           const std::string& root_name, bool http) {
  std::unordered_map<uint64_t, const obs::TraceEvent*> roots;
  std::unordered_map<uint64_t, const obs::TraceEvent*> handlers;
  std::unordered_map<uint64_t, std::vector<const obs::TraceEvent*>> children;
  std::map<std::string, std::pair<double, size_t>> all_spans;
  auto rid_of = [](const obs::TraceEvent& e) -> uint64_t {
    for (const auto& [key, value] : e.annotations) {
      if (key == "rid") return std::strtoull(value.c_str(), nullptr, 10);
    }
    return 0;
  };
  for (const obs::TraceEvent& e : events) {
    auto& agg = all_spans[e.name];
    agg.first += e.duration_us;
    agg.second += 1;
    if (e.parent != 0) children[e.parent].push_back(&e);
    if (e.name == root_name) roots[rid_of(e)] = &e;
    if (e.name == "net.handler") handlers[rid_of(e)] = &e;
  }
  SpanBreakdown out;
  for (const auto& [name, agg] : all_spans) {
    out.span_mean_us[name] = agg.first / static_cast<double>(agg.second);
  }
  for (const TracedSearch& s : searches) {
    auto root = roots.find(s.rid);
    auto handler = handlers.find(s.rid);
    if (root == roots.end() || (http && handler == handlers.end())) {
      ++out.unlinked;
      continue;
    }
    ++out.searches;
    out.e2e_us += s.e2e_ns / 1000.0;
    out.wait_us += s.late_ns / 1000.0;
    std::vector<const obs::TraceEvent*> stack = {root->second};
    while (!stack.empty()) {
      const obs::TraceEvent* span = stack.back();
      stack.pop_back();
      std::vector<const obs::TraceEvent*> kids;
      auto it = children.find(span->id);
      if (it != children.end()) kids = it->second;
      if (http && span == root->second) kids.push_back(handler->second);
      double covered = 0;
      for (const obs::TraceEvent* kid : kids) {
        constexpr int64_t kRoundingUs = 1;
        if (kid->start_us + kRoundingUs < span->start_us ||
            kid->start_us + kid->duration_us >
                span->start_us + span->duration_us + kRoundingUs) {
          ++out.bad_spans;
        }
        covered += kid->duration_us;
        stack.push_back(kid);
      }
      out.self_us[span->name] += span->duration_us - covered;
    }
  }
  const double n = static_cast<double>(std::max<size_t>(out.searches, 1));
  out.e2e_us /= n;
  out.wait_us /= n;
  for (auto& [name, v] : out.self_us) v /= n;
  return out;
}

struct ReplayTimes {
  std::vector<int64_t> expand_ns, text_ns, visual_ns, fuse_ns, rerank_ns;
  uint64_t compared = 0;
  uint64_t mismatched = 0;
};

/// Re-runs AdaptiveEngine::Search step by step through the public
/// functions it calls, timing each, on an uncached twin engine.
ResultList ReplaySearch(const AdaptiveEngine& adaptive,
                        const SessionContext& ctx, const Query& query,
                        size_t k, ReplayTimes* times) {
  const RetrievalEngine& engine = adaptive.engine();
  const AdaptiveOptions& options = adaptive.options();
  std::vector<ResultList> lists;
  std::vector<double> weights;
  if (query.HasText()) {
    int64_t t0 = MonoNs();
    TermQuery terms = engine.ParseText(query.text);
    if (options.use_implicit) {
      std::vector<FeedbackDoc> positive;
      std::vector<FeedbackDoc> negative;
      for (const RelevanceEvidence& e : adaptive.CurrentEvidence(ctx)) {
        const std::string text = engine.IndexedText(e.shot);
        if (text.empty()) continue;
        if (e.weight > 0.0) positive.push_back(FeedbackDoc{text, e.weight});
        if (e.weight < 0.0) negative.push_back(FeedbackDoc{text, -e.weight});
      }
      if (!positive.empty() || !negative.empty()) {
        terms = RocchioExpand(terms, positive, negative, engine.analyzer(),
                              options.rocchio);
      }
    }
    int64_t t1 = MonoNs();
    times->expand_ns.push_back(t1 - t0);
    lists.push_back(engine.SearchTerms(terms, options.candidate_pool));
    times->text_ns.push_back(MonoNs() - t1);
    weights.push_back(engine.options().text_weight);
  }
  if (query.HasExamples()) {
    std::vector<ResultList> visual;
    for (const ColorHistogram& example : query.examples) {
      const int64_t t0 = MonoNs();
      visual.push_back(engine.SearchVisual(example, options.candidate_pool));
      times->visual_ns.push_back(MonoNs() - t0);
    }
    const int64_t t0 = MonoNs();
    lists.push_back(CombSum(visual));
    weights.push_back(engine.options().visual_weight);
    ResultList fused = WeightedLinear(lists, weights);
    times->fuse_ns.push_back(MonoNs() - t0);
    lists = {std::move(fused)};
  }
  ResultList result = lists.empty() ? ResultList() : std::move(lists.front());
  const UserProfile* profile =
      ctx.profile != nullptr ? ctx.profile.get() : adaptive.default_profile().get();
  if (options.use_profile && profile != nullptr) {
    const int64_t t0 = MonoNs();
    ProfileRerankOptions rerank;
    rerank.lambda = options.profile_lambda;
    result = RerankWithProfile(
        result, *profile,
        ShotLookup([&engine](ShotId id) { return engine.FindShot(id); }),
        rerank);
    times->rerank_ns.push_back(MonoNs() - t0);
  }
  result.Truncate(k);
  return result;
}

/// Replays every other slot's sessions on an uncached twin, whole (so
/// their evidence matches), timing the searches the traced phase issued,
/// and compares each replayed ranking with the served one: the path is the
/// same function by function.
void ReplayScriptSessions(const WorkloadConfig& config,
                          const OpFactory& factory, const Stack& stack,
                          uint8_t traced_phase, ReplayTimes* times) {
  Result<std::unique_ptr<RetrievalEngine>> twin =
      RetrievalEngine::Build(stack.collection->collection);
  if (!twin.ok()) {
    times->mismatched = 1;
    return;
  }
  AdaptiveEngine adaptive(**twin, AdaptiveOptionsFor(config), nullptr);
  constexpr size_t kMaxReplayedSearches = 600;
  for (size_t i = 0; i < stack.slots.size(); i += 2) {
    SessionContext ctx;
    ReplayTimes scratch;
    ForEachOp(factory, stack.slots[i], [&](const Op& op, const OpRecord& r) {
      if (times->compared >= kMaxReplayedSearches) return;
      if (op.kind == OpKind::kOpen) {
        ctx = adaptive.MakeContext(op.session, op.user);
        auto profile = stack.profiles.find(op.user);
        if (profile != stack.profiles.end()) ctx.profile = profile->second;
      } else if (op.kind == OpKind::kEvent) {
        adaptive.ObserveEvent(&ctx, op.event);
      } else if (op.kind == OpKind::kSearch && r.phase == traced_phase) {
        const ResultList replayed =
            ReplaySearch(adaptive, ctx, *op.query, config.k, times);
        ++times->compared;
        if (r.ok && RankingHash(replayed.items()) != r.hash) {
          ++times->mismatched;
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                     metrics[i].unit.c_str());
  }
  return out + "}";
}

Result<Options> ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--rate") {
      options.rate_override = std::atof(value.c_str());
    } else if (flag == "--inject-delay-us") {
      options.inject_delay_us = std::atoll(value.c_str());
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
  }
  if (options.seconds < 1 || options.seconds > 600) {
    return Status::InvalidArgument("--seconds must be in [1, 600]");
  }
  return options;
}

int Run(const Options& options) {
  Result<WorkloadConfig> config_or = ConfigFor(options.workload);
  if (!config_or.ok()) {
    std::fprintf(stderr, "%s\n", config_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadConfig config = *config_or;
  // The program's threads inherit the main thread's CPUs; the senders pin
  // themselves (RunPhase).
  const std::vector<int> pinned_cpus = PinnedCpus(config);
  PinThread(CpusOf(config.program_cpus));
  auto poller = std::make_unique<IdlePoller>(pinned_cpus);
  auto program_cpu_s = [&poller] {
    return CpuSeconds() - poller->CpuSeconds();
  };
  const double rate =
      options.rate_override > 0 ? options.rate_override : config.rate;
  const std::string load_before = LoadAverage();
  const CpuTimes cpu_times_before = CpuTimes::Read(pinned_cpus);
  std::filesystem::create_directories(options.work_dir);

  Hooks hooks;
  hooks.inject_delay_us = options.inject_delay_us;

  // Set up several times; report the median, serve from the last.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    stack.reset();
    const int64_t t0 = MonoNs();
    Result<std::unique_ptr<Stack>> built =
        BuildStack(config, options, &hooks, attempt);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back((MonoNs() - t0) / 1e9);
    stack = std::move(built).value();
  }
  std::sort(setup_s.begin(), setup_s.end());
  const double setup_median = setup_s[setup_s.size() / 2];
  std::printf("workload %s: %zu shots served after set-up\n",
              config.name.c_str(),
              stack->live ? stack->live->Acquire()->num_shots()
                          : stack->collection->collection.num_shots());

  OpFactory factory;
  factory.config = &config;
  factory.pool = &stack->pool;
  factory.zipf = stack->zipf.get();
  factory.collection = stack->collection;

  const net::HttpServerStats server_before =
      stack->server ? stack->server->stats() : net::HttpServerStats();
  std::unique_ptr<IngestWriter> writer;
  if (stack->live) {
    writer = std::make_unique<IngestWriter>(stack->live.get(),
                                            stack->stream.get());
    writer->Start();
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto account = [&](const PhaseStats& p) {
    attempted += p.ops;
    failed += p.failed;
  };

  // Phase 0 warms caches and lazy state; it is issued and checked but not
  // measured.
  account(RunPhase(stack.get(), factory, 0, kWarmupSeconds, rate, true, false,
                   options.seed));

  PhaseStats open_phase;
  PhaseStats second_phase;
  double cpu_s = 0;
  RegistryView reg_before;
  RegistryView reg_after;
  ResultCacheStats cache_before;
  ResultCacheStats cache_after;
  std::vector<obs::TraceEvent> events;
  constexpr uint8_t kOpenPhase = 1;
  constexpr uint8_t kSecondPhase = 2;
  if (!options.trace) {
    const double cpu0 = program_cpu_s();
    open_phase = RunPhase(stack.get(), factory, kOpenPhase,
                          options.seconds * 0.65, rate, true, false,
                          options.seed);
    cpu_s = program_cpu_s() - cpu0;
    second_phase = RunPhase(stack.get(), factory, kSecondPhase,
                            options.seconds * 0.35, rate, false, false,
                            options.seed);
  } else {
    const double cpu0 = program_cpu_s();
    open_phase = RunPhase(stack.get(), factory, kOpenPhase,
                          options.seconds * 0.5, rate, true, false,
                          options.seed);
    cpu_s = program_cpu_s() - cpu0;
    reg_before = RegistryView::Take();
    cache_before = stack->cache->Stats();
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Enable(1u << 16);
    std::atomic<bool> done{false};
    std::thread drainer([&] {
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::vector<obs::TraceEvent> batch = recorder.Drain();
        events.insert(events.end(), std::make_move_iterator(batch.begin()),
                      std::make_move_iterator(batch.end()));
      }
    });
    second_phase = RunPhase(stack.get(), factory, kSecondPhase,
                            options.seconds * 0.5, rate, true, true,
                            options.seed);
    reg_after = RegistryView::Take();
    cache_after = stack->cache->Stats();
    done.store(true);
    drainer.join();
    std::vector<obs::TraceEvent> rest = recorder.Drain();
    events.insert(events.end(), std::make_move_iterator(rest.begin()),
                  std::make_move_iterator(rest.end()));
    if (recorder.dropped() > 0) {
      std::fprintf(stderr, "warning: %llu trace events dropped\n",
                   static_cast<unsigned long long>(recorder.dropped()));
    }
    recorder.Disable();
  }
  account(open_phase);
  account(second_phase);

  WriterStats writer_stats;
  if (writer) {
    writer->Stop();
    writer_stats = writer->stats();
    attempted += writer_stats.ops;
    failed += writer_stats.failed;
  }
  const double peak_rss_mb = PeakRssMb();
  const net::HttpServerStats server_after =
      stack->server ? stack->server->stats() : net::HttpServerStats();

  // Output checks: a wrong answer is a failed op. They are not timed, so
  // they may use every CPU.
  poller.reset();
  PinThread(Allowed());
  Result<uint64_t> wrong = uint64_t{0};
  std::shared_ptr<const EngineSnapshot> final_snapshot;
  if (stack->live) {
    final_snapshot = stack->live->Acquire();
    wrong = CheckAgainstMonolithic(*final_snapshot,
                                   stack->live->ExportCollection(),
                                   stack->pool, config.k);
    attempted += stack->pool.size();
  } else {
    wrong = CheckAgainstReference(config, factory, *stack);
  }
  bool checked = wrong.ok();
  if (checked) {
    failed += *wrong;
  } else {
    std::printf("error: output check could not run: %s\n",
                wrong.status().ToString().c_str());
  }

  std::vector<Metric> metrics;
  const std::string load_after = LoadAverage();
  const double steal_ratio =
      CpuTimes::Read(pinned_cpus).StealSince(cpu_times_before);
  const uint64_t searches_open = open_phase.search.size();

  // The tail and write latencies of the untraced open loop. Publishes are
  // too few to window: their quantiles are whole-phase.
  std::vector<int64_t> write_ns;
  double write_p50 = 0;
  double write_p90 = 0;
  const char* write_kind = stack->live ? "publish" : "feedback";
  if (stack->live) {
    for (const auto& [due, latency] : writer_stats.publishes) {
      if (due >= open_phase.start_ns && due < open_phase.end_ns) {
        write_ns.push_back(latency);
      }
    }
    write_p50 = QuantileUs(write_ns, 0.50);
    write_p90 = QuantileUs(write_ns, 0.90);
  } else {
    write_ns = Latencies(open_phase.event);
    write_p50 = open_phase.QuietQuantileUs(open_phase.event, 0.50);
    write_p90 = open_phase.QuietQuantileUs(open_phase.event, 0.90);
  }
  const double search_p99 = open_phase.QuietQuantileUs(open_phase.search, 0.99);
  std::printf("workload %s: %llu searches, %zu %s writes in the open-loop "
              "phase at %.0f ops/s offered\n",
              config.name.c_str(),
              static_cast<unsigned long long>(searches_open), write_ns.size(),
              write_kind, rate);
  if (searches_open < 1000 || write_ns.size() < 100) {
    std::printf("warning: too few samples for p99 / p90\n");
  }
  // Windows that lost more are left out of the figures, but a phase that
  // lost this much throughout was measured on a loaded host.
  constexpr double kLoadedSteal = 0.05;
  if (open_phase.Steal() > kLoadedSteal || second_phase.Steal() > kLoadedSteal) {
    std::printf("warning: %.1f%% / %.1f%% of CPU time stolen in the measured "
                "phases; figures are not comparable with a quiet host's\n",
                100 * open_phase.Steal(), 100 * second_phase.Steal());
  }

  if (!options.trace) {
    metrics = {
        {"setup_s", setup_median, "s"},
        {"search_p50_us",
         open_phase.QuietQuantileUs(open_phase.search, 0.50),
         "us"},
        {"max_ops_s", second_phase.QuietRate(), "ops/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    // Tails and writes swing several-fold with CPU stolen by other guests
    // of a shared host, so they are reported here and among the per-layer
    // metrics, without a regression bound.
    std::printf("  %-28s %14.3f us\n  %-28s %14.3f us\n  %-28s %14.3f us\n",
                "search_p99_us", search_p99, "write_p50_us", write_p50,
                "write_p90_us", write_p90);
  } else {
    const SpanBreakdown spans = AnalyzeSpans(
        events, second_phase.traced,
        config.http ? "net.request" : "service.search", config.http);
    ReplayTimes replay;
    if (config.rounds > 0) {
      ReplayScriptSessions(config, factory, *stack, kSecondPhase, &replay);
    } else {
      // ingest_mixed: reopen the directory the run grew, uncached, and
      // replay the traced phase's queries on its final generation.
      Result<GeneratedCollection> base = StandardCollection();
      IngestOptions twin_options;
      twin_options.dir = stack->live->options().dir;
      final_snapshot.reset();
      writer.reset();
      stack->manager.reset();
      stack->live.reset();
      stack->collection = nullptr;  // was the live engine's base
      factory.collection = nullptr;
      Result<std::unique_ptr<LiveEngine>> twin =
          base.ok() ? LiveEngine::Open(std::move(base).value(), twin_options)
                    : Result<std::unique_ptr<LiveEngine>>(base.status());
      if (!twin.ok()) {
        ++failed;
      } else {
        const std::shared_ptr<const EngineSnapshot> snap = (*twin)->Acquire();
        const SessionContext ctx = snap->adaptive->MakeContext("replay", "");
        for (const Slot& served : stack->slots) {
          Slot slot = served.Fresh();
          for (uint8_t phase = 0; phase <= kSecondPhase; ++phase) {
            for (uint32_t i = 0; i < served.phase_ops[phase]; ++i) {
              const Op op = factory.Next(&slot);
              if (phase != kSecondPhase || replay.compared >= 600) continue;
              ReplaySearch(*snap->adaptive, ctx, *op.query, config.k, &replay);
              ++replay.compared;
            }
          }
        }
      }
    }
    failed += replay.mismatched;

    auto self = [&](const std::string& name) {
      auto it = spans.self_us.find(name);
      return it == spans.self_us.end() ? 0.0 : it->second;
    };
    auto span_mean = [&](const std::string& name) {
      auto it = spans.span_mean_us.find(name);
      return it == spans.span_mean_us.end() ? 0.0 : it->second;
    };
    double self_sum = 0;
    double self_other = 0;
    for (const auto& [name, v] : spans.self_us) {
      self_sum += v;
      if (name != "net.request" && name != "net.handler" &&
          name != "service.search" && name != "service.resolve" &&
          name != "adaptive.search") {
        self_other += v;
      }
    }
    const double request_us = span_mean("net.request");
    const double handler_us = span_mean("net.handler");
    const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    const double searches_traced = static_cast<double>(
        CounterDelta(reg_before, reg_after, "adaptive.searches"));
    metrics = {
        {"driver.late_ratio",
         Ratio(open_phase.late, open_phase.ops), "ratio"},
        {"driver.late_p99_us", QuantileUs(open_phase.late_ns, 0.99), "us"},
        {"open.search_p99_us", search_p99, "us"},
        {"open.write_p50_us", write_p50, "us"},
        {"open.write_p90_us", write_p90, "us"},
        {"net.request_us", request_us, "us"},
        {"net.handler_us", handler_us, "us"},
        {"net.transport_us", request_us - handler_us, "us"},
        {"net.errors",
         static_cast<double>(
             (server_after.parse_errors - server_before.parse_errors) +
             (server_after.responses_4xx - server_before.responses_4xx) +
             (server_after.responses_5xx - server_before.responses_5xx)),
         "count"},
        {"service.search_us", span_mean("service.search"), "us"},
        {"service.lock_wait_us",
         HistogramMean(reg_before, reg_after, "service.shard_lock_wait_us"),
         "us"},
        {"service.resolve_us", span_mean("service.resolve"), "us"},
        {"adaptive.search_us",
         HistogramMean(reg_before, reg_after, "adaptive.search_us"), "us"},
        {"adaptive.expanded_ratio",
         Ratio(static_cast<double>(CounterDelta(reg_before, reg_after,
                                                "adaptive.feedback_expansions")),
               searches_traced),
         "ratio"},
        {"adaptive.expand_us", MeanUs(replay.expand_ns), "us"},
        {"adaptive.rerank_us", MeanUs(replay.rerank_ns), "us"},
        {"retrieval.text_us", MeanUs(replay.text_ns), "us"},
        {"retrieval.visual_us", MeanUs(replay.visual_ns), "us"},
        {"retrieval.fuse_us", MeanUs(replay.fuse_ns), "us"},
        {"index.postings_per_query",
         Ratio(static_cast<double>(CounterDelta(reg_before, reg_after,
                                                "searcher.postings_scanned")),
               static_cast<double>(
                   CounterDelta(reg_before, reg_after, "searcher.queries"))),
         "count"},
        {"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"cache.lookup_us",
         HistogramMean(reg_before, reg_after, "cache.lookup_us"), "us"},
        {"ingest.append_us", span_mean("ingest.append"), "us"},
        {"ingest.merge_us",
         HistogramMean(reg_before, reg_after, "ingest.merge_us"), "us"},
        {"ingest.merges",
         static_cast<double>(CounterDelta(reg_before, reg_after, "ingest.merges")),
         "count"},
        {"ingest.shards_per_search",
         Ratio(static_cast<double>(hooks.shard_sum.load()),
               static_cast<double>(hooks.shard_count.load())),
         "count"},
        {"proc.cpu_us_per_op",
         Ratio(cpu_s * 1e6 - open_phase.spin_ns / 1e3, open_phase.ops), "us"},
        {"trace.overhead_ratio",
         Ratio(MeanUs(Latencies(second_phase.search)),
               MeanUs(Latencies(open_phase.search))),
         "ratio"},
        {"trace.search_e2e_us", spans.e2e_us, "us"},
        {"self.wait_us", spans.wait_us, "us"},
        {"self.net.request_us", self("net.request"), "us"},
        {"self.net.handler_us", self("net.handler"), "us"},
        {"self.service.search_us", self("service.search"), "us"},
        {"self.service.resolve_us", self("service.resolve"), "us"},
        {"self.adaptive.search_us", self("adaptive.search"), "us"},
        {"self.other_us", self_other, "us"},
        {"trace.accounted_ratio",
         Ratio(spans.wait_us + self_sum, spans.e2e_us), "ratio"},
        {"trace.replay_compared", static_cast<double>(replay.compared),
         "count"},
        {"trace.unlinked", static_cast<double>(spans.unlinked), "count"},
        {"trace.bad_spans", static_cast<double>(spans.bad_spans), "count"},
    };
    std::printf("workload %s traced: %zu searches analysed, %zu spans\n",
                config.name.c_str(), spans.searches, events.size());
    // The breakdown holds only if nearly every traced search was linked
    // end to end and every span lay inside its parent; then the self times
    // and the wait must account for the end-to-end figure.
    const double accounted = Ratio(spans.wait_us + self_sum, spans.e2e_us);
    if (spans.searches == 0 ||
        spans.unlinked > second_phase.traced.size() / 100 ||
        spans.bad_spans > 0 || accounted < 0.9 || accounted > 1.1) {
      std::printf("error: span breakdown invalid: %zu of %zu traced searches "
                  "unlinked, %zu spans outside their parent, self times + "
                  "wait account for %.3f of the traced search latency\n",
                  spans.unlinked, second_phase.traced.size(), spans.bad_spans,
                  accounted);
      checked = false;
    }
  }

  const bool correct = checked && failed == 0;
  std::printf("  search from send: p50 %.1f us, p99 %.1f us; late p50 %.1f "
              "us, p99 %.1f us\n",
              QuantileUs(open_phase.search_service_ns, 0.5),
              QuantileUs(open_phase.search_service_ns, 0.99),
              QuantileUs(open_phase.late_ns, 0.5),
              QuantileUs(open_phase.late_ns, 0.99));
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %14.6f ratio (%llu failed of %llu attempted)\n",
              "error_ratio", Ratio(failed, attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf(
      "{\"host\": {\"nproc\": %ld, \"pinned_cpus\": %s, "
      "\"loadavg_before\": %s, "
      "\"loadavg_after\": %s, \"cpu_steal_ratio\": %.4f, "
      "\"open_steal_ratio\": %.4f, \"closed_steal_ratio\": %.4f, "
      "\"build_type\": \"%s\", \"commit\": %s, "
      "\"seed\": %llu, \"workload\": \"%s\", \"trace\": %d, "
      "\"rate\": %.17g, \"inject_delay_us\": %lld}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), CpuList(pinned_cpus).c_str(),
      load_before.c_str(),
      load_after.c_str(), steal_ratio, open_phase.Steal(),
      second_phase.Steal(), PERFBENCH_BUILD_TYPE,
      JsonQuote(options.commit).c_str(),
      static_cast<unsigned long long>(options.seed), config.name.c_str(),
      options.trace ? 1 : 0, rate,
      static_cast<long long>(options.inject_delay_us));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Options> options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  return Run(*options);
}
