#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <stdexcept>
#include <thread>

#include "src/common/random.h"
#include "src/core/join_mi.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/router.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/coordinator.h"
#include "src/ingest/delta_shard_client.h"
#include "src/sketch/sketch_join.h"
#include "src/table/table.h"

namespace perfbench {
namespace {

using joinmi::Column;
using joinmi::ColumnPairRef;
using joinmi::JoinMIConfig;
using joinmi::JoinMIQuery;
using joinmi::Result;
using joinmi::Rng;
using joinmi::Router;
using joinmi::SearchSpec;
using joinmi::ShardQueryMode;
using joinmi::SketchIndex;
using joinmi::Status;
using joinmi::Table;
using joinmi::TopKSearchResult;

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(*result);
}

constexpr size_t kTopK = 10;
constexpr uint64_t kSignalClasses = 16;
const SearchSpec kSpec{"K", "Y"};

JoinMIConfig BenchConfig(size_t capacity, bool categorical) {
  JoinMIConfig config;
  config.sketch_capacity = capacity;
  config.min_join_size = 32;
  // A string feature is aggregated to its most frequent value per key.
  if (categorical) config.aggregation = joinmi::AggKind::kMode;
  return config;
}

/// What one workload deploys. Counts are per run; see README.md for why
/// each workload has the shape it has.
struct Params {
  size_t candidates = 0;
  size_t candidate_rows = 0;
  size_t universe = 0;  ///< distinct join keys shared by every table
  size_t shards = 4;
  joinmi::ShardFileFormat format = joinmi::ShardFileFormat::kWholeFile;
  bool rpc = false;
  size_t router_threads = 1;
  size_t pool_pages = 0;  ///< 0 = the serving default
  size_t max_pending = 0;
  /// Highest JMRP version the router offers; 0 = the serving default.
  uint32_t max_protocol_version = 0;
  /// String targets and values (the MLE estimator) instead of integer
  /// ones (MixedKSG, about ten times the scoring cost per candidate).
  bool categorical = false;
  /// Sketch entries per table: large enough that every candidate joins
  /// the base sketch on at least min_join_size keys.
  size_t sketch_capacity = 512;
  /// Set-ups per run; set-up time is their median.
  size_t setup_repeats = 5;
};

// ------------------------------------------------------------------ data

std::vector<uint32_t> DrawKeys(size_t rows, size_t universe, Rng* rng) {
  std::vector<uint32_t> keys(rows);
  for (uint32_t& k : keys) k = static_cast<uint32_t>(rng->NextBounded(universe));
  return keys;
}

std::shared_ptr<Column> KeyColumn(const std::vector<uint32_t>& keys) {
  std::vector<std::string> names;
  names.reserve(keys.size());
  for (uint32_t k : keys) names.push_back("key" + std::to_string(k));
  return Column::MakeString(std::move(names));
}

std::string CandidateName(uint64_t t) { return "cand" + std::to_string(t); }

/// An integer column, or the same values as strings.
std::shared_ptr<Column> ValueColumn(std::vector<int64_t> values,
                                    bool categorical) {
  if (!categorical) return Column::MakeInt64(std::move(values));
  std::vector<std::string> names;
  names.reserve(values.size());
  for (int64_t v : values) names.push_back("v" + std::to_string(v));
  return Column::MakeString(std::move(names));
}

/// Candidate t carries the base target's signal plus noise that grows
/// with t, so the top-k ranking is not a tie.
std::shared_ptr<Table> CandidateTable(size_t rows, size_t universe,
                                      bool categorical, uint64_t t, Rng* rng) {
  std::vector<uint32_t> keys = DrawKeys(rows, universe, rng);
  std::vector<int64_t> values(rows);
  const uint64_t noise = 1 + t % 24;
  for (size_t i = 0; i < rows; ++i) {
    values[i] = static_cast<int64_t>(keys[i] % kSignalClasses +
                                     rng->NextBounded(noise));
  }
  return Take(Table::FromColumns({{"K", KeyColumn(keys)},
                                  {"V", ValueColumn(std::move(values),
                                                    categorical)}}),
              "building a candidate table");
}

/// Key column shared by many base tables.
struct BaseKeys {
  std::vector<uint32_t> keys;
  std::shared_ptr<Column> column;
};

BaseKeys MakeBaseKeys(size_t rows, size_t universe, Rng* rng) {
  BaseKeys base;
  base.keys = DrawKeys(rows, universe, rng);
  base.column = KeyColumn(base.keys);
  return base;
}

/// A base table whose target depends on `variant`: another variant is
/// another table with another sketch, at the sketching cost of the same
/// key column. The same (keys, variant) always gives the same table.
std::shared_ptr<Table> BaseTable(const BaseKeys& base, uint64_t variant,
                                 bool categorical) {
  Rng rng(variant * 0x9E3779B97F4A7C15ULL + 0x5EED);
  std::vector<int64_t> y(base.keys.size());
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<int64_t>(base.keys[i] % kSignalClasses +
                                rng.NextBounded(3));
  }
  return Take(Table::FromColumns(
                  {{"K", base.column},
                   {"Y", ValueColumn(std::move(y), categorical)}}),
              "building a base table");
}

// ------------------------------------------------------------ deployment

struct SetupTimes {
  double generate_s = 0;
  double sketch_s = 0;
  double index_s = 0;
  double shard_write_s = 0;
  double serve_start_s = 0;
  double total() const {
    return generate_s + sketch_s + index_s + shard_write_s + serve_start_s;
  }
};

/// Everything one run queries: the reference index, the shard files, the
/// in-process shard servers (RPC workloads) and the router in front.
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    router.reset();  // closes RPC connections before the servers stop
    for (auto& server : servers) server->Stop();
    servers.clear();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }

  std::string dir;
  JoinMIConfig config;
  /// Unsharded index over the same candidates in the same global order —
  /// the correctness reference.
  std::unique_ptr<SketchIndex> reference;
  std::vector<std::unique_ptr<joinmi::ShardServer>> servers;
  std::unique_ptr<Router> router;
  SetupTimes times;
  std::vector<double> add_us;        ///< per SketchIndex::AddSketch, in order
  std::vector<double> candidate_ms;  ///< per JoinMIQuery::SketchCandidate
};

/// A handle for JoinMIQuery::SketchCandidate, which only reads the config.
JoinMIQuery Sketcher(const JoinMIConfig& config) {
  Rng rng(7);
  BaseKeys keys = MakeBaseKeys(64, 64, &rng);
  return Take(JoinMIQuery::Create(*BaseTable(keys, 0, false), "K", "Y",
                                  config),
              "creating the candidate sketcher");
}

/// Generates, sketches, indexes, writes and serves one deployment,
/// timing each phase. `generate_extra` makes the workload's base tables
/// inside the generate phase.
std::unique_ptr<Deployment> Build(const Params& params, uint64_t seed,
                                  const std::string& dir,
                                  const std::function<void(Rng*)>& generate_extra) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  d->config = BenchConfig(params.sketch_capacity, params.categorical);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(dir);

  Clock::time_point phase = Clock::now();
  auto next_phase = [&phase](double* seconds) {
    const Clock::time_point now = Clock::now();
    *seconds = MsBetween(phase, now) / 1e3;
    phase = now;
  };

  Rng rng(seed * 0xD1B54A32D192ED03ULL + 17);
  std::vector<std::shared_ptr<Table>> tables;
  tables.reserve(params.candidates);
  for (size_t t = 0; t < params.candidates; ++t) {
    tables.push_back(
        CandidateTable(params.candidate_rows, params.universe,
                       params.categorical, t, &rng));
  }
  if (generate_extra) generate_extra(&rng);
  next_phase(&d->times.generate_s);

  const JoinMIQuery sketcher = Sketcher(d->config);
  std::vector<joinmi::Sketch> sketches;
  sketches.reserve(tables.size());
  for (const auto& table : tables) {
    const Clock::time_point start = Clock::now();
    sketches.push_back(Take(sketcher.SketchCandidate(*table, "K", "V"),
                            "sketching a candidate"));
    d->candidate_ms.push_back(MsSince(start));
  }
  tables.clear();
  next_phase(&d->times.sketch_s);

  d->reference = std::make_unique<SketchIndex>(d->config);
  for (size_t t = 0; t < sketches.size(); ++t) {
    const Clock::time_point start = Clock::now();
    Check(d->reference->AddSketch(ColumnPairRef{CandidateName(t), "K", "V"},
                                  std::move(sketches[t])),
          "adding a candidate sketch");
    d->add_us.push_back(MsSince(start) * 1e3);
  }
  next_phase(&d->times.index_s);

  joinmi::ShardBuildOptions build;
  build.format = params.format;
  Take(joinmi::BuildShards(*d->reference, params.shards,
                           joinmi::ShardPartitionPolicy::kRoundRobin, dir,
                           build),
       "writing shards");
  next_phase(&d->times.shard_write_s);

  joinmi::RouterOptions options;
  options.manifest_path = dir;
  options.num_threads = params.router_threads;
  options.max_pending = params.max_pending;
  if (params.pool_pages > 0) options.serving.pool_pages = params.pool_pages;
  if (params.max_protocol_version > 0) {
    options.serving.max_protocol_version = params.max_protocol_version;
  }
  if (params.rpc) {
    for (size_t s = 0; s < params.shards; ++s) {
      joinmi::ShardServerOptions server_options;
      server_options.num_workers = 1;
      server_options.eval_threads = 1;
      auto server = Take(joinmi::ShardServer::Create(dir, s, server_options),
                         "creating a shard server");
      Check(server->Start(), "starting a shard server");
      options.replica_endpoints.push_back(
          {joinmi::ShardEndpoint{"127.0.0.1", server->port()}});
      d->servers.push_back(std::move(server));
    }
  }
  d->router = Take(Router::Open(std::move(options)), "opening the router");
  next_phase(&d->times.serve_start_s);
  return d;
}

/// Ends a run's use of its deployment: destroys it, builds the same
/// deployment `params.setup_repeats - 1` more times, and reports set-up
/// time as the median over all builds — `setup_s`, or in a traced run the
/// phases of that same median build. The extra builds come after the
/// measured window so they leave no garbage behind for it (or for
/// `peak_rss_mb`, read before this).
void ReportSetup(const Params& params, uint64_t seed,
                 const std::function<void(Rng*)>& generate_extra,
                 std::unique_ptr<Deployment> d, bool trace,
                 RunReport* report) {
  const std::string dir = d->dir;
  std::vector<SetupTimes> repeats = {d->times};
  d.reset();
  while (repeats.size() < params.setup_repeats) {
    repeats.push_back(Build(params, seed, dir, generate_extra)->times);
  }
  std::sort(repeats.begin(), repeats.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total() < b.total();
            });
  const SetupTimes& median = repeats[(repeats.size() - 1) / 2];
  MetricSet& m = report->metrics;
  if (!trace) {
    m.Set("setup_s", median.total(), "s");
  } else {
    m.Set("setup.generate_s", median.generate_s, "s");
    m.Set("setup.sketch_s", median.sketch_s, "s");
    m.Set("setup.index_s", median.index_s, "s");
    m.Set("setup.shard_write_s", median.shard_write_s, "s");
    m.Set("setup.serve_start_s", median.serve_start_s, "s");
  }
  report->record.emplace_back("setup_repeats", std::to_string(repeats.size()));
}

// ----------------------------------------------------------- correctness

bool SameAnswer(const TopKSearchResult& a, const TopKSearchResult& b) {
  if (a.hits.size() != b.hits.size() || !a.shard_failures.empty() ||
      !b.shard_failures.empty()) {
    return false;
  }
  for (size_t i = 0; i < a.hits.size(); ++i) {
    const joinmi::SearchHit& x = a.hits[i];
    const joinmi::SearchHit& y = b.hits[i];
    if (x.candidate.table_name != y.candidate.table_name ||
        x.candidate.key_column != y.candidate.key_column ||
        x.candidate.value_column != y.candidate.value_column ||
        x.estimate.sample_size != y.estimate.sample_size ||
        x.estimate.estimator != y.estimate.estimator ||
        std::memcmp(&x.estimate.mi, &y.estimate.mi, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// One sampled answer, checked after the measured window.
struct Sample {
  uint64_t base = 0;   ///< identifies the base table
  uint64_t epoch = 0;  ///< manifest epoch the answer was computed at
  TopKSearchResult result;
};

class SampleSet {
 public:
  explicit SampleSet(size_t cap) : cap_(cap) {}
  void Add(uint64_t base, uint64_t epoch, const TopKSearchResult& result) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.size() < cap_) samples_.push_back({base, epoch, result});
  }
  std::vector<Sample> Drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(samples_);
  }

 private:
  const size_t cap_;
  std::mutex mutex_;
  std::vector<Sample> samples_;
};

/// Counts samples whose answer differs from `reference`'s answer to the
/// same base table, checking on up to four threads.
size_t CountMismatches(
    const std::vector<Sample>& samples, const SketchIndex& reference,
    const std::function<std::shared_ptr<Table>(uint64_t)>& base_of) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  auto work = [&] {
    for (size_t i = next++; i < samples.size(); i = next++) {
      const Sample& sample = samples[i];
      auto query = JoinMIQuery::Create(*base_of(sample.base), kSpec.base_key,
                                       kSpec.base_target, reference.config());
      bool same = false;
      if (query.ok()) {
        auto expected =
            reference.SearchQuery(*query, kTopK, 1, ShardQueryMode::kStrict);
        same = expected.ok() && SameAnswer(sample.result, *expected);
      }
      if (!same) ++mismatches;
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min<size_t>(4, samples.size()); ++t) {
    threads.emplace_back(work);
  }
  for (std::thread& t : threads) t.join();
  return mismatches.load();
}

// --------------------------------------------------------------- tracing

/// Harness-side copies of every shard's index, for re-executing the calls
/// the router makes internally on the same input.
struct ShardCopies {
  std::vector<SketchIndex> probe;  ///< SketchIndex::EvaluateAll target
  std::vector<std::unique_ptr<joinmi::LocalShardClient>> local;
};

ShardCopies LoadShardCopies(const Router& router, const std::string& dir) {
  ShardCopies copies;
  const joinmi::ShardManifest& manifest = router.index().manifest();
  for (const joinmi::ShardManifestEntry& entry : manifest.shards) {
    const std::string path = dir + "/" + entry.path;
    copies.probe.push_back(
        Take(joinmi::ReadIndexFile(path), "reading a shard copy"));
    copies.local.push_back(Take(
        joinmi::LocalShardClient::Create(
            Take(joinmi::ReadIndexFile(path), "reading a shard copy"),
            entry.global_indices),
        "wrapping a shard copy"));
  }
  return copies;
}

/// Spans of one traced query plus its answer.
struct TracedQuery {
  Result<TopKSearchResult> result = Status::UnknownError("not run");
  std::optional<JoinMIQuery> query;
  uint64_t search_span = 0;
};

/// The query path split at its public seams: JoinMIQuery::Create, then
/// SerializedTrainSketch, then Router::SearchQuery — what Router::Search
/// does in one call. Sampled answers of both paths are checked against
/// the same reference, so both give the same answer.
TracedQuery RunTracedQuery(const Router& router, const Table& base,
                           Tracer* tracer, uint64_t request) {
  TracedQuery traced;
  ScopedSpan root(tracer, "query", 0, request);
  {
    ScopedSpan span(tracer, "sketch.train", root.id(), request);
    auto query = JoinMIQuery::Create(base, kSpec.base_key, kSpec.base_target,
                                     router.search_config());
    if (!query.ok()) {
      traced.result = query.status();
      return traced;
    }
    traced.query.emplace(std::move(*query));
  }
  {
    ScopedSpan span(tracer, "core.serialize", root.id(), request);
    traced.query->SerializedTrainSketch();
  }
  ScopedSpan span(tracer, "discovery.router.search", root.id(), request);
  traced.search_span = span.id();
  traced.result = router.SearchQuery(*traced.query, kTopK, 0,
                                     ShardQueryMode::kStrict);
  return traced;
}

/// Re-executes, on the same query, the calls Router::SearchQuery makes
/// inside itself: the fan-out and each shard's search through the
/// router's own clients; then, on the harness copies of every shard, the
/// in-process search and SketchIndex::EvaluateAll; and on the slowest
/// shard's copy the per-candidate join and score. Spans are marked
/// re-executed and carry their shard in `detail`. `copies` is null where
/// shard files cannot be copied (paged shards under delta overlays).
void ReexecuteInner(const joinmi::ShardedSketchIndex& index,
                    size_t fanout_threads, const ShardCopies* copies, bool rpc,
                    const JoinMIQuery& query, Tracer* tracer, uint64_t parent,
                    uint64_t request) {
  auto span = [&](const char* name, size_t shard) {
    auto s = std::make_unique<ScopedSpan>(tracer, name, parent, request, true);
    s->set_detail(static_cast<int64_t>(shard));
    return s;
  };
  {
    ScopedSpan fanout(tracer, "discovery.fanout.search", parent, request,
                      true);
    (void)index.SearchQuery(query, kTopK, fanout_threads,
                            ShardQueryMode::kStrict);
  }
  size_t slowest = 0;
  double slowest_ms = -1;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const Clock::time_point start = Clock::now();
    {
      auto timed = span(rpc ? "net.rpc_roundtrip" : "discovery.fanout.shard", s);
      (void)index.client(s).Search(query, kTopK, 1);
    }
    const double ms = MsSince(start);
    if (ms > slowest_ms) {
      slowest_ms = ms;
      slowest = s;
    }
  }
  if (copies == nullptr) return;
  for (size_t s = 0; s < copies->probe.size(); ++s) {
    if (rpc) {
      auto timed = span("discovery.shard.local", s);
      (void)copies->local[s]->Search(query, kTopK, 1);
    }
    const SketchIndex& shard = copies->probe[s];
    Result<joinmi::IndexEvaluation> evaluation = Status::UnknownError("not run");
    {
      auto timed = span("discovery.probe.evaluate_all", s);
      evaluation = shard.EvaluateAll(query, 1);
    }
    if (!evaluation.ok()) continue;
    tracer->Count("count.candidates", shard.size(), parent, request);
    tracer->Count("count.evaluated", evaluation->num_evaluated, parent,
                  request);
    tracer->Count("count.skipped", evaluation->num_skipped, parent, request);
    tracer->Count("count.errors", evaluation->num_errors, parent, request);
  }
  const SketchIndex& shard = copies->probe[slowest];
  const JoinMIConfig& config = shard.config();
  for (const joinmi::IndexedCandidate& candidate : shard.candidates()) {
    Result<joinmi::SketchJoinResult> joined = Status::UnknownError("not run");
    {
      ScopedSpan timed(tracer, "sketch.join", parent, request, true);
      joined = candidate.prepared.Join(query.train_sketch());
    }
    if (!joined.ok()) continue;
    ScopedSpan timed(tracer, "mi.score", parent, request, true);
    (void)joinmi::ScoreSketchJoinSample(joined->sample, joined->join_size,
                                        config.estimator, config.mi_options,
                                        config.min_join_size);
  }
}

/// Per-layer figures derived from the spans of a traced phase.
/// `parallel_fanout` says whether the router searches its shards at once
/// (the slowest shard is on the critical path) or one after another (all
/// of them are).
void AnalyzeSpans(const std::vector<Span>& spans, bool parallel_fanout,
                  size_t base_rows, RunReport* report) {
  MetricSet* m = &report->metrics;
  const std::vector<double> self = SelfTimesMs(spans);
  struct Request {
    double query = -1, query_self = 0, train = 0, serialize = 0, search = 0;
    double fanout = -1;
    bool rpc = false;
    std::map<int64_t, double> shard, local, probe;
  };
  std::map<uint64_t, Request> requests;
  std::vector<double> join_us, score_us, serialize_us, rtt, wire, probe_ms,
      probe_rate, joined_frac, skipped, errors;
  std::map<uint64_t, std::map<std::string, size_t>> counts;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Request& r = requests[s.request];
    const std::string& n = s.name;
    if (n == "query") {
      r.query = s.ms();
      r.query_self = self[i];
    } else if (n == "sketch.train") {
      r.train = s.ms();
    } else if (n == "core.serialize") {
      r.serialize = s.ms();
      serialize_us.push_back(s.ms() * 1e3);
    } else if (n == "discovery.router.search") {
      r.search = s.ms();
    } else if (n == "discovery.fanout.search") {
      r.fanout = s.ms();
    } else if (n == "discovery.fanout.shard" || n == "net.rpc_roundtrip") {
      r.shard[s.detail] = s.ms();
      r.rpc = n == "net.rpc_roundtrip";
    } else if (n == "discovery.shard.local") {
      r.local[s.detail] = s.ms();
    } else if (n == "discovery.probe.evaluate_all") {
      r.probe[s.detail] = s.ms();
    } else if (n == "sketch.join") {
      join_us.push_back(s.ms() * 1e3);
    } else if (n == "mi.score") {
      score_us.push_back(s.ms() * 1e3);
    } else if (n.rfind("count.", 0) == 0) {
      counts[s.request][n] += static_cast<size_t>(s.detail);
    }
  }
  std::vector<double> query, train, search, shard_max;
  std::vector<double> a_query, a_root, a_train, a_serialize, a_router,
      a_fanout, a_wire, a_shard, a_probe;
  double train_sum = 0, query_sum = 0;
  for (const auto& [id, r] : requests) {
    if (r.query < 0) continue;
    query.push_back(r.query);
    train.push_back(r.train);
    search.push_back(r.search);
    train_sum += r.train;
    query_sum += r.query;
    if (r.fanout < 0 || r.shard.empty()) continue;  // not re-executed
    // Critical path below the fan-out: the slowest shard, or every shard.
    int64_t slowest = r.shard.begin()->first;
    double covered = 0;
    for (const auto& [shard, ms] : r.shard) {
      if (ms > r.shard.at(slowest)) slowest = shard;
      covered += ms;
      if (r.rpc) rtt.push_back(ms);
      if (r.rpc && r.local.count(shard)) wire.push_back(ms - r.local.at(shard));
    }
    shard_max.push_back(r.shard.at(slowest));
    auto path = [&](const std::map<int64_t, double>& per_shard) {
      if (parallel_fanout) {
        auto it = per_shard.find(slowest);
        return it == per_shard.end() ? 0.0 : it->second;
      }
      double sum = 0;
      for (const auto& entry : per_shard) sum += entry.second;
      return sum;
    };
    if (parallel_fanout) covered = r.shard.at(slowest);
    const double local = r.rpc ? path(r.local) : covered;
    const double probe = path(r.probe);
    a_query.push_back(r.query);
    a_root.push_back(r.query_self);
    a_train.push_back(r.train);
    a_serialize.push_back(r.serialize);
    a_router.push_back(r.search - r.fanout);
    a_fanout.push_back(r.fanout - covered);
    a_wire.push_back(covered - local);
    a_shard.push_back(local - probe);
    a_probe.push_back(probe);
    for (const auto& [shard, ms] : r.probe) probe_ms.push_back(ms);
    auto c = counts.find(id);
    if (c != counts.end() && c->second["count.candidates"] > 0) {
      const double candidates = static_cast<double>(c->second["count.candidates"]);
      joined_frac.push_back(c->second["count.evaluated"] / candidates);
      skipped.push_back(static_cast<double>(c->second["count.skipped"]));
      errors.push_back(static_cast<double>(c->second["count.errors"]));
      if (probe > 0) probe_rate.push_back(candidates / probe);
    }
  }
  const double attributed =
      Median(a_root) + Median(a_train) + Median(a_serialize) +
      Median(a_router) + Median(a_fanout) + Median(a_wire) + Median(a_shard) +
      Median(a_probe);
  report->record.emplace_back("traced_queries", std::to_string(query.size()));
  report->record.emplace_back("reexecuted_queries",
                              std::to_string(a_query.size()));
  m->Set("trace.query_ms", Median(query), "ms");
  m->Set("trace.attributed_frac",
         a_query.empty() ? 0.0 : attributed / Median(a_query), "ratio");
  m->Set("sketch.train_ms", Median(train), "ms");
  m->Set("sketch.train_rows_per_ms",
         Median(train) > 0 ? static_cast<double>(base_rows) / Median(train) : 0.0,
         "1/ms");
  m->Set("sketch.train_share", query_sum > 0 ? train_sum / query_sum : 0.0,
         "ratio");
  m->Set("core.serialize_us", Median(serialize_us), "us");
  m->Set("discovery.router.search_ms", Median(search), "ms");
  m->Set("discovery.router.self_ms", Median(a_router), "ms");
  m->Set("discovery.fanout.self_ms", Median(a_fanout), "ms");
  m->Set("discovery.fanout.shard_max_ms", Median(shard_max), "ms");
  m->Set("discovery.shard.self_ms", Median(a_shard), "ms");
  m->Set("discovery.probe.evaluate_all_ms", Median(probe_ms), "ms");
  m->Set("discovery.probe.candidates_per_ms", Median(probe_rate), "1/ms");
  m->Set("discovery.probe.joined_frac", Median(joined_frac), "ratio");
  m->Set("discovery.probe.skipped", Median(skipped), "count");
  m->Set("discovery.probe.errors", Median(errors), "count");
  m->Set("sketch.join_us", Median(join_us), "us");
  m->Set("mi.score_us", Median(score_us), "us");
  m->Set("net.rpc_roundtrip_ms", Median(rtt), "ms");
  m->Set("net.wire_ms", Median(wire), "ms");
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  const std::vector<double> self = SelfTimesMs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"reexecuted\":" << (s.reexecuted ? "true" : "false")
        << ",\"detail\":" << s.detail
        << ",\"self_ms\":" << self[i] << "}\n";
  }
}

// ---------------------------------------------------------- common report

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Latency figures of one measured window.
struct Window {
  std::vector<double> latency_ms;
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors and rejections (mismatches added later)
};

void SetEndToEnd(const Window& w, RunReport* report) {
  const TailPercentile tail = ChooseTailPercentile(w.latency_ms, 99.0);
  report->metrics.Set("query_p50_ms", Median(w.latency_ms), "ms");
  report->metrics.Set("query_p99_ms", tail.value, "ms");
  report->metrics.Set("throughput_qps",
                      w.wall_s > 0 ? static_cast<double>(w.latency_ms.size()) /
                                         w.wall_s
                                   : 0.0,
                      "1/s");
  report->metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  report->record.emplace_back("latency_samples",
                              std::to_string(w.latency_ms.size()));
  report->record.emplace_back("tail_percentile",
                              std::to_string(tail.percentile));
  report->record.emplace_back("samples_beyond_tail",
                              std::to_string(tail.beyond));
}

/// Per-operation set-up figures of the measured deployment.
void SetSetupOps(const Deployment& d, RunReport* report) {
  MetricSet& m = report->metrics;
  m.Set("sketch.candidate_ms", Median(d.candidate_ms), "ms");
  const size_t n = d.add_us.size();
  const size_t decile = std::max<size_t>(1, n / 10);
  std::vector<double> first(d.add_us.begin(), d.add_us.begin() + decile);
  std::vector<double> last(d.add_us.end() - decile, d.add_us.end());
  m.Set("discovery.index_add_us.first_decile", Median(first), "us");
  m.Set("discovery.index_add_us.last_decile", Median(last), "us");
}

/// Every per-layer metric starts at zero, so each workload prints the
/// full set even where a layer does no work.
void ZeroPerLayer(MetricSet* m) {
  for (const auto& [name, unit] : PerLayerMetrics()) m->Set(name, 0.0, unit);
}

/// The router's cache and admission counters at one instant.
struct RouterCounters {
  explicit RouterCounters(const Router& router)
      : cache(router.cache_stats()), rejected(router.admission().rejected()) {}
  joinmi::RouterCacheStats cache;
  uint64_t rejected;
};

/// Cache and admission figures between `before` and now.
void SetCacheLayers(const Router& router, const RouterCounters& before,
                    RunReport* report) {
  const RouterCounters after(router);
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t lookups = hits + after.cache.misses - before.cache.misses;
  report->metrics.Set(
      "discovery.router.cache_hit_frac",
      lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
      "ratio");
  report->metrics.Set("discovery.router.rejected",
                      static_cast<double>(after.rejected - before.rejected),
                      "count");
}

/// Wire size of one query's train sketch.
void SetSketchBytes(const Router& router, const Table& base,
                    RunReport* report) {
  auto query = JoinMIQuery::Create(base, kSpec.base_key, kSpec.base_target,
                                   router.search_config());
  Check(query.status(), "sketching a base table");
  report->metrics.Set("core.sketch_bytes",
                      static_cast<double>(query->SerializedTrainSketch().size()),
                      "bytes");
}

/// Tracing overhead: traced against untraced end-to-end query latency.
void SetTraceOverhead(const Window& untraced, const Window& traced,
                      RunReport* report) {
  MetricSet& m = report->metrics;
  const double base = Median(untraced.latency_ms);
  m.Set("trace.untraced_query_ms", base, "ms");
  m.Set("trace.overhead_frac",
        base > 0 ? Median(traced.latency_ms) / base - 1.0 : 0.0, "ratio");
}

/// Query errors other than admission rejections. Rejections count as
/// failed queries; errors also make the run incorrect.
std::atomic<uint64_t> g_errors{0};

void NoteFailure(const Status& status) {
  if (status.code() == joinmi::StatusCode::kOverloaded) return;
  if (g_errors++ == 0) {
    std::fprintf(stderr, "perfbench: query failed: %s\n",
                 status.ToString().c_str());
  }
}

// ---------------------------------------------------- closed-loop driver

/// Runs `clients` closed-loop clients for `seconds`. `fn(id)` issues query
/// `id` and returns its latency in ms, or a negative value on failure.
template <typename Fn>
Window RunClosedLoop(size_t clients, double seconds, Fn fn) {
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::vector<double>> latencies(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < deadline) {
        const double ms = fn(next++);
        if (ms < 0) {
          ++failed;
        } else {
          latencies[c].push_back(ms);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window w;
  w.wall_s = MsSince(start) / 1e3;
  for (const auto& l : latencies) {
    w.latency_ms.insert(w.latency_ms.end(), l.begin(), l.end());
  }
  w.attempted = next.load();
  w.failed = failed.load();
  return w;
}

// ------------------------------------------------- closed-loop workloads

/// How closed-loop clients make their queries: every query is a
/// never-seen base table over one of `key_pools` shared key columns.
struct ClosedShape {
  size_t clients = 1;
  size_t base_rows = 0;
  size_t key_pools = 1;
  const char* transport = "";
};

/// fresh_large_base and wide_repo_rpc: `shape.clients` closed-loop
/// clients issue Router::Search on fresh base tables (the result cache
/// never hits) for the whole window.
RunReport RunClosedWorkload(const RunOptions& options, const Params& params,
                            const ClosedShape& shape) {
  std::vector<BaseKeys> pools;
  auto generate = [&](Rng* rng) {
    pools.clear();
    for (size_t p = 0; p < shape.key_pools; ++p) {
      pools.push_back(MakeBaseKeys(shape.base_rows, params.universe, rng));
    }
  };
  auto d = Build(params, options.seed, options.work_dir, generate);
  const Router& router = *d->router;
  const uint64_t variant_base = options.seed << 32;
  auto base_of = [&](uint64_t id) {
    return BaseTable(pools[id % pools.size()], variant_base + id,
                     params.categorical);
  };

  RunReport report;
  report.record = {{"loop", "closed"},
                   {"clients", std::to_string(shape.clients)},
                   {"base_rows", std::to_string(shape.base_rows)},
                   {"distinct_keys", std::to_string(params.universe)},
                   {"candidates", std::to_string(params.candidates)},
                   {"candidate_rows", std::to_string(params.candidate_rows)},
                   {"shards", std::to_string(params.shards)},
                   {"router_threads", std::to_string(params.router_threads)},
                   {"sketch_capacity", std::to_string(params.sketch_capacity)},
                   {"values", params.categorical ? "string" : "int64"},
                   {"transport", shape.transport}};

  SampleSet samples(96);
  auto measure = [&](double seconds, Tracer* tracer, ShardCopies* copies,
                     uint64_t id_offset) {
    return RunClosedLoop(shape.clients, seconds, [&](uint64_t n) -> double {
      const uint64_t id = id_offset + n;
      const std::shared_ptr<Table> base = base_of(id);
      const Clock::time_point start = Clock::now();
      Result<TopKSearchResult> result = Status::UnknownError("not run");
      std::optional<JoinMIQuery> query;
      uint64_t search_span = 0;
      if (tracer == nullptr) {
        result = router.Search(*base, kSpec, kTopK);
      } else {
        TracedQuery traced = RunTracedQuery(router, *base, tracer, id + 1);
        result = std::move(traced.result);
        query = std::move(traced.query);
        search_span = traced.search_span;
      }
      const double ms = MsSince(start);
      if (!result.ok()) {
        NoteFailure(result.status());
        return -1;
      }
      if (id % 8 == 0) samples.Add(id, router.epoch(), *result);
      if (tracer != nullptr && id % 4 == 0) {
        ReexecuteInner(router.index(), params.router_threads, copies,
                       params.rpc, *query, tracer, search_span, id + 1);
      }
      return ms;
    });
  };

  if (!options.trace) {
    const Window w = measure(options.seconds, nullptr, nullptr, 0);
    report.attempted = w.attempted;
    report.failed = w.failed;
    SetEndToEnd(w, &report);
  } else {
    ZeroPerLayer(&report.metrics);
    SetSetupOps(*d, &report);
    const RouterCounters before(router);
    const Window untraced = measure(options.seconds / 2, nullptr, nullptr, 0);
    SetCacheLayers(router, before, &report);
    ShardCopies copies = LoadShardCopies(router, d->dir);
    Tracer tracer;
    const Window traced =
        measure(options.seconds / 2, &tracer, &copies, uint64_t{1} << 40);
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    const std::vector<Span> spans = tracer.spans();
    AnalyzeSpans(spans, params.router_threads > 1, shape.base_rows, &report);
    SetSketchBytes(router, *base_of(0), &report);
    WriteSpans(spans, options.trace_path);
    SetTraceOverhead(untraced, traced, &report);
  }
  const std::vector<Sample> checked = samples.Drain();
  const size_t mismatches = CountMismatches(checked, *d->reference, base_of);
  report.record.emplace_back("verified_samples",
                             std::to_string(checked.size()));
  report.failed += mismatches;
  report.correct = mismatches == 0 && g_errors == 0 && !checked.empty();
  ReportSetup(params, options.seed, generate, std::move(d), options.trace,
              &report);
  return report;
}

/// Four clients, each query a never-seen 120k-row base table against 128
/// candidates in four whole-file shards served in-process.
RunReport RunFreshLargeBase(const RunOptions& options) {
  Params params;
  params.candidates = 128;
  params.candidate_rows = 4000;
  params.universe = 4000;
  params.router_threads = 1;
  ClosedShape shape;
  shape.clients = 4;
  shape.base_rows = 120000;
  shape.key_pools = 4;
  shape.transport = "in-process whole-file";
  return RunClosedWorkload(options, params, shape);
}

/// One client, each query a fresh 1k-row base table against 1024
/// candidates behind four loopback shard servers.
RunReport RunWideRepoRpc(const RunOptions& options) {
  Params params;
  params.candidates = 1024;
  params.candidate_rows = 1000;
  params.universe = 1000;
  params.rpc = true;
  params.router_threads = 4;
  // JMRP v2 caches at most 8 uploaded sketches per connection and then
  // rejects every new one ("connection sketch cache is full"), so a
  // stream of fresh base tables fails from its ninth query on. v1 ships
  // the sketch with each request and serves any number of them.
  params.max_protocol_version = 1;
  params.categorical = true;
  params.sketch_capacity = 256;
  params.setup_repeats = 3;  // each set-up takes seconds
  ClosedShape shape;
  shape.clients = 1;
  shape.base_rows = 1000;
  shape.key_pools = 64;
  shape.transport = "loopback rpc whole-file";
  return RunClosedWorkload(options, params, shape);
}

// ---------------------------------------------------- skewed_repeat_ingest

/// Buffer-pool counters summed over the router's paged shards. A shard
/// under a delta overlay is read through its base client; the router's
/// StatsJson() reports only overlay-free paged shards.
joinmi::storage::BufferPoolStats PoolTotals(const Router& router) {
  joinmi::storage::BufferPoolStats total;
  const joinmi::ShardedSketchIndex& index = router.index();
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const joinmi::ShardClient* client = &index.client(s);
    if (const auto* overlay =
            dynamic_cast<const joinmi::ingest::DeltaShardClient*>(client)) {
      client = &overlay->base();
    }
    if (const auto* paged =
            dynamic_cast<const joinmi::PagedShardClient*>(client)) {
      const joinmi::storage::BufferPoolStats stats = paged->pool_stats();
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.evictions += stats.evictions;
    }
  }
  return total;
}

/// Pool counters accumulated across reloads, which replace every shard
/// client (and so restart its counters).
class PoolCounter {
 public:
  void Start(const Router& router) {
    base_ = PoolTotals(router);
    acc_ = {};
  }
  /// Call just before a reload and `Rebase` just after it.
  void Fold(const Router& router) {
    const joinmi::storage::BufferPoolStats now = PoolTotals(router);
    acc_.hits += now.hits - base_.hits;
    acc_.misses += now.misses - base_.misses;
    acc_.evictions += now.evictions - base_.evictions;
  }
  void Rebase(const Router& router) { base_ = PoolTotals(router); }
  const joinmi::storage::BufferPoolStats& totals() const { return acc_; }

 private:
  joinmi::storage::BufferPoolStats base_;
  joinmi::storage::BufferPoolStats acc_;
};

/// Open loop: a Poisson stream of queries over a Zipf-popular hot set of
/// base tables against four paged shards with a small buffer pool, while
/// one writer appends, publishes, reloads and compacts.
RunReport RunSkewedRepeatIngest(const RunOptions& options) {
  Params params;
  params.candidates = 64;
  params.candidate_rows = 2000;
  params.universe = 1000;
  params.sketch_capacity = 256;
  params.format = joinmi::ShardFileFormat::kPaged;
  params.pool_pages = 8;  // about half of one shard's pages
  params.router_threads = 1;
  params.max_pending = 4;  // two workers plus the writer's probe: never full
  // Offered load: about a quarter of what the two workers sustain on a
  // 4-CPU host (430 queries/s when saturated). At half that capacity each
  // reload's burst of cache misses queues long enough that the p99 varied
  // by 19-42% (IQR over median) across seeds; at a quarter, by 13%.
  constexpr double kRate = 100.0;
  constexpr size_t kHot = 16;
  constexpr double kZipfS = 1.1;
  constexpr size_t kBaseRows = 30000;
  constexpr size_t kWorkers = 2;
  constexpr size_t kBatch = 1;
  constexpr size_t kCompactEvery = 4;
  constexpr double kCycleS = 0.5;
  const size_t max_cycles =
      static_cast<size_t>(options.seconds / kCycleS) + 4;

  std::vector<std::shared_ptr<Table>> hot;
  std::vector<std::shared_ptr<Table>> arrivals;  // candidates to ingest
  auto generate = [&](Rng* rng) {
    hot.clear();
    arrivals.clear();
    for (size_t b = 0; b < kHot; ++b) {
      hot.push_back(BaseTable(MakeBaseKeys(kBaseRows, params.universe, rng),
                              (options.seed << 32) + b, false));
    }
    for (size_t i = 0; i < max_cycles * kBatch; ++i) {
      arrivals.push_back(CandidateTable(params.candidate_rows,
                                        params.universe, false,
                                        params.candidates + i, rng));
    }
  };
  auto d = Build(params, options.seed, options.work_dir, generate);
  Router& router = *d->router;
  auto coordinator = Take(joinmi::ingest::IngestCoordinator::Open(d->dir),
                          "opening the ingest coordinator");
  auto base_of = [&](uint64_t b) { return hot[b]; };

  RunReport report;
  report.record = {{"loop", "open"},
                   {"arrival_rate_qps", std::to_string(kRate)},
                   {"dispatchers", "1"},
                   {"workers", std::to_string(kWorkers)},
                   {"hot_bases", std::to_string(kHot)},
                   {"zipf_s", std::to_string(kZipfS)},
                   {"base_rows", std::to_string(kBaseRows)},
                   {"distinct_keys", std::to_string(params.universe)},
                   {"candidates", std::to_string(params.candidates)},
                   {"candidate_rows", std::to_string(params.candidate_rows)},
                   {"shards", std::to_string(params.shards)},
                   {"pool_pages", std::to_string(params.pool_pages)},
                   {"ingest_batch", std::to_string(kBatch)},
                   {"ingest_cycle_s", std::to_string(kCycleS)},
                   {"compact_every", std::to_string(kCompactEvery)},
                   {"transport", "in-process paged"}};

  // What the writer has published: candidates served at each epoch, and
  // the sketches appended after the initial build, in global order. Only
  // the writer touches these until it has been joined.
  std::map<uint64_t, size_t> count_at_epoch = {{router.epoch(),
                                                params.candidates}};
  std::vector<joinmi::Sketch> appended;
  size_t next_arrival = 0;
  // Even while no reload runs; a query that reads the same even value
  // before and after itself answered from the epoch it read.
  std::atomic<uint64_t> reload_seq{0};
  // Re-execution reads router.index(), which a reload replaces.
  std::shared_mutex index_guard;

  std::vector<double> append_ms, publish_ms, reload_ms, compact_ms,
      delta_frac, visible_ms;
  SampleSet samples(256);
  SampleSet writer_samples(1024);
  PoolCounter pool;
  std::atomic<uint64_t> errors{0};
  const JoinMIQuery sketcher = Sketcher(d->config);

  auto reload = [&](uint64_t epoch) {
    pool.Fold(router);
    const Clock::time_point start = Clock::now();
    {
      std::unique_lock<std::shared_mutex> lock(index_guard);
      ++reload_seq;
      Check(router.Reload(), "reloading the router");
      ++reload_seq;
    }
    reload_ms.push_back(MsSince(start));
    pool.Rebase(router);
    if (router.epoch() != epoch) {
      throw std::runtime_error("the router reloaded to an unexpected epoch");
    }
  };

  auto writer = [&](Clock::time_point deadline) {
    const Clock::time_point start = Clock::now();
    for (size_t cycle = 0;; ++cycle) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kCycleS * (cycle + 1)));
      std::this_thread::sleep_until(due);
      if (Clock::now() >= deadline || next_arrival + kBatch > arrivals.size()) {
        return;
      }
      std::vector<joinmi::CandidateRecord> records;
      for (size_t j = 0; j < kBatch; ++j, ++next_arrival) {
        const Clock::time_point t = Clock::now();
        joinmi::Sketch sketch =
            Take(sketcher.SketchCandidate(*arrivals[next_arrival], "K", "V"),
                 "sketching an arriving candidate");
        d->candidate_ms.push_back(MsSince(t));
        records.push_back(joinmi::CandidateRecord{
            ColumnPairRef{CandidateName(params.candidates + next_arrival),
                          "K", "V"},
            sketch});
        appended.push_back(std::move(sketch));
      }
      const Clock::time_point append_start = Clock::now();
      Check(coordinator->Append(records), "appending candidates");
      append_ms.push_back(MsSince(append_start));
      Clock::time_point t = Clock::now();
      const uint64_t epoch =
          Take(coordinator->Publish(), "publishing a generation");
      publish_ms.push_back(MsSince(t));
      count_at_epoch[epoch] = params.candidates + appended.size();
      reload(epoch);
      uint64_t delta_records = 0;
      const joinmi::ShardManifest& manifest = router.index().manifest();
      for (const auto& entry : manifest.shards) delta_records += entry.delta_records;
      delta_frac.push_back(static_cast<double>(delta_records) /
                           static_cast<double>(manifest.total_candidates));
      // Visible: a router query answered at the new epoch.
      auto answer = router.Search(*hot[0], kSpec, kTopK);
      if (answer.ok() && router.epoch() == epoch) {
        visible_ms.push_back(MsSince(append_start));
        writer_samples.Add(0, epoch, *answer);
      } else if (!answer.ok()) {
        NoteFailure(answer.status());
        ++errors;
      }
      if ((cycle + 1) % kCompactEvery == 0) {
        t = Clock::now();
        const uint64_t compacted =
            Take(coordinator->Compact(), "compacting the deployment");
        compact_ms.push_back(MsSince(t));
        count_at_epoch[compacted] = params.candidates + appended.size();
        reload(compacted);
      }
    }
  };

  std::set<std::pair<uint64_t, uint64_t>> answered;  // (base, epoch)
  std::mutex answered_mutex;
  uint64_t phase_seed = options.seed;
  auto measure = [&](double seconds, Tracer* tracer) {
    const std::vector<double> due =
        PoissonSchedule(kRate, seconds, phase_seed * 0x9E37 + 11);
    Rng zipf_rng(phase_seed * 0xC2B2AE3D27D4EB4FULL + 3);
    ++phase_seed;
    std::vector<uint64_t> bases(due.size());
    for (uint64_t& b : bases) b = zipf_rng.Zipf(kHot, kZipfS) - 1;
    std::atomic<uint64_t> failed{0};
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::exception_ptr writer_error;
    std::thread writer_thread([&] {
      try {
        writer(deadline);
      } catch (...) {
        writer_error = std::current_exception();
      }
    });
    OpenLoopResult loop = RunOpenLoop(due, kWorkers, [&](size_t i) {
      const uint64_t b = bases[i];
      const uint64_t seq_before = reload_seq.load();
      const uint64_t epoch = router.epoch();
      Result<TopKSearchResult> result = Status::UnknownError("not run");
      if (tracer == nullptr) {
        result = router.Search(*hot[b], kSpec, kTopK);
      } else {
        TracedQuery traced = RunTracedQuery(router, *hot[b], tracer, i + 1);
        result = std::move(traced.result);
        bool repeat = false;
        {
          std::lock_guard<std::mutex> lock(answered_mutex);
          repeat = !answered.insert({b, epoch}).second;
        }
        // Cache hits have no fan-out to re-execute.
        if (result.ok() && !repeat && i % 8 == 0) {
          std::shared_lock<std::shared_mutex> lock(index_guard);
          ReexecuteInner(router.index(), 1, nullptr, false, *traced.query,
                         tracer, traced.search_span, i + 1);
        }
      }
      const bool settled = reload_seq.load() == seq_before &&
                           seq_before % 2 == 0 && router.epoch() == epoch;
      if (!result.ok()) {
        NoteFailure(result.status());
        ++failed;
      } else if (settled && i % 4 == 0) {
        samples.Add(b, epoch, *result);
      }
    });
    writer_thread.join();
    if (writer_error) std::rethrow_exception(writer_error);

    Window w;
    w.latency_ms = loop.latency_ms;
    w.wall_s = loop.wall_s;
    w.attempted = due.size();
    w.failed = failed.load();
    return std::make_pair(w, loop.lag_ms);
  };

  if (!options.trace) {
    auto [w, lag] = measure(options.seconds, nullptr);
    report.attempted = w.attempted;
    report.failed = w.failed;
    SetEndToEnd(w, &report);
    (void)lag;
  } else {
    ZeroPerLayer(&report.metrics);
    SetSetupOps(*d, &report);
    const RouterCounters before(router);
    pool.Start(router);
    auto [untraced, lag] = measure(options.seconds / 2, nullptr);
    pool.Fold(router);
    SetCacheLayers(router, before, &report);
    const joinmi::storage::BufferPoolStats& totals = pool.totals();
    const uint64_t lookups = totals.hits + totals.misses;
    MetricSet& m = report.metrics;
    m.Set("storage.pool_miss_frac",
          lookups ? static_cast<double>(totals.misses) / lookups : 0.0,
          "ratio");
    m.Set("storage.evictions_per_query",
          static_cast<double>(totals.evictions) /
              std::max<size_t>(1, untraced.latency_ms.size()),
          "count");
    m.Set("loadgen.lag_p99_ms", ChooseTailPercentile(lag, 99.0).value, "ms");
    Tracer tracer;
    auto [traced, traced_lag] = measure(options.seconds / 2, &tracer);
    (void)traced_lag;
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    const std::vector<Span> spans = tracer.spans();
    AnalyzeSpans(spans, false, kBaseRows, &report);
    m.Set("sketch.candidate_ms", Median(d->candidate_ms), "ms");
    m.Set("ingest.append_ms", Median(append_ms), "ms");
    m.Set("ingest.publish_ms", Median(publish_ms), "ms");
    m.Set("ingest.reload_ms", Median(reload_ms), "ms");
    m.Set("ingest.compact_ms", Median(compact_ms), "ms");
    m.Set("ingest.delta_frac", Median(delta_frac), "ratio");
    m.Set("ingest.visible_p50_ms", Median(visible_ms), "ms");
    SetSketchBytes(router, *hot[0], &report);
    WriteSpans(spans, options.trace_path);
    SetTraceOverhead(untraced, traced, &report);
  }
  report.record.emplace_back("publishes", std::to_string(publish_ms.size()));
  report.record.emplace_back("compactions", std::to_string(compact_ms.size()));
  report.record.emplace_back("final_epoch", std::to_string(router.epoch()));

  // Check every sampled answer against an unsharded index holding exactly
  // the candidates published at the answer's epoch.
  std::vector<Sample> checked = samples.Drain();
  for (Sample& s : writer_samples.Drain()) checked.push_back(std::move(s));
  std::map<uint64_t, std::vector<Sample>> by_epoch;
  for (Sample& s : checked) by_epoch[s.epoch].push_back(std::move(s));
  SketchIndex& reference = *d->reference;
  size_t mismatches = 0;
  for (auto& [epoch, group] : by_epoch) {
    const size_t count = count_at_epoch.at(epoch);
    while (reference.size() < count) {
      const size_t g = reference.size();
      Check(reference.AddSketch(ColumnPairRef{CandidateName(g), "K", "V"},
                                appended[g - params.candidates]),
            "extending the reference");
    }
    if (reference.size() != count) {
      throw std::runtime_error("published candidate counts went backwards");
    }
    mismatches += CountMismatches(group, reference, base_of);
  }
  report.record.emplace_back("verified_samples", std::to_string(checked.size()));
  report.record.emplace_back("verified_epochs", std::to_string(by_epoch.size()));
  report.failed += mismatches + errors.load();
  report.attempted += visible_ms.size() + errors.load();
  report.correct = mismatches == 0 && g_errors == 0 && !checked.empty();
  coordinator.reset();
  ReportSetup(params, options.seed, generate, std::move(d), options.trace,
              &report);
  return report;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"sketch.train_ms", "ms"},
      {"sketch.train_rows_per_ms", "1/ms"},
      {"sketch.train_share", "ratio"},
      {"sketch.candidate_ms", "ms"},
      {"sketch.join_us", "us"},
      {"mi.score_us", "us"},
      {"core.serialize_us", "us"},
      {"core.sketch_bytes", "bytes"},
      {"setup.generate_s", "s"},
      {"setup.sketch_s", "s"},
      {"setup.index_s", "s"},
      {"setup.shard_write_s", "s"},
      {"setup.serve_start_s", "s"},
      {"discovery.index_add_us.first_decile", "us"},
      {"discovery.index_add_us.last_decile", "us"},
      {"discovery.router.search_ms", "ms"},
      {"discovery.router.self_ms", "ms"},
      {"discovery.router.cache_hit_frac", "ratio"},
      {"discovery.router.rejected", "count"},
      {"discovery.fanout.shard_max_ms", "ms"},
      {"discovery.fanout.self_ms", "ms"},
      {"discovery.shard.self_ms", "ms"},
      {"discovery.probe.evaluate_all_ms", "ms"},
      {"discovery.probe.candidates_per_ms", "1/ms"},
      {"discovery.probe.joined_frac", "ratio"},
      {"discovery.probe.skipped", "count"},
      {"discovery.probe.errors", "count"},
      {"net.rpc_roundtrip_ms", "ms"},
      {"net.wire_ms", "ms"},
      {"storage.pool_miss_frac", "ratio"},
      {"storage.evictions_per_query", "count"},
      {"ingest.append_ms", "ms"},
      {"ingest.publish_ms", "ms"},
      {"ingest.reload_ms", "ms"},
      {"ingest.compact_ms", "ms"},
      {"ingest.delta_frac", "ratio"},
      {"ingest.visible_p50_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"query.failed_frac", "ratio"},
      {"trace.query_ms", "ms"},
      {"trace.untraced_query_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.attributed_frac", "ratio"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"query_p50_ms", "ms"},   {"query_p99_ms", "ms"},
      {"throughput_qps", "1/s"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fresh_large_base", "wide_repo_rpc", "skewed_repeat_ingest"};
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  if (options.workload == "fresh_large_base") {
    report = RunFreshLargeBase(options);
  } else if (options.workload == "wide_repo_rpc") {
    report = RunWideRepoRpc(options);
  } else if (options.workload == "skewed_repeat_ingest") {
    report = RunSkewedRepeatIngest(options);
  } else {
    throw std::runtime_error("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    report.metrics.Set("query.failed_frac",
                       static_cast<double>(report.failed) /
                           static_cast<double>(std::max<uint64_t>(
                               1, report.attempted)),
                       "ratio");
  }
  // Print exactly the declared set, in declared order.
  std::vector<std::pair<std::string, std::string>> declared =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  MetricSet exact;
  for (const auto& [name, unit] : declared) {
    bool found = false;
    for (const auto& [have, metric] : report.metrics.entries()) {
      if (have == name) {
        exact.Set(name, metric.value, unit);
        found = true;
      }
    }
    if (!found) throw std::runtime_error("metric " + name + " was not measured");
  }
  if (exact.entries().size() != report.metrics.entries().size()) {
    throw std::runtime_error("a measured metric is not declared");
  }
  report.metrics = exact;
  return report;
}

}  // namespace perfbench
