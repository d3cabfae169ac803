#include "src/service/sharded_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "src/service/result_merger.h"
#include "src/storage/wal.h"

namespace pmi {
namespace {

using SteadyClock = std::chrono::steady_clock;

// The SERVICE meta file: the two integers that, with the SplitMix64
// router, fully determine object placement -- enough to reopen a
// durable service with zero routing state per object.  v2 appends a
// CRC32C line over the body so a truncated or bit-flipped meta is a
// typed kDataLoss, never a crash or a bogus router; v1 (no checksum)
// is still accepted on read.
constexpr char kMetaName[] = "SERVICE";
constexpr char kMetaVersionPrefix[] = "pmi-sharded-service v";
constexpr char kMetaBodyFormat[] = "pmi-sharded-service v2\nshards %u\nobjects %u\n";
constexpr char kMetaV1Format[] = "pmi-sharded-service v1\nshards %u\nobjects %u\n";

std::string ShardDirName(const std::string& dir, uint32_t shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%03u", shard);
  return JoinPath(dir, buf);
}

Status WriteMeta(Env* env, const std::string& dir, uint32_t shards,
                 uint32_t objects) {
  char body[96];
  std::snprintf(body, sizeof(body), kMetaBodyFormat, shards, objects);
  char crc_line[24];
  std::snprintf(crc_line, sizeof(crc_line), "crc %08x\n",
                Crc32c(body, std::strlen(body)));
  StatusOr<std::unique_ptr<WritableFile>> file =
      env->NewWritableFile(JoinPath(dir, kMetaName));
  if (!file.ok()) return file.status();
  PMI_RETURN_IF_ERROR((*file)->Append(body));
  PMI_RETURN_IF_ERROR((*file)->Append(crc_line));
  PMI_RETURN_IF_ERROR((*file)->Sync());
  PMI_RETURN_IF_ERROR((*file)->Close());
  return env->SyncDir(dir);
}

Status ReadMeta(Env* env, const std::string& dir, uint32_t* shards,
                uint32_t* objects) {
  StatusOr<std::string> contents =
      env->ReadFileToString(JoinPath(dir, kMetaName));
  if (!contents.ok()) return contents.status();
  if (contents->empty()) {
    return DataLossError("empty SERVICE meta file in " + dir);
  }
  if (contents->rfind(kMetaVersionPrefix, 0) != 0) {
    return DataLossError("unrecognized SERVICE meta header in " + dir);
  }
  char* end = nullptr;
  const long version = std::strtol(
      contents->c_str() + std::strlen(kMetaVersionPrefix), &end, 10);
  if (end == nullptr || *end != '\n') {
    return DataLossError("mangled SERVICE meta version in " + dir);
  }
  if (version != 1 && version != 2) {
    return FailedPreconditionError(
        "SERVICE meta version v" + std::to_string(version) +
        " is not supported by this build (" + dir + ")");
  }
  if (version == 2) {
    // The checksum line covers every byte before it; verify FIRST so a
    // bit-flipped count can never size a router.
    const size_t crc_pos = contents->rfind("crc ");
    if (crc_pos == std::string::npos || crc_pos == 0 ||
        (*contents)[crc_pos - 1] != '\n') {
      return DataLossError("SERVICE meta missing checksum line in " + dir);
    }
    uint32_t stored = 0;
    if (std::sscanf(contents->c_str() + crc_pos, "crc %x", &stored) != 1) {
      return DataLossError("unparsable SERVICE meta checksum in " + dir);
    }
    if (stored != Crc32c(contents->data(), crc_pos)) {
      return DataLossError("SERVICE meta checksum mismatch in " + dir);
    }
    // The checksum line is exactly "crc XXXXXXXX\n" and ends the file;
    // the CRC cannot vouch for bytes after itself, so any slack there
    // (or a clipped digit sscanf happily under-parses) is damage.
    if (contents->size() != crc_pos + 13 || contents->back() != '\n') {
      return DataLossError("malformed SERVICE meta checksum line in " + dir);
    }
    if (std::sscanf(contents->c_str(), kMetaBodyFormat, shards, objects) != 2) {
      return DataLossError("unparsable SERVICE meta body in " + dir);
    }
  } else {
    if (std::sscanf(contents->c_str(), kMetaV1Format, shards, objects) != 2) {
      return DataLossError("unparsable SERVICE meta file in " + dir);
    }
  }
  if (*shards == 0 || *objects == 0 || *shards > *objects) {
    return DataLossError("implausible SERVICE meta (shards=" +
                         std::to_string(*shards) + ", objects=" +
                         std::to_string(*objects) + ") in " + dir);
  }
  return OkStatus();
}

Dataset SplitShard(const Dataset& full, const std::vector<ObjectId>& members) {
  Dataset out = full.kind() == ObjectKind::kVector ? Dataset::Vectors(full.dim())
                                                   : Dataset::Strings();
  for (ObjectId id : members) out.Add(full.view(id));
  return out;
}

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

const char* HealthDetail(ShardHealth h) {
  switch (h) {
    case ShardHealth::kQuarantined:
      return "quarantined after a write fault";
    case ShardHealth::kRecovering:
      return "recovery in progress";
    case ShardHealth::kPinnedReadOnly:
      return "pinned read-only by the circuit breaker";
    default:
      return "unavailable";
  }
}

/// Deadline-budgeted per-shard execution: when a deadline is set, the
/// shard's batch runs in bounded chunks with the budget re-checked
/// between chunks.  Chunking is result-invariant (the PR 5 batch
/// split-invariance guarantee), so merged output is bit-identical to a
/// single-shot query; only the typed-expiry granularity changes.
constexpr size_t kDeadlineChunkQueries = 32;

QueryRequest SliceRequest(const QueryRequest& request, size_t begin,
                          size_t count) {
  QueryRequest sub;
  sub.type = request.type;
  sub.radius = request.radius;
  sub.k = request.k;
  sub.batch.assign(request.batch.begin() + begin,
                   request.batch.begin() + begin + count);
  if (!request.radii.empty()) {
    sub.radii.assign(request.radii.begin() + begin,
                     request.radii.begin() + begin + count);
  }
  if (!request.ks.empty()) {
    sub.ks.assign(request.ks.begin() + begin,
                  request.ks.begin() + begin + count);
  }
  return sub;
}

void AppendChunk(QueryResult* acc, QueryResult&& part) {
  for (auto& v : part.ids) acc->ids.push_back(std::move(v));
  for (auto& v : part.neighbors) acc->neighbors.push_back(std::move(v));
  acc->stats += part.stats;
}

Status CheckAdmissionOptions(const ServiceOptions& sopts) {
  if (sopts.workers < 1) return InvalidArgumentError("workers must be >= 1");
  if (sopts.max_queue < 1) {
    return InvalidArgumentError("max_queue must be >= 1");
  }
  return OkStatus();
}

}  // namespace

Status ShardUnavailableError(uint32_t shard, double retry_after_ms,
                             const std::string& detail) {
  char hint[48];
  if (retry_after_ms < 0) {
    std::snprintf(hint, sizeof(hint), "manual reset required");
  } else {
    std::snprintf(hint, sizeof(hint), "retry after %.3f ms", retry_after_ms);
  }
  return UnavailableError("shard " + std::to_string(shard) +
                          " unavailable: " + detail + " (" + hint + ")");
}

// -- construction -------------------------------------------------------------

StatusOr<std::unique_ptr<ShardedService>> ShardedService::Build(
    const MetricDBConfig& config, Dataset data, const ServiceOptions& sopts,
    const std::string& dir, const DurabilityOptions& dopts, bool durable) {
  if (sopts.num_shards < 1) {
    return InvalidArgumentError("num_shards must be >= 1");
  }
  PMI_RETURN_IF_ERROR(CheckAdmissionOptions(sopts));
  if (data.empty()) return InvalidArgumentError("dataset must be non-empty");
  if (sopts.self_heal && !durable) {
    return InvalidArgumentError(
        "self_heal requires a durable service (recovery replays the "
        "shard's WAL/checkpoint chain)");
  }
  auto router = std::make_shared<ShardRouter>(
      static_cast<uint32_t>(data.size()), sopts.num_shards);
  for (uint32_t s = 0; s < router->num_shards(); ++s) {
    if (router->shard_size(s) == 0) {
      return InvalidArgumentError(
          "shard " + std::to_string(s) +
          " owns no objects; lower num_shards for this dataset size");
    }
  }

  // One metric parameter, derived from the FULL dataset, pinned into
  // every shard: per-shard derivation could diverge (narrower domain),
  // and FQA's quantization step depends on it.
  MetricDBConfig shard_config = config;
  PMI_ASSIGN_OR_RETURN(
      shard_config.metric_param,
      ResolveMetricParam(config.metric_name, data, config.metric_param));
  // One physical page cache across all shards: cache_bytes is the
  // service-wide budget, not a per-shard one, so N shards cannot use N
  // times the memory.  Shard PA accounting is unaffected (the logical
  // simulation is per PagedFile).
  if (shard_config.options.buffer_pool == nullptr) {
    shard_config.options.buffer_pool = std::make_shared<BufferPool>(
        shard_config.options.page_size, shard_config.options.cache_bytes);
  }

  std::unique_ptr<ShardedService> svc(new ShardedService());
  svc->sopts_ = sopts;
  svc->router_ = router;
  svc->durable_ = durable;
  svc->shard_config_ = shard_config;
  if (durable) {
    svc->dir_ = dir;
    svc->env_ = dopts.env != nullptr ? dopts.env : Env::Default();
    svc->dopts_ = dopts;
    svc->dopts_.env = svc->env_;
    PMI_RETURN_IF_ERROR(svc->env_->CreateDir(dir));
  }
  svc->slots_.reserve(router->num_shards());
  for (uint32_t s = 0; s < router->num_shards(); ++s) {
    Dataset shard_data = SplitShard(data, router->members(s));
    StatusOr<MetricDB> db =
        durable ? MetricDB::CreateDurable(shard_config, std::move(shard_data),
                                          ShardDirName(dir, s), dopts)
                : MetricDB::Create(shard_config, std::move(shard_data));
    if (!db.ok()) return db.status();
    auto slot = std::make_unique<ShardSlot>();
    slot->db = std::make_shared<MetricDB>(std::move(*db));
    svc->slots_.push_back(std::move(slot));
  }
  if (durable) {
    PMI_RETURN_IF_ERROR(WriteMeta(svc->env_, dir, router->num_shards(),
                                  router->size()));
  }
  svc->queue_ = std::make_unique<AdmissionQueue>(sopts.workers, sopts.max_queue);
  if (durable && sopts.self_heal) {
    svc->supervisor_ =
        std::make_unique<ShardSupervisor>(svc.get(), sopts.supervisor);
    svc->supervisor_->Start();
  }
  return svc;
}

StatusOr<std::unique_ptr<ShardedService>> ShardedService::Create(
    const MetricDBConfig& config, Dataset data, const ServiceOptions& sopts) {
  return Build(config, std::move(data), sopts, "", DurabilityOptions{},
               /*durable=*/false);
}

StatusOr<std::unique_ptr<ShardedService>> ShardedService::CreateDurable(
    const MetricDBConfig& config, Dataset data, const std::string& dir,
    const ServiceOptions& sopts, const DurabilityOptions& dopts) {
  return Build(config, std::move(data), sopts, dir, dopts, /*durable=*/true);
}

StatusOr<std::unique_ptr<ShardedService>> ShardedService::OpenDurable(
    const std::string& dir, const ServiceOptions& sopts,
    const DurabilityOptions& dopts) {
  PMI_RETURN_IF_ERROR(CheckAdmissionOptions(sopts));
  Env* env = dopts.env != nullptr ? dopts.env : Env::Default();
  uint32_t num_shards = 0;
  uint32_t objects = 0;
  PMI_RETURN_IF_ERROR(ReadMeta(env, dir, &num_shards, &objects));

  std::unique_ptr<ShardedService> svc(new ShardedService());
  svc->sopts_ = sopts;
  svc->sopts_.num_shards = num_shards;
  svc->router_ = std::make_shared<ShardRouter>(objects, num_shards);
  svc->durable_ = true;
  svc->dir_ = dir;
  svc->env_ = env;
  svc->dopts_ = dopts;
  svc->dopts_.env = env;
  svc->slots_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    StatusOr<MetricDB> db = MetricDB::OpenDurable(ShardDirName(dir, s), dopts);
    if (!db.ok()) return db.status();
    if (db->dataset().size() != svc->router_->shard_size(s)) {
      return DataLossError("shard " + std::to_string(s) +
                           " dataset size does not match the SERVICE meta");
    }
    auto slot = std::make_unique<ShardSlot>();
    slot->db = std::make_shared<MetricDB>(std::move(*db));
    svc->slots_.push_back(std::move(slot));
  }
  svc->shard_config_ = svc->slots_[0]->db->config();
  svc->queue_ = std::make_unique<AdmissionQueue>(svc->sopts_.workers,
                                                 svc->sopts_.max_queue);
  if (svc->sopts_.self_heal) {
    svc->supervisor_ =
        std::make_unique<ShardSupervisor>(svc.get(), svc->sopts_.supervisor);
    svc->supervisor_->Start();
  }
  return svc;
}

Status ShardedService::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return OkStatus();
  // Supervisor first: after Stop() returns no recovery attempt is in
  // flight, so every slot's instance (possibly freshly swapped) is ours
  // to close.
  if (supervisor_ != nullptr) supervisor_->Stop();
  queue_->Shutdown();
  Status first;
  for (std::unique_ptr<ShardSlot>& slot : slots_) {
    std::shared_ptr<MetricDB> db;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      db = std::move(slot->db);
      slot->stale_view.reset();
    }
    if (db == nullptr) continue;  // abandoned mid-recovery
    Status s = db->Close();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

ShardedService::~ShardedService() {
  if (queue_ != nullptr) Close();
}

const MetricDBConfig& ShardedService::config() const { return shard_config_; }

std::string ShardedService::ShardDir(uint32_t s) const {
  return ShardDirName(dir_, s);
}

ShardedService::SlotView ShardedService::SnapshotSlot(uint32_t shard) const {
  const ShardSlot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  return SlotView{slot.db, slot.health, slot.stale_view, slot.retry_after_ms};
}

// -- request path -------------------------------------------------------------

ShardedService::Deadline ShardedService::ResolveDeadline(
    const RequestOptions& opts) const {
  const double ms =
      opts.deadline_ms.has_value() ? *opts.deadline_ms : sopts_.default_deadline_ms;
  if (ms < 0) return std::nullopt;
  return SteadyClock::now() +
         std::chrono::duration_cast<SteadyClock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

template <typename T, typename Fn>
T ShardedService::Submit(const Deadline& deadline, const Fn& fn) const {
  if (!queue_->Enter()) {
    return T(ResourceExhaustedError(
        "admission queue full (capacity " + std::to_string(sopts_.max_queue) +
        ") or service shutting down"));
  }
  struct Turn {
    AdmissionQueue* queue;
    ~Turn() { queue->Leave(); }
  } turn{queue_.get()};
  if (Expired(deadline)) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    return T(DeadlineExceededError("request deadline expired while queued"));
  }
  return fn();
}

StatusOr<MetricDB::ReadView> ShardedService::PinShard(uint32_t s) const {
  SlotView sv = SnapshotSlot(s);
  if (sv.health == ShardHealth::kHealthy && sv.db != nullptr) {
    StatusOr<MetricDB::ReadView> view = sv.db->GetReadView();
    if (view.ok()) return view;
    // Only a closed instance refuses a view: it may have been
    // hot-swapped under us.  If the slot left the healthy state, fall
    // back to its stale view rather than surfacing the error.
    sv = SnapshotSlot(s);
    if (sv.health == ShardHealth::kHealthy) return view.status();
  }
  // Quarantined/recovering shards answer from their quarantine-time
  // view: still one consistent version, just not the freshest.
  if (sv.stale_view.has_value()) return std::move(*sv.stale_view);
  return ShardUnavailableError(
      s, sv.retry_after_ms,
      std::string(HealthDetail(sv.health)) + ", no stale view");
}

StatusOr<std::vector<MetricDB::ReadView>> ShardedService::PinShards() const {
  std::vector<MetricDB::ReadView> views;
  views.reserve(slots_.size());
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    PMI_ASSIGN_OR_RETURN(MetricDB::ReadView view, PinShard(s));
    views.push_back(std::move(view));
  }
  return views;
}

StatusOr<QueryResult> ShardedService::Gather(
    const ShardRouter& router, const std::vector<MetricDB::ReadView>& views,
    const QueryRequest& request, const Deadline& deadline,
    std::atomic<uint64_t>* expired) {
  SteadyClock::time_point t0 = SteadyClock::now();
  auto expire = [&](const char* what) {
    expired->fetch_add(1, std::memory_order_relaxed);
    return DeadlineExceededError(what);
  };
  // Chunked execution with the deadline budget re-checked between
  // chunks (see kDeadlineChunkQueries).
  auto run_chunked = [&](const MetricDB::ReadView& view)
      -> StatusOr<QueryResult> {
    if (!deadline.has_value() ||
        request.batch.size() <= kDeadlineChunkQueries) {
      return view.Query(request);
    }
    QueryResult acc;
    for (size_t begin = 0; begin < request.batch.size();
         begin += kDeadlineChunkQueries) {
      if (Expired(deadline)) {
        return expire(
            "request deadline expired mid-shard (deadline budget "
            "propagates into per-shard chunks)");
      }
      const size_t count =
          std::min(kDeadlineChunkQueries, request.batch.size() - begin);
      StatusOr<QueryResult> part =
          view.Query(SliceRequest(request, begin, count));
      if (!part.ok()) return part.status();
      AppendChunk(&acc, std::move(*part));
    }
    return acc;
  };

  std::vector<QueryResult> per_shard;
  per_shard.reserve(views.size());
  for (const MetricDB::ReadView& view : views) {
    if (Expired(deadline)) {
      return expire("request deadline expired mid-gather");
    }
    StatusOr<QueryResult> r = run_chunked(view);
    if (!r.ok()) return r.status();
    per_shard.push_back(std::move(*r));
  }
  QueryResult merged = MergeShardResults(router, request, std::move(per_shard));
  merged.stats.seconds = SecondsSince(t0);
  return merged;
}

StatusOr<ApplyResult> ShardedService::ExecuteApply(
    const std::vector<UpdateOp>& ops, const RequestOptions& opts,
    const Deadline& deadline) {
  // Route to owning shards, rewriting to local ids; op order within a
  // shard follows batch order, so per-shard liveness validation sees
  // the same sequence an unsharded Apply would.
  std::vector<std::vector<UpdateOp>> routed(slots_.size());
  for (const UpdateOp& op : ops) {
    routed[router_->shard_of(op.id)].push_back(
        {op.op, router_->local_of(op.id)});
  }
  ApplyResult result;
  result.shard_status.resize(slots_.size());
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    if (routed[s].empty()) continue;
    // Budget check BEFORE dispatch: an expired shard gets a typed
    // pre-dispatch kDeadlineExceeded with nothing applied there, so the
    // retry layer may safely re-send that sub-batch.
    if (Expired(deadline)) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      result.shard_status[s] = DeadlineExceededError(
          "request deadline expired before dispatch to shard " +
          std::to_string(s));
      continue;
    }
    SlotView sv = SnapshotSlot(s);
    if (sv.health != ShardHealth::kHealthy || sv.db == nullptr) {
      result.shard_status[s] =
          ShardUnavailableError(s, sv.retry_after_ms, HealthDetail(sv.health));
      continue;
    }
    MetricDB::ApplyOptions aopts;
    if (s < opts.sequence_fences.size() &&
        opts.sequence_fences[s].has_value()) {
      aopts.expected_sequence = *opts.sequence_fences[s];
    }
    Status st = sv.db->Apply(routed[s], aopts);
    if (!st.ok()) {
      if (st.code() == StatusCode::kUnavailable) {
        // Fresh write fault: the shard just went sticky read-only.
        // Wake the supervisor so quarantine does not wait out the poll.
        if (supervisor_ != nullptr) supervisor_->Nudge();
      } else if (!IsSequenceFenceMismatch(st)) {
        // A hot-swap may have closed the instance between our snapshot
        // and the Apply; keep the error typed for the retry layer.
        SlotView now = SnapshotSlot(s);
        if (now.health != ShardHealth::kHealthy) {
          st = ShardUnavailableError(
              s, now.retry_after_ms,
              std::string(HealthDetail(now.health)) + " (" + st.message() +
                  ")");
        }
      }
    }
    result.shard_status[s] = st;
  }
  return result;
}

StatusOr<QueryResult> ShardedService::Query(const QueryRequest& request,
                                            const RequestOptions& opts) const {
  if (closed_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("service is closed");
  }
  const Deadline deadline = ResolveDeadline(opts);
  return Submit<StatusOr<QueryResult>>(
      deadline, [&]() -> StatusOr<QueryResult> {
        PMI_ASSIGN_OR_RETURN(std::vector<MetricDB::ReadView> views,
                             PinShards());
        return Gather(*router_, views, request, deadline, &deadline_expired_);
      });
}

StatusOr<ApplyResult> ShardedService::Apply(const std::vector<UpdateOp>& ops,
                                            const RequestOptions& opts) {
  if (closed_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("service is closed");
  }
  for (const UpdateOp& op : ops) {
    if (op.id >= router_->size()) {
      return InvalidArgumentError("update id " + std::to_string(op.id) +
                                  " out of range [0, " +
                                  std::to_string(router_->size()) + ")");
    }
  }
  const Deadline deadline = ResolveDeadline(opts);
  return Submit<StatusOr<ApplyResult>>(
      deadline, [&] { return ExecuteApply(ops, opts, deadline); });
}

Status ShardedService::Insert(ObjectId id) {
  StatusOr<ApplyResult> r = Apply({UpdateOp::Insert(id)});
  return r.ok() ? r->Collapse() : r.status();
}

Status ShardedService::Remove(ObjectId id) {
  StatusOr<ApplyResult> r = Apply({UpdateOp::Remove(id)});
  return r.ok() ? r->Collapse() : r.status();
}

Status ShardedService::Checkpoint() {
  if (closed_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("service is closed");
  }
  Status first;
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    SlotView sv = SnapshotSlot(s);
    Status st = (sv.health == ShardHealth::kHealthy && sv.db != nullptr)
                    ? sv.db->Checkpoint()
                    : ShardUnavailableError(s, sv.retry_after_ms,
                                            HealthDetail(sv.health));
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

// -- read views ---------------------------------------------------------------

StatusOr<ShardedService::ReadView> ShardedService::GetReadView() const {
  if (closed_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("service is closed");
  }
  PMI_ASSIGN_OR_RETURN(std::vector<MetricDB::ReadView> views, PinShards());
  return ReadView(router_, std::move(views));
}

std::vector<uint64_t> ShardedService::ReadView::sequences() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const MetricDB::ReadView& v : shards_) out.push_back(v.sequence());
  return out;
}

bool ShardedService::ReadView::alive(ObjectId id) const {
  if (id >= router_->size()) return false;
  return shards_[router_->shard_of(id)].alive(router_->local_of(id));
}

StatusOr<QueryResult> ShardedService::ReadView::Query(
    const QueryRequest& request) const {
  return Gather(*router_, shards_, request, /*deadline=*/std::nullopt,
                /*expired=*/nullptr);
}

// -- self-healing -------------------------------------------------------------

std::vector<ShardHealthReport> ShardedService::health() const {
  std::vector<ShardHealthReport> out;
  out.reserve(slots_.size());
  for (const std::unique_ptr<ShardSlot>& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    ShardHealthReport r;
    r.health = slot->health;
    r.last_error = slot->last_error;
    r.attempts = slot->attempts;
    r.retry_after_ms = slot->retry_after_ms;
    out.push_back(std::move(r));
  }
  return out;
}

Status ShardedService::ResetShard(uint32_t shard) {
  if (shard >= slots_.size()) {
    return InvalidArgumentError("shard " + std::to_string(shard) +
                                " out of range [0, " +
                                std::to_string(slots_.size()) + ")");
  }
  if (supervisor_ == nullptr) {
    return FailedPreconditionError(
        "service has no supervisor (ServiceOptions::self_heal is off)");
  }
  ShardSlot& slot = *slots_[shard];
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.health == ShardHealth::kHealthy) {
      return FailedPreconditionError("shard " + std::to_string(shard) +
                                     " is healthy; nothing to reset");
    }
    slot.attempts = 0;
    if (slot.backoff != nullptr) slot.backoff->Reset();
    slot.retry_after_ms = 0;
    slot.next_attempt = SteadyClock::now();
    // A recovery attempt already in flight keeps running; it simply
    // counts from zero now.  Pinned shards re-enter the retry loop.
    if (slot.health == ShardHealth::kPinnedReadOnly) {
      slot.health = ShardHealth::kQuarantined;
    }
  }
  supervisor_->Nudge();
  return OkStatus();
}

// -- introspection ------------------------------------------------------------

bool ShardedService::alive(ObjectId id) const {
  if (id >= router_->size()) return false;
  const uint32_t s = router_->shard_of(id);
  const ObjectId local = router_->local_of(id);
  StatusOr<MetricDB::ReadView> view = PinShard(s);
  return view.ok() && view->alive(local);
}

std::vector<uint64_t> ShardedService::sequences() const {
  std::vector<uint64_t> out;
  out.reserve(slots_.size());
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    StatusOr<MetricDB::ReadView> view = PinShard(s);
    out.push_back(view.ok() ? view->sequence() : 0);
  }
  return out;
}

std::vector<Status> ShardedService::write_statuses() const {
  std::vector<Status> out;
  out.reserve(slots_.size());
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    SlotView sv = SnapshotSlot(s);
    if (sv.health == ShardHealth::kHealthy && sv.db != nullptr) {
      out.push_back(sv.db->write_status());
    } else {
      out.push_back(
          ShardUnavailableError(s, sv.retry_after_ms, HealthDetail(sv.health)));
    }
  }
  return out;
}

std::vector<uint32_t> ShardedService::shard_sizes() const {
  std::vector<uint32_t> out;
  out.reserve(router_->num_shards());
  for (uint32_t s = 0; s < router_->num_shards(); ++s) {
    out.push_back(router_->shard_size(s));
  }
  return out;
}

ShardedService::ServiceStats ShardedService::stats() const {
  return {queue_->stats(), deadline_expired_.load(std::memory_order_relaxed)};
}

}  // namespace pmi
