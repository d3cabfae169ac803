#include "src/api/metric_db.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/api/snapshot.h"
#include "src/core/pivot_selection.h"
#include "src/core/rng.h"
#include "src/core/serialize.h"
#include "src/harness/registry.h"

namespace pmi {
namespace {

// -- metric construction ------------------------------------------------------

bool IsVectorMetric(const std::string& name) {
  return name == "L1" || name == "L2" || name == "Linf";
}

/// Derives the metric parameter from the data when the config left it 0:
/// the per-coordinate domain width for the vector norms, the maximum
/// string length for the edit distance.  A coordinate scan only -- no
/// distance computations.  Also decides discreteness for Linf (integer
/// coordinates enable BKT/FQT, mirroring the paper's Synthetic setup).
Status DeriveMetricParams(const std::string& name, const Dataset& data,
                          double* param, bool* discrete) {
  if (IsVectorMetric(name)) {
    if (data.kind() != ObjectKind::kVector) {
      return InvalidArgumentError("metric \"" + name +
                                  "\" requires a vector dataset");
    }
    *discrete = false;
    // The coordinate scan feeds two consumers: the derived domain width
    // and Linf discreteness.  With an explicit param, only Linf still
    // needs it -- skip the O(n*dim) pass for L1/L2.
    if (*param > 0 && name != "Linf") return OkStatus();
    double lo = std::numeric_limits<double>::max();
    double hi = std::numeric_limits<double>::lowest();
    bool integral = true;
    for (ObjectId id = 0; id < data.size(); ++id) {
      ObjectView v = data.view(id);
      for (uint32_t i = 0; i < v.dim; ++i) {
        lo = std::min(lo, double(v.vec[i]));
        hi = std::max(hi, double(v.vec[i]));
        integral = integral && v.vec[i] == std::floor(v.vec[i]);
      }
    }
    if (*param <= 0) *param = std::max(hi - lo, 1.0);
    *discrete = name == "Linf" && integral;
    return OkStatus();
  }
  if (name == "edit") {
    if (data.kind() != ObjectKind::kString) {
      return InvalidArgumentError("metric \"edit\" requires a string dataset");
    }
    if (*param <= 0) {
      uint32_t max_len = 1;
      for (ObjectId id = 0; id < data.size(); ++id) {
        max_len = std::max(max_len, data.view(id).len);
      }
      *param = max_len;
    }
    *discrete = true;
    return OkStatus();
  }
  return NotFoundError("unknown metric name: \"" + name +
                       "\" (supported: L1, L2, Linf, edit)");
}

StatusOr<std::unique_ptr<Metric>> InstantiateMetric(const std::string& name,
                                                    const Dataset& data,
                                                    double param,
                                                    bool discrete) {
  if (IsVectorMetric(name) && data.kind() != ObjectKind::kVector) {
    return InvalidArgumentError("metric \"" + name +
                                "\" requires a vector dataset");
  }
  if (name == "edit" && data.kind() != ObjectKind::kString) {
    return InvalidArgumentError("metric \"edit\" requires a string dataset");
  }
  if (param <= 0) {
    return InvalidArgumentError("metric parameter must be positive");
  }
  std::unique_ptr<Metric> metric;
  if (name == "L1") {
    metric = std::make_unique<L1Metric>(data.dim(), param);
  } else if (name == "L2") {
    metric = std::make_unique<L2Metric>(data.dim(), param);
  } else if (name == "Linf") {
    metric = std::make_unique<LInfMetric>(data.dim(), param, discrete);
  } else if (name == "edit") {
    metric = std::make_unique<EditDistanceMetric>(
        static_cast<uint32_t>(param));
  } else {
    return NotFoundError("unknown metric name: \"" + name +
                         "\" (supported: L1, L2, Linf, edit)");
  }
  return metric;
}

// -- pivot selection ----------------------------------------------------------

StatusOr<PivotSet> SelectPivots(const Dataset& data, const Metric& metric,
                                const MetricDBConfig& config) {
  if (config.pivot_set.has_value()) {
    // An injected pivot set gets the same payload gate as query views:
    // the metric kernels would otherwise read mismatched ObjectViews.
    for (uint32_t i = 0; i < config.pivot_set->size(); ++i) {
      ObjectView p = config.pivot_set->pivot(i);
      if (p.kind != data.kind() ||
          (p.kind == ObjectKind::kVector && p.dim != data.dim())) {
        return InvalidArgumentError(
            "pivot_set objects do not match the dataset's kind/dimension");
      }
    }
    return *config.pivot_set;
  }
  if (config.pivot_count == 0) {
    return InvalidArgumentError("pivot_count must be >= 1");
  }
  PivotSelectionOptions po;
  po.seed = config.options.seed;
  // Selection cost is deliberately unaccounted, matching the harness
  // convention (SelectSharedPivots): pivot selection is a one-time setup
  // step outside every reported cost.
  PerfCounters scratch;
  DistanceComputer d(&metric, &scratch);
  if (config.pivot_method == "hfi") {
    return PivotSet(data, SelectPivotsHFI(data, d, config.pivot_count, po));
  }
  if (config.pivot_method == "hf") {
    return PivotSet(data, SelectPivotsHF(data, d, config.pivot_count, po));
  }
  if (config.pivot_method == "random") {
    Rng rng(po.seed);
    return PivotSet(data, SelectPivotsRandom(data, config.pivot_count, rng));
  }
  return InvalidArgumentError("unknown pivot_method \"" +
                              config.pivot_method +
                              "\" (supported: hfi, hf, random)");
}

/// The registry's applicability flags, enforced recoverably.
Status CheckApplicability(const std::string& index_name,
                          const Metric& metric) {
  const IndexSpec* spec = FindIndexSpec(index_name);
  if (spec != nullptr && spec->discrete_only && !metric.discrete()) {
    return FailedPreconditionError(
        index_name + " requires a discrete metric, but \"" + metric.name() +
        "\" is continuous");
  }
  return OkStatus();
}

// -- IndexOptions snapshot block ---------------------------------------------

void WriteOptions(const IndexOptions& o, ByteSink* out) {
  out->PutU32(o.page_size);
  out->PutU32(o.cache_bytes);
  out->PutU64(o.seed);
  out->PutU32(o.mvpt_arity);
  out->PutU32(o.tree_leaf_capacity);
  out->PutU32(o.tree_fanout);
  out->PutU32(o.ept_group_size);
  out->PutU32(o.ept_cp_scale);
  out->PutU32(o.ept_sample_size);
  out->PutU32(o.mindex_maxnum);
  out->PutU32(o.spb_bits_per_dim);
}

Status ReadOptions(ByteSource* in, IndexOptions* o) {
  PMI_RETURN_IF_ERROR(in->GetU32(&o->page_size));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->cache_bytes));
  PMI_RETURN_IF_ERROR(in->GetU64(&o->seed));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->mvpt_arity));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->tree_leaf_capacity));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->tree_fanout));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->ept_group_size));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->ept_cp_scale));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->ept_sample_size));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->mindex_maxnum));
  PMI_RETURN_IF_ERROR(in->GetU32(&o->spb_bits_per_dim));
  return OkStatus();
}

// -- checkpoint/WAL file naming ----------------------------------------------
//
// A durable directory holds numbered generations: ckpt-NNNNNN.pmidb is a
// full snapshot, wal-NNNNNN.log the updates applied AFTER it.  Recovery
// picks the newest readable checkpoint g and replays wal-g, wal-g+1, ...

std::string CkptName(uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06" PRIu64 ".pmidb", gen);
  return buf;
}

std::string WalName(uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06" PRIu64 ".log", gen);
  return buf;
}

/// Parses "<prefix>NNNNNN<suffix>"; false for any other name (durable
/// directories may hold foreign files -- they are simply ignored).
bool ParseGenName(const std::string& name, const std::string& prefix,
                  const std::string& suffix, uint64_t* gen) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + (name[i] - '0');
  }
  *gen = value;
  return true;
}

// -- directory LOCK file ------------------------------------------------------
//
// A durable directory is single-writer: CreateDurable/OpenDurable take
// a kernel advisory lock (Env::LockFile, flock) on LOCK and write
// "pid N\n" into it; every later open is refused with
// kFailedPrecondition until the owner closes.  The kernel lock is the
// cross-process arbiter -- it dies with its holder, and every staleness
// decision and contents rewrite below happens WHILE holding it, so
// there is no remove-and-recreate window in which two openers could
// each install their own LOCK (the TOCTOU a pure O_EXCL protocol has).
// Contents left behind by a dead process (or by this process -- the
// fault harness simulates crashes without exiting, so the dead "owner"
// can be ourselves) are crash debris, overwritten in place under the
// lock; contents naming a live foreign process whose kernel lock is
// gone are ambiguous (written outside this protocol) and refused.
// Release removes the file while the kernel lock is still held, then
// drops the handle, so the path never exists unlocked.

constexpr char kLockFileName[] = "LOCK";

/// Directories locked by THIS process.  The LOCK file's pid cannot tell
/// a live same-process owner from this process's own crashed simulation
/// (the fault harness "kills" a database without exiting), so same-pid
/// LOCK files are treated as stale at the file level and actual
/// same-process exclusion lives here.  Keyed by the directory string as
/// passed in; callers that alias the same directory under two spellings
/// get file-level (cross-process) exclusion only.
std::mutex g_lock_registry_mu;
std::vector<std::string>& LockRegistry() {
  static std::vector<std::string>* dirs = new std::vector<std::string>;
  return *dirs;
}

bool RegisterDirLock(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_lock_registry_mu);
  std::vector<std::string>& dirs = LockRegistry();
  if (std::find(dirs.begin(), dirs.end(), dir) != dirs.end()) return false;
  dirs.push_back(dir);
  return true;
}

void UnregisterDirLock(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_lock_registry_mu);
  std::vector<std::string>& dirs = LockRegistry();
  auto it = std::find(dirs.begin(), dirs.end(), dir);
  if (it != dirs.end()) dirs.erase(it);
}

/// Pid from "pid N..." LOCK contents; -1 when unparsable (treated as
/// stale -- an unreadable lock protects nobody).
int64_t ParseLockPid(const std::string& contents) {
  const std::string prefix = "pid ";
  if (contents.compare(0, prefix.size(), prefix) != 0) return -1;
  int64_t value = 0;
  size_t i = prefix.size();
  if (i >= contents.size() || contents[i] < '0' || contents[i] > '9') {
    return -1;
  }
  for (; i < contents.size() && contents[i] >= '0' && contents[i] <= '9';
       ++i) {
    value = value * 10 + (contents[i] - '0');
  }
  return value;
}

StatusOr<std::unique_ptr<FileLock>> AcquireDirLockFile(Env* env,
                                                       const std::string& dir);

/// Takes the process-local registration first (same-process exclusion),
/// then the LOCK file (cross-process exclusion with stale detection).
StatusOr<std::unique_ptr<FileLock>> AcquireDirLock(Env* env,
                                                   const std::string& dir) {
  if (!RegisterDirLock(dir)) {
    return FailedPreconditionError(
        dir + " is locked by another database in this process");
  }
  StatusOr<std::unique_ptr<FileLock>> acquired = AcquireDirLockFile(env, dir);
  if (!acquired.ok()) UnregisterDirLock(dir);
  return acquired;
}

StatusOr<std::unique_ptr<FileLock>> AcquireDirLockFile(
    Env* env, const std::string& dir) {
  const std::string path = JoinPath(dir, kLockFileName);
  StatusOr<std::unique_ptr<FileLock>> lock = env->LockFile(path);
  if (!lock.ok()) {
    if (lock.status().code() == StatusCode::kFailedPrecondition) {
      // Another process holds the kernel lock right now.  Name it from
      // the contents, best-effort (the holder may be mid-rewrite).
      StatusOr<std::string> contents = env->ReadFileToString(path);
      const int64_t pid = contents.ok() ? ParseLockPid(*contents) : -1;
      if (pid >= 0) {
        return FailedPreconditionError(dir + " is locked by process " +
                                       std::to_string(pid));
      }
      return FailedPreconditionError(dir + " is locked by another process");
    }
    return lock.status();
  }
  // We hold the kernel lock: whatever the file said, its writer no
  // longer holds it.  Same-pid or dead-pid or unparsable contents are
  // crash debris, broken by overwriting in place; a live foreign pid
  // means some claim made outside kernel arbitration -- refuse
  // conservatively (dropping the handle leaves the file exactly as
  // found).
  const std::string& prev = (*lock)->previous_contents();
  if (!prev.empty()) {
    const int64_t pid = ParseLockPid(prev);
    const bool stale = pid < 0 ||
                       pid == static_cast<int64_t>(::getpid()) ||
                       !ProcessAlive(pid);
    if (!stale) {
      return FailedPreconditionError(
          dir + " is locked by process " + std::to_string(pid));
    }
  }
  const std::string contents =
      "pid " + std::to_string(static_cast<int64_t>(::getpid())) + "\n";
  PMI_RETURN_IF_ERROR((*lock)->Overwrite(contents));
  return lock;
}

}  // namespace

StatusOr<double> ResolveMetricParam(const std::string& metric_name,
                                    const Dataset& data, double param) {
  bool discrete = false;
  PMI_RETURN_IF_ERROR(DeriveMetricParams(metric_name, data, &param, &discrete));
  return param;
}

DurabilityOptions DurabilityOptions::FromEnv() {
  DurabilityOptions o;
  if (const char* s = std::getenv("PMI_WAL_SYNC")) {
    StatusOr<SyncMode> mode = ParseSyncMode(s);
    if (mode.ok()) o.sync_mode = *mode;
  }
  if (const char* s = std::getenv("PMI_WAL_SYNC_INTERVAL")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (end != s && *end == '\0' && v >= 1) {
      o.sync_interval_commits = static_cast<uint32_t>(v);
    }
  }
  return o;
}

StatusOr<MetricDB> MetricDB::Create(const MetricDBConfig& config,
                                    Dataset data) {
  if (data.empty()) {
    return InvalidArgumentError("dataset must be non-empty");
  }
  PMI_RETURN_IF_ERROR(ValidateOptions(config.options));

  MetricDB db;
  db.config_ = config;
  // One physical page cache per database unless the caller installed a
  // wider-scoped one (the sharded service shares a pool across shards).
  // Pool size never affects logical PA, only pa_physical().
  if (db.config_.options.buffer_pool == nullptr) {
    db.config_.options.buffer_pool = std::make_shared<BufferPool>(
        db.config_.options.page_size, db.config_.options.cache_bytes);
  }
  db.metric_param_used_ = config.metric_param;
  PMI_RETURN_IF_ERROR(DeriveMetricParams(
      config.metric_name, data, &db.metric_param_used_, &db.metric_discrete_));
  PMI_ASSIGN_OR_RETURN(
      std::unique_ptr<Metric> metric,
      InstantiateMetric(config.metric_name, data, db.metric_param_used_,
                        db.metric_discrete_));
  PMI_RETURN_IF_ERROR(CheckApplicability(config.index_name, *metric));

  // Construct the index before pivot selection: an unknown name or a
  // min_pivots violation must not cost an HFI selection pass first.
  const uint32_t requested_pivots = config.pivot_set.has_value()
                                        ? config.pivot_set->size()
                                        : config.pivot_count;
  PMI_ASSIGN_OR_RETURN(
      std::unique_ptr<MetricIndex> index,
      TryMakeIndex(config.index_name, db.config_.options, requested_pivots));
  PMI_ASSIGN_OR_RETURN(PivotSet pivots, SelectPivots(data, *metric, config));
  // Selection clamps to the dataset size, so the effective count can
  // undercut the requested one; re-check the index's floor against it.
  const IndexSpec* spec = FindIndexSpec(config.index_name);
  if (spec != nullptr && pivots.size() < spec->min_pivots) {
    return InvalidArgumentError(
        config.index_name + " requires at least " +
        std::to_string(spec->min_pivots) + " pivots, but only " +
        std::to_string(pivots.size()) + " could be selected");
  }

  // Ownership transfers last, after every fallible step: shared_ptrs
  // give the index stable addresses to borrow across facade moves and
  // let published versions co-own them past the facade's own lifetime.
  db.data_ = std::make_shared<Dataset>(std::move(data));
  db.metric_ = std::move(metric);
  db.pivots_ = std::make_shared<PivotSet>(std::move(pivots));
  db.index_ = std::move(index);
  db.build_stats_ = db.index_->Build(*db.data_, *db.metric_, *db.pivots_);
  db.live_.assign(db.data_->size(), 1);
  db.PublishVersion();
  return db;
}

void MetricDB::PublishVersion() {
  auto v = std::make_shared<TableVersion>();
  v->data = data_;
  v->metric = metric_;
  v->pivots = pivots_;
  v->index = index_;
  v->live = live_;
  v->sequence = seq_;
  std::shared_ptr<const TableVersion> old;
  {
    std::lock_guard<std::mutex> lock(cc_->version_mu);
    old = std::exchange(cc_->version, std::move(v));
  }
  // `old` drops here, outside the lock: when no reader still holds it,
  // freeing its index does not hold up readers waiting to pin.
}

std::shared_ptr<const TableVersion> MetricDB::PinVersion() const {
  std::lock_guard<std::mutex> lock(cc_->version_mu);
  return cc_->version;
}

Status MetricDB::write_status() const {
  std::lock_guard<std::mutex> lock(cc_->status_mu);
  return write_status_;
}

Status MetricDB::FailWrites(Status cause) {
  std::lock_guard<std::mutex> lock(cc_->status_mu);
  write_status_ = cause;
  return cause;
}

Status MetricDB::ValidateRequest(const QueryRequest& request,
                                 const Dataset& data) {
  if (request.type == QueryType::kRange) {
    if (!request.ks.empty()) {
      return InvalidArgumentError(
          "range query carries per-query ks (kNN descriptors)");
    }
    if (request.radii.empty()) {
      if (!(request.radius >= 0) || !std::isfinite(request.radius)) {
        return InvalidArgumentError(
            "range query radius must be finite and >= 0");
      }
    } else {
      if (request.radii.size() != request.batch.size()) {
        return InvalidArgumentError(
            "per-query radii count " + std::to_string(request.radii.size()) +
            " does not match batch size " +
            std::to_string(request.batch.size()));
      }
      for (double r : request.radii) {
        if (!(r >= 0) || !std::isfinite(r)) {
          return InvalidArgumentError(
              "every per-query radius must be finite and >= 0");
        }
      }
    }
  } else {
    if (!request.radii.empty()) {
      return InvalidArgumentError(
          "kNN query carries per-query radii (range descriptors)");
    }
    if (request.ks.empty()) {
      if (request.k == 0) {
        return InvalidArgumentError("kNN query k must be >= 1");
      }
    } else {
      if (request.ks.size() != request.batch.size()) {
        return InvalidArgumentError(
            "per-query k count " + std::to_string(request.ks.size()) +
            " does not match batch size " +
            std::to_string(request.batch.size()));
      }
      for (size_t k : request.ks) {
        if (k == 0) {
          return InvalidArgumentError("every per-query k must be >= 1");
        }
      }
    }
  }
  for (const ObjectView& q : request.batch) {
    if (q.kind != data.kind()) {
      return InvalidArgumentError(
          "query object kind does not match the dataset");
    }
    if (q.kind == ObjectKind::kVector && q.dim != data.dim()) {
      return InvalidArgumentError(
          "query vector has dimension " + std::to_string(q.dim) +
          ", dataset has " + std::to_string(data.dim()));
    }
  }
  return OkStatus();
}

QueryResult MetricDB::Answer(const MetricIndex& index,
                             const QueryRequest& request) {
  QueryResult result;
  const size_t n = request.batch.size();
  if (request.type == QueryType::kRange) {
    std::vector<double> uniform;
    const std::vector<double>* radii = &request.radii;
    if (radii->empty()) {
      uniform.assign(n, request.radius);
      radii = &uniform;
    }
    result.stats = index.RangeQueryBatch(request.batch, *radii, &result.ids);
  } else {
    std::vector<size_t> uniform;
    const std::vector<size_t>* ks = &request.ks;
    if (ks->empty()) {
      uniform.assign(n, request.k);
      ks = &uniform;
    }
    result.stats = index.KnnQueryBatch(request.batch, *ks, &result.neighbors);
  }
  return result;
}

StatusOr<QueryResult> MetricDB::Query(const QueryRequest& request) const {
  PMI_ASSIGN_OR_RETURN(ReadView view, GetReadView());
  return view.Query(request);
}

StatusOr<MetricDB::ReadView> MetricDB::GetReadView() const {
  if (cc_->closed.load(std::memory_order_acquire)) {
    return FailedPreconditionError("database is closed");
  }
  return ReadView(PinVersion());
}

StatusOr<QueryResult> MetricDB::ReadView::Query(
    const QueryRequest& request) const {
  PMI_RETURN_IF_ERROR(ValidateRequest(request, *version_->data));
  return Answer(*version_->index, request);
}

Status MetricDB::Close() {
  if (cc_ == nullptr) return OkStatus();  // moved-from
  if (cc_->closed.exchange(true, std::memory_order_acq_rel)) {
    return OkStatus();
  }
  std::lock_guard<std::mutex> lock(cc_->writer_mu);
  Status result;
  if (wal_ != nullptr) {
    // Final durability barrier -- skipped once the write path is
    // poisoned (the barrier already failed; repeating it cannot
    // un-lose anything).
    if (write_status_.ok()) result = wal_->Sync();
    wal_.reset();
  }
  if (cc_->dir_lock != nullptr) {
    UnregisterDirLock(dir_);
    // File removal is best-effort and happens while the kernel lock is
    // still held, so the path never exists unlocked.  A leftover LOCK
    // (e.g. the simulated crash refuses the unlink) is detected as
    // crash debris on the next open.
    env_->RemoveFile(JoinPath(dir_, kLockFileName));
    cc_->dir_lock.reset();  // releases the kernel lock
  }
  return result;
}

MetricDB::~MetricDB() {
  if (cc_ == nullptr) return;  // moved-from
  if (cc_->dir_lock != nullptr && env_ != nullptr) {
    UnregisterDirLock(dir_);
    env_->RemoveFile(JoinPath(dir_, kLockFileName));
    cc_->dir_lock.reset();
  }
}

Status MetricDB::ComposePayload(const MetricIndex& index,
                                const std::vector<uint8_t>& live,
                                uint64_t seq, ByteSink* payload) const {
  payload->PutString(config_.metric_name);
  payload->PutDouble(metric_param_used_);
  payload->PutU8(metric_discrete_ ? 1 : 0);
  payload->PutString(config_.index_name);
  payload->PutString(config_.pivot_method);
  payload->PutU32(config_.pivot_count);
  WriteOptions(config_.options, payload);
  SerializeDataset(*data_, payload);
  SerializePivotSet(*pivots_, payload);

  ByteSink state;
  Status saved = index.SaveState(&state);
  if (saved.ok()) {
    payload->PutU8(1);
    payload->PutString(state.bytes());
  } else if (saved.code() == StatusCode::kUnimplemented) {
    // Persistence is optional per index: the snapshot still carries the
    // dataset and pivots, and Open rebuilds the index from them.
    payload->PutU8(0);
  } else {
    return saved;
  }
  // Update-history tail (a compatible version-1 extension: absent in
  // older snapshots, which predate updates and are read as seq 0 /
  // all-live).  Recovery validates WAL replay against it.
  payload->PutU64(seq);
  payload->PutVector(live);
  return OkStatus();
}

Status MetricDB::SaveStateTo(const MetricIndex& index,
                             const std::vector<uint8_t>& live, uint64_t seq,
                             const std::string& path, Env* env) const {
  ByteSink payload;
  PMI_RETURN_IF_ERROR(ComposePayload(index, live, seq, &payload));
  return WriteSnapshotFile(path, payload.bytes(), env);
}

Status MetricDB::SaveTo(const std::string& path, Env* env) const {
  // Snapshot the published version: consistent even while the writer is
  // mid-Apply on its clone.
  std::shared_ptr<const TableVersion> v = PinVersion();
  return SaveStateTo(*v->index, v->live, v->sequence, path, env);
}

Status MetricDB::Save(const std::string& path) const {
  return SaveTo(path, env_);  // nullptr -> Env::Default()
}

StatusOr<MetricDB> MetricDB::Open(const std::string& path) {
  PMI_ASSIGN_OR_RETURN(std::string payload, ReadSnapshotFile(path));
  PMI_ASSIGN_OR_RETURN(MetricDB db, FromPayload(payload));
  db.PublishVersion();
  return db;
}

StatusOr<MetricDB> MetricDB::FromPayload(const std::string& payload) {
  ByteSource in(payload);

  MetricDB db;
  uint8_t discrete = 0;
  PMI_RETURN_IF_ERROR(in.GetString(&db.config_.metric_name));
  PMI_RETURN_IF_ERROR(in.GetDouble(&db.metric_param_used_));
  PMI_RETURN_IF_ERROR(in.GetU8(&discrete));
  db.metric_discrete_ = discrete != 0;
  db.config_.metric_param = db.metric_param_used_;
  PMI_RETURN_IF_ERROR(in.GetString(&db.config_.index_name));
  PMI_RETURN_IF_ERROR(in.GetString(&db.config_.pivot_method));
  PMI_RETURN_IF_ERROR(in.GetU32(&db.config_.pivot_count));
  PMI_RETURN_IF_ERROR(ReadOptions(&in, &db.config_.options));
  PMI_RETURN_IF_ERROR(ValidateOptions(db.config_.options));
  // The pool is runtime state, never serialized: a reopened database
  // gets a fresh private cache (see Create for the sizing rule).
  db.config_.options.buffer_pool = std::make_shared<BufferPool>(
      db.config_.options.page_size, db.config_.options.cache_bytes);

  PMI_ASSIGN_OR_RETURN(Dataset data, DeserializeDataset(&in));
  if (data.empty()) {
    return DataLossError("snapshot holds an empty dataset");
  }
  db.data_ = std::make_shared<Dataset>(std::move(data));
  PMI_ASSIGN_OR_RETURN(PivotSet pivots, DeserializePivotSet(&in));
  db.pivots_ = std::make_shared<PivotSet>(std::move(pivots));
  PMI_ASSIGN_OR_RETURN(
      db.metric_,
      InstantiateMetric(db.config_.metric_name, *db.data_,
                        db.metric_param_used_, db.metric_discrete_));
  PMI_RETURN_IF_ERROR(CheckApplicability(db.config_.index_name, *db.metric_));
  PMI_ASSIGN_OR_RETURN(db.index_,
                       TryMakeIndex(db.config_.index_name, db.config_.options,
                                    db.pivots_->size()));

  uint8_t has_state = 0;
  PMI_RETURN_IF_ERROR(in.GetU8(&has_state));
  std::string state;
  if (has_state != 0) {
    PMI_RETURN_IF_ERROR(in.GetString(&state));
  }

  // Update-history tail: optional for backward compatibility (snapshots
  // written before updates existed simply end after the state block).
  if (!in.exhausted()) {
    PMI_RETURN_IF_ERROR(in.GetU64(&db.seq_));
    PMI_RETURN_IF_ERROR(in.GetVector(&db.live_));
    if (db.live_.size() != db.data_->size()) {
      return DataLossError(
          "snapshot liveness bitmap covers " +
          std::to_string(db.live_.size()) + " objects, dataset holds " +
          std::to_string(db.data_->size()));
    }
  } else {
    db.live_.assign(db.data_->size(), 1);
  }

  if (has_state != 0) {
    // Persisted index state was serialized AFTER any removes, so it
    // already reflects the liveness bitmap.
    ByteSource state_in(state);
    OpStats stats;
    PMI_RETURN_IF_ERROR(db.index_->LoadState(*db.data_, *db.metric_,
                                             *db.pivots_, &state_in, &stats));
    db.build_stats_ = stats;
    db.restored_ = true;
  } else {
    // Rebuild-on-open indexes every dataset object; replay the removes
    // of dead ids so the rebuilt index matches the saved membership.
    db.build_stats_ = db.index_->Build(*db.data_, *db.metric_, *db.pivots_);
    for (ObjectId id = 0; id < db.live_.size(); ++id) {
      if (db.live_[id] == 0) db.build_stats_ += db.index_->Remove(id);
    }
  }
  return db;
}

// -- updates ------------------------------------------------------------------

void MetricDB::ApplyToIndex(MetricIndex* index, const UpdateOp& op) {
  if (op.op == WalOp::kInsert) {
    index->Insert(op.id);
    live_[op.id] = 1;
  } else {
    index->Remove(op.id);
    live_[op.id] = 0;
  }
  ++seq_;
}

namespace {
constexpr char kFenceMismatchPrefix[] = "sequence fence mismatch";
}  // namespace

Status SequenceFenceError(uint64_t at, uint64_t expected) {
  return FailedPreconditionError(
      std::string(kFenceMismatchPrefix) + ": database at sequence " +
      std::to_string(at) + ", caller expected " + std::to_string(expected));
}

bool IsSequenceFenceMismatch(const Status& s) {
  return s.code() == StatusCode::kFailedPrecondition &&
         s.message().rfind(kFenceMismatchPrefix, 0) == 0;
}

Status MetricDB::Apply(const std::vector<UpdateOp>& ops) {
  return Apply(ops, ApplyOptions{});
}

Status MetricDB::Apply(const std::vector<UpdateOp>& ops,
                       const ApplyOptions& aopts) {
  std::lock_guard<std::mutex> lock(cc_->writer_mu);
  if (cc_->closed.load(std::memory_order_acquire)) {
    return FailedPreconditionError("database is closed");
  }
  PMI_RETURN_IF_ERROR(write_status_);
  // The fence must be checked before ANY side effect: a mismatch means
  // the caller's view of this shard is stale (most often: a retried
  // batch whose first attempt actually reached the WAL and was replayed
  // by recovery), and committing here could double-apply it.
  if (aopts.expected_sequence.has_value() &&
      *aopts.expected_sequence != seq_) {
    return SequenceFenceError(seq_, *aopts.expected_sequence);
  }
  // Validate the whole batch against the would-be state before logging
  // anything: Apply is all-or-nothing, and nothing may reach the WAL
  // unless it will definitely be applied.
  std::unordered_map<ObjectId, bool> overlay;
  for (const UpdateOp& op : ops) {
    if (op.id >= live_.size()) {
      return InvalidArgumentError(
          "object id " + std::to_string(op.id) + " out of range (dataset: " +
          std::to_string(live_.size()) + " objects)");
    }
    auto it = overlay.find(op.id);
    bool is_live = it != overlay.end() ? it->second : live_[op.id] != 0;
    if (op.op == WalOp::kInsert && is_live) {
      return FailedPreconditionError("object " + std::to_string(op.id) +
                                     " is already present");
    }
    if (op.op == WalOp::kRemove && !is_live) {
      return FailedPreconditionError("object " + std::to_string(op.id) +
                                     " is already removed");
    }
    overlay[op.id] = op.op == WalOp::kInsert;
  }
  if (wal_ != nullptr) {
    for (size_t i = 0; i < ops.size(); ++i) {
      wal_->Add(WalRecord{ops[i].op, seq_ + i + 1, ops[i].id});
    }
    Status logged = wal_->Commit();
    if (!logged.ok()) {
      // The log tail is now suspect: applying would acknowledge an
      // unrecoverable write.  Refuse this batch and go read-only.
      return FailWrites(std::move(logged));
    }
  }
  // Shadow apply: published versions are immutable by contract, so the
  // batch lands in a clone (copy-on-write -- untouched pivot-table
  // blocks and disk pages are shared) which then becomes both the next
  // published version and the writer's new working index.
  std::shared_ptr<MetricIndex> clone = index_->Clone();
  for (const UpdateOp& op : ops) ApplyToIndex(clone.get(), op);
  index_ = std::move(clone);
  PublishVersion();
  return OkStatus();
}

// -- durability ---------------------------------------------------------------

Status MetricDB::RotateCheckpoint() {
  // Flush the outgoing WAL so the previous (fallback) generation is
  // complete on disk.  Best-effort: the checkpoint about to be written
  // carries everything the old log held.
  if (wal_ != nullptr) wal_->Sync();

  const uint64_t next = checkpoint_gen_ + 1;
  PMI_RETURN_IF_ERROR(SaveTo(JoinPath(dir_, CkptName(next)), env_));
  PMI_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> wal_file,
                       env_->NewWritableFile(JoinPath(dir_, WalName(next))));
  PMI_RETURN_IF_ERROR(env_->SyncDir(dir_));
  wal_ = std::make_unique<WalWriter>(std::move(wal_file), dopts_.sync_mode,
                                     dopts_.sync_interval_commits);
  PruneGenerationsBelow(checkpoint_gen_);
  checkpoint_gen_ = next;
  return OkStatus();
}

void MetricDB::PruneGenerationsBelow(uint64_t keep_from) {
  // Retention window: the new generation plus the previous one (the
  // corruption fallback).  Pruning is best-effort -- a leftover file
  // costs disk, not correctness.
  StatusOr<std::vector<std::string>> names = env_->ListDir(dir_);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    uint64_t gen = 0;
    if ((ParseGenName(name, "ckpt-", ".pmidb", &gen) ||
         ParseGenName(name, "wal-", ".log", &gen)) &&
        gen < keep_from) {
      env_->RemoveFile(JoinPath(dir_, name));
    }
  }
}

Status MetricDB::Checkpoint() {
  if (!durable_) {
    return FailedPreconditionError(
        "Checkpoint() requires a durable database (CreateDurable/"
        "OpenDurable)");
  }
  std::lock_guard<std::mutex> ckpt_lock(cc_->checkpoint_mu);
  // Pin the state and rotate the WAL under the writer lock (cheap), then
  // serialize the pinned version outside it while updates and queries
  // proceed.
  std::shared_ptr<const TableVersion> v;
  uint64_t next = 0;
  {
    std::lock_guard<std::mutex> lock(cc_->writer_mu);
    if (cc_->closed.load(std::memory_order_acquire)) {
      return FailedPreconditionError("database is closed");
    }
    PMI_RETURN_IF_ERROR(write_status_);
    v = PinVersion();
    next = checkpoint_gen_ + 1;
    // The outgoing generation must be complete on disk before a new one
    // starts: a silently lost tail here would be a mid-chain hole that
    // replay cannot detect once wal-(next) continues past it.
    if (wal_ != nullptr) {
      Status synced = wal_->Sync();
      if (!synced.ok()) return FailWrites(std::move(synced));
    }
    StatusOr<std::unique_ptr<WritableFile>> wal_file =
        env_->NewWritableFile(JoinPath(dir_, WalName(next)));
    if (!wal_file.ok()) return FailWrites(wal_file.status());
    Status dir_synced = env_->SyncDir(dir_);
    if (!dir_synced.ok()) return FailWrites(std::move(dir_synced));
    wal_ = std::make_unique<WalWriter>(std::move(*wal_file), dopts_.sync_mode,
                                       dopts_.sync_interval_commits);
  }

  // Updates committed from here on land in wal-(next), which recovery
  // replays on top of either checkpoint -- ckpt-(next) once it lands,
  // or the previous one plus the full WAL chain if we crash first.
  Status saved = SaveStateTo(*v->index, v->live, v->sequence,
                             JoinPath(dir_, CkptName(next)), env_);
  std::lock_guard<std::mutex> lock(cc_->writer_mu);
  if (!saved.ok()) {
    // The directory is still recoverable (old checkpoint + unbroken WAL
    // chain), but a failed snapshot write says the disk is unwell:
    // stop acknowledging updates.
    return FailWrites(std::move(saved));
  }
  checkpoint_gen_ = next;
  PruneGenerationsBelow(next - 1);
  return OkStatus();
}

StatusOr<MetricDB> MetricDB::CreateDurable(const MetricDBConfig& config,
                                           Dataset data,
                                           const std::string& dir,
                                           const DurabilityOptions& dopts) {
  PMI_ASSIGN_OR_RETURN(MetricDB db, Create(config, std::move(data)));
  db.env_ = dopts.env != nullptr ? dopts.env : Env::Default();
  db.dopts_ = dopts;
  db.dir_ = dir;
  db.durable_ = true;
  db.checkpoint_gen_ = 0;
  PMI_RETURN_IF_ERROR(db.env_->CreateDir(dir));
  PMI_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> dir_lock,
                       AcquireDirLock(db.env_, dir));
  // From here on the destructor releases the LOCK on every error path.
  db.cc_->dir_lock = std::move(dir_lock);
  PMI_RETURN_IF_ERROR(db.RotateCheckpoint());
  return db;
}

Status MetricDB::ReplayWalGenerations(Env* env, const std::string& dir,
                                      uint64_t first_gen) {
  uint64_t gen = first_gen;
  bool prior_tail_truncated = false;
  while (true) {
    if (!env->FileExists(JoinPath(dir, WalName(gen)))) {
      if (env->FileExists(JoinPath(dir, WalName(gen + 1)))) {
        // A later log without this one: the history has a hole (e.g. a
        // generation pruned beyond the fallback window) -- replaying
        // around it would serve a non-prefix state.
        return DataLossError("WAL generation " + std::to_string(gen) +
                             " is missing but generation " +
                             std::to_string(gen + 1) + " exists");
      }
      break;
    }
    if (prior_tail_truncated) {
      // Records were lost from the middle of the history: generation
      // gen-1 ended in a torn tail, yet a later generation exists.
      return DataLossError(
          "WAL generation " + std::to_string(gen - 1) +
          " lost its tail but generation " + std::to_string(gen) +
          " continues past it");
    }
    PMI_ASSIGN_OR_RETURN(
        WalReplay replay,
        ReadWalFile(env, JoinPath(dir, WalName(gen)), seq_ + 1));
    for (const WalRecord& record : replay.records) {
      if (record.id >= live_.size()) {
        return DataLossError("WAL record names object " +
                             std::to_string(record.id) +
                             ", which the checkpoint does not contain");
      }
      const bool is_live = live_[record.id] != 0;
      if ((record.op == WalOp::kInsert) == is_live) {
        return DataLossError(
            "WAL record " + std::to_string(record.seq) +
            " is inconsistent with the recovered liveness of object " +
            std::to_string(record.id));
      }
      ApplyToIndex(index_.get(), UpdateOp{record.op, record.id});
    }
    prior_tail_truncated = replay.truncated_tail;
    if (replay.truncated_tail &&
        !env->FileExists(JoinPath(dir, WalName(gen + 1)))) {
      // Torn tail on the LAST generation: the damaged record cannot
      // have been acknowledged past a completed sync, and no later
      // generation continues over it -- so scrub the debris now.  This
      // generation then presents a clean tail when it is replayed again
      // as a fallback after a newer checkpoint goes bad; without the
      // repair that replay would see a lost tail under a continuing
      // generation and have to declare an (actually false) mid-chain
      // hole.  Mid-chain debris keeps the conservative kDataLoss above.
      PMI_RETURN_IF_ERROR(
          env->TruncateFile(JoinPath(dir, WalName(gen)), replay.valid_bytes));
      prior_tail_truncated = false;
    }
    ++gen;
  }
  return OkStatus();
}

StatusOr<MetricDB> MetricDB::OpenDurable(const std::string& dir,
                                         const DurabilityOptions& dopts) {
  Env* env = dopts.env != nullptr ? dopts.env : Env::Default();
  PMI_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> dir_lock,
                       AcquireDirLock(env, dir));
  // Until a database object owns the lock, this guard releases it on
  // every error path out of recovery.
  struct LockRelease {
    Env* env;
    std::string dir;
    std::unique_ptr<FileLock> lock;
    ~LockRelease() {
      if (lock != nullptr) {
        UnregisterDirLock(dir);
        env->RemoveFile(JoinPath(dir, kLockFileName));
        lock.reset();  // releases the kernel lock
      }
    }
  } lock_release{env, dir, std::move(dir_lock)};

  PMI_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  std::vector<uint64_t> ckpt_gens;
  uint64_t max_gen = 0;
  for (const std::string& name : names) {
    uint64_t gen = 0;
    if (ParseGenName(name, "ckpt-", ".pmidb", &gen)) {
      ckpt_gens.push_back(gen);
      max_gen = std::max(max_gen, gen);
    } else if (ParseGenName(name, "wal-", ".log", &gen)) {
      max_gen = std::max(max_gen, gen);
    }
  }
  if (ckpt_gens.empty()) {
    return NotFoundError("\"" + dir + "\" holds no MetricDB checkpoint");
  }
  std::sort(ckpt_gens.begin(), ckpt_gens.end(), std::greater<>());

  // Newest checkpoint first; on any corruption fall back to the next
  // older one (whose WAL chain independently re-derives the history).
  Status last_err;
  for (uint64_t gen : ckpt_gens) {
    StatusOr<std::string> payload =
        ReadSnapshotFile(JoinPath(dir, CkptName(gen)), env);
    if (!payload.ok()) {
      last_err = payload.status();
      continue;
    }
    StatusOr<MetricDB> opened = FromPayload(*payload);
    if (!opened.ok()) {
      last_err = opened.status();
      continue;
    }
    MetricDB db = std::move(*opened);
    Status replayed = db.ReplayWalGenerations(env, dir, gen);
    if (!replayed.ok()) {
      last_err = replayed;
      continue;
    }
    db.env_ = env;
    db.dopts_ = dopts;
    db.dir_ = dir;
    db.durable_ = true;
    // Start past every generation ever seen, so a corrupt newer
    // checkpoint is never overwritten (it stays around for forensics
    // until the retention window passes it by).
    db.checkpoint_gen_ = max_gen;
    // Publication starts only now that replay has settled the state the
    // initial version must reflect.
    db.PublishVersion();
    // Recovery re-checkpoints: the recovered state becomes durable on
    // its own, and torn WAL debris drops out of the replay path.
    PMI_RETURN_IF_ERROR(db.RotateCheckpoint());
    db.cc_->dir_lock = std::move(lock_release.lock);
    return db;
  }
  return last_err;
}

}  // namespace pmi
