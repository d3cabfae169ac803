// Crash-recovery conformance for the durability subsystem.
//
// Three layers of coverage:
//   1. WAL unit tests: record format (CRC32C known answers, encode/
//      decode), graceful tail truncation, sequence-gap refusal, group
//      commit, sticky writer failure.
//   2. Durable lifecycle: CreateDurable/OpenDurable round trips, WAL
//      replay after a clean kill, checkpoint rotation + generation
//      pruning, fallback past a corrupt newest checkpoint.
//   3. The fault-point sweep (the PR's acceptance criterion): one fixed
//      update script runs against a FaultInjectingEnv; every
//      durability-relevant mutation of the script is a fault point, and
//      for every fault kind x every fault point the run is crashed and
//      recovered through a clean Env.  Recovery must either land on
//      exactly the acknowledged history (>= acked under SyncMode::
//      kAlways; any valid prefix for silent bit-flips) or return a
//      typed non-OK Status -- never crash, and the recovered database
//      must answer MRQ/MkNN bit-identically to a LinearScan oracle
//      replaying the same acknowledged prefix.
//
// Knobs (the harness env-var convention):
//   PMI_FAULT_POINTS  cap on fault points per kind (0 = every point)
//   PMI_FAULT_SEED    base seed for fault randomization
//   PMI_RECOVERY_LOG  append a per-point outcome line to this file

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/metric_db.h"
#include "src/api/snapshot.h"
#include "src/core/rng.h"
#include "src/data/generators.h"
#include "src/harness/workload.h"
#include "src/service/sharded_service.h"
#include "src/storage/env.h"
#include "src/storage/fault_env.h"
#include "src/storage/wal.h"

namespace pmi {
namespace {

constexpr uint32_t kDatasetN = 300;
constexpr uint64_t kDataSeed = 77;
constexpr uint32_t kScriptOps = 60;
constexpr uint64_t kScriptSeed = 20260808;

// The pid keeps two concurrent runs of this test out of each other's
// files.
std::string NewDir(const std::string& name) {
  return ::testing::TempDir() + "pmi_wal_" + std::to_string(::getpid()) +
         "_" + name;
}

void RemoveTree(const std::string& dir) {
  Env* env = Env::Default();
  StatusOr<std::vector<std::string>> names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      env->RemoveFile(JoinPath(dir, name));
    }
  }
  ::rmdir(dir.c_str());
}

// -- WAL format ---------------------------------------------------------------

TEST(WalFormatTest, Crc32cKnownAnswers) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(WalFormatTest, ParseSyncModeRoundTrips) {
  EXPECT_EQ(*ParseSyncMode("always"), SyncMode::kAlways);
  EXPECT_EQ(*ParseSyncMode("interval"), SyncMode::kInterval);
  EXPECT_EQ(*ParseSyncMode("never"), SyncMode::kNever);
  EXPECT_EQ(ParseSyncMode("sometimes").status().code(),
            StatusCode::kInvalidArgument);
}

class WalFileTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "pmi_wal_file.log"; }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), bytes.size());
  }

  static std::string EncodeRecords(const std::vector<WalRecord>& records) {
    std::string bytes;
    for (const WalRecord& r : records) AppendWalRecord(r, &bytes);
    return bytes;
  }

  std::string path_;
};

TEST_F(WalFileTest, RoundTripsRecords) {
  WriteBytes(EncodeRecords({{WalOp::kRemove, 1, 7},
                            {WalOp::kInsert, 2, 7},
                            {WalOp::kRemove, 3, 250}}));
  auto replay = ReadWalFile(Env::Default(), path_, 1);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_FALSE(replay->truncated_tail);
  EXPECT_EQ(replay->records[0].op, WalOp::kRemove);
  EXPECT_EQ(replay->records[1].op, WalOp::kInsert);
  EXPECT_EQ(replay->records[2].id, 250u);
  EXPECT_EQ(replay->records[2].seq, 3u);
}

TEST_F(WalFileTest, EveryTruncationYieldsAValidPrefix) {
  std::string bytes = EncodeRecords(
      {{WalOp::kRemove, 5, 1}, {WalOp::kInsert, 6, 1}, {WalOp::kRemove, 7, 2}});
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(bytes.substr(0, len));
    auto replay = ReadWalFile(Env::Default(), path_, 5);
    ASSERT_TRUE(replay.ok()) << "truncated at " << len;
    // Whole records up to the cut survive; the partial tail is flagged.
    EXPECT_EQ(replay->records.size(), len / 21) << "truncated at " << len;
    EXPECT_EQ(replay->truncated_tail, len % 21 != 0) << "at " << len;
    EXPECT_EQ(replay->valid_bytes, (len / 21) * 21);
  }
}

TEST_F(WalFileTest, BitFlipTruncatesAtTheDamagedRecord) {
  std::string bytes =
      EncodeRecords({{WalOp::kRemove, 1, 3}, {WalOp::kInsert, 2, 3}});
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = char(bad[pos] ^ 0x10);
    WriteBytes(bad);
    auto replay = ReadWalFile(Env::Default(), path_, 1);
    if (!replay.ok()) {
      // A flip may forge a record: a valid-CRC unknown op or a sequence
      // break are typed refusals, never silent acceptance.
      EXPECT_TRUE(replay.status().code() == StatusCode::kDataLoss ||
                  replay.status().code() == StatusCode::kFailedPrecondition)
          << "flip at " << pos << ": " << replay.status().ToString();
      continue;
    }
    EXPECT_LE(replay->records.size(), 2u);
    if (pos < 21) {
      // Damage in record 1 must not surface record 1.
      EXPECT_TRUE(replay->truncated_tail) << "flip at " << pos;
      EXPECT_EQ(replay->records.size(), 0u) << "flip at " << pos;
    }
  }
}

TEST_F(WalFileTest, SequenceGapIsDataLoss) {
  WriteBytes(EncodeRecords({{WalOp::kRemove, 1, 3}, {WalOp::kInsert, 3, 3}}));
  auto replay = ReadWalFile(Env::Default(), path_, 1);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);

  // Wrong starting sequence against the checkpoint's expectation.
  WriteBytes(EncodeRecords({{WalOp::kRemove, 4, 3}}));
  auto replay2 = ReadWalFile(Env::Default(), path_, 2);
  ASSERT_FALSE(replay2.ok());
  EXPECT_EQ(replay2.status().code(), StatusCode::kDataLoss);

  // expect_first_seq = 0 accepts any start (mid-history log files).
  auto replay3 = ReadWalFile(Env::Default(), path_, 0);
  ASSERT_TRUE(replay3.ok());
  EXPECT_EQ(replay3->records.size(), 1u);
}

TEST_F(WalFileTest, MissingFileIsNotFound) {
  auto replay = ReadWalFile(Env::Default(), path_ + ".nope", 1);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

/// WritableFile that records every Append/Sync for group-commit checks.
class CapturingFile final : public WritableFile {
 public:
  struct Log {
    std::vector<std::string> appends;
    int syncs = 0;
    Status next_status;
  };
  explicit CapturingFile(Log* log) : log_(log) {}
  Status Append(std::string_view data) override {
    PMI_RETURN_IF_ERROR(log_->next_status);
    log_->appends.emplace_back(data);
    return OkStatus();
  }
  Status Sync() override {
    PMI_RETURN_IF_ERROR(log_->next_status);
    ++log_->syncs;
    return OkStatus();
  }
  Status Close() override { return OkStatus(); }

 private:
  Log* log_;
};

TEST(WalWriterTest, GroupCommitIsOneAppend) {
  CapturingFile::Log log;
  WalWriter writer(std::make_unique<CapturingFile>(&log), SyncMode::kAlways,
                   1);
  for (uint64_t i = 1; i <= 5; ++i) writer.Add({WalOp::kRemove, i, 0});
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(log.appends.size(), 1u) << "one batch, one write";
  EXPECT_EQ(log.appends[0].size(), 5 * 21u);
  EXPECT_EQ(log.syncs, 1);
}

TEST(WalWriterTest, IntervalModeSyncsEveryNCommits) {
  CapturingFile::Log log;
  WalWriter writer(std::make_unique<CapturingFile>(&log), SyncMode::kInterval,
                   4);
  for (uint64_t i = 1; i <= 8; ++i) {
    writer.Add({WalOp::kRemove, i, 0});
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(log.syncs, 2);
}

TEST(WalWriterTest, FailureIsSticky) {
  CapturingFile::Log log;
  WalWriter writer(std::make_unique<CapturingFile>(&log), SyncMode::kAlways,
                   1);
  writer.Add({WalOp::kRemove, 1, 0});
  log.next_status = UnavailableError("disk on fire");
  EXPECT_FALSE(writer.Commit().ok());
  log.next_status = OkStatus();
  writer.Add({WalOp::kRemove, 2, 0});
  Status second = writer.Commit();
  ASSERT_FALSE(second.ok()) << "writer must refuse work after a failure";
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(log.appends.empty());
}

// -- shared sweep machinery ---------------------------------------------------

/// A fixed, liveness-valid update script (same construction idea as the
/// differential stress harness: the generator tracks liveness itself).
std::vector<UpdateOp> MakeUpdateScript(uint32_t n, uint32_t num_ops,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> live(n, 1);
  std::vector<uint32_t> removed;
  std::vector<UpdateOp> ops;
  while (ops.size() < num_ops) {
    if (!removed.empty() && rng() % 3 == 0) {
      size_t pick = rng() % removed.size();
      uint32_t id = removed[pick];
      removed.erase(removed.begin() + pick);
      live[id] = 1;
      ops.push_back(UpdateOp::Insert(id));
    } else {
      uint32_t id = rng() % n;
      while (live[id] == 0) id = (id + 1) % n;
      live[id] = 0;
      removed.push_back(id);
      ops.push_back(UpdateOp::Remove(id));
    }
  }
  return ops;
}

/// The durable database under test shares one pivot selection across
/// every sweep point (selection cost is irrelevant to durability).
const PivotSet& SharedPivots() {
  static const PivotSet* pivots = [] {
    Dataset data = MakeLaLike(kDatasetN, kDataSeed);
    auto db = MetricDB::Create(
        MetricDBConfig().WithMetric("L2").WithIndex("LAESA").WithPivots(3),
        std::move(data));
    CheckOk(db.ok() ? OkStatus() : db.status(), "pivot selection");
    return new PivotSet(db->pivots());
  }();
  return *pivots;
}

MetricDBConfig SweepConfig(const std::string& index) {
  return MetricDBConfig().WithMetric("L2").WithIndex(index).WithPivotSet(
      index == "LinearScan" ? PivotSet() : SharedPivots());
}

struct RunOutcome {
  bool created = false;    // CreateDurable returned OK
  uint64_t acked = 0;      // last sequence whose Apply returned OK
  uint64_t attempted = 0;  // acked, +1 if a final batch reached the WAL
};

/// Replays the script through `dopts.env`, checkpointing once
/// mid-script, stopping at the first refusal (the database is read-only
/// from then on by contract).
RunOutcome RunScript(const std::vector<UpdateOp>& ops, const std::string& dir,
                     const std::string& index, DurabilityOptions dopts) {
  RunOutcome out;
  auto db = MetricDB::CreateDurable(SweepConfig(index),
                                    MakeLaLike(kDatasetN, kDataSeed), dir,
                                    dopts);
  if (!db.ok()) return out;
  out.created = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == ops.size() / 2 && !db->Checkpoint().ok()) break;
    Status applied = db->Apply({ops[i]});
    if (!applied.ok()) {
      // The op may or may not have reached the log before the fault;
      // recovery is allowed to surface it but never anything beyond.
      out.attempted = out.acked + 1;
      break;
    }
    out.acked = out.attempted = db->last_sequence();
  }
  return out;
}

/// Expected liveness after the first `seq` script ops.
std::vector<uint8_t> PrefixLiveness(const std::vector<UpdateOp>& ops,
                                    uint64_t seq) {
  std::vector<uint8_t> live(kDatasetN, 1);
  for (uint64_t i = 0; i < seq; ++i) {
    live[ops[i].id] = ops[i].op == WalOp::kInsert ? 1 : 0;
  }
  return live;
}

/// Differential check: the recovered database must answer bit-identically
/// to a LinearScan oracle replaying the same acknowledged prefix.
void ExpectMatchesOracle(const MetricDB& recovered,
                         const std::vector<UpdateOp>& ops,
                         const std::string& context) {
  const uint64_t seq = recovered.last_sequence();
  ASSERT_LE(seq, ops.size()) << context;
  auto oracle = MetricDB::Create(SweepConfig("LinearScan"),
                                 MakeLaLike(kDatasetN, kDataSeed));
  ASSERT_TRUE(oracle.ok()) << context << ": " << oracle.status().ToString();
  for (uint64_t i = 0; i < seq; ++i) {
    ASSERT_TRUE(oracle->Apply({ops[i]}).ok()) << context;
  }

  std::vector<uint8_t> live = PrefixLiveness(ops, seq);
  for (ObjectId id = 0; id < kDatasetN; ++id) {
    ASSERT_EQ(recovered.alive(id), live[id] != 0)
        << context << ": liveness of object " << id << " diverged";
  }

  for (ObjectId q : {17u, 94u, 203u}) {
    ObjectView view = oracle->dataset().view(q);
    for (double radius : {0.0, 650.0}) {
      auto got = recovered.RangeQuery(recovered.dataset().view(q), radius);
      auto want = oracle->RangeQuery(view, radius);
      ASSERT_TRUE(got.ok() && want.ok()) << context;
      std::vector<ObjectId> got_ids = got->ids[0], want_ids = want->ids[0];
      std::sort(got_ids.begin(), got_ids.end());
      std::sort(want_ids.begin(), want_ids.end());
      ASSERT_EQ(got_ids, want_ids)
          << context << ": MRQ(q=" << q << ", r=" << radius << ") diverged";
    }
    for (size_t k : {1ul, 10ul}) {
      auto got = recovered.KnnQuery(recovered.dataset().view(q), k);
      auto want = oracle->KnnQuery(view, k);
      ASSERT_TRUE(got.ok() && want.ok()) << context;
      ASSERT_EQ(got->neighbors[0].size(), want->neighbors[0].size())
          << context;
      for (size_t j = 0; j < want->neighbors[0].size(); ++j) {
        ASSERT_EQ(got->neighbors[0][j].dist, want->neighbors[0][j].dist)
            << context << ": MkNN(q=" << q << ", k=" << k
            << ") distance " << j << " diverged";
      }
    }
  }
}

// -- durable lifecycle --------------------------------------------------------

TEST(DurableLifecycleTest, CleanKillReplaysTheWalTail) {
  const std::string dir = NewDir("clean_kill");
  RemoveTree(dir);
  std::vector<UpdateOp> ops = MakeUpdateScript(kDatasetN, 20, kScriptSeed);
  {
    auto db = MetricDB::CreateDurable(SweepConfig("LAESA"),
                                      MakeLaLike(kDatasetN, kDataSeed), dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE(db->durable());
    for (const UpdateOp& op : ops) ASSERT_TRUE(db->Apply({op}).ok());
    EXPECT_EQ(db->last_sequence(), ops.size());
    // No Save, no Checkpoint: the process "dies" here and the WAL is
    // the only carrier of all 20 updates.
  }
  auto recovered = MetricDB::OpenDurable(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->last_sequence(), ops.size());
  ExpectMatchesOracle(*recovered, ops, "clean kill");
  RemoveTree(dir);
}

TEST(DurableLifecycleTest, BatchApplyIsAtomicAndValidated) {
  const std::string dir = NewDir("batch");
  RemoveTree(dir);
  auto db = MetricDB::CreateDurable(SweepConfig("LAESA"),
                                    MakeLaLike(kDatasetN, kDataSeed), dir);
  ASSERT_TRUE(db.ok());
  // In-batch dependencies validate against the would-be state...
  ASSERT_TRUE(db
                  ->Apply({UpdateOp::Remove(4), UpdateOp::Insert(4),
                           UpdateOp::Remove(4)})
                  .ok());
  EXPECT_FALSE(db->alive(4));
  EXPECT_EQ(db->last_sequence(), 3u);
  // ...and an invalid op anywhere rejects the whole batch.
  Status bad = db->Apply({UpdateOp::Remove(5), UpdateOp::Remove(5)});
  EXPECT_EQ(bad.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db->alive(5));
  EXPECT_EQ(db->last_sequence(), 3u);
  EXPECT_EQ(db->Apply({UpdateOp::Remove(kDatasetN)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(db->write_status().ok()) << "validation failures are not "
                                          "I/O faults; the DB stays writable";
  RemoveTree(dir);
}

TEST(DurableLifecycleTest, CheckpointRotatesAndPrunesGenerations) {
  const std::string dir = NewDir("rotate");
  RemoveTree(dir);
  auto db = MetricDB::CreateDurable(SweepConfig("LAESA"),
                                    MakeLaLike(kDatasetN, kDataSeed), dir);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Remove(1).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // gen 2
  ASSERT_TRUE(db->Remove(2).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // gen 3; gen 1 leaves the window
  Env* env = Env::Default();
  EXPECT_FALSE(env->FileExists(JoinPath(dir, "ckpt-000001.pmidb")));
  EXPECT_FALSE(env->FileExists(JoinPath(dir, "wal-000001.log")));
  EXPECT_TRUE(env->FileExists(JoinPath(dir, "ckpt-000002.pmidb")));
  EXPECT_TRUE(env->FileExists(JoinPath(dir, "ckpt-000003.pmidb")));
  ASSERT_TRUE(db->Close().ok());  // release the LOCK before reopening
  auto recovered = MetricDB::OpenDurable(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->last_sequence(), 2u);
  EXPECT_FALSE(recovered->alive(1));
  EXPECT_FALSE(recovered->alive(2));
  RemoveTree(dir);
}

TEST(DurableLifecycleTest, CorruptNewestCheckpointFallsBackOneGeneration) {
  const std::string dir = NewDir("fallback");
  RemoveTree(dir);
  std::vector<UpdateOp> ops = MakeUpdateScript(kDatasetN, 12, kScriptSeed + 1);
  {
    auto db = MetricDB::CreateDurable(SweepConfig("LAESA"),
                                      MakeLaLike(kDatasetN, kDataSeed), dir);
    ASSERT_TRUE(db.ok());
    for (size_t i = 0; i < 6; ++i) ASSERT_TRUE(db->Apply({ops[i]}).ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // gen 2 holds seq 6
    for (size_t i = 6; i < ops.size(); ++i) {
      ASSERT_TRUE(db->Apply({ops[i]}).ok());
    }
  }
  // Flip a byte in the middle of the newest checkpoint.
  {
    const std::string newest = JoinPath(dir, "ckpt-000002.pmidb");
    std::fstream f(newest,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    f.put(char(0x5a));
  }
  // Recovery falls back to gen 1 and re-derives the full history from
  // the WAL chain wal-1 + wal-2.
  auto recovered = MetricDB::OpenDurable(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->last_sequence(), ops.size());
  ExpectMatchesOracle(*recovered, ops, "checkpoint fallback");
  RemoveTree(dir);
}

TEST(DurableLifecycleTest, RelaxedSyncModesRecoverAValidPrefix) {
  for (SyncMode mode : {SyncMode::kInterval, SyncMode::kNever}) {
    const std::string dir = NewDir("relaxed");
    RemoveTree(dir);
    std::vector<UpdateOp> ops =
        MakeUpdateScript(kDatasetN, 24, kScriptSeed + 2);
    DurabilityOptions dopts;
    dopts.sync_mode = mode;
    dopts.sync_interval_commits = 8;
    {
      auto db = MetricDB::CreateDurable(SweepConfig("LAESA"),
                                        MakeLaLike(kDatasetN, kDataSeed), dir,
                                        dopts);
      ASSERT_TRUE(db.ok());
      for (const UpdateOp& op : ops) ASSERT_TRUE(db->Apply({op}).ok());
    }
    auto recovered = MetricDB::OpenDurable(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // A clean process exit loses nothing even unsynced (the OS kept the
    // pages); the guarantee under test is prefix-validity.
    EXPECT_LE(recovered->last_sequence(), ops.size());
    ExpectMatchesOracle(*recovered, ops, "relaxed sync");
    RemoveTree(dir);
  }
}

TEST(DurabilityOptionsTest, FromEnvParsesTheKnobs) {
  // The CI soak matrix drives the sweep below through these same
  // variables, so restore whatever was set rather than unsetting.
  const char* old_sync = std::getenv("PMI_WAL_SYNC");
  const char* old_interval = std::getenv("PMI_WAL_SYNC_INTERVAL");
  ::setenv("PMI_WAL_SYNC", "interval", 1);
  ::setenv("PMI_WAL_SYNC_INTERVAL", "16", 1);
  DurabilityOptions o = DurabilityOptions::FromEnv();
  EXPECT_EQ(o.sync_mode, SyncMode::kInterval);
  EXPECT_EQ(o.sync_interval_commits, 16u);
  ::setenv("PMI_WAL_SYNC", "bogus", 1);
  ::setenv("PMI_WAL_SYNC_INTERVAL", "zero", 1);
  o = DurabilityOptions::FromEnv();
  EXPECT_EQ(o.sync_mode, SyncMode::kAlways) << "unparsable keeps the default";
  EXPECT_EQ(o.sync_interval_commits, 32u);
  if (old_sync) ::setenv("PMI_WAL_SYNC", old_sync, 1);
  else ::unsetenv("PMI_WAL_SYNC");
  if (old_interval) ::setenv("PMI_WAL_SYNC_INTERVAL", old_interval, 1);
  else ::unsetenv("PMI_WAL_SYNC_INTERVAL");
}

// -- the fault-point sweep ----------------------------------------------------

struct SweepStats {
  uint64_t points = 0;
  uint64_t recovered_ok = 0;
  uint64_t typed_errors = 0;
};

void SweepKind(FaultKind kind, uint64_t mutation_count,
               const std::vector<UpdateOp>& ops, const std::string& index,
               SyncMode sync_mode, uint64_t base_seed, uint32_t max_points,
               std::ofstream* log, SweepStats* stats) {
  // Visit every fault point, or an evenly-spaced subset when capped.
  const uint64_t step =
      max_points != 0 && mutation_count > max_points
          ? (mutation_count + max_points - 1) / max_points
          : 1;
  for (uint64_t trigger = 0; trigger < mutation_count; trigger += step) {
    SCOPED_TRACE(std::string(FaultKindName(kind)) + " at mutation " +
                 std::to_string(trigger));
    const std::string dir = NewDir("sweep");
    RemoveTree(dir);
    FaultInjectingEnv fault_env(Env::Default());
    fault_env.Arm({kind, trigger, base_seed ^ (trigger * 2654435761u)});
    DurabilityOptions dopts;
    dopts.sync_mode = sync_mode;
    dopts.env = &fault_env;
    RunOutcome run = RunScript(ops, dir, index, dopts);

    // The machine is now "powered off"; recover through a clean Env.
    auto recovered = MetricDB::OpenDurable(dir);
    ++stats->points;
    if (recovered.ok()) {
      ++stats->recovered_ok;
      const uint64_t seq = recovered->last_sequence();
      EXPECT_LE(seq, run.attempted)
          << "recovery surfaced updates that were never attempted";
      if (kind != FaultKind::kBitFlip && run.created &&
          sync_mode == SyncMode::kAlways) {
        // Reported faults keep the ack guarantee; only silent media
        // corruption may eat acknowledged records (detected, prefix).
        EXPECT_GE(seq, run.acked)
            << "recovery lost acknowledged updates (acked=" << run.acked
            << ")";
      }
      ExpectMatchesOracle(*recovered, ops, "sweep");
    } else {
      ++stats->typed_errors;
      EXPECT_NE(recovered.status().code(), StatusCode::kOk);
    }
    if (log != nullptr && log->is_open()) {
      *log << index << " " << FaultKindName(kind) << " trigger=" << trigger
           << " created=" << run.created << " acked=" << run.acked
           << " attempted=" << run.attempted << " outcome="
           << (recovered.ok()
                   ? "recovered seq=" +
                         std::to_string(recovered->last_sequence())
                   : recovered.status().ToString())
           << "\n";
    }
    RemoveTree(dir);
  }
}

TEST(FaultSweepTest, EveryFaultPointRecoversOrFailsTyped) {
  std::vector<UpdateOp> ops =
      MakeUpdateScript(kDatasetN, kScriptOps, kScriptSeed);

  // The CI soak matrix sweeps sync modes through PMI_WAL_SYNC; the
  // assertions below scope themselves to the mode's guarantee.
  const SyncMode sweep_mode = DurabilityOptions::FromEnv().sync_mode;

  // Calibration pass: count the script's durability-relevant mutations
  // with an unarmed env; the sweep then visits each one.
  const std::string calib_dir = NewDir("calibrate");
  RemoveTree(calib_dir);
  FaultInjectingEnv calib_env(Env::Default());
  calib_env.Arm({FaultKind::kNone, 0, 1});
  DurabilityOptions calib_opts;
  calib_opts.sync_mode = sweep_mode;
  calib_opts.env = &calib_env;
  RunOutcome calib = RunScript(ops, calib_dir, "LAESA", calib_opts);
  RemoveTree(calib_dir);
  ASSERT_TRUE(calib.created);
  ASSERT_EQ(calib.acked, ops.size()) << "unarmed run must ack everything";
  const uint64_t mutation_count = calib_env.mutation_count();
  if (sweep_mode == SyncMode::kAlways) {
    ASSERT_GE(mutation_count, 100u)
        << "script too small to give the sweep its >= 500 fault points";
  }

  const uint64_t base_seed = EnvU32("PMI_FAULT_SEED", 20260808);
  const uint32_t max_points = EnvU32("PMI_FAULT_POINTS", 0);
  std::ofstream log;
  if (const char* path = std::getenv("PMI_RECOVERY_LOG")) {
    log.open(path, std::ios::app);
  }

  SweepStats stats;
  for (FaultKind kind :
       {FaultKind::kTornWrite, FaultKind::kShortWrite, FaultKind::kFailedSync,
        FaultKind::kNoSpace, FaultKind::kBitFlip}) {
    SweepKind(kind, mutation_count, ops, "LAESA", sweep_mode, base_seed,
              max_points, log.is_open() ? &log : nullptr, &stats);
  }
  if (max_points == 0 && sweep_mode == SyncMode::kAlways) {
    EXPECT_GE(stats.points, 500u) << "acceptance criterion: >= 500 points";
  }
  // Most fault points must actually recover; typed failure is the
  // exception (e.g. a fault during the very first checkpoint).
  EXPECT_GT(stats.recovered_ok, stats.points / 2);
  if (log.is_open()) {
    log << "total points=" << stats.points
        << " recovered=" << stats.recovered_ok
        << " typed_errors=" << stats.typed_errors << "\n";
  }
}

TEST(FaultSweepTest, RebuildOnOpenIndexSurvivesTornWrites) {
  // SPB-tree has no persisted index state: recovery must rebuild and
  // then replay removes for dead ids.  A thinner sweep (one kind,
  // sampled points) keeps the runtime sane.
  std::vector<UpdateOp> ops = MakeUpdateScript(kDatasetN, 16, kScriptSeed + 3);
  const std::string calib_dir = NewDir("calibrate_spb");
  RemoveTree(calib_dir);
  FaultInjectingEnv calib_env(Env::Default());
  calib_env.Arm({FaultKind::kNone, 0, 1});
  DurabilityOptions calib_opts;
  calib_opts.env = &calib_env;
  RunOutcome calib = RunScript(ops, calib_dir, "SPB-tree", calib_opts);
  RemoveTree(calib_dir);
  ASSERT_TRUE(calib.created);
  ASSERT_EQ(calib.acked, ops.size());

  SweepStats stats;
  SweepKind(FaultKind::kTornWrite, calib_env.mutation_count(), ops,
            "SPB-tree", SyncMode::kAlways, 7, /*max_points=*/12, nullptr,
            &stats);
  EXPECT_GT(stats.recovered_ok, 0u);
}

TEST(FaultSweepTest, TornWritesUnderRelaxedSyncStayPrefixValid) {
  std::vector<UpdateOp> ops = MakeUpdateScript(kDatasetN, 24, kScriptSeed + 4);
  const std::string calib_dir = NewDir("calibrate_relaxed");
  RemoveTree(calib_dir);
  FaultInjectingEnv calib_env(Env::Default());
  calib_env.Arm({FaultKind::kNone, 0, 1});
  DurabilityOptions calib_opts;
  calib_opts.env = &calib_env;
  calib_opts.sync_mode = SyncMode::kNever;
  RunOutcome calib = RunScript(ops, calib_dir, "LAESA", calib_opts);
  RemoveTree(calib_dir);
  ASSERT_TRUE(calib.created);

  // Under kNever an acked update may die with the crash; the sweep's
  // assertions reduce to prefix-validity + oracle agreement, which
  // SweepKind already scopes by sync mode.
  SweepStats stats;
  SweepKind(FaultKind::kTornWrite, calib_env.mutation_count(), ops, "LAESA",
            SyncMode::kNever, 11, /*max_points=*/20, nullptr, &stats);
  EXPECT_GT(stats.recovered_ok, 0u);
}

// -- sharded service shard-level crash recovery -------------------------------

// Service directories nest per-shard durability dirs; depth-first removal.
void RemoveServiceTree(const std::string& dir) {
  Env* env = Env::Default();
  StatusOr<std::vector<std::string>> names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      const std::string path = JoinPath(dir, name);
      if (env->RemoveFile(path).ok()) continue;
      RemoveServiceTree(path);
    }
  }
  ::rmdir(dir.c_str());
}

TEST(ServiceShardRecoveryTest, TornShardWalRecoversAllShardsToAckedPrefix) {
  // A ShardedService survives losing power mid-Apply: the WAL of the
  // first routed shard tears, every shard of the in-flight batch fails
  // typed, and reopening through a clean Env recovers EVERY shard to
  // exactly its acknowledged prefix (SyncMode::kAlways).
  const std::string dir = NewDir("svc_shard_crash");
  RemoveServiceTree(dir);
  FaultInjectingEnv fenv(Env::Default());
  DurabilityOptions dopts;
  dopts.env = &fenv;

  constexpr uint32_t kN = 160;
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, kN, 21);
  MetricDBConfig config =
      MetricDBConfig().WithMetric("Linf").WithIndex("LAESA").WithPivots(4);
  ServiceOptions sopts;
  sopts.num_shards = 3;
  sopts.workers = 2;
  sopts.max_queue = 16;
  auto created =
      ShardedService::CreateDurable(config, std::move(bd.data), dir, sopts,
                                    dopts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedService> svc = std::move(*created);

  // Acknowledged prefix: toggle batches, mirrored on success.
  std::vector<uint8_t> live(kN, 1);
  Rng rng(kScriptSeed + 9);
  for (int round = 0; round < 10; ++round) {
    std::vector<UpdateOp> ops;
    std::vector<uint8_t> next = live;
    for (int i = 0; i < 3; ++i) {
      ObjectId id = rng() % kN;
      if (next[id] != 0) {
        ops.push_back(UpdateOp::Remove(id));
        next[id] = 0;
      } else {
        ops.push_back(UpdateOp::Insert(id));
        next[id] = 1;
      }
    }
    StatusOr<ApplyResult> applied = svc->Apply(ops);
    ASSERT_TRUE(applied.ok() && applied->all_ok());
    live = std::move(next);
  }
  const std::vector<uint64_t> acked_sequences = svc->sequences();

  // Power loss at the very next WAL mutation: the first routed shard's
  // append tears, and every later mutation fails "powered off".  One
  // Remove per shard makes the batch touch all three.
  fenv.Arm({FaultKind::kTornWrite, /*trigger=*/0, /*seed=*/kScriptSeed});
  std::vector<UpdateOp> doomed;
  for (uint32_t s = 0; s < 3; ++s) {
    for (ObjectId id : svc->router().members(s)) {
      if (live[id] != 0) {
        doomed.push_back(UpdateOp::Remove(id));
        break;
      }
    }
  }
  ASSERT_EQ(doomed.size(), 3u);
  StatusOr<ApplyResult> crashed = svc->Apply(doomed);
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  ASSERT_TRUE(fenv.crashed());
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(crashed->shard_status[s].ok()) << "shard " << s;
  }
  svc.reset();  // teardown through the powered-off env; errors ignored

  // Recovery through a clean Env: every shard lands on its acked prefix.
  auto reopened = ShardedService::OpenDurable(dir, sopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->sequences(), acked_sequences);
  for (ObjectId id = 0; id < kN; ++id) {
    ASSERT_EQ((*reopened)->alive(id), live[id] != 0) << "object " << id;
  }

  // And the recovered service answers like an oracle replaying that
  // same acknowledged history.
  BenchDataset obd = MakeBenchDataset(BenchDatasetId::kSynthetic, kN, 21);
  StatusOr<MetricDB> oracle = MetricDB::Create(config, std::move(obd.data));
  ASSERT_TRUE(oracle.ok());
  std::vector<UpdateOp> removes;
  for (ObjectId id = 0; id < kN; ++id) {
    if (live[id] == 0) removes.push_back(UpdateOp::Remove(id));
  }
  ASSERT_TRUE(oracle->Apply(removes).ok());
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, kN, 21);
  for (int qi = 0; qi < 6; ++qi) {
    ObjectView q = qbd.data.view((qi * 29) % kN);
    StatusOr<QueryResult> want = oracle->KnnQuery(q, 6);
    StatusOr<QueryResult> got = (*reopened)->Query(QueryRequest::Knn(q, 6));
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(got->neighbors[0].size(), want->neighbors[0].size());
    for (size_t i = 0; i < want->neighbors[0].size(); ++i) {
      ASSERT_EQ(got->neighbors[0][i].id, want->neighbors[0][i].id);
      ASSERT_EQ(got->neighbors[0][i].dist, want->neighbors[0][i].dist);
    }
  }

  ASSERT_TRUE((*reopened)->Close().ok());
  reopened->reset();
  RemoveServiceTree(dir);
}

}  // namespace
}  // namespace pmi
