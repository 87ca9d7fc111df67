// Tests of the write-absorbing LSM ingest tier (src/lsm/): the Memtable,
// the MergeScheduler, and the rewired AnonymizationService. The load-
// bearing property pinned here is the differential identity: because a
// merge is a full deterministic rebuild over the record multiset, every
// flush-boundary snapshot is byte-identical to a from-scratch bulk load
// of the same records — regardless of merge cadence, thread count, shard
// count, or crash/recovery boundaries in between. The comparison
// vocabulary lives in tests/differential.h (shared with the delta-merge
// and parallel-bulk-load differentials).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "anon/leaf_scan.h"
#include "anon/rtree_anonymizer.h"
#include "common/check.h"
#include "common/env.h"
#include "common/random.h"
#include "differential.h"
#include "durability/wal.h"
#include "lsm/memtable.h"
#include "lsm/merge.h"
#include "service/anonymization_service.h"
#include "service/service_stats.h"
#include "shard/sharded_service.h"
#include "shard/stitched_snapshot.h"

namespace kanon {
namespace {

using testutil::ExpectSameRelease;
using testutil::GridPoint;
using testutil::GridSensitive;
using testutil::SortedRids;
using testutil::SquareDomain;
using testutil::TempDir;

ServiceOptions SmallLsmOptions(size_t k, uint64_t merge_every) {
  ServiceOptions options;
  options.anonymizer.base_k = k;
  options.queue_capacity = 256;
  options.max_batch = 16;
  options.snapshot_every = 0;  // publish on demand
  options.lsm.merge_every = merge_every;
  return options;
}

/// The from-scratch reference: bulk-merge the first `n` grid records into
/// an empty tree with the same configuration a service would use, and
/// release at k1. Every flush-boundary snapshot must match this exactly.
PartitionSet ReferenceRelease(const ServiceOptions& options,
                              const Domain& domain, size_t n, size_t k1) {
  Memtable all(/*dim=*/2);
  for (size_t i = 0; i < n; ++i) {
    all.Append(GridPoint(i), static_cast<RecordId>(i), GridSensitive(i));
  }
  MergeOptions mo;
  mo.merge_every = 1;  // direct Merge calls don't consult the triggers
  mo.threads = options.anonymizer.threads;
  mo.curve = options.anonymizer.curve;
  mo.grid_bits = options.anonymizer.grid_bits;
  MergeScheduler scheduler(/*dim=*/2, mo);
  IncrementalAnonymizer empty(/*dim=*/2, options.anonymizer, &domain);
  auto merged = scheduler.Merge(empty.tree(), all);
  KANON_CHECK(merged.ok());
  const std::vector<LeafGroup> leaves = ExtractLeafGroups(*merged, &domain);
  return LeafScan(leaves, k1);
}

TEST(MemtableTest, AppendAccumulatesAndClearKeepsContract) {
  Memtable table(2);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.bytes(), 0u);
  for (size_t i = 0; i < 10; ++i) {
    table.Append(GridPoint(i), static_cast<RecordId>(i), GridSensitive(i));
  }
  EXPECT_EQ(table.size(), 10u);
  EXPECT_FALSE(table.empty());
  EXPECT_GT(table.bytes(), 10 * 2 * sizeof(double));
  for (size_t i = 0; i < 10; ++i) {
    const std::vector<double> expected = GridPoint(i);
    ASSERT_EQ(table.point(i).size(), 2u);
    EXPECT_EQ(table.point(i)[0], expected[0]);
    EXPECT_EQ(table.point(i)[1], expected[1]);
    EXPECT_EQ(table.rid(i), static_cast<RecordId>(i));
    EXPECT_EQ(table.sensitive(i), GridSensitive(i));
  }
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.bytes(), 0u);
  // The fill/flush cycle reuses the table.
  table.Append(GridPoint(42), 42, 1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.rid(0), 42u);
}

TEST(MemtableTest, OverlayGroupsWithholdSubKResidueAndKeepEveryGroupKBound) {
  const Domain domain = SquareDomain(0, 100);
  Memtable table(2);
  // Fewer than min_size residents: nothing can be released.
  for (size_t i = 0; i < 4; ++i) {
    table.Append(GridPoint(i), static_cast<RecordId>(i), 0);
  }
  size_t held_back = 0;
  auto groups = table.OverlayGroups(domain, CurveOrder::kHilbert,
                                    /*grid_bits=*/10, /*min_size=*/5,
                                    /*target_size=*/10, &held_back);
  EXPECT_TRUE(groups.empty());
  EXPECT_EQ(held_back, 4u);

  // 23 residents, target 10, min 5: chunks 10 + 10 + 3, and the sub-k tail
  // of 3 folds into the previous group (10, 13). Every resident released,
  // every group >= min_size.
  for (size_t i = 4; i < 23; ++i) {
    table.Append(GridPoint(i), static_cast<RecordId>(i), 0);
  }
  groups = table.OverlayGroups(domain, CurveOrder::kHilbert, 10, 5, 10,
                               &held_back);
  EXPECT_EQ(held_back, 0u);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].rids.size(), 10u);
  EXPECT_EQ(groups[1].rids.size(), 13u);
  std::vector<RecordId> seen;
  for (const LeafGroup& g : groups) {
    EXPECT_GE(g.rids.size(), 5u);
    for (const RecordId rid : g.rids) {
      seen.push_back(rid);
      // Every member lies inside its group's MBR.
      const std::vector<double> p = GridPoint(rid);
      for (size_t d = 0; d < 2; ++d) {
        EXPECT_LE(g.mbr.lo(d), p[d]);
        EXPECT_GE(g.mbr.hi(d), p[d]);
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 23u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<RecordId>(i));
  }
}

TEST(MergeSchedulerTest, TriggersFireOnBytesOrRecords) {
  Memtable table(2);
  for (size_t i = 0; i < 100; ++i) {
    table.Append(GridPoint(i), static_cast<RecordId>(i), 0);
  }
  MergeOptions bytes_only;
  bytes_only.memtable_bytes = table.bytes();  // exactly at the threshold
  bytes_only.merge_every = 0;
  MergeScheduler by_bytes(2, bytes_only);
  EXPECT_TRUE(by_bytes.ShouldMerge(table, /*since_merge=*/100));
  bytes_only.memtable_bytes = table.bytes() + 1;
  MergeScheduler below_bytes(2, bytes_only);
  EXPECT_FALSE(below_bytes.ShouldMerge(table, 100));

  MergeOptions records_only;
  records_only.memtable_bytes = 0;
  records_only.merge_every = 100;
  MergeScheduler by_records(2, records_only);
  EXPECT_TRUE(by_records.ShouldMerge(table, 100));
  EXPECT_FALSE(by_records.ShouldMerge(table, 99));
}

TEST(MergeSchedulerTest, MergeIsCadenceAndThreadCountInvariant) {
  const Domain domain = SquareDomain(0, 100);
  RTreeAnonymizerOptions anon;
  anon.base_k = 4;
  const size_t total = 210;

  // Three histories of the same 210 records: chunks of 30 merged serially,
  // chunks of 70 merged on 3 threads, and one single-shot merge. The
  // rebuilt trees must release identically.
  auto build = [&](size_t chunk, size_t threads) {
    MergeOptions mo;
    mo.merge_every = 1;
    mo.threads = threads;
    MergeScheduler scheduler(2, mo);
    IncrementalAnonymizer anonymizer(2, anon, &domain);
    size_t next = 0;
    while (next < total) {
      Memtable run(2);
      const size_t end = std::min(next + chunk, total);
      for (; next < end; ++next) {
        run.Append(GridPoint(next), static_cast<RecordId>(next),
                   GridSensitive(next));
      }
      auto merged = scheduler.Merge(anonymizer.tree(), run);
      KANON_CHECK(merged.ok());
      anonymizer.AdoptTree(std::move(merged).value());
    }
    const std::vector<LeafGroup> leaves =
        ExtractLeafGroups(anonymizer.tree(), &domain);
    return LeafScan(leaves, anon.base_k);
  };

  const PartitionSet serial_30 = build(30, 1);
  const PartitionSet threaded_70 = build(70, 3);
  const PartitionSet single_shot = build(total, 1);
  ASSERT_EQ(serial_30.total_records(), total);
  ExpectSameRelease(serial_30, threaded_70);
  ExpectSameRelease(serial_30, single_shot);
  EXPECT_TRUE(serial_30.CheckKAnonymous(anon.base_k).ok());
}

TEST(LsmServiceTest, FlushBoundarySnapshotsMatchFromScratchRebuild) {
  const Domain domain = SquareDomain(0, 100);
  // Two services over the same stream at different merge cadences (one of
  // them merging on 2 threads). Each 64-record wave lands both on a flush
  // boundary, where their snapshots must be byte-identical to each other
  // and to a from-scratch rebuild of the prefix.
  ServiceOptions coarse = SmallLsmOptions(4, /*merge_every=*/64);
  ServiceOptions fine = SmallLsmOptions(4, /*merge_every=*/32);
  fine.anonymizer.threads = 2;
  auto a_or = AnonymizationService::Create(2, domain, coarse);
  auto b_or = AnonymizationService::Create(2, domain, fine);
  ASSERT_TRUE(a_or.ok()) << a_or.status();
  ASSERT_TRUE(b_or.ok()) << b_or.status();
  AnonymizationService& a = **a_or;
  AnonymizationService& b = **b_or;

  // Wait until a service has applied every record enqueued so far. The
  // merge trigger fires on records absorbed *since the last flush*, and a
  // flush absorbs every resident — so if a drained batch crosses the
  // trigger mid-batch, the flush takes more than merge_every records and
  // every later flush drifts off the wave grid. Draining between
  // 32-record half-waves pins service b's flushes to exactly 32 (a merge
  // runs in the same loop iteration as the batch that crossed the
  // trigger, before any later record can be applied), which is what makes
  // each 64-record wave end a flush boundary for both cadences.
  const auto drain = [](AnonymizationService& s, uint64_t n) {
    while (s.Stats().inserted < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  size_t ingested = 0;
  for (size_t wave = 0; wave < 3; ++wave) {
    for (size_t half = 0; half < 2; ++half) {
      for (size_t i = 0; i < 32; ++i, ++ingested) {
        ASSERT_TRUE(
            a.Ingest(GridPoint(ingested), GridSensitive(ingested)).ok());
        ASSERT_TRUE(
            b.Ingest(GridPoint(ingested), GridSensitive(ingested)).ok());
      }
      drain(a, ingested);
      drain(b, ingested);
    }
    const auto sa = a.PublishNow();
    const auto sb = b.PublishNow();
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    // Both cadences divide 64, so each wave ends flushed: the snapshot is
    // pure tree, no overlay and no withheld residue.
    EXPECT_EQ(sa->info().memtable_records, 0u) << "wave " << wave;
    EXPECT_EQ(sa->info().memtable_pending, 0u) << "wave " << wave;
    EXPECT_EQ(sb->info().memtable_records, 0u) << "wave " << wave;
    EXPECT_EQ(sa->info().records, ingested);
    EXPECT_EQ(sb->info().records, ingested);
    for (const size_t k1 : {size_t{4}, size_t{8}}) {
      const PartitionSet reference =
          ReferenceRelease(coarse, domain, ingested, k1);
      ExpectSameRelease(sa->Release(k1), reference);
      ExpectSameRelease(sb->Release(k1), reference);
    }
  }
  a.Stop();
  b.Stop();

  const ServiceStats stats = a.Stats();
  EXPECT_TRUE(stats.memtable_enabled);
  EXPECT_GE(stats.merges, 3u);
  EXPECT_EQ(stats.memtable_records, 0u);  // Stop force-flushed
  EXPECT_EQ(stats.merge_duration_ms.count(), stats.merges);
  EXPECT_NEAR(stats.merge_duration_ms.sum(), stats.merge_ms_total, 1e-6);
  EXPECT_GE(stats.queue_wait_ms, 0.0);
  EXPECT_GE(stats.apply_ms, 0.0);
  const std::string formatted = FormatServiceStats(stats);
  EXPECT_NE(formatted.find("memtable:"), std::string::npos);
  EXPECT_NE(formatted.find("queue_wait_ms"), std::string::npos);
}

TEST(LsmServiceTest, OverlaySnapshotsCoverMemtableResidentsLikeTuplePath) {
  const Domain domain = SquareDomain(0, 100);
  // merge_every far beyond the stream: every published record is served
  // from memtable overlay groups, never from the tree. The overlay view
  // must cover the same records as the record-at-a-time path and stay
  // k-bound, though partition boundaries may differ (overlay groups are
  // curve-sorted chunks, not tree leaves).
  ServiceOptions lsm = SmallLsmOptions(5, /*merge_every=*/100000);
  ServiceOptions plain = lsm;
  plain.lsm = LsmOptions{};
  auto lsm_or = AnonymizationService::Create(2, domain, lsm);
  auto plain_or = AnonymizationService::Create(2, domain, plain);
  ASSERT_TRUE(lsm_or.ok());
  ASSERT_TRUE(plain_or.ok());

  const size_t n = 150;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE((*lsm_or)->Ingest(GridPoint(i), GridSensitive(i)).ok());
    ASSERT_TRUE((*plain_or)->Ingest(GridPoint(i), GridSensitive(i)).ok());
  }
  const auto overlay = (*lsm_or)->PublishNow();
  const auto tuple = (*plain_or)->PublishNow();
  ASSERT_NE(overlay, nullptr);
  ASSERT_NE(tuple, nullptr);
  EXPECT_EQ(overlay->info().records, tuple->info().records);
  EXPECT_EQ(overlay->info().memtable_records, n);
  EXPECT_EQ(overlay->info().memtable_pending, 0u);

  const PartitionSet from_overlay = overlay->Release(5);
  const PartitionSet from_tuple = tuple->Release(5);
  EXPECT_TRUE(from_overlay.CheckKAnonymous(5).ok());
  EXPECT_EQ(SortedRids(from_overlay), SortedRids(from_tuple));
}

TEST(LsmServiceTest, SubKResidueIsWithheldUntilTheNextFlush) {
  const Domain domain = SquareDomain(0, 100);
  ServiceOptions options = SmallLsmOptions(10, /*merge_every=*/20);
  auto service_or = AnonymizationService::Create(2, domain, options);
  ASSERT_TRUE(service_or.ok());
  AnonymizationService& service = **service_or;

  // 20 records: the trigger fires, the tree holds all of them.
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.Ingest(GridPoint(i), GridSensitive(i)).ok());
  }
  auto flushed = service.PublishNow();
  ASSERT_NE(flushed, nullptr);
  EXPECT_EQ(flushed->info().records, 20u);
  EXPECT_EQ(flushed->info().memtable_records, 0u);

  // 5 more: below base_k, so the overlay cannot release them. They are
  // withheld and reported as pending; the snapshot still covers the 20.
  for (size_t i = 20; i < 25; ++i) {
    ASSERT_TRUE(service.Ingest(GridPoint(i), GridSensitive(i)).ok());
  }
  auto withheld = service.PublishNow();
  ASSERT_NE(withheld, nullptr);
  EXPECT_EQ(withheld->info().records, 20u);
  EXPECT_EQ(withheld->info().memtable_records, 0u);
  EXPECT_EQ(withheld->info().memtable_pending, 5u);
  EXPECT_TRUE(withheld->Release(10).CheckKAnonymous(10).ok());

  // Stop force-flushes: the final snapshot covers everything.
  service.Stop();
  auto final_snapshot = service.CurrentSnapshot();
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_EQ(final_snapshot->info().records, 25u);
  EXPECT_EQ(final_snapshot->info().memtable_pending, 0u);
  const PartitionSet release = final_snapshot->Release(10);
  EXPECT_TRUE(release.CheckKAnonymous(10).ok());
  EXPECT_EQ(release.total_records(), 25u);
}

TEST(LsmShardedTest, StitchedFlushBoundariesAreCadenceInvariant) {
  const Domain domain = SquareDomain(0, 100);
  auto sharded = [&](uint64_t merge_every, size_t threads) {
    ShardedServiceOptions options;
    options.service = SmallLsmOptions(4, merge_every);
    options.service.anonymizer.threads = threads;
    options.sharding.num_shards = 4;
    return ShardedAnonymizationService::Create(2, domain, options);
  };
  auto coarse_or = sharded(/*merge_every=*/64, /*threads=*/1);
  auto fine_or = sharded(/*merge_every=*/16, /*threads=*/2);
  ASSERT_TRUE(coarse_or.ok()) << coarse_or.status();
  ASSERT_TRUE(fine_or.ok()) << fine_or.status();

  // A record-at-a-time sharded service over the same stream, for the
  // conservation and k-bound comparison.
  ShardedServiceOptions plain_options;
  plain_options.service = SmallLsmOptions(4, 0);
  plain_options.service.lsm = LsmOptions{};
  plain_options.sharding.num_shards = 4;
  auto plain_or =
      ShardedAnonymizationService::Create(2, domain, plain_options);
  ASSERT_TRUE(plain_or.ok());

  const size_t n = 600;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> p = GridPoint(i);
    const int32_t s = GridSensitive(i);
    ASSERT_TRUE((*coarse_or)->Ingest(p, s).ok());
    ASSERT_TRUE((*fine_or)->Ingest(p, s).ok());
    ASSERT_TRUE((*plain_or)->Ingest(p, s).ok());
  }
  // Stop force-flushes every shard: the final stitched views sit on flush
  // boundaries, where the two cadences must agree byte-for-byte.
  (*coarse_or)->Stop();
  (*fine_or)->Stop();
  (*plain_or)->Stop();

  const auto coarse = (*coarse_or)->CurrentStitched();
  const auto fine = (*fine_or)->CurrentStitched();
  const auto plain = (*plain_or)->CurrentStitched();
  ASSERT_NE(coarse, nullptr);
  ASSERT_NE(fine, nullptr);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(coarse->info().records, n);
  EXPECT_EQ(coarse->info().memtable_pending, 0u);
  EXPECT_EQ(fine->info().records, n);
  EXPECT_EQ(plain->info().records, n);

  for (const size_t k1 : {size_t{4}, size_t{8}}) {
    const PartitionSet from_coarse = coarse->Release(k1);
    ExpectSameRelease(from_coarse, fine->Release(k1));
    EXPECT_TRUE(from_coarse.CheckKAnonymous(k1).ok());
    // Against the record-at-a-time shards: same record multiset released
    // (partition boundaries legitimately differ — bulk-rebuilt trees are
    // not tuple-loaded trees).
    EXPECT_EQ(SortedRids(from_coarse), SortedRids(plain->Release(k1)));
  }
}

TEST(LsmDurabilityTest, RestartReplaysWalTailIntoMemtable) {
  TempDir dir;
  const Domain domain = SquareDomain(0, 100);
  ServiceOptions options = SmallLsmOptions(5, /*merge_every=*/16);
  options.durability.wal_dir = dir.path();
  options.durability.fsync_every = 8;
  options.durability.checkpoint_every = 0;  // only at Stop

  {
    auto service = AnonymizationService::Create(2, domain, options);
    ASSERT_TRUE(service.ok()) << service.status();
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE((*service)->Ingest(GridPoint(i), GridSensitive(i)).ok());
    }
    (*service)->Stop();  // flushes + checkpoints all 40
  }

  // Simulate acknowledged-but-not-checkpointed records: append LSNs 41..55
  // straight to the WAL, as a crash after acknowledgment would leave them.
  {
    auto wal = WalWriter::Open(dir.path(), 2, /*next_lsn=*/41);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (uint64_t lsn = 41; lsn <= 55; ++lsn) {
      const size_t i = lsn - 1;
      ASSERT_TRUE((*wal)->Append(lsn, GridPoint(i), GridSensitive(i)).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }

  auto restarted = AnonymizationService::Create(2, domain, options);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  const RecoveryResult& recovery = (*restarted)->recovery();
  EXPECT_EQ(recovery.checkpoint_records, 40u);
  EXPECT_EQ(recovery.replayed, 15u);
  EXPECT_EQ(recovery.recovered, 55u);
  EXPECT_EQ(recovery.next_lsn, 56u);
  // The tail went into the memtable, not through record-at-a-time inserts.
  EXPECT_EQ((*restarted)->Stats().memtable_records, 15u);

  // Before any flush, the published view already covers the tail via
  // overlay groups.
  auto overlay = (*restarted)->PublishNow();
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(overlay->info().records, 55u);
  EXPECT_EQ(overlay->info().memtable_records, 15u);

  // After Stop (force flush), the tree is byte-identical to a from-scratch
  // rebuild of all 55 records: crash/recovery boundaries leave no trace.
  (*restarted)->Stop();
  auto final_snapshot = (*restarted)->CurrentSnapshot();
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_EQ(final_snapshot->info().records, 55u);
  ExpectSameRelease(final_snapshot->Release(5),
                    ReferenceRelease(options, domain, 55, 5));
}

TEST(LsmFaultTest, SeededFaultMatrixNeverLosesAcknowledgedRecords) {
  // The durability fault battery with the memtable in the loop: random
  // torn-write / failed-fsync schedules while flushes and forced-flush
  // checkpoints race the stream. The service may degrade partway, but a
  // fault-free restart must recover a dense prefix, replay the tail into
  // the memtable, and — after a final flush — serve a release identical
  // to a from-scratch rebuild of the recovered records.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    TempDir dir;
    const Domain domain = SquareDomain(0, 100);
    const size_t n = 300;
    FaultInjectionOptions fault_options;
    fault_options.seed = seed;
    fault_options.mean_ops_between_faults = 60;
    fault_options.sync_faults = true;
    FaultInjectionEnv env(Env::Default(), fault_options);
    ServiceOptions options = SmallLsmOptions(5, /*merge_every=*/16);
    options.durability.wal_dir = dir.path();
    options.durability.fsync_every = 8;
    options.durability.checkpoint_every = 50;
    options.durability.retry_backoff_ms = 0;
    options.durability.env = &env;

    {
      auto service = AnonymizationService::Create(2, domain, options);
      if (service.ok()) {
        for (size_t i = 0; i < n; ++i) {
          const Status status =
              (*service)->Ingest(GridPoint(i), GridSensitive(i));
          if (!status.ok()) {
            ASSERT_EQ(status.code(), StatusCode::kUnavailable)
                << "seed " << seed << ": " << status;
          }
        }
        (*service)->Stop();
      }
      // A graceful Create failure (the schedule killed the very first
      // segment write) is fine; recovery below still runs.
    }

    options.durability.env = nullptr;
    auto service = AnonymizationService::Create(2, domain, options);
    ASSERT_TRUE(service.ok()) << "seed " << seed << ": " << service.status();
    const RecoveryResult& recovery = (*service)->recovery();
    EXPECT_EQ(recovery.recovered, recovery.next_lsn - 1) << "seed " << seed;
    EXPECT_EQ((*service)->Stats().memtable_records, recovery.replayed)
        << "seed " << seed;
    const size_t recovered = recovery.recovered;
    (*service)->Stop();
    if (recovered >= 5) {
      auto final_snapshot = (*service)->CurrentSnapshot();
      ASSERT_NE(final_snapshot, nullptr) << "seed " << seed;
      EXPECT_EQ(final_snapshot->info().records, recovered) << "seed " << seed;
      const PartitionSet release = final_snapshot->Release(5);
      EXPECT_TRUE(release.CheckKAnonymous(5).ok()) << "seed " << seed;
      ExpectSameRelease(release, ReferenceRelease(options, domain,
                                                  recovered, 5));
    }
  }
}

}  // namespace
}  // namespace kanon
