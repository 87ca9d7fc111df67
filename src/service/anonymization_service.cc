#include "service/anonymization_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timer.h"
#include "dp/dp_hierarchy.h"

namespace kanon {

AnonymizationService::AnonymizationService(Deferred, size_t dim,
                                           Domain domain,
                                           ServiceOptions options)
    : dim_(dim),
      options_(options),
      domain_(std::move(domain)),
      queue_(dim, options_.queue_capacity, options_.backpressure),
      anonymizer_(dim, options_.anonymizer, &domain_) {
  KANON_CHECK(dim >= 1 && domain_.dim() == dim);
  KANON_CHECK(options_.max_batch >= 1);
  if (options_.lsm.enabled()) {
    memtable_ = std::make_unique<Memtable>(dim);
    MergeOptions merge;
    merge.memtable_bytes = options_.lsm.memtable_bytes;
    merge.merge_every = options_.lsm.merge_every;
    merge.threads = options_.anonymizer.threads;
    merge.curve = options_.anonymizer.curve;
    merge.grid_bits = options_.anonymizer.grid_bits;
    merge.memory_budget_bytes = options_.anonymizer.memory_budget_bytes;
    merge.page_size = options_.anonymizer.page_size;
    merge.sort_run_records = options_.anonymizer.sort_run_records;
    merge.mode = options_.lsm.merge_mode;
    merger_ = std::make_unique<MergeScheduler>(dim, merge);
  }
}

AnonymizationService::AnonymizationService(size_t dim, Domain domain,
                                           ServiceOptions options)
    : AnonymizationService(Deferred{}, dim, std::move(domain), options) {
  const Status status = InitDurability();
  KANON_CHECK_MSG(status.ok(), "durability init failed: " << status);
  StartIngest();
}

StatusOr<std::unique_ptr<AnonymizationService>> AnonymizationService::Create(
    size_t dim, Domain domain, ServiceOptions options) {
  std::unique_ptr<AnonymizationService> service(
      new AnonymizationService(Deferred{}, dim, std::move(domain), options));
  KANON_RETURN_IF_ERROR(service->InitDurability());
  service->StartIngest();
  return service;
}

Status AnonymizationService::InitDurability() {
  const DurabilityOptions& d = options_.durability;
  if (!d.enabled()) return Status::OK();
  Env* env = d.env != nullptr ? d.env : Env::Default();
  KANON_RETURN_IF_ERROR(env->CreateDirs(d.wal_dir));
  RecoveryOptions recovery_options;
  recovery_options.dir = d.wal_dir;
  recovery_options.env = env;
  if (memtable_ != nullptr) {
    // The checkpoint tree is authoritative (checkpoints force a flush);
    // the WAL tail replays into the memtable, exactly where un-flushed
    // acknowledged records live in steady state.
    KANON_ASSIGN_OR_RETURN(
        recovery_,
        RecoverInto(recovery_options, &anonymizer_,
                    [this](uint64_t lsn, std::span<const double> point,
                           int32_t sensitive) {
                      memtable_->Append(point, lsn - 1, sensitive);
                    }));
    since_merge_ = memtable_->size();
    memtable_records_.store(memtable_->size(), std::memory_order_relaxed);
    memtable_bytes_.store(memtable_->bytes(), std::memory_order_relaxed);
  } else {
    KANON_ASSIGN_OR_RETURN(recovery_,
                           RecoverInto(recovery_options, &anonymizer_));
  }
  next_rid_ = recovery_.next_lsn - 1;
  WalOptions wal_options;
  wal_options.fsync_every = d.fsync_every;
  wal_options.segment_bytes = d.segment_bytes;
  KANON_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(d.wal_dir, dim_, recovery_.next_lsn,
                            wal_options, env));
  checkpointer_ = std::make_unique<Checkpointer>(
      d.wal_dir, Checkpointer::kCheckpointPageSize, env);
  // Recovered records are pre-thread state: publishing here is safe (no
  // ingest thread exists yet) and lets readers see the restored release
  // immediately after a restart.
  if (recovery_.recovered > 0) Publish();
  return Status::OK();
}

void AnonymizationService::StartIngest() {
  ingest_thread_ = JoinableThread([this] { IngestLoop(); });
}

AnonymizationService::~AnonymizationService() { Stop(); }

Status AnonymizationService::Ingest(std::span<const double> point,
                                    int32_t sensitive) {
  KANON_CHECK(point.size() == dim_);
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is stopped");
  }
  if (health_.load(std::memory_order_acquire) == ServiceHealth::kDegraded) {
    // Read-only: the last snapshot keeps serving, new records are refused
    // (an accepted record the WAL cannot log would silently lose
    // durability). Records that slipped into the queue before the
    // transition are drained and counted as dropped by the ingest thread.
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("service is degraded to read-only: " +
                               degraded_reason());
  }
  return queue_.Enqueue(point, sensitive);
}

StatusOr<PartitionSet> AnonymizationService::GetRelease(size_t k1) const {
  const std::shared_ptr<const Snapshot> snapshot = CurrentSnapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no snapshot published yet");
  }
  return snapshot->Release(k1);
}

std::shared_ptr<const Snapshot> AnonymizationService::PublishNow() {
  if (ingest_done_.load(std::memory_order_acquire)) return CurrentSnapshot();
  const uint64_t ticket =
      publish_requested_.fetch_add(1, std::memory_order_acq_rel) + 1;
  queue_.Notify();
  std::unique_lock<std::mutex> lock(publish_mu_);
  publish_cv_.wait(lock, [&] {
    return publish_serviced_.load(std::memory_order_acquire) >= ticket ||
           ingest_done_.load(std::memory_order_acquire);
  });
  lock.unlock();
  return CurrentSnapshot();
}

void AnonymizationService::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    queue_.Close();
    ingest_thread_.Join();
    // A degraded service stays degraded — the final report must show it.
    ServiceHealth expected = ServiceHealth::kServing;
    health_.compare_exchange_strong(expected, ServiceHealth::kStopped,
                                    std::memory_order_acq_rel);
  });
}

ServiceStats AnonymizationService::Stats() const {
  ServiceStats stats;
  stats.enqueued = queue_.total_enqueued();
  stats.rejected = queue_.total_rejected();
  stats.inserted = inserted_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.pending();
  stats.last_snapshot_build_ms =
      last_build_ms_.load(std::memory_order_relaxed);
  stats.snapshot_build_ms_total =
      build_ms_total_.load(std::memory_order_relaxed);
  stats.fragments_reused = fragments_reused_.load(std::memory_order_relaxed);
  stats.fragments_built = fragments_built_.load(std::memory_order_relaxed);
  stats.queue_wait_ms = queue_wait_ms_.load(std::memory_order_relaxed);
  stats.apply_ms = apply_ms_.load(std::memory_order_relaxed);
  stats.memtable_enabled = memtable_ != nullptr;
  stats.memtable_records = memtable_records_.load(std::memory_order_relaxed);
  stats.memtable_bytes = memtable_bytes_.load(std::memory_order_relaxed);
  stats.merge_duration_ms = merge_duration_ms_;
  stats.merges = stats.merge_duration_ms.count();
  stats.merge_ms_total = stats.merge_duration_ms.sum();
  stats.delta_merges = delta_merges_.load(std::memory_order_relaxed);
  stats.merge_escalations =
      merge_escalations_.load(std::memory_order_relaxed);
  stats.last_merge_ms = last_merge_ms_.load(std::memory_order_relaxed);
  if (const auto snapshot = CurrentSnapshot()) {
    stats.snapshot_age_s = snapshot->info().AgeSeconds();
  }
  if (wal_ != nullptr) {
    stats.durable = true;
    stats.recovered = recovery_.recovered;
    const WalStats wal = wal_->stats();
    stats.wal_appended = wal.appended;
    stats.wal_bytes = wal.bytes;
    stats.wal_syncs = wal.syncs;
    stats.wal_synced_lsn = wal.synced_lsn;
    stats.wal_recoveries = wal.recoveries;
    stats.wal_poisoned = wal_->poisoned();
    stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    stats.last_checkpoint_lsn =
        last_checkpoint_lsn_.load(std::memory_order_relaxed);
  }
  stats.health = health_.load(std::memory_order_acquire);
  stats.wal_retries = wal_retries_.load(std::memory_order_relaxed);
  stats.unavailable = unavailable_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  stats.degraded_reason = degraded_reason();
  return stats;
}

void AnonymizationService::IngestLoop() {
  // One reusable batch: after warm-up the drain/apply cycle allocates
  // nothing (Clear keeps the vectors' capacity).
  IngestBatch batch;
  batch.points.reserve(options_.max_batch * dim_);
  batch.sensitives.reserve(options_.max_batch);
  for (;;) {
    batch.Clear();
    Timer wait_timer;
    const size_t n = queue_.DrainBatch(&batch, options_.max_batch,
                                       [this] { return PublishPending(); });
    // Single writer: load+add+store is race-free on these atomics.
    queue_wait_ms_.store(queue_wait_ms_.load(std::memory_order_relaxed) +
                             wait_timer.ElapsedMillis(),
                         std::memory_order_relaxed);
    if (n > 0) {
      Timer apply_timer;
      ApplyBatch(batch);
      apply_ms_.store(apply_ms_.load(std::memory_order_relaxed) +
                          apply_timer.ElapsedMillis(),
                      std::memory_order_relaxed);
    }
    MaybeMerge(/*force=*/false);
    if (PublishPending()) {
      // Drain whatever producers managed to enqueue before the request so
      // the published snapshot is current, then service every waiter that
      // had a ticket when the build started.
      if (queue_.pending() > 0) continue;
      const uint64_t req =
          publish_requested_.load(std::memory_order_acquire);
      Publish();
      {
        std::lock_guard<std::mutex> lock(publish_mu_);
        publish_serviced_.store(req, std::memory_order_release);
      }
      publish_cv_.notify_all();
    } else if (options_.snapshot_every > 0 &&
               since_snapshot_ >= options_.snapshot_every) {
      Publish();
    }
    MaybeCheckpoint(/*force=*/false);
    if (n == 0 && queue_.closed() && queue_.pending() == 0) break;
  }
  // Flush the memtable so the final snapshot is a flush boundary: every
  // acknowledged record sits in the tree, none is left pending below the
  // k bound, and the release is the deterministic bulk-load view of the
  // full stream. (Runs even when degraded — merging is pure memory work
  // and the resident records are already WAL-acknowledged.)
  MaybeMerge(/*force=*/true);
  // Final snapshot: cover every record that was ever ingested (and, after
  // a final flush, from tree leaves alone — no overlay groups).
  // merged_since_publish_ catches flushes the current snapshot does not
  // reflect, including ones from earlier iterations with no records after.
  if (merged_since_publish_ || since_snapshot_ > 0 ||
      snapshots_.load(std::memory_order_relaxed) == 0) {
    Publish();
  }
  // Graceful stop makes everything durable: every record fsynced, and a
  // final checkpoint so the next start replays an empty WAL tail. A
  // failure here degrades rather than aborts — the records are already
  // served; only the durability promise for the un-synced suffix is lost,
  // and the final report says so.
  if (wal_ != nullptr &&
      health_.load(std::memory_order_acquire) == ServiceHealth::kServing) {
    const Status status = wal_->Sync();
    if (!status.ok()) {
      EnterDegraded("final wal sync failed: " + status.ToString());
    } else {
      MaybeCheckpoint(/*force=*/true);
    }
  }
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    ingest_done_.store(true, std::memory_order_release);
  }
  publish_cv_.notify_all();
}

void AnonymizationService::ApplyBatch(const IngestBatch& batch) {
  if (health_.load(std::memory_order_acquire) == ServiceHealth::kDegraded) {
    // Producers may have raced records into the queue before Ingest began
    // refusing them; drain-and-discard so blocked producers are released,
    // but never apply — degraded means the index no longer advances.
    dropped_.fetch_add(batch.size(), std::memory_order_relaxed);
    return;
  }
  size_t logged = batch.size();
  if (wal_ != nullptr) {
    // Log before apply: a record is never in the tree without being in the
    // WAL, so a crash at any point loses only un-fsynced suffix records —
    // never reorders or duplicates. Append failures are retried (the WAL
    // rebuilds its segment between attempts); a persistent failure
    // degrades the service instead of aborting it. Only the logged prefix
    // of the batch is applied — continuing would put records in the tree
    // that exist nowhere durable.
    for (size_t i = 0; i < batch.size(); ++i) {
      const Status status =
          AppendWithRetry(next_rid_ + i + 1, batch.point(i),
                          batch.sensitives[i]);
      if (!status.ok()) {
        EnterDegraded("wal append failed: " + status.ToString());
        dropped_.fetch_add(batch.size() - i, std::memory_order_relaxed);
        logged = i;
        break;
      }
    }
  }
  for (size_t i = 0; i < logged; ++i) {
    if (memtable_ != nullptr) {
      // LSM path: absorb into the run — O(dim) copies, no tree
      // maintenance. The record reaches the index at the next merge.
      memtable_->Append(batch.point(i), next_rid_++, batch.sensitives[i]);
    } else {
      anonymizer_.Insert(batch.point(i), next_rid_++, batch.sensitives[i]);
    }
  }
  if (logged == 0) return;
  if (memtable_ != nullptr) {
    since_merge_ += logged;
    memtable_records_.store(memtable_->size(), std::memory_order_relaxed);
    memtable_bytes_.store(memtable_->bytes(), std::memory_order_relaxed);
  }
  inserted_.fetch_add(logged, std::memory_order_release);
  batches_.fetch_add(1, std::memory_order_relaxed);
  since_snapshot_ += logged;
  since_checkpoint_ += logged;
}

Status AnonymizationService::AppendWithRetry(uint64_t lsn,
                                             std::span<const double> point,
                                             int32_t sensitive) {
  const DurabilityOptions& d = options_.durability;
  Status status = wal_->Append(lsn, point, sensitive);
  uint64_t backoff_ms = d.retry_backoff_ms;
  for (size_t attempt = 0;
       !status.ok() && attempt < d.wal_retry_limit && !wal_->poisoned();
       ++attempt) {
    wal_retries_.fetch_add(1, std::memory_order_relaxed);
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, d.retry_backoff_max_ms);
    }
    status = wal_->Append(lsn, point, sensitive);
  }
  return status;
}

void AnonymizationService::EnterDegraded(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    if (degraded_reason_.empty()) degraded_reason_ = reason;
  }
  ServiceHealth expected = ServiceHealth::kServing;
  health_.compare_exchange_strong(expected, ServiceHealth::kDegraded,
                                  std::memory_order_acq_rel);
}

bool AnonymizationService::MaybeMerge(bool force) {
  if (memtable_ == nullptr || memtable_->empty()) return true;
  if (!force && !merger_->ShouldMerge(*memtable_, since_merge_)) return true;
  Timer timer;
  StatusOr<MergeStats> merged =
      merger_->MergeInto(anonymizer_.mutable_tree(), *memtable_, domain_);
  if (!merged.ok()) {
    EnterDegraded("memtable merge failed: " + merged.status().ToString());
    return false;
  }
  // Keep the fragment cache truthful about the post-merge tree: a delta
  // merge retired exactly the leaves it spliced out, a full rebuild
  // replaced every node. Evicting before any new leaves are cached also
  // makes freed-pointer key collisions (allocator address reuse) harmless.
  if (merged->mode == MergeMode::kDelta) {
    for (const Node* leaf : merged->retired_leaves) {
      fragment_cache_.erase(leaf);
    }
    delta_merges_.fetch_add(1, std::memory_order_relaxed);
    merge_escalations_.fetch_add(merged->escalations,
                                 std::memory_order_relaxed);
  } else {
    fragment_cache_.clear();
  }
  memtable_->Clear();
  since_merge_ = 0;
  merged_since_publish_ = true;
  const double ms = timer.ElapsedMillis();
  memtable_records_.store(0, std::memory_order_relaxed);
  memtable_bytes_.store(0, std::memory_order_relaxed);
  last_merge_ms_.store(ms, std::memory_order_relaxed);
  merge_duration_ms_.Observe(ms);
  return true;
}

void AnonymizationService::MaybeCheckpoint(bool force) {
  if (checkpointer_ == nullptr) return;
  if (health_.load(std::memory_order_acquire) != ServiceHealth::kServing) {
    return;
  }
  const uint64_t cadence = options_.durability.checkpoint_every;
  if (force ? since_checkpoint_ == 0
            : (cadence == 0 || since_checkpoint_ < cadence)) {
    return;
  }
  // Flush first: the checkpoint claims everything at or below next_rid_,
  // so memtable residents must be in the tree before it is written —
  // otherwise a crash after the WAL truncation behind this checkpoint
  // would lose them. This keeps the manifest authoritative and recovery's
  // tail-into-memtable replay exact.
  if (!MaybeMerge(/*force=*/true)) return;
  // Everything at or below the checkpoint LSN must survive a crash even if
  // its WAL segment is truncated right after, so sync first. A sync
  // failure poisons the WAL: nothing past synced_lsn can be proven
  // durable, so checkpointing at next_rid_ would overstate the truth.
  Status status = wal_->Sync();
  if (!status.ok()) {
    EnterDegraded("wal sync before checkpoint failed: " + status.ToString());
    return;
  }
  const DurabilityOptions& d = options_.durability;
  status = checkpointer_->Checkpoint(anonymizer_.tree(), next_rid_);
  uint64_t backoff_ms = d.retry_backoff_ms;
  for (size_t attempt = 0; !status.ok() && attempt < d.wal_retry_limit;
       ++attempt) {
    wal_retries_.fetch_add(1, std::memory_order_relaxed);
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, d.retry_backoff_max_ms);
    }
    status = checkpointer_->Checkpoint(anonymizer_.tree(), next_rid_);
  }
  if (!status.ok()) {
    // Checkpoint failure alone does not lose any record (the WAL still has
    // them all), but it means the WAL can never be truncated again —
    // unbounded growth — and the next recovery pays a full replay. Degrade
    // so the operator sees it; the previous checkpoint stays authoritative.
    EnterDegraded("checkpoint failed: " + status.ToString());
    return;
  }
  since_checkpoint_ = 0;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  last_checkpoint_lsn_.store(next_rid_, std::memory_order_relaxed);
}

bool AnonymizationService::Publish() {
  const RPlusTree& tree = anonymizer_.tree();
  const size_t base_k = options_.anonymizer.base_k;
  const size_t resident = memtable_ != nullptr ? memtable_->size() : 0;
  // Fewer than k records held in total cannot be k-anonymized at all.
  if (tree.size() + resident < base_k) return false;
  // Publish implies durable: a release should never cover records a crash
  // could still un-assign (the WAL would hand their LSNs to different
  // records on restart). This also pins the replication contract — a
  // follower chasing a published epoch never needs WAL entries past the
  // leader's durable horizon. On sync failure the WAL poisons itself and
  // the next append degrades the service through the usual path; the
  // snapshot is still published (the records are in the tree and serving
  // reads is exactly what a degraded service keeps doing).
  if (wal_ != nullptr && !wal_->poisoned()) (void)wal_->Sync();
  Timer timer;
  // Assemble the snapshot as shared per-leaf fragments. In LSM mode the
  // tree changes only through merges, and every merge evicts exactly the
  // leaves it replaced from fragment_cache_, so a surviving entry is still
  // byte-accurate — publication cost tracks the merge churn, not the tree
  // size. Without the memtable the tree mutates record-at-a-time between
  // publications (leaf contents change in place), so nothing is cacheable
  // and every fragment is built fresh.
  const bool cache_fragments = memtable_ != nullptr;
  std::vector<LeafFragment> fragments;
  for (const Node* leaf : tree.OrderedLeaves()) {
    if (leaf->leaf_size() == 0) continue;  // post-deletion empty leaf
    if (cache_fragments) {
      const auto it = fragment_cache_.find(leaf);
      if (it != fragment_cache_.end()) {
        fragments.push_back(it->second);
        fragments_reused_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    auto group = std::make_shared<LeafGroup>();
    group->rids = leaf->rids;
    group->mbr = leaf->mbr;
    group->region = ClipRegionToDomain(leaf->region, domain_);
    if (!options_.anonymizer.compact && !group->region.empty()) {
      // Publish index regions instead of tight MBRs (the uncompacted view).
      group->mbr = group->region;
    }
    if (cache_fragments) fragment_cache_.emplace(leaf, group);
    fragments_built_.fetch_add(1, std::memory_order_relaxed);
    fragments.push_back(std::move(group));
  }
  // Between flushes the memtable contributes curve-sorted overlay groups
  // so releases cover tree + memtable consistently. Each group holds
  // >= base_k records; a residue below base_k is withheld (never released
  // under the k bound) and surfaces as memtable_pending. Overlay groups
  // change with every absorbed record, so they are never cached.
  size_t overlay_records = 0;
  size_t pending = 0;
  if (resident > 0) {
    const size_t target = std::max(
        base_k * options_.anonymizer.leaf_capacity_factor, 2 * base_k);
    std::vector<LeafGroup> overlay = memtable_->OverlayGroups(
        domain_, options_.anonymizer.curve, options_.anonymizer.grid_bits,
        base_k, target, &pending);
    for (LeafGroup& group : overlay) {
      overlay_records += group.rids.size();
      fragments.push_back(
          std::make_shared<const LeafGroup>(std::move(group)));
    }
  }
  // The releasable records (tree + overlay, excluding the withheld
  // residue) must themselves clear the k bound — e.g. a tiny tree from an
  // early forced flush plus a sub-k memtable cannot publish yet.
  if (tree.size() + overlay_records < base_k) return false;
  SnapshotInfo info;
  info.records = tree.size() + overlay_records;
  info.memtable_records = overlay_records;
  info.memtable_pending = pending;
  info.base_k = base_k;
  const PartitionSet base = LeafScan(fragments, info.base_k);
  info.num_partitions = base.num_partitions();
  info.min_partition = base.min_partition_size();
  info.max_partition = base.max_partition_size();
  info.avg_ncp = AverageBoxNcp(base, domain_);
  info.build_ms = timer.ElapsedMillis();
  info.created = std::chrono::steady_clock::now();
  info.epoch = snapshots_.fetch_add(1, std::memory_order_relaxed) + 1;
  last_build_ms_.store(info.build_ms, std::memory_order_relaxed);
  build_ms_total_.store(
      build_ms_total_.load(std::memory_order_relaxed) + info.build_ms,
      std::memory_order_relaxed);
  // Exact DP grid cell counts over every resident — tree records plus all
  // memtable residents, *including* the sub-k residue withheld from the
  // k-anonymous view above (DP protects them with noise, not suppression;
  // leaving them out would bias every noisy count near their cells). The
  // counts are a pure multiset accumulation, so per-shard vectors sum and
  // a follower replaying the same records reproduces them exactly.
  DpCells dp_cells;
  if (options_.dp_height > 0) {
    const DpGrid grid(domain_, options_.dp_height);
    auto cells = std::make_shared<std::vector<uint64_t>>();
    for (const Node* leaf : tree.OrderedLeaves()) {
      AccumulateCells(grid, leaf->points.data(), leaf->leaf_size(),
                      cells.get());
    }
    if (memtable_ != nullptr && memtable_->size() > 0) {
      AccumulateCells(grid, memtable_->point(0).data(), memtable_->size(),
                      cells.get());
    }
    if (cells->empty()) cells->assign(grid.num_leaves(), 0);
    dp_cells = std::move(cells);
  }
  auto snapshot = std::make_shared<const Snapshot>(
      std::move(fragments), domain_, info, std::move(dp_cells),
      options_.dp_height);
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(snapshot);
  }
  since_snapshot_ = 0;
  merged_since_publish_ = false;
  return true;
}

}  // namespace kanon
