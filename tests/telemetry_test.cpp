// Unit tests for the telemetry substrate: catalog interning, time series
// with validity masks, the MonitoringDb query surface and degradation ops.
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/time_axis.h"
#include "src/telemetry/metric_catalog.h"
#include "src/telemetry/metric_store.h"
#include "src/telemetry/monitoring_db.h"
#include "src/telemetry/snapshot.h"

namespace murphy::telemetry {
namespace {

TEST(TimeAxis, IndexOfClampsAndRoundsDown) {
  TimeAxis axis(100.0, 10.0, 5);  // slices at 100,110,120,130,140
  EXPECT_EQ(axis.index_of(100.0), 0u);
  EXPECT_EQ(axis.index_of(119.9), 1u);
  EXPECT_EQ(axis.index_of(50.0), 0u);     // clamped low
  EXPECT_EQ(axis.index_of(1000.0), 4u);   // clamped high
  EXPECT_DOUBLE_EQ(axis.time_of(3), 130.0);
}

TEST(TimeAxis, SliceProducesSubAxis) {
  TimeAxis axis(0.0, 60.0, 10);
  TimeAxis sub = axis.slice(2, 6);
  EXPECT_EQ(sub.size(), 4u);
  EXPECT_DOUBLE_EQ(sub.time_of(0), 120.0);
}

TEST(MetricCatalog, InternIsIdempotent) {
  MetricCatalog cat;
  const MetricKindId a = cat.intern("cpu_util");
  const MetricKindId b = cat.intern("mem_util");
  EXPECT_NE(a, b);
  EXPECT_EQ(cat.intern("cpu_util"), a);
  EXPECT_EQ(cat.name(a), "cpu_util");
  EXPECT_EQ(cat.size(), 2u);
}

TEST(MetricCatalog, FindDoesNotIntern) {
  MetricCatalog cat;
  EXPECT_FALSE(cat.find("absent").valid());
  EXPECT_EQ(cat.size(), 0u);
}

TEST(TimeSeries, ValueOrFallsBackOnInvalid) {
  TimeSeries ts({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ts.value_or(1, -1.0), 2.0);
  ts.invalidate(1);
  EXPECT_DOUBLE_EQ(ts.value_or(1, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.value_or(99, -1.0), -1.0);  // out of range
}

TEST(TimeSeries, InvalidateBeforeKeepsIncidentWindow) {
  TimeSeries ts({1.0, 2.0, 3.0, 4.0});
  ts.invalidate_before(2);
  EXPECT_FALSE(ts.is_valid(0));
  EXPECT_FALSE(ts.is_valid(1));
  EXPECT_TRUE(ts.is_valid(2));
  EXPECT_TRUE(ts.is_valid(3));
}

TEST(TimeSeries, WindowSubstitutesFallback) {
  TimeSeries ts({1.0, 2.0, 3.0, 4.0});
  ts.invalidate(1);
  const auto w = ts.window(0, 3, 0.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 3.0);
}

class MonitoringDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = db_.define_app("shop");
    vm1_ = db_.add_entity(EntityType::kVm, "vm-web", app_);
    vm2_ = db_.add_entity(EntityType::kVm, "vm-db", app_);
    host_ = db_.add_entity(EntityType::kHost, "host-1");
    flow_ = db_.add_entity(EntityType::kFlow, "flow-web-db");
    db_.add_association(vm1_, host_, RelationKind::kVmOnHost);
    db_.add_association(vm2_, host_, RelationKind::kVmOnHost);
    db_.add_association(flow_, vm1_, RelationKind::kFlowEndpoint);
    db_.add_association(flow_, vm2_, RelationKind::kFlowEndpoint);

    db_.metrics().set_axis(TimeAxis(0.0, 60.0, 4));
    cpu_ = db_.catalog().intern("cpu_util");
    db_.metrics().put(vm1_, cpu_, {10.0, 20.0, 30.0, 40.0});
  }

  MonitoringDb db_;
  AppId app_;
  EntityId vm1_, vm2_, host_, flow_;
  MetricKindId cpu_;
};

TEST_F(MonitoringDbTest, EntityLookupByIdAndName) {
  EXPECT_EQ(db_.entity_count(), 4u);
  EXPECT_EQ(db_.entity(vm1_).name, "vm-web");
  EXPECT_EQ(db_.entity(vm1_).type, EntityType::kVm);
  EXPECT_EQ(db_.find_entity("vm-db"), vm2_);
  EXPECT_FALSE(db_.find_entity("nope").valid());
}

TEST_F(MonitoringDbTest, AppMembership) {
  EXPECT_EQ(db_.app(app_).members.size(), 2u);
  EXPECT_EQ(db_.entity(vm1_).app, app_);
  EXPECT_FALSE(db_.entity(host_).app.valid());
  EXPECT_EQ(db_.find_app("shop"), app_);
}

TEST_F(MonitoringDbTest, NeighborsAreDeduplicated) {
  const auto nb = db_.neighbors(host_);
  ASSERT_EQ(nb.size(), 2u);  // vm1, vm2
  const auto nb_vm1 = db_.neighbors(vm1_);
  EXPECT_EQ(nb_vm1.size(), 2u);  // host, flow
}

TEST_F(MonitoringDbTest, MetricRoundTrip) {
  const TimeSeries* ts = db_.metrics().find(vm1_, cpu_);
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->value(2), 30.0);
  EXPECT_EQ(db_.metrics().kinds_of(vm1_).size(), 1u);
  EXPECT_EQ(db_.metrics().find(vm2_, cpu_), nullptr);
}

TEST_F(MonitoringDbTest, RemoveEntityDropsAssociationsAndMetrics) {
  db_.remove_entity(vm1_);
  EXPECT_FALSE(db_.has_entity(vm1_));
  EXPECT_EQ(db_.neighbors(host_).size(), 1u);
  EXPECT_EQ(db_.neighbors(flow_).size(), 1u);
  EXPECT_EQ(db_.metrics().find(vm1_, cpu_), nullptr);
  EXPECT_EQ(db_.app(app_).members.size(), 1u);
  // ids of other entities remain stable
  EXPECT_EQ(db_.entity(vm2_).name, "vm-db");
}

TEST_F(MonitoringDbTest, RemoveAssociationKeepsEntities) {
  const std::size_t before = db_.association_count();
  db_.remove_association(0);  // vm1 <-> host
  EXPECT_EQ(db_.association_count(), before - 1);
  const auto nb = db_.neighbors(vm1_);
  EXPECT_EQ(nb.size(), 1u);  // only flow remains
  EXPECT_TRUE(db_.has_entity(vm1_));
}

TEST_F(MonitoringDbTest, MetricEraseSingleKind) {
  const MetricKindId mem = db_.catalog().intern("mem_util");
  db_.metrics().put(vm1_, mem, {1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(db_.metrics().kinds_of(vm1_).size(), 2u);
  db_.metrics().erase(vm1_, cpu_);
  EXPECT_EQ(db_.metrics().find(vm1_, cpu_), nullptr);
  ASSERT_EQ(db_.metrics().kinds_of(vm1_).size(), 1u);
  EXPECT_EQ(db_.metrics().kinds_of(vm1_)[0], mem);
}

TEST_F(MonitoringDbTest, DataVersionBumpsOnEveryMutation) {
  // The service reports data_version() as the db version a diagnosis ran
  // at; every mutation that can change what a training window would read
  // must move it.
  std::uint64_t last = db_.data_version();
  const auto bumped = [&] {
    const std::uint64_t now = db_.data_version();
    const bool moved = now > last;
    last = now;
    return moved;
  };

  db_.metrics().put(vm2_, cpu_, {1.0, 2.0, 3.0, 4.0});
  EXPECT_TRUE(bumped());
  // find_mutable hands out a writable pointer: conservatively a new version.
  ASSERT_NE(db_.metrics().find_mutable(vm2_, cpu_), nullptr);
  EXPECT_TRUE(bumped());
  // A miss hands out nothing, so the version must NOT move.
  const MetricKindId absent = db_.catalog().intern("absent");
  ASSERT_EQ(db_.metrics().find_mutable(vm2_, absent), nullptr);
  EXPECT_FALSE(bumped());
  db_.metrics().erase(vm2_, cpu_);
  EXPECT_TRUE(bumped());

  const auto extra = db_.add_entity(EntityType::kVm, "vm-extra");
  EXPECT_TRUE(bumped());
  db_.add_association(extra, host_, RelationKind::kVmOnHost);
  EXPECT_TRUE(bumped());
  db_.add_to_app(app_, extra);
  EXPECT_TRUE(bumped());
  db_.remove_association(db_.association_count() - 1);
  EXPECT_TRUE(bumped());
  db_.remove_entity(extra);
  EXPECT_TRUE(bumped());
  // Read-only queries leave the generation alone.
  (void)db_.neighbors(host_);
  (void)db_.metrics().find(vm1_, cpu_);
  EXPECT_FALSE(bumped());
}

TEST(MonitoringDb, DirectedAssociationIsRecorded) {
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kService, "caller");
  const auto b = db.add_entity(EntityType::kService, "callee");
  db.add_association(a, b, RelationKind::kCallerCallee, /*directed=*/true);
  ASSERT_EQ(db.association_count(), 1u);
  EXPECT_TRUE(db.association(0).directed);
}

// ---------- telemetry-defect semantics (DESIGN.md §8) ----------------------

TEST(TimeSeries, PutSanitizesNonFiniteToMissing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  MetricStore store(TimeAxis(0.0, 10.0, 4));
  MetricCatalog cat;
  const MetricKindId cpu = cat.intern("cpu_util");
  const EntityId e{0};
  store.put(e, cpu, {1.0, nan, inf, 4.0});
  const TimeSeries* ts = store.find(e, cpu);
  ASSERT_NE(ts, nullptr);
  EXPECT_TRUE(ts->is_valid(0));
  EXPECT_FALSE(ts->is_valid(1));  // ingest marked the NaN slice missing
  EXPECT_FALSE(ts->is_valid(2));  // and the Inf slice
  EXPECT_TRUE(ts->is_valid(3));
  // Finite slices are stored bit-for-bit unchanged.
  EXPECT_DOUBLE_EQ(ts->value(0), 1.0);
  EXPECT_DOUBLE_EQ(ts->value(3), 4.0);
  // The trainers' window shape sees the documented fallback, never NaN.
  const auto w = ts->window(0, 4, 0.0);
  for (const double v : w) EXPECT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(TimeSeries, ValueOrTreatsRawNonFiniteAsMissing) {
  // set() / find_mutable() bypass ingest (a buggy collector writing in
  // place); the read path must still degrade non-finite payloads to the
  // fallback instead of returning NaN into a snapshot.
  TimeSeries ts({1.0, 2.0, 3.0});
  ts.set(1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(ts.is_valid(1));  // the validity bit is untouched...
  EXPECT_DOUBLE_EQ(ts.value_or(1, -7.0), -7.0);  // ...but reads fall back
  const auto w = ts.window(0, 3, 0.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  // The raw accessor still exposes the payload (for export round-trips).
  EXPECT_TRUE(std::isnan(ts.value(1)));
}

TEST(TimeSeries, WindowIsTotalOnDegenerateRanges) {
  TimeSeries ts({1.0, 2.0, 3.0});
  EXPECT_TRUE(ts.window(2, 1, 0.0).empty());    // inverted -> empty
  EXPECT_TRUE(ts.window(50, 40, 0.0).empty());  // inverted off-axis
  const auto beyond = ts.window(2, 5, -1.0);    // end past the axis
  ASSERT_EQ(beyond.size(), 3u);
  EXPECT_DOUBLE_EQ(beyond[0], 3.0);
  EXPECT_DOUBLE_EQ(beyond[1], -1.0);
  EXPECT_DOUBLE_EQ(beyond[2], -1.0);
}

TEST(MonitoringDb, SelfLoopEdgesAreDroppedAtIngest) {
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kVm, "a");
  const auto b = db.add_entity(EntityType::kVm, "b");
  const std::uint64_t version = db.data_version();
  db.add_association(a, a, RelationKind::kGeneric);
  EXPECT_EQ(db.association_count(), 0u);
  EXPECT_EQ(db.data_version(), version);  // a dropped edge is not a mutation
  db.add_association(a, b, RelationKind::kGeneric);
  EXPECT_EQ(db.association_count(), 1u);
}

TEST(MonitoringDb, OrphanEdgesAreDroppedAtIngest) {
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kVm, "a");
  const auto b = db.add_entity(EntityType::kVm, "b");
  const EntityId ghost{999};
  db.add_association(a, ghost, RelationKind::kGeneric);
  db.add_association(ghost, b, RelationKind::kGeneric);
  EXPECT_EQ(db.association_count(), 0u);
  // An edge to a REMOVED entity is equally orphaned.
  db.remove_entity(b);
  db.add_association(a, b, RelationKind::kGeneric);
  EXPECT_EQ(db.association_count(), 0u);
  EXPECT_TRUE(db.neighbors(a).empty());
}

TEST(MonitoringDb, UidIsProcessUniqueAcrossCopiesAndStorageReuse) {
  MonitoringDb first;
  const std::uint64_t uid_first = first.uid();
  // Copies may diverge while their version counters coincide: a copy must
  // carry its own identity.
  const MonitoringDb copy = first;  // NOLINT(performance-unnecessary-copy)
  EXPECT_NE(copy.uid(), uid_first);
  // A move transfers the identity (the destination IS the same logical db)
  // and re-keys the source, whose emptied state must not alias it.
  MonitoringDb moved = std::move(first);
  EXPECT_EQ(moved.uid(), uid_first);
  EXPECT_NE(first.uid(), uid_first);  // NOLINT(bugprone-use-after-move)
}

TEST(MonitoringDb, UidDiffersForSequentialDbsAtTheSameStorage) {
  // The ABA scenario the uid exists for: destroy a db, construct another at
  // the same address. The address matches; the identity must not.
  alignas(MonitoringDb) unsigned char storage[sizeof(MonitoringDb)];
  auto* db1 = new (storage) MonitoringDb();
  const std::uint64_t uid1 = db1->uid();
  db1->~MonitoringDb();
  auto* db2 = new (storage) MonitoringDb();
  EXPECT_EQ(static_cast<void*>(db1), static_cast<void*>(db2));
  EXPECT_NE(db2->uid(), uid1);
  db2->~MonitoringDb();
}

// --- streaming ingestion: no-op puts, per-series epochs, axis growth -------

TEST(MetricStoreStreaming, NoOpPutBumpsNothing) {
  MetricStore store(TimeAxis(0.0, 60.0, 3));
  const EntityId e(0);
  const MetricKindId k(0);
  store.put(e, k, {1.0, 2.0, 3.0});
  const std::uint64_t version = store.version();
  const std::uint64_t epoch = store.series_epoch(e, k);

  // Re-ingesting the bitwise-identical series is the idempotent-collector
  // case: versions must not move, or every cache above invalidates for
  // nothing (the regression this PR fixes).
  store.put(e, k, {1.0, 2.0, 3.0});
  EXPECT_EQ(store.version(), version);
  EXPECT_EQ(store.series_epoch(e, k), epoch);

  // Same values, different validity: NOT a no-op.
  TimeSeries masked({1.0, 2.0, 3.0}, {true, false, true});
  store.put(e, k, std::move(masked));
  EXPECT_GT(store.version(), version);
  EXPECT_GT(store.series_epoch(e, k), epoch);
}

TEST(MetricStoreStreaming, NoOpPutIsBitwiseNotValuewise) {
  MetricStore store(TimeAxis(0.0, 60.0, 2));
  const EntityId e(0);
  const MetricKindId k(0);
  store.put(e, k, {0.0, 1.0});
  const std::uint64_t version = store.version();
  // -0.0 == 0.0 numerically but differs bitwise: the comparison must see
  // the difference (sign bits matter to downstream bit-exact replay).
  store.put(e, k, {-0.0, 1.0});
  EXPECT_GT(store.version(), version);
}

TEST(MetricStoreStreaming, SeriesEpochsAreIndependent) {
  MetricStore store(TimeAxis(0.0, 60.0, 2));
  const EntityId a(0), b(1);
  const MetricKindId k(0);
  EXPECT_EQ(store.series_epoch(a, k), 0u);  // never written
  store.put(a, k, {1.0, 2.0});
  store.put(b, k, {3.0, 4.0});
  EXPECT_EQ(store.series_epoch(a, k), 1u);
  EXPECT_EQ(store.series_epoch(b, k), 1u);
  store.upsert_cell(b, k, 0, 9.0);
  EXPECT_EQ(store.series_epoch(a, k), 1u);  // untouched neighbor
  EXPECT_EQ(store.series_epoch(b, k), 2u);
  // find_mutable may write through the pointer: bump conservatively.
  (void)store.find_mutable(a, k);
  EXPECT_EQ(store.series_epoch(a, k), 2u);
}

TEST(MetricStoreStreaming, UpsertCellCreatesAllMissingSeries) {
  MetricStore store(TimeAxis(0.0, 60.0, 4));
  const EntityId e(0);
  const MetricKindId k(0);
  EXPECT_TRUE(store.upsert_cell(e, k, 2, 7.5));
  const TimeSeries* s = store.find(e, k);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->is_valid(0));
  EXPECT_FALSE(s->is_valid(1));
  EXPECT_TRUE(s->is_valid(2));
  EXPECT_DOUBLE_EQ(s->value(2), 7.5);
  // Second write to the same series is not a creation.
  EXPECT_FALSE(store.upsert_cell(e, k, 0, 1.0));
  // Non-finite payloads stay missing (the §8 defect contract).
  EXPECT_FALSE(store.upsert_cell(e, k, 3,
                                 std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(store.find(e, k)->is_valid(3));
}

TEST(MetricStoreStreaming, ExtendAxisPadsMissingWithoutStructuralBump) {
  MetricStore store(TimeAxis(0.0, 60.0, 2));
  const EntityId e(0);
  const MetricKindId k(0);
  store.put(e, k, {1.0, 2.0});
  const std::uint64_t structural = store.structural_version();
  const std::uint64_t epoch = store.series_epoch(e, k);
  store.extend_axis(3);
  EXPECT_EQ(store.axis().size(), 5u);
  const TimeSeries* s = store.find(e, k);
  ASSERT_EQ(s->size(), 5u);
  EXPECT_TRUE(s->is_valid(1));
  EXPECT_FALSE(s->is_valid(2));
  // Growth changes no existing window read: epochs and the structural
  // version hold, so epoch-keyed caches keep hitting.
  EXPECT_EQ(store.structural_version(), structural);
  EXPECT_EQ(store.series_epoch(e, k), epoch);
}

TEST(MetricStoreStreaming, EraseIsStructural) {
  MetricStore store(TimeAxis(0.0, 60.0, 2));
  const EntityId e(0);
  const MetricKindId k(0);
  store.put(e, k, {1.0, 2.0});
  const std::uint64_t structural = store.structural_version();
  store.erase(e, k);
  // Erasure resets the series' epoch to zero — the one transition that
  // could ABA an epoch-keyed cache (erase + re-put at epoch 1 again), which
  // is why it must bump the structural version and force a full reset.
  EXPECT_EQ(store.series_epoch(e, k), 0u);
  EXPECT_GT(store.structural_version(), structural);
}

// --- binary snapshots -------------------------------------------------------

// A db exercising every serialized section: apps, an absent entity slot
// (ids must stay stable across restore), directed associations, missing
// slices, a multi-kind entity (kinds_of order matters — it fixes feature
// enumeration), config events, and non-trivial version counters.
MonitoringDb make_snapshot_db() {
  MonitoringDb db;
  const AppId app = db.define_app("shop");
  const EntityId vm1 = db.add_entity(EntityType::kVm, "vm-web", app);
  const EntityId vm2 = db.add_entity(EntityType::kVm, "vm-db", app);
  const EntityId gone = db.add_entity(EntityType::kFlow, "flow-dead");
  const EntityId host = db.add_entity(EntityType::kHost, "host-1");
  db.add_association(vm1, host, RelationKind::kVmOnHost);
  db.add_association(vm2, vm1, RelationKind::kCallerCallee, true);
  db.remove_entity(gone);
  db.metrics().set_axis(TimeAxis(100.0, 60.0, 4));
  const MetricKindId lat = db.catalog().intern("latency_ms");
  const MetricKindId cpu = db.catalog().intern("cpu_util");
  db.metrics().put(vm1, lat, TimeSeries({1.5, 0.0, 3.25, -0.0},
                                        {true, false, true, true}));
  db.metrics().put(vm1, cpu, {10.0, 20.0, 30.0, 40.0});
  db.metrics().upsert_cell(vm2, cpu, 1, 55.0);
  db.config_events().record(
      {ConfigEventKind::kResourcesResized, vm2, 2, "vCPU 4 -> 8"});
  return db;
}

std::string snapshot_bytes(const MonitoringDb& db) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(save_snapshot(db, out));
  return out.str();
}

TEST(Snapshot, RoundTripIsBitwiseIdentical) {
  const MonitoringDb db = make_snapshot_db();
  const std::string bytes = snapshot_bytes(db);

  std::istringstream in(bytes, std::ios::binary);
  SnapshotError err;
  auto restored = load_snapshot(in, &err);
  ASSERT_TRUE(restored.has_value()) << err.message;

  // Identity: entity slots (absent one included), names, apps, axis.
  EXPECT_EQ(restored->entity_count(), db.entity_count());
  EXPECT_FALSE(restored->has_entity(EntityId(2)));
  EXPECT_EQ(restored->find_entity("vm-web"), EntityId(0));
  EXPECT_EQ(restored->entity(EntityId(1)).app, AppId(0));
  EXPECT_EQ(restored->metrics().axis(), db.metrics().axis());
  EXPECT_EQ(restored->association_count(), db.association_count());
  EXPECT_TRUE(restored->association(1).directed);

  // Version counters carry over so warm-restart fingerprints line up.
  EXPECT_EQ(restored->data_version(), db.data_version());
  EXPECT_EQ(restored->structural_data_version(),
            db.structural_data_version());
  // But identity does not: the restored db is a new object and must re-key
  // every cache (the uid exists to prevent exactly this aliasing).
  EXPECT_NE(restored->uid(), db.uid());

  // kinds_of order fixes feature enumeration order — must survive.
  EXPECT_EQ(restored->metrics().kinds_of(EntityId(0)),
            db.metrics().kinds_of(EntityId(0)));

  // Series payloads bit-for-bit (missing mask, -0.0 sign included): saving
  // the restored db reproduces the original bytes exactly.
  EXPECT_EQ(snapshot_bytes(*restored), bytes);

  EXPECT_EQ(restored->config_events().size(), 1u);
  EXPECT_EQ(restored->config_events().event(0).detail, "vCPU 4 -> 8");
}

TEST(Snapshot, TruncationIsRejectedAtEveryLength) {
  const std::string bytes = snapshot_bytes(make_snapshot_db());
  // Every proper prefix must fail cleanly — header cut, payload cut, or
  // checksum cut (stride keeps the test fast; boundaries are covered).
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    SnapshotError err;
    EXPECT_FALSE(load_snapshot(in, &err).has_value()) << "length " << len;
    EXPECT_FALSE(err.message.empty());
  }
}

TEST(Snapshot, BitFlipsAreRejectedEverywhere) {
  const std::string bytes = snapshot_bytes(make_snapshot_db());
  for (std::size_t pos = 0; pos < bytes.size();
       pos += (pos < 40 ? 1 : 53)) {
    // Bytes 12..15 are the header's reserved field — the loader ignores it
    // (forward compatibility), so a flip there is legitimately accepted.
    if (pos >= 12 && pos < 16) continue;
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::istringstream in(corrupt, std::ios::binary);
    // Header flips fail structurally (magic/version/size); payload flips
    // fail the checksum. Either way: nullopt, never garbage, never a crash.
    EXPECT_FALSE(load_snapshot(in, nullptr).has_value()) << "byte " << pos;
  }
}

TEST(Snapshot, AbsurdPayloadSizeIsRejectedWithoutAllocating) {
  std::string bytes = snapshot_bytes(make_snapshot_db());
  // The header's payload-size field sits after magic (8) + version (4) +
  // reserved (4); stamp in ~16 EiB. The loader must refuse before trying
  // to allocate it.
  for (std::size_t i = 0; i < 8; ++i)
    bytes[16 + i] = static_cast<char>(0xEE);
  std::istringstream in(bytes, std::ios::binary);
  SnapshotError err;
  EXPECT_FALSE(load_snapshot(in, &err).has_value());
  EXPECT_FALSE(err.message.empty());
}

TEST(Snapshot, EmptyDbRoundTrips) {
  const MonitoringDb empty;
  const std::string bytes = snapshot_bytes(empty);
  std::istringstream in(bytes, std::ios::binary);
  auto restored = load_snapshot(in, nullptr);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->entity_count(), 0u);
  EXPECT_TRUE(restored->metrics().axis().empty());
}

}  // namespace
}  // namespace murphy::telemetry
