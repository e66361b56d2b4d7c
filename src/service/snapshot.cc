#include "service/snapshot.h"

#include "db/database.h"

namespace hippo::service {

Result<SnapshotPtr> Snapshot::Capture(Database* db, uint64_t epoch) {
  // Both halves are structural shares: every table and every hypergraph
  // partition is pointer-shared with the master and cloned only when the
  // master next mutates it (copy-on-write). One make_shared allocation via
  // the pass-key constructor. `db` may be either lineage of an async
  // commit round (the serving master or the re-detected fork about to be
  // swapped in) — the shares keep the captured state alive independently
  // of which Database object survives the swap.
  HIPPO_ASSIGN_OR_RETURN(ConflictHypergraph graph, db->ShareHypergraph());
  // The constraint set is tiny relative to the instance; a deep copy keeps
  // the snapshot self-contained under later constraint DDL on the master.
  std::vector<DenialConstraint> constraints;
  constraints.reserve(db->constraints().size());
  for (const DenialConstraint& dc : db->constraints()) {
    constraints.push_back(dc.Clone());
  }
  return std::make_shared<const Snapshot>(
      PrivateTag{}, epoch, db->catalog().Share(), std::move(graph),
      std::move(constraints), db->foreign_keys(), db->optimizer_enabled());
}

size_t Snapshot::ApproxBytes() const {
  std::unordered_set<const void*> seen;
  return sizeof(Snapshot) + AccumulateApproxBytes(&seen);
}

void Snapshot::CollectStorageIdentity(
    std::unordered_set<const void*>* seen) const {
  frozen_catalog_.CollectStorageIdentity(seen);
  for (const void* p : frozen_graph_.PartitionPointers()) seen->insert(p);
}

size_t Snapshot::AccumulateApproxBytes(
    std::unordered_set<const void*>* seen) const {
  size_t bytes = 0;
  frozen_catalog_.AccumulateApproxBytes(seen, &bytes);
  frozen_graph_.AccumulateApproxBytes(seen, &bytes);
  return bytes;
}

}  // namespace hippo::service
