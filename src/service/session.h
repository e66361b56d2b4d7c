// service::Session — a client handle pinned to one snapshot epoch.
//
// A session captures the current snapshot when opened (or refreshed) and
// answers every query against that frozen epoch: repeatable reads across
// the whole session, unaffected by concurrent commits. Sessions are cheap
// (a shared_ptr and a service pointer), copyable, and safe to use from the
// owning thread while other sessions run on other threads.
//
//   Session s = service.OpenSession();        // pins the current epoch
//   auto rs = s.snapshot()->ConsistentAnswers("SELECT ...");
//   ... (a writer commits; s still answers at its pinned epoch) ...
//   s.Refresh();                              // jump to the latest epoch
//
// Reads run synchronously on the caller's thread through the pinned
// snapshot (snapshot()->Query, ->ConsistentAnswers, ... — every ReadView
// method) or are handed to the service's worker pool (Submit), still
// pinned to the session's snapshot.
#pragma once

#include <cstdint>
#include <future>
#include <string>

#include "common/status.h"
#include "cqa/engine.h"
#include "exec/executor.h"
#include "service/query_service.h"
#include "service/snapshot.h"

namespace hippo::service {

class Session {
 public:
  /// Pins the service's current snapshot. (Usually obtained through
  /// QueryService::OpenSession.)
  explicit Session(QueryService* service)
      : service_(service), snapshot_(service->snapshot()) {}

  /// The epoch this session reads at.
  uint64_t epoch() const { return snapshot_->epoch(); }

  const SnapshotPtr& snapshot() const { return snapshot_; }

  /// Re-pins to the service's latest published snapshot.
  void Refresh() { snapshot_ = service_->snapshot(); }

  // --- writes ----------------------------------------------------------------

  /// Read-your-writes: commits `sql` through the service's asynchronous
  /// pipeline, waits for its epoch to publish, and re-pins the session to
  /// the snapshot that contains the commit (the receipt's snapshot — not
  /// "latest", which could already be a later epoch from another writer).
  /// On rejection the pinned snapshot is unchanged.
  CommitReceipt CommitAndRefresh(std::string sql) {
    CommitReceipt receipt = service_->CommitAsync(std::move(sql)).get();
    if (receipt.snapshot != nullptr) snapshot_ = receipt.snapshot;
    return receipt;
  }

  // --- asynchronous reads through the service's worker pool ----------------

  std::future<Result<ResultSet>> Submit(
      QueryService::ReadMode mode, std::string select_sql,
      cqa::HippoOptions options = cqa::HippoOptions()) const {
    return service_->Submit(mode, std::move(select_sql), snapshot_,
                            std::move(options));
  }

 private:
  QueryService* service_;
  SnapshotPtr snapshot_;
};

}  // namespace hippo::service
