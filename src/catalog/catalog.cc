#include "catalog/catalog.h"

#include <algorithm>

#include "common/str_util.h"

namespace hippo {

Catalog Catalog::Clone() const {
  Catalog copy;
  copy.slots_.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    copy.slots_.push_back(Slot{slot.table->DeepCopy(), false});
  }
  copy.by_name_ = by_name_;
  return copy;
}

Catalog Catalog::Share() {
  Catalog copy;
  copy.slots_.reserve(slots_.size());
  for (Slot& slot : slots_) {
    slot.shared = true;
    copy.slots_.push_back(Slot{slot.table, true});
  }
  copy.by_name_ = by_name_;
  return copy;
}

Table& Catalog::MutableTable(uint32_t id) {
  Slot& slot = slots_[id];
  if (slot.shared) {
    slot.table = std::make_shared<Table>(*slot.table);
    slot.shared = false;
  }
  return *slot.table;
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  std::string key = ToLower(name);
  if (by_name_.count(key)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  uint32_t id = static_cast<uint32_t>(slots_.size());
  slots_.push_back(
      Slot{std::make_shared<Table>(id, key, std::move(schema)), false});
  by_name_.emplace(key, id);
  return slots_.back().table.get();
}

Status Catalog::DropTable(const std::string& name) {
  auto it = by_name_.find(ToLower(name));
  if (it == by_name_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  // Swap in a fresh empty table (same id, name, schema): the slot survives
  // only to keep table ids stable, and replacing it wholesale avoids
  // cloning a snapshot-shared table's rows just to discard them.
  Slot& slot = slots_[it->second];
  slot.table = std::make_shared<Table>(it->second, slot.table->name(),
                                       slot.table->schema());
  slot.shared = false;
  by_name_.erase(it);
  return Status::OK();
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  auto it = by_name_.find(ToLower(name));
  if (it == by_name_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  return &MutableTable(it->second);
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  auto it = by_name_.find(ToLower(name));
  if (it == by_name_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  return static_cast<const Table*>(slots_[it->second].table.get());
}

size_t Catalog::TotalRows() const {
  size_t n = 0;
  for (const auto& [name, id] : by_name_) n += slots_[id].table->NumLiveRows();
  return n;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(by_name_.size());
  for (const auto& [name, id] : by_name_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t Catalog::ApproxBytes() const {
  std::unordered_set<const void*> seen;
  size_t bytes = sizeof(Catalog);
  AccumulateApproxBytes(&seen, &bytes);
  return bytes;
}

void Catalog::AccumulateApproxBytes(std::unordered_set<const void*>* seen,
                                    size_t* bytes) const {
  for (const Slot& slot : slots_) {
    slot.table->AccumulateApproxBytes(seen, bytes);
  }
}

void Catalog::CollectStorageIdentity(
    std::unordered_set<const void*>* seen) const {
  for (const Slot& slot : slots_) slot.table->CollectStorageIdentity(seen);
}

}  // namespace hippo
