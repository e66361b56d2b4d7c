#include "hypergraph/hypergraph.h"

#include <algorithm>

#include "common/str_util.h"

namespace hippo {

namespace {

std::string CanonicalKey(const std::vector<RowId>& sorted_vertices) {
  std::string key;
  key.reserve(sorted_vertices.size() * sizeof(uint64_t));
  for (const RowId& v : sorted_vertices) {
    uint64_t packed = v.Pack();
    key.append(reinterpret_cast<const char*>(&packed), sizeof(packed));
  }
  return key;
}

}  // namespace

void EdgeBuffer::Add(std::vector<RowId> vertices, uint32_t constraint_index) {
  HIPPO_CHECK_MSG(!vertices.empty(), "hyperedge needs at least one vertex");
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  entries_.push_back(StagedEdge{std::move(vertices), constraint_index});
}

// --- structural sharing ----------------------------------------------------

ConflictHypergraph ConflictHypergraph::Share() {
  chunk_shared_.assign(chunks_.size(), true);
  incident_shared_.fill(true);
  canonical_shared_.fill(true);
  ConflictHypergraph copy;
  copy.chunks_ = chunks_;
  copy.incident_ = incident_;
  copy.canonical_ = canonical_;
  copy.chunk_shared_ = chunk_shared_;
  copy.incident_shared_ = incident_shared_;
  copy.canonical_shared_ = canonical_shared_;
  copy.num_edge_slots_ = num_edge_slots_;
  copy.num_live_edges_ = num_live_edges_;
  copy.num_conflicting_ = num_conflicting_;
  copy.conflicting_by_table_ = conflicting_by_table_;
  return copy;
}

ConflictHypergraph ConflictHypergraph::DeepCopy() const {
  ConflictHypergraph copy;
  copy.chunks_.reserve(chunks_.size());
  for (const auto& chunk : chunks_) {
    copy.chunks_.push_back(std::make_shared<EdgeChunk>(*chunk));
  }
  copy.chunk_shared_.assign(copy.chunks_.size(), false);
  for (size_t s = 0; s < kIncidentShards; ++s) {
    if (incident_[s] != nullptr) {
      copy.incident_[s] = std::make_shared<IncidentShard>(*incident_[s]);
    }
  }
  for (size_t s = 0; s < kCanonicalShards; ++s) {
    if (canonical_[s] != nullptr) {
      copy.canonical_[s] = std::make_shared<CanonicalShard>(*canonical_[s]);
    }
  }
  copy.num_edge_slots_ = num_edge_slots_;
  copy.num_live_edges_ = num_live_edges_;
  copy.num_conflicting_ = num_conflicting_;
  copy.conflicting_by_table_ = conflicting_by_table_;
  return copy;
}

// --- copy-on-write partition accessors -------------------------------------

ConflictHypergraph::EdgeChunk* ConflictHypergraph::MutableChunk(size_t ci) {
  if (chunk_shared_[ci]) {
    chunks_[ci] = std::make_shared<EdgeChunk>(*chunks_[ci]);
    chunk_shared_[ci] = false;
  }
  return chunks_[ci].get();
}

ConflictHypergraph::IncidentShard* ConflictHypergraph::MutableIncidentShard(
    size_t si) {
  if (incident_[si] == nullptr) {
    incident_[si] = std::make_shared<IncidentShard>();
  } else if (incident_shared_[si]) {
    incident_[si] = std::make_shared<IncidentShard>(*incident_[si]);
  }
  incident_shared_[si] = false;
  return incident_[si].get();
}

ConflictHypergraph::CanonicalShard* ConflictHypergraph::MutableCanonicalShard(
    size_t si) {
  if (canonical_[si] == nullptr) {
    canonical_[si] = std::make_shared<CanonicalShard>();
  } else if (canonical_shared_[si]) {
    canonical_[si] = std::make_shared<CanonicalShard>(*canonical_[si]);
  }
  canonical_shared_[si] = false;
  return canonical_[si].get();
}

void ConflictHypergraph::AddIncident(RowId v, EdgeId e) {
  IncidentShard* shard = MutableIncidentShard(IncidentShardOf(v));
  auto [it, fresh] = shard->lists.try_emplace(v);
  if (fresh) {
    ++num_conflicting_;
    if (v.table >= conflicting_by_table_.size()) {
      conflicting_by_table_.resize(size_t{v.table} + 1, 0);
    }
    ++conflicting_by_table_[v.table];
  }
  it->second.push_back(e);
}

void ConflictHypergraph::RemoveIncident(RowId v, EdgeId e) {
  size_t si = IncidentShardOf(v);
  const IncidentShard* probe = incident_[si].get();
  if (probe == nullptr) return;
  auto hit = probe->lists.find(v);
  if (hit == probe->lists.end()) return;
  IncidentShard* shard = MutableIncidentShard(si);
  auto it = shard->lists.find(v);
  auto& list = it->second;
  list.erase(std::remove(list.begin(), list.end(), e), list.end());
  if (list.empty()) {
    shard->lists.erase(it);
    --num_conflicting_;
    --conflicting_by_table_[v.table];
  }
}

// --- mutation --------------------------------------------------------------

size_t ConflictHypergraph::BulkLoad(std::vector<EdgeBuffer> buffers) {
  size_t total = 0;
  for (const EdgeBuffer& b : buffers) total += b.NumEntries();
  std::vector<EdgeBuffer::StagedEdge> staged;
  staged.reserve(total);
  for (EdgeBuffer& b : buffers) {
    for (EdgeBuffer::StagedEdge& e : b.mutable_entries()) {
      staged.push_back(std::move(e));
    }
  }
  std::sort(staged.begin(), staged.end());
  for (EdgeBuffer::StagedEdge& e : staged) {
    AddEdge(std::move(e.vertices), e.constraint_index);
  }
  return total;
}

ConflictHypergraph::EdgeId ConflictHypergraph::AddEdge(
    std::vector<RowId> vertices, uint32_t constraint_index) {
  HIPPO_CHECK_MSG(!vertices.empty(), "hyperedge needs at least one vertex");
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  std::string key = CanonicalKey(vertices);
  size_t csi = CanonicalShardOf(key);
  if (canonical_[csi] != nullptr) {
    auto it = canonical_[csi]->ids.find(key);
    if (it != canonical_[csi]->ids.end()) {
      EdgeId id = it->second;
      size_t ci = id >> kChunkShift;
      size_t slot = id & kChunkMask;
      if (!chunks_[ci]->alive[slot]) {
        // Revive the tombstoned slot: same vertex set, same edge id.
        EdgeChunk* chunk = MutableChunk(ci);
        chunk->alive[slot] = true;
        chunk->constraint[slot] = constraint_index;
        ++num_live_edges_;
        for (const RowId& v : chunk->vertices[slot]) AddIncident(v, id);
      } else if (constraint_index < chunks_[ci]->constraint[slot]) {
        // Live merge: provenance is the first constraint in detection order
        // that produces this vertex set, i.e. the smallest index. Detection
        // adds edges in index order so this only fires for incremental
        // maintenance, where a lower-indexed producer can appear later.
        MutableChunk(ci)->constraint[slot] = constraint_index;
      }
      return id;
    }
  }

  EdgeId id = static_cast<EdgeId>(num_edge_slots_++);
  size_t ci = id >> kChunkShift;
  if (ci == chunks_.size()) {
    chunks_.push_back(std::make_shared<EdgeChunk>());
    chunk_shared_.push_back(false);
  }
  for (const RowId& v : vertices) AddIncident(v, id);
  EdgeChunk* chunk = MutableChunk(ci);
  chunk->vertices.push_back(std::move(vertices));
  chunk->constraint.push_back(constraint_index);
  chunk->alive.push_back(true);
  ++num_live_edges_;
  MutableCanonicalShard(csi)->ids.emplace(std::move(key), id);
  return id;
}

void ConflictHypergraph::RemoveEdge(EdgeId e) {
  if (e >= num_edge_slots_) return;
  size_t ci = e >> kChunkShift;
  size_t slot = e & kChunkMask;
  if (!chunks_[ci]->alive[slot]) return;
  EdgeChunk* chunk = MutableChunk(ci);
  chunk->alive[slot] = false;
  --num_live_edges_;
  for (const RowId& v : chunk->vertices[slot]) RemoveIncident(v, e);
}

size_t ConflictHypergraph::RemoveIncidentEdges(RowId v) {
  // RemoveEdge mutates the incident shard; work off a copy.
  std::vector<EdgeId> edges = IncidentEdges(v);
  for (EdgeId e : edges) RemoveEdge(e);
  return edges.size();
}

// --- read paths ------------------------------------------------------------

const std::vector<ConflictHypergraph::EdgeId>&
ConflictHypergraph::IncidentEdges(RowId v) const {
  static const std::vector<EdgeId> kEmpty;
  const IncidentShard* shard = incident_[IncidentShardOf(v)].get();
  if (shard == nullptr) return kEmpty;
  auto it = shard->lists.find(v);
  return it == shard->lists.end() ? kEmpty : it->second;
}

std::vector<RowId> ConflictHypergraph::ConflictingVertices() const {
  std::vector<RowId> out;
  out.reserve(num_conflicting_);
  for (const auto& shard : incident_) {
    if (shard == nullptr) continue;
    for (const auto& [v, _] : shard->lists) out.push_back(v);
  }
  return out;
}

bool ConflictHypergraph::EdgeInside(EdgeId e, const VertexSet& set) const {
  for (const RowId& v : edge(e)) {
    if (!set.count(v)) return false;
  }
  return true;
}

bool ConflictHypergraph::ContainsFullEdge(const VertexSet& set) const {
  std::unordered_set<EdgeId> checked;
  for (const RowId& v : set) {
    for (EdgeId e : IncidentEdges(v)) {
      if (!checked.insert(e).second) continue;
      if (EdgeInside(e, set)) return true;
    }
  }
  return false;
}

size_t ConflictHypergraph::MaxDegree() const {
  size_t max_deg = 0;
  for (const auto& shard : incident_) {
    if (shard == nullptr) continue;
    for (const auto& [_, edges] : shard->lists) {
      max_deg = std::max(max_deg, edges.size());
    }
  }
  return max_deg;
}

std::string ConflictHypergraph::StatsString() const {
  return StrFormat("hypergraph: %zu edges, %zu conflicting tuples, max degree %zu",
                   NumEdges(), NumConflictingVertices(), MaxDegree());
}

std::string ConflictHypergraph::ToDot(size_t max_edges) const {
  // Hyperedges of arity > 2 are rendered as a small square junction node
  // connected to each member; binary edges as plain edges. Colours cycle by
  // constraint index.
  static const char* kColors[] = {"crimson", "dodgerblue3", "forestgreen",
                                  "darkorange2", "purple3", "goldenrod3"};
  std::string out = "graph conflicts {\n  node [shape=ellipse];\n";
  size_t rendered = 0;
  for (EdgeId e = 0; e < num_edge_slots_ && rendered < max_edges; ++e) {
    if (!EdgeAlive(e)) continue;
    ++rendered;
    const char* color =
        kColors[edge_constraint(e) % (sizeof(kColors) / sizeof(kColors[0]))];
    const std::vector<RowId>& vs = edge(e);
    if (vs.size() == 1) {
      out += StrFormat("  \"%s\" [color=%s, penwidth=2];\n",
                       vs[0].ToString().c_str(), color);
    } else if (vs.size() == 2) {
      out += StrFormat("  \"%s\" -- \"%s\" [color=%s];\n",
                       vs[0].ToString().c_str(), vs[1].ToString().c_str(),
                       color);
    } else {
      std::string junction = StrFormat("e%u", e);
      out += StrFormat(
          "  \"%s\" [shape=point, color=%s];\n", junction.c_str(), color);
      for (const RowId& v : vs) {
        out += StrFormat("  \"%s\" -- \"%s\" [color=%s];\n", junction.c_str(),
                         v.ToString().c_str(), color);
      }
    }
  }
  if (rendered < NumEdges()) {
    out += StrFormat("  label=\"%zu of %zu edges shown\";\n", rendered,
                     NumEdges());
  }
  out += "}\n";
  return out;
}

std::vector<std::pair<std::vector<RowId>, uint32_t>>
ConflictHypergraph::CanonicalEdges() const {
  std::vector<std::pair<std::vector<RowId>, uint32_t>> out;
  out.reserve(num_live_edges_);
  for (EdgeId e = 0; e < num_edge_slots_; ++e) {
    if (!EdgeAlive(e)) continue;
    out.emplace_back(edge(e), edge_constraint(e));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- memory accounting -----------------------------------------------------

namespace {

size_t VertexListBytes(const std::vector<RowId>& vs) {
  return sizeof(vs) + vs.capacity() * sizeof(RowId);
}

}  // namespace

size_t ConflictHypergraph::ApproxBytes() const {
  std::unordered_set<const void*> seen;
  size_t bytes = sizeof(ConflictHypergraph);
  AccumulateApproxBytes(&seen, &bytes);
  return bytes;
}

void ConflictHypergraph::AccumulateApproxBytes(
    std::unordered_set<const void*>* seen, size_t* bytes) const {
  for (const auto& chunk : chunks_) {
    if (!seen->insert(chunk.get()).second) continue;
    size_t b = sizeof(EdgeChunk);
    for (const auto& vs : chunk->vertices) b += VertexListBytes(vs);
    b += chunk->constraint.capacity() * sizeof(uint32_t);
    b += chunk->alive.capacity() / 8;
    *bytes += b;
  }
  for (const auto& shard : incident_) {
    if (shard == nullptr || !seen->insert(shard.get()).second) continue;
    size_t b = sizeof(IncidentShard);
    for (const auto& [v, list] : shard->lists) {
      (void)v;
      b += sizeof(RowId) + sizeof(list) + list.capacity() * sizeof(EdgeId) +
           2 * sizeof(void*);
    }
    *bytes += b;
  }
  for (const auto& shard : canonical_) {
    if (shard == nullptr || !seen->insert(shard.get()).second) continue;
    size_t b = sizeof(CanonicalShard);
    for (const auto& [key, id] : shard->ids) {
      (void)id;
      b += sizeof(std::string) + key.capacity() + sizeof(EdgeId) +
           2 * sizeof(void*);
    }
    *bytes += b;
  }
}

std::vector<const void*> ConflictHypergraph::PartitionPointers() const {
  std::vector<const void*> out;
  out.reserve(chunks_.size() + kIncidentShards + kCanonicalShards);
  for (const auto& chunk : chunks_) out.push_back(chunk.get());
  for (const auto& shard : incident_) {
    if (shard != nullptr) out.push_back(shard.get());
  }
  for (const auto& shard : canonical_) {
    if (shard != nullptr) out.push_back(shard.get());
  }
  return out;
}

}  // namespace hippo
