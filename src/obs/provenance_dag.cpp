// Implementation of the dissemination-provenance recorder. See the header
// for the recording protocol; the notes here cover the two subtle pieces:
//
// First-seen determinism. A receiver's first-seen record is updated at
// *schedule* time (FinalizeScheduled) with min-arrival-wins semantics, not at
// ingress. That is safe to read at relay time because the Network FIFO-clamps
// each (from,to) pair and a node only relays an object after its own copy
// arrived: any edge staged by the node at sim-time T has T >= its first-seen
// arrival, and no later schedule can lower a minimum that already admitted an
// arrival <= T. So hop depths are a pure function of the event stream.
//
// Late drop attribution. Network::Send finalizes an edge as scheduled before
// anyone can know the receiver will be crashed at arrival time. The receiving
// node's ingress hook (ResolveDelivery) pops the per-pair FIFO and, when the
// node is offline, re-attributes that seq as an `offline` drop; Finish()
// patches the column after restoring global order. Edges still pending at
// Finish were in flight at cutoff and stay kNone with arrival > end_us.
#include "obs/provenance_dag.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <type_traits>
#include <utility>

#include "obs/columnar.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"

namespace ethsim::obs {

namespace {

constexpr char kMagic[8] = {'E', 'T', 'H', 'P', 'R', 'O', 'V', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint8_t kUnknownRegion = 0xff;

std::uint64_t PairKey(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

// The per-edge columns in artifact order: the one list WriteBinary,
// ReadBinary and the Finish() reorder all walk.
template <typename Log, typename F>
void ForEachEdgeColumn(Log& log, F&& f) {
  f(log.send_us);
  f(log.arrival_us);
  f(log.from);
  f(log.to);
  f(log.object);
  f(log.parent);
  f(log.number);
  f(log.bytes);
  f(log.hop);
  f(log.kind);
  f(log.drop);
}

}  // namespace

std::string_view EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kOrigin:
      return "origin";
    case EdgeKind::kNewBlock:
      return "new_block";
    case EdgeKind::kAnnouncement:
      return "announcement";
    case EdgeKind::kGetBlock:
      return "get_block";
    case EdgeKind::kBlockResponse:
      return "block_response";
    case EdgeKind::kTransactions:
      return "transactions";
  }
  return "unknown";
}

std::string_view EdgeDropName(EdgeDrop drop) {
  switch (drop) {
    case EdgeDrop::kNone:
      return "none";
    case EdgeDrop::kRandomLoss:
      return "random_loss";
    case EdgeDrop::kPartitioned:
      return "partitioned";
    case EdgeDrop::kDegraded:
      return "degraded";
    case EdgeDrop::kOffline:
      return "offline";
  }
  return "unknown";
}

std::string_view InvariantCheckName(InvariantCheck check) {
  switch (check) {
    case InvariantCheck::kDuplicateFirstSeen:
      return "duplicate_first_seen";
    case InvariantCheck::kRelayWithoutReceive:
      return "relay_without_receive";
    case InvariantCheck::kFetchWithoutAnnounce:
      return "fetch_without_announce";
    case InvariantCheck::kDeliveryWhileOffline:
      return "delivery_while_offline";
    case InvariantCheck::kNonMonotoneHop:
      return "non_monotone_hop";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ProvenanceLog

void ProvenanceLog::Append(const EdgeRecord& record) {
  send_us.push_back(record.send_us);
  arrival_us.push_back(record.arrival_us);
  from.push_back(record.from);
  to.push_back(record.to);
  object.push_back(record.object);
  parent.push_back(record.parent);
  number.push_back(record.number);
  bytes.push_back(record.bytes);
  hop.push_back(record.hop);
  kind.push_back(static_cast<std::uint8_t>(record.kind));
  drop.push_back(static_cast<std::uint8_t>(record.drop));
}

// Layout (all little-endian, no padding):
//   char     magic[8]        "ETHPROV1"
//   u32      version         1
//   u32      host_count
//   u64      edge_count
//   i64      end_us
//   u8       host_region[host_count]
//   i64      send_us[edge_count]
//   i64      arrival_us[edge_count]
//   u32      from[edge_count]
//   u32      to[edge_count]
//   u64      object[edge_count]
//   u64      parent[edge_count]
//   u64      number[edge_count]
//   u32      bytes[edge_count]
//   u16      hop[edge_count]
//   u8       kind[edge_count]
//   u8       drop[edge_count]
bool ProvenanceLog::WriteBinary(const std::string& path,
                                std::string* error) const {
  ColumnWriter out(path, error);
  if (!out.Header(kMagic, kFormatVersion)) return false;
  out.Scalar(static_cast<std::uint32_t>(host_region.size()));
  out.Scalar(static_cast<std::uint64_t>(size()));
  out.Scalar(end_us);
  out.Column(host_region);
  ForEachEdgeColumn(*this, [&out](const auto& column) { out.Column(column); });
  return out.Close();
}

bool ProvenanceLog::ReadBinary(const std::string& path, ProvenanceLog* out,
                               std::string* error) {
  ColumnReader in(path, error);
  if (!in.Header(kMagic, kFormatVersion, "provenance.bin")) return false;
  std::uint32_t host_count = 0;
  std::uint64_t edge_count = 0;
  if (!in.Scalar(&host_count) || !in.Scalar(&edge_count) ||
      !in.Scalar(&out->end_us)) {
    return in.Fail("truncated header");
  }
  bool ok = in.Column(&out->host_region, host_count);
  ForEachEdgeColumn(*out, [&](auto& column) {
    ok = ok && in.Column(&column, edge_count);
  });
  if (!ok) return in.Fail("truncated column data");
  return in.End();
}

// ---------------------------------------------------------------------------
// InvariantChecker

void InvariantChecker::OnOrigin(std::uint32_t host, std::uint64_t object,
                                bool already_seen) {
  if (already_seen) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "host %u re-originated object %016" PRIx64, host, object);
    Violate(InvariantCheck::kDuplicateFirstSeen, buf);
  }
}

void InvariantChecker::OnBlockRelayStage(
    EdgeKind kind, std::uint32_t from, std::uint64_t object,
    bool sender_has_first_seen, std::int64_t send_us,
    std::int64_t sender_first_seen_arrival_us) {
  if (!sender_has_first_seen) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "host %u relayed (%s) object %016" PRIx64
                  " it never received",
                  from, std::string(EdgeKindName(kind)).c_str(), object);
    Violate(InvariantCheck::kRelayWithoutReceive, buf);
    return;
  }
  if (send_us < sender_first_seen_arrival_us) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "host %u relayed object %016" PRIx64 " at t=%" PRId64
                  "us before its own copy arrived (t=%" PRId64 "us)",
                  from, object, send_us, sender_first_seen_arrival_us);
    Violate(InvariantCheck::kNonMonotoneHop, buf);
  }
}

void InvariantChecker::OnFetchStage(std::uint32_t from, std::uint64_t object,
                                    bool heard, bool parent_known) {
  if (!heard && !parent_known) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "host %u fetched object %016" PRIx64
                  " without a prior announce or orphan-parent knowledge",
                  from, object);
    Violate(InvariantCheck::kFetchWithoutAnnounce, buf);
  }
}

void InvariantChecker::OnDelivery(std::uint32_t to, bool node_online,
                                  bool host_marked_down) {
  if (node_online && host_marked_down) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "delivery processed at host %u while the fault layer "
                  "has it marked down",
                  to);
    Violate(InvariantCheck::kDeliveryWhileOffline, buf);
  }
}

// ---------------------------------------------------------------------------
// ProvenanceRecorder

ProvenanceRecorder::ProvenanceRecorder(ProvenanceConfig config)
    : config_(config), checker_(config.fatal_invariants) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

void ProvenanceRecorder::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  for (std::size_t i = 0; i < kEdgeKindCount; ++i) {
    const auto kind = static_cast<EdgeKind>(i);
    edge_count_[i] = metrics->GetCounter(
        LabeledName("provenance.edge", {{"kind", EdgeKindName(kind)}}));
  }
  checker_.AttachMetrics(metrics);
}

void ProvenanceRecorder::RegisterHost(std::uint32_t host, std::uint8_t region) {
  if (host >= log_.host_region.size()) {
    log_.host_region.resize(host + 1, kUnknownRegion);
  }
  log_.host_region[host] = region;
  if (host >= rings_.size()) rings_.resize(host + 1);
  if (host >= hosts_.size()) hosts_.resize(host + 1);
}

ProvenanceRecorder::HostState& ProvenanceRecorder::Host(std::uint32_t host) {
  if (host >= hosts_.size()) hosts_.resize(host + 1);
  return hosts_[host];
}

void ProvenanceRecorder::NoteFirstSeen(std::uint32_t host,
                                       std::uint64_t object,
                                       std::int64_t arrival_us,
                                       std::uint16_t depth) {
  auto& first = objects_[object].first_seen;
  auto [it, inserted] = first.try_emplace(host, FirstSeen{arrival_us, depth});
  if (!inserted && arrival_us < it->second.arrival_us) {
    it->second.arrival_us = arrival_us;
    it->second.depth = depth;
  }
}

bool ProvenanceRecorder::FirstSeenDepth(std::uint32_t host,
                                        std::uint64_t object,
                                        std::uint16_t* depth_out) const {
  auto obj = objects_.find(object);
  if (obj == objects_.end()) return false;
  auto it = obj->second.first_seen.find(host);
  if (it == obj->second.first_seen.end()) return false;
  if (depth_out != nullptr) *depth_out = it->second.depth;
  return true;
}

void ProvenanceRecorder::RecordOrigin(std::uint32_t host, const Hash32& hash,
                                      const Hash32& parent,
                                      std::uint64_t number,
                                      std::int64_t now_us) {
  const std::uint64_t object = hash.prefix_u64();
  auto& first = objects_[object].first_seen;
  const bool already_seen = first.count(host) != 0;
  checker_.OnOrigin(host, object, already_seen);
  if (!already_seen) first.emplace(host, FirstSeen{now_us, 0});
  Host(host).known_parents.insert(parent.prefix_u64());

  EdgeRecord record;
  record.seq = next_seq_++;
  record.send_us = now_us;
  record.arrival_us = now_us;
  record.from = host;
  record.to = host;
  record.object = object;
  record.parent = parent.prefix_u64();
  record.number = number;
  record.bytes = 0;
  record.hop = 0;
  record.kind = EdgeKind::kOrigin;
  record.drop = EdgeDrop::kNone;
  AppendRecord(record);
  if (Counter* c = edge_count_[static_cast<std::size_t>(EdgeKind::kOrigin)]) {
    c->Add();
  }
}

void ProvenanceRecorder::StageBlockEdge(std::uint32_t from, std::uint32_t to,
                                        EdgeKind kind, const Hash32& hash,
                                        std::uint64_t number,
                                        const Hash32* parent,
                                        std::size_t bytes,
                                        std::int64_t now_us) {
  if (staged_active_) {
    // A previous stage was never finalized — the Network call it bracketed
    // did not happen (should not occur; keep counting so tests can assert).
    ++resync_warnings_;
    staged_active_ = false;
  }
  const std::uint64_t object = hash.prefix_u64();

  staged_ = EdgeRecord{};
  staged_.seq = next_seq_++;
  staged_.send_us = now_us;
  staged_.from = from;
  staged_.to = to;
  staged_.object = object;
  staged_.parent = parent != nullptr ? parent->prefix_u64() : 0;
  staged_.number = number;
  staged_.bytes = static_cast<std::uint32_t>(bytes);
  staged_.kind = kind;
  staged_.drop = EdgeDrop::kNone;

  // Hop depth: sender's first-seen depth + 1. Fetches ask for an object the
  // sender does *not* have yet — their hop is the depth the request leaves
  // from, not a relay depth, so they also use sender-depth + 1 relative to
  // the announce that triggered them (the sender's first-seen record for the
  // announced hash, when present).
  auto obj = objects_.find(object);
  const bool sender_seen =
      obj != objects_.end() && obj->second.first_seen.count(from) != 0;
  std::int64_t seen_arrival = 0;
  std::uint16_t seen_depth = 0;
  if (sender_seen) {
    const FirstSeen& fs = obj->second.first_seen.at(from);
    seen_arrival = fs.arrival_us;
    seen_depth = fs.depth;
  }
  staged_.hop = sender_seen ? static_cast<std::uint16_t>(seen_depth + 1) : 1;

  if (kind == EdgeKind::kGetBlock) {
    const bool parent_known =
        Host(from).known_parents.count(object) != 0;
    checker_.OnFetchStage(from, object, sender_seen, parent_known);
  } else {
    checker_.OnBlockRelayStage(kind, from, object, sender_seen, now_us,
                                    seen_arrival);
  }
  staged_active_ = true;
}

void ProvenanceRecorder::StageTxEdge(std::uint32_t from, std::uint32_t to,
                                     std::size_t tx_count, std::size_t bytes,
                                     std::int64_t now_us) {
  if (staged_active_) {
    ++resync_warnings_;
    staged_active_ = false;
  }
  staged_ = EdgeRecord{};
  staged_.seq = next_seq_++;
  staged_.send_us = now_us;
  staged_.from = from;
  staged_.to = to;
  staged_.object = 0;
  staged_.parent = 0;
  staged_.number = tx_count;
  staged_.bytes = static_cast<std::uint32_t>(bytes);
  staged_.hop = 0;
  staged_.kind = EdgeKind::kTransactions;
  staged_.drop = EdgeDrop::kNone;
  staged_active_ = true;
}

void ProvenanceRecorder::CommitStaged(std::int64_t arrival_us, EdgeDrop drop) {
  staged_.arrival_us = arrival_us;
  staged_.drop = drop;
  staged_active_ = false;
  if (Counter* c = edge_count_[static_cast<std::size_t>(staged_.kind)]) {
    c->Add();
  }
  AppendRecord(staged_);
}

void ProvenanceRecorder::FinalizeScheduled(std::uint32_t from,
                                           std::uint32_t to,
                                           std::int64_t arrival_us) {
  if (!staged_active_ || staged_.from != from || staged_.to != to) {
    // Send without a stage: a message the eth layer does not instrument.
    ++resync_warnings_;
    staged_active_ = false;
    return;
  }
  // Receiver learns the object at (predicted) arrival — min-arrival wins.
  if (staged_.kind == EdgeKind::kNewBlock ||
      staged_.kind == EdgeKind::kAnnouncement ||
      staged_.kind == EdgeKind::kBlockResponse) {
    NoteFirstSeen(to, staged_.object, arrival_us, staged_.hop);
    if (staged_.kind != EdgeKind::kAnnouncement && staged_.parent != 0) {
      // Full block bodies teach the receiver the parent hash (orphan fetch
      // justification); announces carry only the hash itself.
      Host(to).known_parents.insert(staged_.parent);
    }
  }
  pending_[PairKey(from, to)].push_back(
      PendingDelivery{staged_.seq, staged_.kind});
  CommitStaged(arrival_us, EdgeDrop::kNone);
}

void ProvenanceRecorder::FinalizeDropped(std::uint32_t from, std::uint32_t to,
                                         EdgeDrop reason) {
  if (!staged_active_ || staged_.from != from || staged_.to != to) {
    ++resync_warnings_;
    staged_active_ = false;
    return;
  }
  CommitStaged(-1, reason);
}

void ProvenanceRecorder::ResolveDelivery(std::uint32_t from, std::uint32_t to,
                                         bool online, std::int64_t now_us) {
  auto it = pending_.find(PairKey(from, to));
  if (it == pending_.end() || it->second.empty()) {
    ++resync_warnings_;
    return;
  }
  const PendingDelivery delivery = it->second.front();
  it->second.pop_front();
  if (!online) {
    // The message reached a crashed node: re-attribute as an offline drop.
    late_drops_.emplace_back(delivery.seq, EdgeDrop::kOffline);
    return;
  }
  checker_.OnDelivery(to, online, Host(to).marked_down);
  (void)now_us;
}

void ProvenanceRecorder::NoteHostOnline(std::uint32_t host, bool online) {
  Host(host).marked_down = !online;
}

void ProvenanceRecorder::AppendRecord(const EdgeRecord& record) {
  if (record.from >= rings_.size()) rings_.resize(record.from + 1);
  auto& ring = rings_[record.from];
  ring.push_back(record);
  if (ring.size() >= config_.ring_capacity) SpillRing(record.from);
}

void ProvenanceRecorder::SpillRing(std::uint32_t host) {
  auto& ring = rings_[host];
  for (const EdgeRecord& record : ring) {
    seqs_.push_back(record.seq);
    log_.Append(record);
  }
  ring.clear();
}

const ProvenanceLog& ProvenanceRecorder::Finish() {
  if (finished_) return log_;
  finished_ = true;
  for (std::uint32_t host = 0; host < rings_.size(); ++host) {
    if (!rings_[host].empty()) SpillRing(host);
  }
  // Restore global send order (seq is the Stage/RecordOrigin order, which is
  // the deterministic event order of the run).
  const std::size_t n = log_.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return seqs_[a] < seqs_[b];
  });

  // seq -> final row index for late-drop patching.
  std::unordered_map<std::uint64_t, std::size_t> row_of_seq;
  row_of_seq.reserve(n);
  for (std::size_t rank = 0; rank < n; ++rank)
    row_of_seq.emplace(seqs_[order[rank]], rank);
  ForEachEdgeColumn(log_, [&order](auto& column) {
    std::remove_reference_t<decltype(column)> sorted;
    sorted.reserve(order.size());
    for (const std::size_t i : order) sorted.push_back(column[i]);
    column = std::move(sorted);
  });
  log_.end_us = end_us_;
  seqs_.clear();
  seqs_.shrink_to_fit();

  for (const auto& [seq, reason] : late_drops_) {
    auto it = row_of_seq.find(seq);
    if (it != row_of_seq.end()) {
      log_.drop[it->second] = static_cast<std::uint8_t>(reason);
      log_.arrival_us[it->second] = -1;
    }
  }
  late_drops_.clear();

  if (resync_warnings_ > 0) {
    LogWarn("provenance",
            "%" PRIu64 " stage/finalize/resolve resyncs during recording "
            "(uninstrumented sends?)",
            resync_warnings_);
  }
  return log_;
}

bool ProvenanceRecorder::WriteArtifact(const std::string& dir,
                                       std::string* error) {
  const ProvenanceLog& log = Finish();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = dir + ": " + ec.message();
    return false;
  }
  return log.WriteBinary(dir + "/provenance.bin", error);
}

}  // namespace ethsim::obs
