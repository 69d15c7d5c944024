#include "proto/messages.hpp"

#include "common/serde.hpp"

namespace pg::proto {

namespace {
constexpr std::size_t kMaxListSize = 100000;  // sanity bound on repeated fields

Status get_count(BufferReader& r, std::uint64_t& n) {
  PG_RETURN_IF_ERROR(r.get_varint(n));
  if (n > kMaxListSize)
    return error(ErrorCode::kProtocolError, "repeated field too large");
  return Status::ok();
}
}  // namespace

// ------------------------------------------------------------ membership

Bytes Hello::serialize() const {
  BufferWriter w;
  w.put_string(site);
  w.put_string(proxy_subject);
  return w.take();
}

Result<Hello> Hello::parse(BytesView data) {
  BufferReader r(data);
  Hello m;
  PG_RETURN_IF_ERROR(r.get_string(m.site));
  PG_RETURN_IF_ERROR(r.get_string(m.proxy_subject));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes HelloAck::serialize() const {
  BufferWriter w;
  w.put_string(site);
  w.put_bool(accepted);
  w.put_string(reason);
  return w.take();
}

Result<HelloAck> HelloAck::parse(BytesView data) {
  BufferReader r(data);
  HelloAck m;
  PG_RETURN_IF_ERROR(r.get_string(m.site));
  PG_RETURN_IF_ERROR(r.get_bool(m.accepted));
  PG_RETURN_IF_ERROR(r.get_string(m.reason));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

// -------------------------------------------------------------- security

Bytes AuthRequest::serialize() const {
  BufferWriter w;
  w.put_string(user);
  w.put_u8(static_cast<std::uint8_t>(method));
  w.put_bytes(credential);
  w.put_u64(timestamp);
  return w.take();
}

Result<AuthRequest> AuthRequest::parse(BytesView data) {
  BufferReader r(data);
  AuthRequest m;
  std::uint8_t method_raw = 0;
  PG_RETURN_IF_ERROR(r.get_string(m.user));
  PG_RETURN_IF_ERROR(r.get_u8(method_raw));
  if (method_raw > static_cast<std::uint8_t>(AuthMethod::kTicket))
    return error(ErrorCode::kProtocolError, "unknown auth method");
  m.method = static_cast<AuthMethod>(method_raw);
  PG_RETURN_IF_ERROR(r.get_bytes(m.credential));
  PG_RETURN_IF_ERROR(r.get_u64(m.timestamp));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes AuthResponse::serialize() const {
  BufferWriter w;
  w.put_bool(ok);
  w.put_string(reason);
  w.put_bytes(token);
  return w.take();
}

Result<AuthResponse> AuthResponse::parse(BytesView data) {
  BufferReader r(data);
  AuthResponse m;
  PG_RETURN_IF_ERROR(r.get_bool(m.ok));
  PG_RETURN_IF_ERROR(r.get_string(m.reason));
  PG_RETURN_IF_ERROR(r.get_bytes(m.token));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

// ------------------------------------------------- control & monitoring

namespace {
void write_node_status(BufferWriter& w, const NodeStatus& n) {
  w.put_string(n.name);
  w.put_double(n.cpu_capacity);
  w.put_double(n.cpu_load);
  w.put_u64(n.ram_total_mb);
  w.put_u64(n.ram_free_mb);
  w.put_u64(n.disk_total_mb);
  w.put_u64(n.disk_free_mb);
  w.put_u32(n.running_processes);
  w.put_u64(n.timestamp);
}

Status read_node_status(BufferReader& r, NodeStatus& n) {
  PG_RETURN_IF_ERROR(r.get_string(n.name));
  PG_RETURN_IF_ERROR(r.get_double(n.cpu_capacity));
  PG_RETURN_IF_ERROR(r.get_double(n.cpu_load));
  PG_RETURN_IF_ERROR(r.get_u64(n.ram_total_mb));
  PG_RETURN_IF_ERROR(r.get_u64(n.ram_free_mb));
  PG_RETURN_IF_ERROR(r.get_u64(n.disk_total_mb));
  PG_RETURN_IF_ERROR(r.get_u64(n.disk_free_mb));
  PG_RETURN_IF_ERROR(r.get_u32(n.running_processes));
  PG_RETURN_IF_ERROR(r.get_u64(n.timestamp));
  return Status::ok();
}
}  // namespace

Bytes NodeStatus::serialize() const {
  BufferWriter w;
  write_node_status(w, *this);
  return w.take();
}

Result<NodeStatus> NodeStatus::parse(BytesView data) {
  BufferReader r(data);
  NodeStatus n;
  PG_RETURN_IF_ERROR(read_node_status(r, n));
  PG_RETURN_IF_ERROR(r.expect_end());
  return n;
}

Bytes StatusQuery::serialize() const {
  BufferWriter w;
  w.put_varint(sites.size());
  for (const auto& s : sites) w.put_string(s);
  w.put_bool(include_nodes);
  return w.take();
}

Result<StatusQuery> StatusQuery::parse(BytesView data) {
  BufferReader r(data);
  StatusQuery m;
  std::uint64_t n = 0;
  PG_RETURN_IF_ERROR(get_count(r, n));
  m.sites.resize(n);
  for (auto& s : m.sites) PG_RETURN_IF_ERROR(r.get_string(s));
  PG_RETURN_IF_ERROR(r.get_bool(m.include_nodes));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes StatusReport::serialize() const {
  BufferWriter w;
  w.put_string(site);
  w.put_varint(nodes.size());
  for (const auto& n : nodes) write_node_status(w, n);
  w.put_u64(timestamp);
  return w.take();
}

Result<StatusReport> StatusReport::parse(BytesView data) {
  BufferReader r(data);
  StatusReport m;
  PG_RETURN_IF_ERROR(r.get_string(m.site));
  std::uint64_t n = 0;
  PG_RETURN_IF_ERROR(get_count(r, n));
  m.nodes.resize(n);
  for (auto& node : m.nodes) PG_RETURN_IF_ERROR(read_node_status(r, node));
  PG_RETURN_IF_ERROR(r.get_u64(m.timestamp));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes ShardStatus::serialize() const {
  BufferWriter w;
  w.put_string(shard);
  w.put_u64(lease_epoch);
  w.put_string(report.site);
  w.put_varint(report.nodes.size());
  for (const auto& n : report.nodes) write_node_status(w, n);
  w.put_u64(report.timestamp);
  return w.take();
}

Result<ShardStatus> ShardStatus::parse(BytesView data) {
  BufferReader r(data);
  ShardStatus m;
  PG_RETURN_IF_ERROR(r.get_string(m.shard));
  PG_RETURN_IF_ERROR(r.get_u64(m.lease_epoch));
  PG_RETURN_IF_ERROR(r.get_string(m.report.site));
  std::uint64_t n = 0;
  PG_RETURN_IF_ERROR(get_count(r, n));
  m.report.nodes.resize(n);
  for (auto& node : m.report.nodes)
    PG_RETURN_IF_ERROR(read_node_status(r, node));
  PG_RETURN_IF_ERROR(r.get_u64(m.report.timestamp));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes JobSubmit::serialize() const {
  BufferWriter w;
  w.put_u64(job_id);
  w.put_string(user);
  w.put_string(executable);
  w.put_varint(args.size());
  for (const auto& a : args) w.put_string(a);
  w.put_u32(ranks);
  w.put_u64(min_ram_mb);
  w.put_bytes(token);
  return w.take();
}

Result<JobSubmit> JobSubmit::parse(BytesView data) {
  BufferReader r(data);
  JobSubmit m;
  PG_RETURN_IF_ERROR(r.get_u64(m.job_id));
  PG_RETURN_IF_ERROR(r.get_string(m.user));
  PG_RETURN_IF_ERROR(r.get_string(m.executable));
  std::uint64_t n = 0;
  PG_RETURN_IF_ERROR(get_count(r, n));
  m.args.resize(n);
  for (auto& a : m.args) PG_RETURN_IF_ERROR(r.get_string(a));
  PG_RETURN_IF_ERROR(r.get_u32(m.ranks));
  PG_RETURN_IF_ERROR(r.get_u64(m.min_ram_mb));
  PG_RETURN_IF_ERROR(r.get_bytes(m.token));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes JobAccept::serialize() const {
  BufferWriter w;
  w.put_u64(job_id);
  w.put_bool(accepted);
  w.put_string(reason);
  return w.take();
}

Result<JobAccept> JobAccept::parse(BytesView data) {
  BufferReader r(data);
  JobAccept m;
  PG_RETURN_IF_ERROR(r.get_u64(m.job_id));
  PG_RETURN_IF_ERROR(r.get_bool(m.accepted));
  PG_RETURN_IF_ERROR(r.get_string(m.reason));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes JobComplete::serialize() const {
  BufferWriter w;
  w.put_u64(job_id);
  w.put_u32(exit_code);
  w.put_bytes(output);
  return w.take();
}

Result<JobComplete> JobComplete::parse(BytesView data) {
  BufferReader r(data);
  JobComplete m;
  PG_RETURN_IF_ERROR(r.get_u64(m.job_id));
  PG_RETURN_IF_ERROR(r.get_u32(m.exit_code));
  PG_RETURN_IF_ERROR(r.get_bytes(m.output));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

// ------------------------------------------------------------------ MPI

Bytes MpiOpen::serialize() const {
  BufferWriter w;
  w.put_u64(app_id);
  w.put_string(executable);
  w.put_u32(world_size);
  w.put_varint(placements.size());
  for (const auto& p : placements) {
    w.put_u32(p.rank);
    w.put_string(p.site);
    w.put_string(p.node);
  }
  w.put_string(user);
  w.put_bytes(token);
  return w.take();
}

Result<MpiOpen> MpiOpen::parse(BytesView data) {
  BufferReader r(data);
  MpiOpen m;
  PG_RETURN_IF_ERROR(r.get_u64(m.app_id));
  PG_RETURN_IF_ERROR(r.get_string(m.executable));
  PG_RETURN_IF_ERROR(r.get_u32(m.world_size));
  std::uint64_t n = 0;
  PG_RETURN_IF_ERROR(get_count(r, n));
  m.placements.resize(n);
  for (auto& p : m.placements) {
    PG_RETURN_IF_ERROR(r.get_u32(p.rank));
    PG_RETURN_IF_ERROR(r.get_string(p.site));
    PG_RETURN_IF_ERROR(r.get_string(p.node));
  }
  PG_RETURN_IF_ERROR(r.get_string(m.user));
  PG_RETURN_IF_ERROR(r.get_bytes(m.token));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes MpiOpenAck::serialize() const {
  BufferWriter w;
  w.put_u64(app_id);
  w.put_bool(ok);
  w.put_string(reason);
  return w.take();
}

Result<MpiOpenAck> MpiOpenAck::parse(BytesView data) {
  BufferReader r(data);
  MpiOpenAck m;
  PG_RETURN_IF_ERROR(r.get_u64(m.app_id));
  PG_RETURN_IF_ERROR(r.get_bool(m.ok));
  PG_RETURN_IF_ERROR(r.get_string(m.reason));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

namespace {

void put_batch_ack(BufferWriter& w, const MpiBatchAck& ack) {
  w.put_string(ack.origin);
  w.put_u64(ack.cumulative);
  w.put_varint(ack.selective.size());
  for (const std::uint64_t seq : ack.selective) w.put_u64(seq);
  w.put_varint(ack.ack_delay_us);
}

Status get_batch_ack(BufferReader& r, MpiBatchAck& ack) {
  PG_RETURN_IF_ERROR(r.get_string(ack.origin));
  PG_RETURN_IF_ERROR(r.get_u64(ack.cumulative));
  std::uint64_t n = 0;
  PG_RETURN_IF_ERROR(get_count(r, n));
  ack.selective.resize(n);
  for (auto& seq : ack.selective) PG_RETURN_IF_ERROR(r.get_u64(seq));
  return r.get_varint(ack.ack_delay_us);
}

}  // namespace

Bytes MpiBatch::serialize() const {
  BufferWriter w;
  w.put_string(origin);
  w.put_u64(seq);
  w.put_varint(frames.size());
  for (const auto& f : frames) {
    w.put_u64(f.app_id);
    w.put_u32(f.src_rank);
    w.put_u32(f.tag);
    w.put_varint(f.dst_ranks.size());
    for (const std::uint32_t dst : f.dst_ranks) w.put_u32(dst);
    w.put_bytes(f.payload);
  }
  w.put_varint(acks.size());
  for (const MpiBatchAck& ack : acks) put_batch_ack(w, ack);
  return w.take();
}

Result<MpiBatch> MpiBatch::parse(BytesView data) {
  BufferReader r(data);
  MpiBatch m;
  PG_RETURN_IF_ERROR(r.get_string(m.origin));
  PG_RETURN_IF_ERROR(r.get_u64(m.seq));
  std::uint64_t n = 0;
  PG_RETURN_IF_ERROR(get_count(r, n));
  m.frames.resize(n);
  for (auto& f : m.frames) {
    PG_RETURN_IF_ERROR(r.get_u64(f.app_id));
    PG_RETURN_IF_ERROR(r.get_u32(f.src_rank));
    PG_RETURN_IF_ERROR(r.get_u32(f.tag));
    std::uint64_t dsts = 0;
    PG_RETURN_IF_ERROR(get_count(r, dsts));
    f.dst_ranks.resize(dsts);
    for (auto& dst : f.dst_ranks) PG_RETURN_IF_ERROR(r.get_u32(dst));
    PG_RETURN_IF_ERROR(r.get_bytes(f.payload));
  }
  PG_RETURN_IF_ERROR(get_count(r, n));
  m.acks.resize(n);
  for (auto& ack : m.acks) PG_RETURN_IF_ERROR(get_batch_ack(r, ack));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes MpiBatchAck::serialize() const {
  BufferWriter w;
  put_batch_ack(w, *this);
  return w.take();
}

Result<MpiBatchAck> MpiBatchAck::parse(BytesView data) {
  BufferReader r(data);
  MpiBatchAck m;
  PG_RETURN_IF_ERROR(get_batch_ack(r, m));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes MpiClose::serialize() const {
  BufferWriter w;
  w.put_u64(app_id);
  return w.take();
}

Result<MpiClose> MpiClose::parse(BytesView data) {
  BufferReader r(data);
  MpiClose m;
  PG_RETURN_IF_ERROR(r.get_u64(m.app_id));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes MpiAbort::serialize() const {
  BufferWriter w;
  w.put_u64(app_id);
  w.put_string(reason);
  return w.take();
}

Result<MpiAbort> MpiAbort::parse(BytesView data) {
  BufferReader r(data);
  MpiAbort m;
  PG_RETURN_IF_ERROR(r.get_u64(m.app_id));
  PG_RETURN_IF_ERROR(r.get_string(m.reason));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

// ------------------------------------------------------------- tunnels

Bytes TunnelOpen::serialize() const {
  BufferWriter w;
  w.put_u64(tunnel_id);
  w.put_string(target_site);
  w.put_string(target_node);
  w.put_string(target_service);
  return w.take();
}

Result<TunnelOpen> TunnelOpen::parse(BytesView data) {
  BufferReader r(data);
  TunnelOpen m;
  PG_RETURN_IF_ERROR(r.get_u64(m.tunnel_id));
  PG_RETURN_IF_ERROR(r.get_string(m.target_site));
  PG_RETURN_IF_ERROR(r.get_string(m.target_node));
  PG_RETURN_IF_ERROR(r.get_string(m.target_service));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes TunnelData::serialize() const {
  BufferWriter w;
  w.put_u64(tunnel_id);
  w.put_bytes(payload);
  return w.take();
}

Result<TunnelData> TunnelData::parse(BytesView data) {
  BufferReader r(data);
  TunnelData m;
  PG_RETURN_IF_ERROR(r.get_u64(m.tunnel_id));
  PG_RETURN_IF_ERROR(r.get_bytes(m.payload));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

Bytes TunnelClose::serialize() const {
  BufferWriter w;
  w.put_u64(tunnel_id);
  return w.take();
}

Result<TunnelClose> TunnelClose::parse(BytesView data) {
  BufferReader r(data);
  TunnelClose m;
  PG_RETURN_IF_ERROR(r.get_u64(m.tunnel_id));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

// ---------------------------------------------------------------- traces

Bytes TraceExport::serialize() const {
  BufferWriter w;
  w.put_string(exporter_site);
  w.put_varint(spans.size());
  for (const ExportedSpan& s : spans) {
    w.put_u64(s.trace_id);
    w.put_u64(s.span_id);
    w.put_u64(s.parent_span_id);
    w.put_string(s.name);
    w.put_string(s.component);
    w.put_u64(static_cast<std::uint64_t>(s.start_micros));
    w.put_u64(static_cast<std::uint64_t>(s.end_micros));
    w.put_bool(s.ok);
    w.put_string(s.note);
  }
  return w.take();
}

Result<TraceExport> TraceExport::parse(BytesView data) {
  BufferReader r(data);
  TraceExport m;
  PG_RETURN_IF_ERROR(r.get_string(m.exporter_site));
  std::uint64_t count = 0;
  PG_RETURN_IF_ERROR(get_count(r, count));
  m.spans.resize(count);
  for (ExportedSpan& s : m.spans) {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    PG_RETURN_IF_ERROR(r.get_u64(s.trace_id));
    PG_RETURN_IF_ERROR(r.get_u64(s.span_id));
    PG_RETURN_IF_ERROR(r.get_u64(s.parent_span_id));
    PG_RETURN_IF_ERROR(r.get_string(s.name));
    PG_RETURN_IF_ERROR(r.get_string(s.component));
    PG_RETURN_IF_ERROR(r.get_u64(start));
    PG_RETURN_IF_ERROR(r.get_u64(end));
    s.start_micros = static_cast<std::int64_t>(start);
    s.end_micros = static_cast<std::int64_t>(end);
    PG_RETURN_IF_ERROR(r.get_bool(s.ok));
    PG_RETURN_IF_ERROR(r.get_string(s.note));
  }
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

// --------------------------------------------------------------- errors

Bytes ErrorMessage::serialize() const {
  BufferWriter w;
  w.put_u16(code);
  w.put_string(message);
  return w.take();
}

Result<ErrorMessage> ErrorMessage::parse(BytesView data) {
  BufferReader r(data);
  ErrorMessage m;
  PG_RETURN_IF_ERROR(r.get_u16(m.code));
  PG_RETURN_IF_ERROR(r.get_string(m.message));
  PG_RETURN_IF_ERROR(r.expect_end());
  return m;
}

}  // namespace pg::proto
