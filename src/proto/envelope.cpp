#include "proto/envelope.hpp"

#include "common/serde.hpp"

namespace pg::proto {

const char* opcode_name(OpCode op) {
  switch (op) {
    case OpCode::kHello: return "hello";
    case OpCode::kHelloAck: return "hello_ack";
    case OpCode::kPing: return "ping";
    case OpCode::kPong: return "pong";
    case OpCode::kHeartbeat: return "heartbeat";
    case OpCode::kAuthRequest: return "auth_request";
    case OpCode::kAuthResponse: return "auth_response";
    case OpCode::kStatusQuery: return "status_query";
    case OpCode::kStatusReport: return "status_report";
    case OpCode::kShardStatus: return "shard_status";
    case OpCode::kJobSubmit: return "job_submit";
    case OpCode::kJobAccept: return "job_accept";
    case OpCode::kJobComplete: return "job_complete";
    case OpCode::kJobQuery: return "job_query";
    case OpCode::kMpiOpen: return "mpi_open";
    case OpCode::kMpiOpenAck: return "mpi_open_ack";
    case OpCode::kMpiClose: return "mpi_close";
    case OpCode::kMpiStart: return "mpi_start";
    case OpCode::kMpiDone: return "mpi_done";
    case OpCode::kMpiAbort: return "mpi_abort";
    case OpCode::kMpiBatch: return "mpi_batch";
    case OpCode::kMpiBatchAck: return "mpi_batch_ack";
    case OpCode::kTunnelOpen: return "tunnel_open";
    case OpCode::kTunnelData: return "tunnel_data";
    case OpCode::kTunnelClose: return "tunnel_close";
    case OpCode::kTraceExport: return "trace_export";
    case OpCode::kReply: return "reply";
    case OpCode::kError: return "error";
    case OpCode::kExtensionBase: return "extension";
  }
  return static_cast<std::uint16_t>(op) >=
                 static_cast<std::uint16_t>(OpCode::kExtensionBase)
             ? "extension"
             : "unknown";
}

namespace {

inline void push_u64_be(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

inline void push_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

void serialize_envelope(OpCode op, std::uint64_t request_id,
                        std::uint64_t trace_id, std::uint64_t span_id,
                        BytesView payload, Bytes& out) {
  out.clear();
  out.reserve(3 + 3 * 8 + 10 + payload.size());
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(static_cast<std::uint16_t>(op) >> 8));
  out.push_back(static_cast<std::uint8_t>(static_cast<std::uint16_t>(op)));
  push_u64_be(out, request_id);
  push_u64_be(out, trace_id);
  push_u64_be(out, span_id);
  push_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void Envelope::serialize_into(Bytes& out) const {
  serialize_envelope(op, request_id, trace_id, span_id, payload, out);
}

Bytes Envelope::serialize() const {
  Bytes out;
  serialize_into(out);
  return out;
}

Result<Envelope> Envelope::deserialize(BytesView data) {
  BufferReader r(data);
  Envelope env;
  std::uint8_t version = 0;
  std::uint16_t op_raw = 0;
  PG_RETURN_IF_ERROR(r.get_u8(version));
  if (version != kProtocolVersion)
    return error(ErrorCode::kProtocolError,
                 "unsupported protocol version " + std::to_string(version));
  PG_RETURN_IF_ERROR(r.get_u16(op_raw));
  env.op = static_cast<OpCode>(op_raw);
  PG_RETURN_IF_ERROR(r.get_u64(env.request_id));
  PG_RETURN_IF_ERROR(r.get_u64(env.trace_id));
  PG_RETURN_IF_ERROR(r.get_u64(env.span_id));
  PG_RETURN_IF_ERROR(r.get_bytes(env.payload));
  PG_RETURN_IF_ERROR(r.expect_end());
  return env;
}

}  // namespace pg::proto
