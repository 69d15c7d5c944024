// FrameDecoder — incremental message extraction for the reactor core.
//
// Split from net/reactor.hpp so protocol layers (tls links) can implement
// decoding without depending on epoll machinery.
//
// The reactor hands a decoder a mutable view of bytes it will never read
// again once they are consumed: its I/O thread's read chunk, or the pooled
// tail of a frame that spanned several reads. A decoder may therefore
// transform a consumed frame in place (a GSSL record is decrypted where
// it lies) and hand the sink a view into the same bytes; nothing on the
// receive path copies a complete frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace pg::net {

/// Incremental frame decoder: consumes complete messages from received
/// bytes, leaving a partial trailing message unconsumed for the caller to
/// keep until more bytes arrive. Implemented by the tls::MessageLink kinds
/// (plaintext length-prefixed frames; GSSL records opened in place).
class FrameDecoder {
 public:
  virtual ~FrameDecoder() = default;

  /// Parses complete messages out of buf[pos, buf.size()), advancing `pos`
  /// past each and invoking `sink` with the message payload (a view into
  /// `buf`, valid only for the duration of the call). Bytes before the
  /// final `pos` may be overwritten. Returns an error to kill the stream
  /// (oversized frame, MAC failure, ...).
  virtual Status decode(std::span<std::uint8_t> buf, std::size_t& pos,
                        const std::function<void(BytesView)>& sink) = 0;
};

}  // namespace pg::net
