#ifndef DEEPDIVE_DIST_WIRE_H_
#define DEEPDIVE_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/deadline.h"
#include "util/result.h"
#include "util/rng.h"

namespace dd {

/// ---- Framed wire protocol ---------------------------------------------
///
/// Every message is one length-prefixed, CRC'd frame:
///
///   magic       u32   "DDW1" (0x31574444 little-endian on the wire)
///   type        u32   application message type
///   payload_len u64
///   payload     payload_len bytes
///   crc32c      u32   over type + payload_len + payload
///
/// All integers little-endian (util/bytes.h, which also encodes every
/// message payload — dist/protocol.h). Reads are bounds-checked; a bad magic,
/// an oversized length, or a CRC mismatch is Status::Corruption — the
/// stream is declared poisoned and is never retried. Transient faults
/// (connection refused/reset before any frame byte moved) surface as
/// kUnavailable/kIoError, which the *Retry helpers below back off and
/// retry; a failure after part of a frame moved is kInternal (the
/// stream is desynchronized — only reconnecting can fix it).
///
/// Endpoints: "tcp:host:port" (IPv4) or "unix:/path". Sockets are
/// non-blocking; every blocking point polls against the caller's
/// Deadline.

inline constexpr uint32_t kWireMagic = 0x31574444;  // "DDW1"
inline constexpr uint64_t kWireMaxPayload = 1ull << 30;

struct Frame {
  uint32_t type = 0;
  std::string payload;
};

/// ---- Connections ------------------------------------------------------

class WireConn {
 public:
  WireConn() = default;
  WireConn(WireConn&& other) noexcept;
  WireConn& operator=(WireConn&& other) noexcept;
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;
  ~WireConn();

  /// Connect to `endpoint`, polling against `deadline`. A refused or
  /// unreachable peer is kUnavailable (retryable); honors dist.connect.
  static Result<WireConn> Dial(const std::string& endpoint,
                               const Deadline& deadline);

  bool ok() const { return fd_ >= 0; }
  void Close();

  /// Write one frame. Honors the dist.send failpoint (evaluated before
  /// any byte moves, so an injected fault leaves the stream clean and
  /// the frame can be retried in place).
  Status SendFrame(uint32_t type, std::string_view payload,
                   const Deadline& deadline);

  /// Read one frame. Honors dist.recv (same pre-I/O evaluation). A peer
  /// that closed cleanly between frames is kUnavailable.
  Result<Frame> RecvFrame(const Deadline& deadline);

 private:
  friend class WireListener;
  explicit WireConn(int fd) : fd_(fd) {}
  Status WriteAll(const char* buf, size_t n, size_t* written,
                  const Deadline& deadline);
  /// Reads exactly n bytes; *got reports progress on error (0 means the
  /// stream is still at a frame boundary).
  Status ReadAll(char* buf, size_t n, size_t* got, const Deadline& deadline);
  int fd_ = -1;
};

class WireListener {
 public:
  WireListener() = default;
  WireListener(WireListener&& other) noexcept;
  WireListener& operator=(WireListener&& other) noexcept;
  WireListener(const WireListener&) = delete;
  WireListener& operator=(const WireListener&) = delete;
  ~WireListener();

  /// Bind + listen. "tcp:127.0.0.1:0" picks a free port; endpoint()
  /// reports the resolved address to hand to workers.
  static Result<WireListener> Listen(const std::string& endpoint);

  const std::string& endpoint() const { return endpoint_; }
  bool ok() const { return fd_ >= 0; }
  void Close();

  /// Close the inherited listening socket in a forked child *without*
  /// unlinking a unix socket path — the parent still serves it.
  void CloseInChild();

  /// Accept one connection; kDeadlineExceeded when none arrives in time
  /// (the coordinator polls this with short deadlines so it can check
  /// for dead workers between waits).
  Result<WireConn> Accept(const Deadline& deadline);

 private:
  int fd_ = -1;
  std::string endpoint_;
  std::string unix_path_;  ///< unlinked on Close for unix sockets
};

/// ---- Retry wrappers ---------------------------------------------------
///
/// Retry transient frame-boundary faults (kUnavailable, kIoError) with
/// jittered exponential backoff; everything else — Corruption above all
/// — is permanent and returned immediately.

bool WireRetryable(const Status& status);

Status SendFrameRetry(WireConn* conn, uint32_t type, std::string_view payload,
                      const Deadline& deadline, Rng* rng);
Result<Frame> RecvFrameRetry(WireConn* conn, const Deadline& deadline,
                             Rng* rng);
/// Dial with backoff — covers the worker racing the coordinator's bind.
Result<WireConn> DialRetry(const std::string& endpoint,
                           const Deadline& deadline, Rng* rng);

}  // namespace dd

#endif  // DEEPDIVE_DIST_WIRE_H_
