#include "dist/wire.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/string_util.h"

namespace dd {

namespace {

constexpr size_t kFrameHeaderBytes = 16;  // magic + type + payload_len

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(StrFormat("fcntl(O_NONBLOCK): %s", strerror(errno)));
  }
  return Status::OK();
}

/// Poll fd for `events` until the deadline; kDeadlineExceeded on timeout.
Status PollFd(int fd, short events, const Deadline& deadline,
              const char* stage) {
  for (;;) {
    DD_RETURN_IF_ERROR(deadline.Check(stage));
    struct pollfd pfd = {fd, events, 0};
    const double remaining = deadline.remaining_millis();
    const int timeout =
        remaining > 100.0 ? 100 : (remaining < 1.0 ? 1 : static_cast<int>(remaining));
    const int rc = poll(&pfd, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("poll: %s", strerror(errno)));
    }
    if (rc > 0) return Status::OK();
  }
}

/// Split "tcp:host:port" / "unix:/path". Fills exactly one of the pair.
Status ParseEndpoint(const std::string& endpoint, std::string* tcp_host,
                     int* tcp_port, std::string* unix_path) {
  if (endpoint.rfind("unix:", 0) == 0) {
    *unix_path = endpoint.substr(5);
    if (unix_path->empty()) {
      return Status::InvalidArgument("empty unix socket path: " + endpoint);
    }
    if (unix_path->size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + endpoint);
    }
    return Status::OK();
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const std::string rest = endpoint.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("tcp endpoint needs host:port: " + endpoint);
    }
    *tcp_host = rest.substr(0, colon);
    char* end = nullptr;
    const long port = strtol(rest.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      return Status::InvalidArgument("bad tcp port in endpoint: " + endpoint);
    }
    *tcp_port = static_cast<int>(port);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "endpoint must start with tcp: or unix:, got " + endpoint);
}

}  // namespace

WireConn::WireConn(WireConn&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

WireConn& WireConn::operator=(WireConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

WireConn::~WireConn() { Close(); }

void WireConn::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<WireConn> WireConn::Dial(const std::string& endpoint,
                                const Deadline& deadline) {
  Status injected;
  DD_FAILPOINT(failpoints::kDistConnect, &injected);
  DD_RETURN_IF_ERROR(injected);

  std::string host, unix_path;
  int port = 0;
  DD_RETURN_IF_ERROR(ParseEndpoint(endpoint, &host, &port, &unix_path));

  int fd = -1;
  sockaddr_storage addr;
  socklen_t addr_len = 0;
  memset(&addr, 0, sizeof(addr));
  if (!unix_path.empty()) {
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    auto* sun = reinterpret_cast<sockaddr_un*>(&addr);
    sun->sun_family = AF_UNIX;
    strncpy(sun->sun_path, unix_path.c_str(), sizeof(sun->sun_path) - 1);
    addr_len = sizeof(sockaddr_un);
  } else {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    auto* sin = reinterpret_cast<sockaddr_in*>(&addr);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &sin->sin_addr) != 1) {
      if (fd >= 0) close(fd);
      return Status::InvalidArgument("bad IPv4 host in endpoint: " + endpoint);
    }
    addr_len = sizeof(sockaddr_in);
  }
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", strerror(errno)));
  }
  Status st = SetNonBlocking(fd);
  if (!st.ok()) {
    close(fd);
    return st;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) != 0) {
    if (errno == EINPROGRESS || errno == EAGAIN) {
      st = PollFd(fd, POLLOUT, deadline, "dial");
      if (st.ok()) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
        if (err != 0) {
          st = Status::Unavailable(StrFormat("connect %s: %s", endpoint.c_str(),
                                             strerror(err)));
        }
      }
    } else {
      st = Status::Unavailable(
          StrFormat("connect %s: %s", endpoint.c_str(), strerror(errno)));
    }
    if (!st.ok()) {
      close(fd);
      return st;
    }
  }
  return WireConn(fd);
}

Status WireConn::WriteAll(const char* buf, size_t n, size_t* written,
                          const Deadline& deadline) {
  *written = 0;
  while (*written < n) {
    const ssize_t rc = send(fd_, buf + *written, n - *written, MSG_NOSIGNAL);
    if (rc > 0) {
      *written += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      DD_RETURN_IF_ERROR(PollFd(fd_, POLLOUT, deadline, "wire send"));
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return Status::Unavailable(StrFormat("send: %s", strerror(errno)));
  }
  return Status::OK();
}

Status WireConn::ReadAll(char* buf, size_t n, size_t* got,
                         const Deadline& deadline) {
  *got = 0;
  while (*got < n) {
    const ssize_t rc = recv(fd_, buf + *got, n - *got, 0);
    if (rc > 0) {
      *got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      return Status::Unavailable("connection closed by peer");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      DD_RETURN_IF_ERROR(PollFd(fd_, POLLIN, deadline, "wire recv"));
      continue;
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(StrFormat("recv: %s", strerror(errno)));
  }
  return Status::OK();
}

Status WireConn::SendFrame(uint32_t type, std::string_view payload,
                           const Deadline& deadline) {
  Status injected;
  DD_FAILPOINT(failpoints::kDistSend, &injected);
  DD_RETURN_IF_ERROR(injected);
  if (fd_ < 0) return Status::Internal("SendFrame on a closed connection");
  if (payload.size() > kWireMaxPayload) {
    return Status::InvalidArgument(
        StrFormat("frame payload of %zu bytes exceeds cap", payload.size()));
  }
  ByteWriter frame;
  frame.Reserve(kFrameHeaderBytes + payload.size() + 4);
  frame.U32(kWireMagic);
  frame.U32(type);
  frame.U64(payload.size());
  frame.Raw(payload);
  // CRC over type + payload_len + payload (everything after the magic).
  frame.U32(Crc32c(frame.str().data() + 4, frame.size() - 4));
  const std::string& wire = frame.str();

  size_t written = 0;
  Status st = WriteAll(wire.data(), wire.size(), &written, deadline);
  if (!st.ok() && written > 0 && st.code() != StatusCode::kDeadlineExceeded) {
    // Part of the frame is on the wire: the stream is desynchronized and
    // retrying in place would corrupt it. Only a reconnect can recover.
    return Status::Internal("wire stream desynchronized mid-send: " +
                            st.ToString());
  }
  return st;
}

Result<Frame> WireConn::RecvFrame(const Deadline& deadline) {
  Status injected;
  DD_FAILPOINT(failpoints::kDistRecv, &injected);
  DD_RETURN_IF_ERROR(injected);
  if (fd_ < 0) return Status::Internal("RecvFrame on a closed connection");

  char header[kFrameHeaderBytes];
  size_t got = 0;
  Status st = ReadAll(header, sizeof(header), &got, deadline);
  if (!st.ok()) {
    if (got > 0 && st.code() == StatusCode::kUnavailable) {
      return Status::Internal("wire stream desynchronized mid-frame: " +
                              st.ToString());
    }
    return st;
  }
  uint32_t magic = 0, type = 0;
  uint64_t payload_len = 0;
  ByteReader header_reader(std::string_view(header, sizeof(header)));
  DD_RETURN_IF_ERROR(header_reader.U32(&magic, "frame magic"));
  DD_RETURN_IF_ERROR(header_reader.U32(&type, "frame type"));
  DD_RETURN_IF_ERROR(header_reader.U64(&payload_len, "frame payload length"));
  if (magic != kWireMagic) {
    return Status::Corruption(
        StrFormat("bad frame magic 0x%08x (want 0x%08x)", magic, kWireMagic));
  }
  if (payload_len > kWireMaxPayload) {
    return Status::Corruption(
        StrFormat("frame claims %llu payload bytes (cap %llu)",
                  static_cast<unsigned long long>(payload_len),
                  static_cast<unsigned long long>(kWireMaxPayload)));
  }
  Frame frame;
  frame.type = type;
  frame.payload.resize(static_cast<size_t>(payload_len));
  if (payload_len > 0) {
    st = ReadAll(frame.payload.data(), frame.payload.size(), &got, deadline);
    if (!st.ok()) {
      if (st.code() == StatusCode::kUnavailable) {
        return Status::Internal("wire stream desynchronized mid-frame: " +
                                st.ToString());
      }
      return st;
    }
  }
  char crc_buf[4];
  st = ReadAll(crc_buf, 4, &got, deadline);
  if (!st.ok()) {
    if (st.code() == StatusCode::kUnavailable) {
      return Status::Internal("wire stream desynchronized mid-frame: " +
                              st.ToString());
    }
    return st;
  }
  uint32_t wire_crc = 0;
  DD_RETURN_IF_ERROR(
      ByteReader(std::string_view(crc_buf, 4)).U32(&wire_crc, "frame checksum"));
  uint32_t crc = Crc32c(header + 4, sizeof(header) - 4);
  crc = Crc32cExtend(crc, frame.payload.data(), frame.payload.size());
  if (crc != wire_crc) {
    return Status::Corruption(
        StrFormat("bad frame CRC: computed 0x%08x, wire carries 0x%08x "
                  "(type %u, %llu payload bytes)",
                  crc, wire_crc, type,
                  static_cast<unsigned long long>(payload_len)));
  }
  return frame;
}

WireListener::WireListener(WireListener&& other) noexcept
    : fd_(other.fd_),
      endpoint_(std::move(other.endpoint_)),
      unix_path_(std::move(other.unix_path_)) {
  other.fd_ = -1;
  other.unix_path_.clear();
}

WireListener& WireListener::operator=(WireListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    unix_path_ = std::move(other.unix_path_);
    other.fd_ = -1;
    other.unix_path_.clear();
  }
  return *this;
}

WireListener::~WireListener() { Close(); }

void WireListener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

void WireListener::CloseInChild() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  unix_path_.clear();
}

Result<WireListener> WireListener::Listen(const std::string& endpoint) {
  std::string host, unix_path;
  int port = 0;
  DD_RETURN_IF_ERROR(ParseEndpoint(endpoint, &host, &port, &unix_path));

  WireListener listener;
  if (!unix_path.empty()) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError(StrFormat("socket: %s", strerror(errno)));
    sockaddr_un sun;
    memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    strncpy(sun.sun_path, unix_path.c_str(), sizeof(sun.sun_path) - 1);
    unlink(unix_path.c_str());  // stale socket from a previous run
    if (bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) != 0) {
      const Status st =
          Status::IoError(StrFormat("bind %s: %s", endpoint.c_str(), strerror(errno)));
      close(fd);
      return st;
    }
    listener.fd_ = fd;
    listener.endpoint_ = endpoint;
    listener.unix_path_ = unix_path;
  } else {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError(StrFormat("socket: %s", strerror(errno)));
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sin;
    memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
      close(fd);
      return Status::InvalidArgument("bad IPv4 host in endpoint: " + endpoint);
    }
    if (bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      const Status st =
          Status::IoError(StrFormat("bind %s: %s", endpoint.c_str(), strerror(errno)));
      close(fd);
      return st;
    }
    socklen_t len = sizeof(sin);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) != 0) {
      const Status st = Status::IoError(StrFormat("getsockname: %s", strerror(errno)));
      close(fd);
      return st;
    }
    listener.fd_ = fd;
    listener.endpoint_ = StrFormat("tcp:%s:%d", host.c_str(),
                                   static_cast<int>(ntohs(sin.sin_port)));
  }
  DD_RETURN_IF_ERROR(SetNonBlocking(listener.fd_));
  if (listen(listener.fd_, 64) != 0) {
    const Status st = Status::IoError(StrFormat("listen: %s", strerror(errno)));
    listener.Close();
    return st;
  }
  return listener;
}

Result<WireConn> WireListener::Accept(const Deadline& deadline) {
  if (fd_ < 0) return Status::Internal("Accept on a closed listener");
  for (;;) {
    const int conn_fd = accept(fd_, nullptr, nullptr);
    if (conn_fd >= 0) {
      const Status st = SetNonBlocking(conn_fd);
      if (!st.ok()) {
        close(conn_fd);
        return st;
      }
      return WireConn(conn_fd);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      DD_RETURN_IF_ERROR(PollFd(fd_, POLLIN, deadline, "accept"));
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return Status::IoError(StrFormat("accept: %s", strerror(errno)));
  }
}

bool WireRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIoError;
}

namespace {

RetryOptions WireRetryOptions() {
  RetryOptions options;
  options.max_attempts = 4;
  options.initial_backoff_ms = 5.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 100.0;
  options.should_retry = WireRetryable;
  return options;
}

}  // namespace

Status SendFrameRetry(WireConn* conn, uint32_t type, std::string_view payload,
                      const Deadline& deadline, Rng* rng) {
  return RetryWithBackoff(WireRetryOptions(), rng, [&]() {
    return conn->SendFrame(type, payload, deadline);
  });
}

Result<Frame> RecvFrameRetry(WireConn* conn, const Deadline& deadline,
                             Rng* rng) {
  Frame frame;
  DD_RETURN_IF_ERROR(RetryWithBackoff(WireRetryOptions(), rng, [&]() -> Status {
    DD_ASSIGN_OR_RETURN(frame, conn->RecvFrame(deadline));
    return Status::OK();
  }));
  return frame;
}

Result<WireConn> DialRetry(const std::string& endpoint,
                           const Deadline& deadline, Rng* rng) {
  RetryOptions options = WireRetryOptions();
  options.max_attempts = 8;
  WireConn conn;
  DD_RETURN_IF_ERROR(RetryWithBackoff(options, rng, [&]() -> Status {
    DD_ASSIGN_OR_RETURN(conn, WireConn::Dial(endpoint, deadline));
    return Status::OK();
  }));
  return conn;
}

}  // namespace dd
