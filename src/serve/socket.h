#ifndef SEMACYC_SERVE_SOCKET_H_
#define SEMACYC_SERVE_SOCKET_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace semacyc::serve {

/// Minimal RAII file-descriptor wrapper (the reindexer net/socket.h
/// idiom): owns one fd, move-only, closes on destruction. Everything the
/// server needs — nonblocking mode, listener setup, loopback connect —
/// is a named helper below instead of a method zoo; the event loop deals
/// in raw fds and keeps Sockets only for ownership.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

inline bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port, the test/bench default). On success returns the listening socket
/// (nonblocking, SO_REUSEADDR) and stores the actually bound port in
/// `*bound_port`; on failure returns an invalid Socket and a message in
/// `*error`.
inline Socket Listen(uint16_t port, uint16_t* bound_port, std::string* error) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    *error = std::string("socket: ") + std::strerror(errno);
    return Socket();
  }
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    return Socket();
  }
  if (::listen(sock.fd(), 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return Socket();
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return Socket();
  }
  *bound_port = ntohs(addr.sin_port);
  if (!SetNonBlocking(sock.fd())) {
    *error = std::string("fcntl: ") + std::strerror(errno);
    return Socket();
  }
  return sock;
}

/// Blocking loopback connect (clients: tests, the load generator).
inline Socket ConnectLoopback(uint16_t port, std::string* error) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    *error = std::string("socket: ") + std::strerror(errno);
    return Socket();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return Socket();
  }
  int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace semacyc::serve

#endif  // SEMACYC_SERVE_SOCKET_H_
