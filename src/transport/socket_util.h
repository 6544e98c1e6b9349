// Small shared POSIX socket helpers used by both the frame transport
// (transport/socket.cc) and the observability scrape server
// (obs/http_server.cc): errno-to-exception reporting, full-buffer send,
// and loopback listener setup with ephemeral-port resolution. Kept tiny
// on purpose — both servers own their event loop or threads themselves;
// only the syscall boilerplate is worth sharing.
#ifndef LDPIDS_TRANSPORT_SOCKET_UTIL_H_
#define LDPIDS_TRANSPORT_SOCKET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ldpids::transport {

// Throws std::runtime_error("<what>: <strerror(errno)>").
[[noreturn]] void ThrowErrno(const std::string& what);

// Sends the whole buffer (retrying on EINTR and short sends) with
// MSG_NOSIGNAL, so a peer that closed mid-write surfaces as an exception
// instead of SIGPIPE. Throws on any other send error.
void SendAll(int fd, const uint8_t* data, std::size_t size);

// Creates a TCP listener bound to 127.0.0.1:`port` (0 picks an ephemeral
// port), with SO_REUSEADDR set and a listen backlog. Returns the listening
// fd and stores the resolved port in `*bound_port`. Throws on failure
// (the fd is closed before throwing).
int BindLoopbackListener(uint16_t port, uint16_t* bound_port);

}  // namespace ldpids::transport

#endif  // LDPIDS_TRANSPORT_SOCKET_UTIL_H_
