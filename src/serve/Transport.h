//===- serve/Transport.h - stdio and TCP line pumps -------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's transports. Both are deliberately dumb line pumps: all
/// protocol intelligence (parsing, admission, coalescing, deadlines)
/// lives in Server; a transport only moves request lines in and reply
/// lines out.
///
/// serveStream() pumps an istream/ostream pair (the stdio mode, and the
/// in-process harness the tests use). Requests are submitted
/// asynchronously, so replies may interleave out of request order —
/// clients match by id. The pump returns at EOF or once a shutdown
/// request begins draining, after every submitted request has been
/// answered.
///
/// TcpListener accepts loopback connections and serves each on its own
/// thread, one request at a time per connection (concurrency comes from
/// opening more connections, which is what the bench's closed-loop
/// clients do). Finished connection threads are joined as the accept
/// loop goes, so a long-lived server holds threads only for open
/// connections. The listener binds 127.0.0.1 only — this is a local
/// analysis daemon, not a network service.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SERVE_TRANSPORT_H
#define IPCP_SERVE_TRANSPORT_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <string>
#include <thread>

namespace ipcp {

class Server;

/// Pumps request lines from \p In into \p S and reply lines to \p Out
/// (one per line, flushed). Returns at EOF or when a shutdown request
/// begins draining; every reply for a submitted request has been
/// written by the time it returns. Blank lines are ignored.
void serveStream(Server &S, std::istream &In, std::ostream &Out);

/// A loopback TCP acceptor serving one connection per thread.
class TcpListener {
public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener &) = delete;
  TcpListener &operator=(const TcpListener &) = delete;

  /// Binds 127.0.0.1:\p Port (0 = kernel-assigned ephemeral port; query
  /// the result with port()). Returns false and fills \p Error on
  /// failure — the environment may forbid sockets, so callers must
  /// treat failure as a degraded mode, not a crash.
  bool listen(uint16_t Port, std::string &Error);

  /// The bound port (after a successful listen()).
  uint16_t port() const { return BoundPort; }

  /// Accept loop. Returns once stop() is called or \p S starts
  /// draining; all connection threads are joined before it returns.
  void run(Server &S);

  /// Signals run() to return. Safe from any thread.
  void stop() { Stopping.store(true, std::memory_order_release); }

private:
  /// One connection's thread. List nodes never move, so the thread can
  /// flag its own completion in place.
  struct Connection {
    std::atomic<bool> Finished{false};
    std::thread Thread;
  };

  /// Joins every finished connection thread and forgets it; with
  /// \p All, joins the live ones too.
  void reap(bool All);

  int Fd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Stopping{false};
  std::list<Connection> Conns;
};

} // namespace ipcp

#endif // IPCP_SERVE_TRANSPORT_H
