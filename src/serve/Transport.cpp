//===- serve/Transport.cpp - stdio and TCP line pumps ---------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Transport.h"

#include "serve/Server.h"

#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <system_error>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ipcp;

namespace {

/// Reads the next line of \p In into \p Line, without its newline;
/// false at end of input. A line longer than MaxRequestLineBytes is read
/// through its newline but not kept: \p Line is left empty and
/// \p TooLong set.
bool readRequestLine(std::istream &In, std::string &Line, bool &TooLong) {
  Line.clear();
  TooLong = false;
  std::streambuf &Buf = *In.rdbuf();
  for (;;) {
    int C = Buf.sbumpc();
    if (C == std::char_traits<char>::eof())
      return !Line.empty() || TooLong;
    if (C == '\n')
      return true;
    if (TooLong)
      continue;
    if (Line.size() == MaxRequestLineBytes) {
      TooLong = true;
      std::string().swap(Line);
      continue;
    }
    Line.push_back(static_cast<char>(C));
  }
}

} // namespace

void ipcp::serveStream(Server &S, std::istream &In, std::ostream &Out) {
  std::mutex WriteMutex; // Replies land from worker threads; serialize.
  std::mutex DoneMutex;
  std::condition_variable DoneCv;
  size_t Outstanding = 0;

  std::string Line;
  bool TooLong = false;
  while (readRequestLine(In, Line, TooLong)) {
    if (TooLong) {
      std::lock_guard<std::mutex> Lock(WriteMutex);
      Out << S.oversizedLineReply() << '\n';
      Out.flush();
      continue;
    }
    if (Line.empty())
      continue;
    {
      std::lock_guard<std::mutex> Lock(DoneMutex);
      ++Outstanding;
    }
    S.submit(Line, [&](std::string Reply) {
      {
        std::lock_guard<std::mutex> Lock(WriteMutex);
        Out << Reply << '\n';
        Out.flush();
      }
      std::lock_guard<std::mutex> Lock(DoneMutex);
      --Outstanding;
      DoneCv.notify_all();
    });
    if (S.draining())
      break; // A shutdown request: stop reading, let the tail drain.
  }

  std::unique_lock<std::mutex> Lock(DoneMutex);
  DoneCv.wait(Lock, [&] { return Outstanding == 0; });
}

namespace {

/// Sends all of \p Data, suppressing SIGPIPE (a client that hangs up
/// mid-reply must not kill the server).
void sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (N <= 0)
      return;
    Off += static_cast<size_t>(N);
  }
}

/// Serves one connection synchronously: read a line, answer it, repeat
/// until the client hangs up. Within a connection requests serialize;
/// across connections the server interleaves them.
void serveConnection(int Fd, Server &S) {
  std::string Buffer;
  char Chunk[4096];
  for (;;) {
    // Scan only the bytes each recv adds, so a long line costs linear
    // time; past MaxRequestLineBytes without a newline, give up on the
    // connection rather than buffer without bound.
    size_t Nl;
    size_t Scanned = 0;
    while ((Nl = Buffer.find('\n', Scanned)) == std::string::npos &&
           Buffer.size() <= MaxRequestLineBytes) {
      Scanned = Buffer.size();
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0) {
        ::close(Fd);
        return;
      }
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    if (Nl == std::string::npos || Nl > MaxRequestLineBytes) {
      sendAll(Fd, S.oversizedLineReply() + "\n");
      ::close(Fd);
      return;
    }
    std::string Line = Buffer.substr(0, Nl);
    Buffer.erase(0, Nl + 1);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    sendAll(Fd, S.handle(Line) + "\n");
  }
}

} // namespace

TcpListener::~TcpListener() {
  stop();
  if (Fd >= 0)
    ::close(Fd);
  reap(/*All=*/true);
}

void TcpListener::reap(bool All) {
  for (auto It = Conns.begin(); It != Conns.end();) {
    if (!All && !It->Finished.load(std::memory_order_acquire)) {
      ++It;
      continue;
    }
    It->Thread.join();
    It = Conns.erase(It);
  }
}

bool TcpListener::listen(uint16_t Port, std::string &Error) {
  Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = "socket() failed";
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = "bind(127.0.0.1:" + std::to_string(Port) + ") failed";
    ::close(Fd);
    Fd = -1;
    return false;
  }
  if (::listen(Fd, 64) < 0) {
    Error = "listen() failed";
    ::close(Fd);
    Fd = -1;
    return false;
  }

  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  else
    BoundPort = Port;
  return true;
}

void TcpListener::run(Server &S) {
  while (!Stopping.load(std::memory_order_acquire) && !S.draining()) {
    reap(/*All=*/false);
    pollfd Pfd = {Fd, POLLIN, 0};
    int N = ::poll(&Pfd, 1, /*timeout_ms=*/200);
    if (N < 0)
      break;
    if (N == 0 || !(Pfd.revents & POLLIN))
      continue;
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client < 0)
      continue;
    Connection &C = Conns.emplace_back();
    try {
      C.Thread = std::thread([Client, &S, &C] {
        serveConnection(Client, S);
        C.Finished.store(true, std::memory_order_release);
      });
    } catch (const std::system_error &) {
      // Out of threads: refuse this connection, keep serving the rest.
      ::close(Client);
      Conns.pop_back();
    }
  }
  reap(/*All=*/true);
}
