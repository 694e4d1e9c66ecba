#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>

#include "serve/wire.h"

namespace pb {

double clock_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  return fd;
}

struct Pending {
  std::uint32_t id = 0;
  double due = 0;
};

struct TextConn {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<Pending> pending;
  std::size_t unsent = 0;  ///< trailing pending entries not yet written
};

void open_loop_thread(const OpenLoopOptions& options, unsigned thread,
                      double start, const PickFn& pick, const CheckFn& check,
                      TextLoadStats& stats) {
  // Wake-ups must land on the schedule, not up to the default 50us slack
  // late.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  std::vector<TextConn> conns(options.conns);
  for (TextConn& c : conns) {
    c.fd = connect_loopback(options.port);
    if (c.fd >= 0) ::fcntl(c.fd, F_SETFL, O_NONBLOCK);
  }
  const double per_thread = options.rate / options.threads;
  const double interval = 1.0 / per_thread;
  // Threads interleave their schedules so the merged arrivals are evenly
  // spaced at the nominal rate.
  const double offset = interval * thread / options.threads;
  const auto total =
      static_cast<std::uint64_t>(std::floor(options.seconds * per_thread));
  const double give_up = start + options.seconds + 5.0;
  std::uint64_t rng = options.seed * 1000003u + thread;
  std::uint64_t k = 0;
  std::string line;
  std::vector<pollfd> fds(conns.size());

  auto drop_conn = [&](TextConn& c) {
    stats.failed += c.pending.size();
    c.pending.clear();
    c.unsent = 0;
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  };

  for (;;) {
    double now = clock_s();
    while (k < total && start + offset + k * interval <= now) {
      TextConn& c = conns[k % conns.size()];
      const double due = start + offset + k * interval;
      ++k;
      ++stats.attempted;
      std::uint32_t id = pick(rng, line);
      if (c.fd < 0) {
        ++stats.failed;
        continue;
      }
      c.out += line;
      c.out += '\n';
      c.pending.push_back(Pending{id, due});
      ++c.unsent;
    }
    for (TextConn& c : conns) {
      if (c.fd < 0 || c.out.empty()) continue;
      ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        drop_conn(c);
        continue;
      }
      if (n > 0) c.out.erase(0, static_cast<std::size_t>(n));
      if (c.out.empty() && c.unsent > 0) {
        const double sent = clock_s();
        for (std::size_t i = c.pending.size() - c.unsent; i < c.pending.size();
             ++i) {
          stats.lateness_us.add(c.pending[i].due - start,
                                (sent - c.pending[i].due) * 1e6);
        }
        c.unsent = 0;
      }
    }
    bool busy = false;  // unsent bytes always have pending entries
    for (const TextConn& c : conns) busy = busy || !c.pending.empty();
    now = clock_s();
    if (k >= total && !busy) break;
    if (now > give_up) {
      for (TextConn& c : conns) drop_conn(c);
      break;
    }
    double wait = k < total ? start + offset + k * interval - now : 0.05;
    wait = std::clamp(wait, 0.0, 0.05);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events =
          static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      TextConn& c = conns[i];
      if (c.fd < 0 || !(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) {
        continue;
      }
      char buf[65536];
      bool closed = false;
      for (;;) {
        ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof buf) break;
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) closed = true;
        break;
      }
      // ACK the answers now: the server does not set TCP_NODELAY, so a
      // delayed ACK here would hold its next small write back and make
      // latency depend on ACK timing instead of the server's work.
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      const double received = clock_s();
      std::size_t pos = 0;
      for (;;) {
        std::size_t nl = c.in.find('\n', pos);
        if (nl == std::string::npos) break;
        std::string_view response(c.in.data() + pos, nl - pos);
        pos = nl + 1;
        if (c.pending.empty()) {
          ++stats.wrong;  // an answer nobody asked for
          continue;
        }
        // A request can be answered before the rest of its write burst
        // left the buffer; its lateness then ends at the answer.
        const bool unsent = c.unsent == c.pending.size();
        Pending p = c.pending.front();
        c.pending.pop_front();
        if (unsent) {
          --c.unsent;
          stats.lateness_us.add(p.due - start, (received - p.due) * 1e6);
        }
        stats.latency_us.add(p.due - start, (received - p.due) * 1e6);
        if (!check(thread, p.id, response, p.due, received)) ++stats.wrong;
      }
      c.in.erase(0, pos);
      if (closed) drop_conn(c);
    }
  }
  for (TextConn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_exact(int fd, char* out, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    ssize_t n = ::recv(fd, out + off, len - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void frame_thread(std::uint16_t port, const std::vector<PreparedFrame>& frames,
                  double start, double end, unsigned depth,
                  std::uint64_t seed, FrameLoadStats& stats) {
  int fd = connect_loopback(port);
  if (fd < 0) {
    stats.failed += depth;
    return;
  }
  std::uint64_t rng = seed;
  std::deque<std::pair<std::size_t, double>> in_flight;
  auto send_one = [&]() -> bool {
    std::size_t i = next_random(rng) % frames.size();
    if (!send_all(fd, frames[i].request)) return false;
    in_flight.emplace_back(i, clock_s());
    return true;
  };
  bool ok = true;
  for (unsigned d = 0; d < depth && ok; ++d) ok = send_one();
  std::string payload;
  while (ok && !in_flight.empty()) {
    char header[sublet::serve::wire::kHeaderSize];
    sublet::serve::wire::FrameHeader h;
    if (!recv_exact(fd, header, sizeof header) ||
        !sublet::serve::wire::decode_header(header, h)) {
      ok = false;
      break;
    }
    payload.resize(h.payload_len);
    if (!recv_exact(fd, payload.data(), payload.size())) {
      ok = false;
      break;
    }
    const double received = clock_s();
    auto [index, sent] = in_flight.front();
    in_flight.pop_front();
    const PreparedFrame& frame = frames[index];
    ++stats.frames;
    stats.lookups += frame.lookups;
    stats.frame_us.add(sent - start, (received - sent) * 1e6);
    if (h.status != sublet::serve::wire::kOk ||
        payload != frame.expected_payload) {
      ++stats.wrong;
    }
    if (received < end) ok = send_one();
  }
  stats.failed += in_flight.size();
  ::close(fd);
}

}  // namespace

TextLoadStats run_open_loop(const OpenLoopOptions& options, const PickFn& pick,
                            const CheckFn& check) {
  std::vector<TextLoadStats> per_thread(options.threads);
  const double start = clock_s() + 0.01;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < options.threads; ++t) {
    threads.emplace_back(open_loop_thread, std::cref(options), t, start,
                         std::cref(pick), std::cref(check),
                         std::ref(per_thread[t]));
  }
  for (std::thread& t : threads) t.join();
  TextLoadStats out;
  out.elapsed_s = clock_s() - start;
  for (TextLoadStats& s : per_thread) {
    out.latency_us.merge(s.latency_us);
    out.lateness_us.merge(s.lateness_us);
    out.attempted += s.attempted;
    out.failed += s.failed;
    out.wrong += s.wrong;
  }
  return out;
}

FrameLoadStats run_frame_loop(std::uint16_t port,
                              const std::vector<PreparedFrame>& frames,
                              double seconds, unsigned threads,
                              unsigned depth, std::uint64_t seed) {
  std::vector<FrameLoadStats> per_thread(threads);
  const double start = clock_s();
  const double end = start + seconds;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back(frame_thread, port, std::cref(frames), start, end, depth,
                      seed * 7919 + t, std::ref(per_thread[t]));
  }
  for (std::thread& t : pool) t.join();
  FrameLoadStats out;
  out.elapsed_s = clock_s() - start;
  for (FrameLoadStats& s : per_thread) {
    out.frame_us.merge(s.frame_us);
    out.frames += s.frames;
    out.lookups += s.lookups;
    out.failed += s.failed;
    out.wrong += s.wrong;
  }
  return out;
}

}  // namespace pb
