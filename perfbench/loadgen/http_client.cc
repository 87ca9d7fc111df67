#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace bench {

namespace {
RequestObserver* g_observer = nullptr;
}  // namespace

void SetRequestObserver(RequestObserver* observer) { g_observer = observer; }

HttpConn::~HttpConn() { Close(); }

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConn::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpConn::Request(const char* method, const std::string& target,
                       const std::string& body, HttpReply* reply) {
  std::string req = std::string(method) + " " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  RequestObserver* const observer = g_observer;
  const uint64_t trace_id =
      observer != nullptr ? observer->Begin(method, target) : 0;
  if (observer != nullptr) {
    req += "X-Bench-Trace: " + std::to_string(trace_id) + "\r\n";
  }
  if (!body.empty() || std::strcmp(method, "POST") == 0) {
    req += "Content-Type: application/x-ndjson\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n";
  req += body;
  const bool ok = Send(req, reply);
  if (observer != nullptr) {
    observer->End(trace_id, reply->status, reply->body.size());
  }
  return ok;
}

bool HttpConn::Send(const std::string& req, HttpReply* reply) {
  const bool reused = fd_ >= 0;
  if (!reused && !Connect()) {
    *reply = HttpReply{};
    return false;
  }
  if (Exchange(req, reply)) return true;
  // A kept-alive connection may have been closed by the server between
  // requests; one retry on a fresh connection covers that race.
  if (reused && Connect() && Exchange(req, reply)) return true;
  Close();
  *reply = HttpReply{};
  return false;
}

bool HttpConn::Exchange(const std::string& request, HttpReply* reply) {
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  buf_.clear();
  char chunk[65536];
  size_t header_end = std::string::npos;
  while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
  // Status line: "HTTP/1.1 200 OK".
  if (buf_.compare(0, 5, "HTTP/") != 0) return false;
  const size_t sp = buf_.find(' ');
  reply->status = std::atoi(buf_.c_str() + sp + 1);
  size_t content_length = 0;
  bool close_after = false;
  size_t line = buf_.find("\r\n") + 2;
  while (line < header_end) {
    const size_t eol = buf_.find("\r\n", line);
    const size_t colon = buf_.find(':', line);
    if (colon != std::string::npos && colon < eol) {
      const std::string name = buf_.substr(line, colon - line);
      size_t vstart = colon + 1;
      while (vstart < eol && buf_[vstart] == ' ') ++vstart;
      const std::string value = buf_.substr(vstart, eol - vstart);
      if (strcasecmp(name.c_str(), "Content-Length") == 0) {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
      } else if (strcasecmp(name.c_str(), "Connection") == 0) {
        close_after = strcasecmp(value.c_str(), "close") == 0;
      }
    }
    line = eol + 2;
  }
  reply->body.assign(buf_, header_end + 4, std::string::npos);
  while (reply->body.size() < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    reply->body.append(chunk, static_cast<size_t>(n));
  }
  reply->body.resize(content_length);
  if (close_after) Close();
  return true;
}

}  // namespace bench
