// Minimal blocking HTTP/1.1 client over loopback with keep-alive, written
// for the benchmark so that the load does not depend on the program's own
// client code.
#ifndef PERFBENCH_LOADGEN_HTTP_CLIENT_H_
#define PERFBENCH_LOADGEN_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace bench {

struct HttpReply {
  int status = 0;  // 0 = transport failure
  std::string body;
};

/// Optional observer of every request, installed by the traced run before
/// any request is sent. Begin returns an id that the request carries as an
/// "X-Bench-Trace" header, so the server-side span can name its parent.
class RequestObserver {
 public:
  virtual ~RequestObserver() = default;
  virtual uint64_t Begin(const std::string& method,
                         const std::string& target) = 0;
  virtual void End(uint64_t id, int status, size_t body_bytes) = 0;
};
void SetRequestObserver(RequestObserver* observer);

class HttpConn {
 public:
  explicit HttpConn(uint16_t port) : port_(port) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Sends one request and reads the whole reply. A request on a
  /// keep-alive connection the server has closed is retried once on a
  /// fresh connection. Returns false (reply.status == 0) on transport
  /// failure.
  bool Request(const char* method, const std::string& target,
               const std::string& body, HttpReply* reply);
  bool Get(const std::string& target, HttpReply* reply) {
    return Request("GET", target, std::string(), reply);
  }

 private:
  bool Send(const std::string& request, HttpReply* reply);
  bool Connect();
  void Close();
  bool Exchange(const std::string& request, HttpReply* reply);

  uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

}  // namespace bench

#endif  // PERFBENCH_LOADGEN_HTTP_CLIENT_H_
