#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

namespace locat::obs {
namespace {

/// First line of an HTTP/1.0 request: "GET /path HTTP/1.0". Returns false
/// on anything that does not look like a request line.
bool ParseRequestLine(const std::string& line, std::string* method,
                      std::string* path) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  *method = line.substr(0, sp1);
  *path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Drop any query string: /metrics?foo=1 -> /metrics.
  const size_t q = path->find('?');
  if (q != std::string::npos) path->resize(q);
  return !method->empty() && !path->empty() && (*path)[0] == '/';
}

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (w <= 0) return;
    off += static_cast<size_t>(w);
  }
}

}  // namespace

AdminServer::AdminServer(Options options) : options_(std::move(options)) {}

StatusOr<std::unique_ptr<AdminServer>> AdminServer::Start(Options options) {
  std::unique_ptr<AdminServer> server(new AdminServer(std::move(options)));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::InvalidArgument("admin server: socket() failed: " +
                                   std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  addr.sin_port = htons(static_cast<uint16_t>(server->options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::InvalidArgument(
        "admin server: cannot bind 127.0.0.1:" +
        std::to_string(server->options_.port) + ": " + err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::InvalidArgument("admin server: listen() failed: " + err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::InvalidArgument("admin server: getsockname() failed: " +
                                   err);
  }
  server->listen_fd_ = fd;
  server->port_ = static_cast<int>(ntohs(addr.sin_port));
  server->thread_ = std::thread([s = server.get()] { s->Serve(); });
  return server;
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool AdminServer::WaitForQuit(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(quit_mu_);
  auto quit = [this] { return quit_.load(std::memory_order_acquire); };
  if (timeout_seconds < 0.0) {
    quit_cv_.wait(lock, quit);
    return true;
  }
  return quit_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), quit);
}

void AdminServer::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // 200 ms poll so Stop() is honored promptly without a wakeup socket.
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    // Read until the end of the request headers (or the buffer cap). One
    // request per connection — HTTP/1.0 semantics, no keep-alive.
    std::string request;
    char buf[2048];
    while (request.size() < 16 * 1024 &&
           request.find("\r\n\r\n") == std::string::npos &&
           request.find("\n\n") == std::string::npos) {
      const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }

    std::string method;
    std::string path;
    const size_t eol = request.find_first_of("\r\n");
    const bool parsed =
        eol != std::string::npos &&
        ParseRequestLine(request.substr(0, eol), &method, &path);

    int code = 400;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body = "bad request\n";
    if (parsed) {
      body = HandleRequest(method, path, &code, &content_type);
    }
    if (options_.metrics != nullptr && parsed) {
      options_.metrics
          ->GetCounterFamily("locat_admin_requests_total",
                             "Admin HTTP requests served, by path and code.")
          ->WithLabels(
              LabelSet({{"path", path}, {"code", std::to_string(code)}}))
          ->Increment();
    }

    std::ostringstream response;
    response << "HTTP/1.0 " << code << ' ' << ReasonPhrase(code) << "\r\n"
             << "Content-Type: " << content_type << "\r\n"
             << "Content-Length: " << body.size() << "\r\n"
             << "Connection: close\r\n\r\n"
             << body;
    SendAll(client, response.str());
    ::close(client);
  }
}

std::string AdminServer::HandleRequest(const std::string& method,
                                       const std::string& path,
                                       int* http_code,
                                       std::string* content_type) {
  *content_type = "text/plain; charset=utf-8";
  if (method != "GET" && method != "HEAD") {
    *http_code = 405;
    return "only GET is supported\n";
  }
  *http_code = 200;

  if (path == "/healthz") {
    return "ok\n";
  }
  if (path == "/metrics") {
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (options_.metrics == nullptr) return "";
    std::ostringstream os;
    options_.metrics->WritePrometheus(os);
    return os.str();
  }
  if (path == "/varz") {
    *content_type = "application/json";
    if (options_.metrics == nullptr) return "{}\n";
    std::ostringstream os;
    options_.metrics->WriteJson(os);
    os << '\n';
    return os.str();
  }
  if (path == "/statusz") {
    if (options_.statusz) return options_.statusz();
    return "no status callback wired\n";
  }
  if (path == "/flightz") {
    *content_type = "application/jsonl";
    if (options_.flight == nullptr) return "";
    std::ostringstream os;
    options_.flight->WriteJsonl(os);
    return os.str();
  }
  if (path == "/quitz") {
    {
      std::lock_guard<std::mutex> lock(quit_mu_);
      quit_.store(true, std::memory_order_release);
    }
    quit_cv_.notify_all();
    return "quitting\n";
  }
  if (path == "/") {
    return
        "locat admin server\n"
        "  /metrics   Prometheus exposition\n"
        "  /varz      metrics as JSON\n"
        "  /healthz   liveness\n"
        "  /statusz   per-app serving status\n"
        "  /flightz   flight-recorder window (JSONL)\n"
        "  /quitz     request shutdown\n";
  }
  *http_code = 404;
  return "not found: " + path + "\n";
}

}  // namespace locat::obs
