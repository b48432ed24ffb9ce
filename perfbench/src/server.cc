#include "server.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

// Waits for `pid` up to `timeout_ms`; returns true once reaped.
bool WaitFor(pid_t pid, int timeout_ms, int* status) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const pid_t got = ::waitpid(pid, status, WNOHANG);
    if (got == pid || (got < 0 && errno != EINTR)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

bool ServerProcess::Start(const std::string& binary,
                          const std::string& socket_path,
                          const std::string& query,
                          const std::string& store_dir, int threads,
                          std::string* error) {
  const std::string threads_text = std::to_string(threads);
  std::vector<std::string> args = {binary, "--socket=" + socket_path,
                                   "--query=" + query,
                                   "--store=" + store_dir,
                                   "--threads=" + threads_text};
  // Pinned worker counts: the batch passes and the sampler both use
  // `threads` workers, whatever the host's core count.
  std::vector<std::string> env = {"GMC_THREADS=" + threads_text,
                                  "GMC_SAMPLE_THREADS=" + threads_text};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GMC_", 4) != 0) env.emplace_back(*e);
  }
  std::vector<char*> argv, envp;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  return true;
}

bool ServerProcess::Stop(std::string* error) {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const bool exited = WaitFor(pid_, 10000, &status);
  if (!exited) {
    Kill();
    *error = "gmc_serve did not stop within 10 s of SIGTERM";
    return false;
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "gmc_serve exited abnormally (status " + std::to_string(status) +
             ")";
    return false;
  }
  return true;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bool LineClient::Connect(const std::string& socket_path, double timeout_s,
                         std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    Close();
    if (std::chrono::steady_clock::now() >= deadline) {
      *error = "gmc_serve did not accept on " + socket_path;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string hello;
  if (!ReadLine(&hello) || hello.rfind("HELLO", 0) != 0) {
    *error = "bad greeting: " + hello;
    return false;
  }
  return true;
}

bool LineClient::Send(const std::string& line) {
  const std::string data = line + "\n";
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool LineClient::ReadLine(std::string* line) {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 60000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

double ProcessCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::map<std::string, double> ParseKeyValues(const std::string& line) {
  std::map<std::string, double> values;
  std::istringstream words(line);
  std::string word;
  while (words >> word) {
    const size_t eq = word.find('=');
    if (eq == std::string::npos) continue;
    values[word.substr(0, eq)] = std::strtod(word.c_str() + eq + 1, nullptr);
  }
  return values;
}

}  // namespace perfbench
