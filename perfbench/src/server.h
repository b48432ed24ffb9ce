// The program under test as a separate process: gmc_serve started on a
// fresh socket and store directory, a line client for its wire protocol,
// and readers for the process's CPU time and peak memory under /proc.

#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <map>
#include <string>

namespace perfbench {

// Owns one gmc_serve child. The destructor kills and reaps it, so no
// server outlives the benchmark on any error path; the child also gets
// SIGKILL if the benchmark itself dies.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, const std::string& socket_path,
             const std::string& query, const std::string& store_dir,
             int threads, std::string* error);
  // SIGTERM (graceful drain), then waits up to 10 s before SIGKILL.
  // Returns false if the server had to be killed or exited non-zero.
  bool Stop(std::string* error);
  void Kill();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

class LineClient {
 public:
  LineClient() = default;
  ~LineClient() { Close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  // Retries until the socket accepts (the server is still starting) or
  // `timeout_s` passes; then reads the HELLO greeting.
  bool Connect(const std::string& socket_path, double timeout_s,
               std::string* error);
  bool Send(const std::string& line);
  // Blocks for one '\n'-terminated line; false on EOF, error, or 60 s
  // without a byte.
  bool ReadLine(std::string* line);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

// utime + stime of `pid` in milliseconds (/proc/<pid>/stat).
double ProcessCpuMs(pid_t pid);
// VmHWM of `pid` in MiB (/proc/<pid>/status).
double PeakRssMb(pid_t pid);

// "KEY a=1 b=2 ..." -> {a: 1, b: 2} (STATS and HEALTH replies).
std::map<std::string, double> ParseKeyValues(const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
