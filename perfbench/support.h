#pragma once

// Small helpers of the load generator: clocks, /proc readers, JSON field
// scraping and order statistics. Header-only; used by benchgen.cpp.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

constexpr std::int64_t kNsPerMs = 1000000;
constexpr std::int64_t kNsPerSec = 1000000000;

/// CLOCK_MONOTONIC in ns: the same clock Python's time.monotonic() reads,
/// so set-up time can be taken across the two processes.
inline std::int64_t monoNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline std::int64_t wallNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

inline void sleepUntilNs(std::int64_t t) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

inline double cpuSeconds(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Resource counters of one process from /proc/<pid>/{stat,status,io}.
struct ProcSample {
    bool ok = false;
    double cpu_s = 0.0;  ///< user + system, ns-precise, exited threads included
    double user_s = 0.0;
    double sys_s = 0.0;
    long threads = 0;
    double hwm_mb = 0.0;  ///< VmHWM, peak resident set
    double ctx_switches = 0.0;
    double write_bytes = 0.0;
};

inline ProcSample readProc(int pid) {
    ProcSample sample;
    const std::string base = "/proc/" + std::to_string(pid);
    std::ifstream stat(base + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
    const std::size_t paren = text.rfind(')');
    if (paren == std::string::npos) return sample;
    std::istringstream fields(text.substr(paren + 2));
    std::vector<std::string> f;
    for (std::string token; fields >> token;) f.push_back(token);
    if (f.size() < 18) return sample;
    // f[0] is field 3 (state); utime = 14, stime = 15, num_threads = 20.
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    sample.user_s = std::strtod(f[11].c_str(), nullptr) / tick;
    sample.sys_s = std::strtod(f[12].c_str(), nullptr) / tick;
    sample.threads = std::strtol(f[17].c_str(), nullptr, 10);
    clockid_t clock = 0;
    sample.cpu_s = clock_getcpuclockid(pid, &clock) == 0 ? cpuSeconds(clock)
                                                         : sample.user_s + sample.sys_s;
    std::ifstream status(base + "/status");
    for (std::string line; std::getline(status, line);) {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        const std::string key = line.substr(0, colon);
        const double value = std::strtod(line.c_str() + colon + 1, nullptr);
        if (key == "VmHWM") sample.hwm_mb = value / 1024.0;
        if (key == "voluntary_ctxt_switches" || key == "nonvoluntary_ctxt_switches") {
            sample.ctx_switches += value;
        }
    }
    std::ifstream io(base + "/io");
    for (std::string line; std::getline(io, line);) {
        if (line.rfind("write_bytes:", 0) == 0) {
            sample.write_bytes = std::strtod(line.c_str() + 12, nullptr);
        }
    }
    sample.ok = true;
    return sample;
}

/// CPU seconds of every thread of this process, by thread id, from the
/// scheduler's precise run time (/proc/self/task/<tid>/schedstat).
inline std::map<long, double> threadCpu() {
    std::map<long, double> out;
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return out;
    while (dirent* entry = readdir(dir)) {
        if (entry->d_name[0] == '.') continue;
        std::ifstream schedstat(std::string("/proc/self/task/") + entry->d_name + "/schedstat");
        double run_ns = 0.0;
        if (schedstat >> run_ns) out[std::strtol(entry->d_name, nullptr, 10)] = run_ns / 1e9;
    }
    closedir(dir);
    return out;
}

/// Sockets this process opened (inherited standard streams excluded).
inline int socketCount() {
    int count = 0;
    DIR* dir = opendir("/proc/self/fd");
    if (dir == nullptr) return -1;
    while (dirent* entry = readdir(dir)) {
        if (entry->d_name[0] == '.' || std::atoi(entry->d_name) <= 2) continue;
        char target[64] = {0};
        const std::string link = std::string("/proc/self/fd/") + entry->d_name;
        const ssize_t n = readlink(link.c_str(), target, sizeof(target) - 1);
        if (n > 7 && std::string(target, 7) == "socket:") ++count;
    }
    closedir(dir);
    return count;
}

/// The number after `"key":` in a JSON body; false when the key is absent.
inline bool jsonNumber(const std::string& body, const std::string& key, double* out) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = body.find(needle);
    if (pos == std::string::npos) return false;
    const char* begin = body.c_str() + pos + needle.size();
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    return end != begin;
}

/// Like jsonNumber for integers that need all 64 bits (ns timestamps).
inline bool jsonInt(const std::string& body, std::size_t from, const std::string& key,
                    std::int64_t* out, std::size_t* next = nullptr) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = body.find(needle, from);
    if (pos == std::string::npos) return false;
    const char* begin = body.c_str() + pos + needle.size();
    char* end = nullptr;
    *out = std::strtoll(begin, &end, 10);
    if (next != nullptr) *next = static_cast<std::size_t>(end - body.c_str());
    return end != begin;
}

/// Order statistics of one timing, in the unit the values are in.
struct Dist {
    std::size_t n = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
};

/// Nearest-rank percentiles.
inline Dist distOf(std::vector<double> values) {
    Dist d;
    d.n = values.size();
    if (values.empty()) return d;
    std::sort(values.begin(), values.end());
    auto rank = [&](double p) {
        const auto k = static_cast<std::size_t>(std::ceil(p * static_cast<double>(d.n)));
        return values[std::min(d.n - 1, k == 0 ? 0 : k - 1)];
    };
    d.p50 = rank(0.50);
    d.p99 = rank(0.99);
    double sum = 0.0;
    for (double v : values) sum += v;
    d.mean = sum / static_cast<double>(d.n);
    return d;
}

}  // namespace perfbench
