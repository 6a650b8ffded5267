#pragma once

// Turns one run's raw observations into the generator's result file: the
// end-to-end metrics, the per-layer metrics of a traced run, the failure
// counts and the human-readable report lines.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oracle.h"
#include "support.h"
#include "workload.h"

namespace perfbench {

/// What the benchmark reads at one edge of the timed window.
struct Edge {
    ProcSample daemon;
    ProcSample generator;
    double process_cpu_s = 0.0;
    double main_cpu_s = 0.0;
    std::map<long, double> thread_cpu_s;
    std::string status;  ///< /status body (traced runs only)
};

struct RunData {
    const Shape* shape = nullptr;
    bool traced = false;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::int64_t tmid = 0;
    std::vector<Stream*> ingest;  ///< streams ticking in the window
    std::vector<Stream*> all;     ///< plus the query_mix preload
    std::vector<RestSample> probe_rest;
    std::vector<RestSample> client_rest;
    Edge e0;
    Edge e1;
    long daemon_threads_peak = 0;
    double rss_mb = -1.0;  ///< VmHWM once shape->rss_readings were visible
    int sockets_peak = 0;
    double non_node_cpu_s = 0.0;  ///< probe and REST client threads
    OracleResult oracle;
    std::uint64_t refused = 0;
    std::uint64_t rest_failed = 0;
    long nproc = 1;
};

/// The result file, as JSON text.
std::string summarize(const RunData& run);

/// Writes every tick span and REST span, once, at the end of a traced run.
bool writeSpans(const std::string& path, const RunData& run);

}  // namespace perfbench
