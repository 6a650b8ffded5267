#include "summary.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// name -> (value, samples) of one metric family, in insertion order.
class Table {
  public:
    void set(const std::string& name, double value, std::size_t samples) {
        rows_.push_back({name, value, samples});
    }
    /// Median under `name`, p99 under `name.p99`.
    void timing(const std::string& name, const Dist& d) {
        set(name, d.p50, d.n);
        set(name + ".p99", d.p99, d.n);
    }
    std::string json() const {
        std::ostringstream out;
        out << '{';
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof(value), "%.10g", rows_[i].value);
            out << (i > 0 ? "," : "") << '"' << rows_[i].name << "\":{\"value\":" << value
                << ",\"samples\":" << rows_[i].samples << '}';
        }
        return out.str() + '}';
    }

  private:
    struct Row {
        std::string name;
        double value;
        std::size_t samples;
    };
    std::vector<Row> rows_;
};

std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + '"';
}

/// A /status counter's change over the window; -1 when the key is absent.
double statusDelta(const RunData& run, const std::string& key) {
    double a = 0.0;
    double b = 0.0;
    if (!jsonNumber(run.e0.status, key, &a) || !jsonNumber(run.e1.status, key, &b)) {
        return -1.0;
    }
    return b - a;
}

double statusSum(const RunData& run, const std::vector<std::string>& keys) {
    double sum = 0.0;
    for (const auto& key : keys) {
        const double d = statusDelta(run, key);
        if (d < 0) return -1.0;
        sum += d;
    }
    return sum;
}

/// Readings sampled by `t` that were not yet visible at `t`.
double backlogAt(const RunData& run, std::int64_t t) {
    double backlog = 0.0;
    for (const Stream* s : run.ingest) {
        for (std::size_t i = 0; i < s->sent.load(); ++i) {
            const Tick& tick = s->ticks[i];
            if (tick.sampled <= t && (tick.visible == 0 || tick.visible > t)) {
                backlog += static_cast<double>(s->sensors);
            }
        }
    }
    return backlog;
}

}  // namespace

std::string summarize(const RunData& run) {
    const Shape& shape = *run.shape;
    const double window_s = static_cast<double>(run.t1 - run.t0) / 1e9;
    std::vector<std::string> report;
    std::vector<std::string> violations;
    char line[512];

    // Ticks: readings visible in the window, and per-tick spans. Each tick
    // is partitioned into gen.late, pusher.sample (self), net.publish,
    // net.ack and collectagent.visible_lag.
    double visible_readings = 0.0;
    std::vector<double> per_second(static_cast<std::size_t>(std::max(1.0, window_s)), 0.0);
    std::vector<double> latency, late, sample_self, publish_us, wait, ack, lag, ops;
    std::size_t partition_errors = 0;
    std::size_t timed_ticks = 0;
    std::size_t never_visible = 0;
    for (const Stream* s : run.all) {
        for (std::size_t i = 0; i < s->sent.load(); ++i) {
            const Tick& t = s->ticks[i];
            if (t.visible >= run.t0 && t.visible < run.t1) {
                visible_readings += static_cast<double>(s->sensors);
                const auto slice = static_cast<std::size_t>((t.visible - run.t0) / kNsPerSec);
                per_second[std::min(slice, per_second.size() - 1)] +=
                    static_cast<double>(s->sensors);
            }
        }
    }
    for (const Stream* s : run.ingest) {
        for (std::size_t i = s->first_timed; i < s->sent.load(); ++i) {
            const Tick& t = s->ticks[i];
            ++timed_ticks;
            if (t.visible == 0) {
                ++never_visible;
                continue;
            }
            latency.push_back(ms(t.visible - t.due));
            late.push_back(ms(t.start - t.due));
            if (!run.traced) continue;
            const std::int64_t acked = t.acked > 0 ? std::min(t.acked, t.visible) : t.visible;
            const std::int64_t self = t.sampled - t.start - t.publish_ns;
            sample_self.push_back(ms(self));
            publish_us.push_back(static_cast<double>(t.publish_ns) / 1e3 /
                                 static_cast<double>(s->sensors));
            if (shape.closed_loop) wait.push_back(ms(t.wait_ns));
            ack.push_back(ms(acked - t.sampled));
            lag.push_back(ms(t.visible - acked));
            if (s->operators) ops.push_back(ms(t.ops_ns));
            const std::int64_t parts = (t.start - t.due) + self + t.publish_ns +
                                       (acked - t.sampled) + (t.visible - acked);
            if (t.start < t.due || self < 0 || acked < t.sampled || parts != t.visible - t.due) {
                ++partition_errors;
            }
        }
    }
    const Dist vis = distOf(latency);

    // REST: the query clients give the query metrics. The visibility probe
    // asks as often as ticks stay outstanding, so it is left out of them.
    std::vector<double> rest_ms;
    std::vector<std::vector<double>> per_route(kRouteCount);
    std::size_t rest_ok = 0;
    for (const RestSample& r : run.client_rest) {
        if (r.start < run.t0 || r.start >= run.t1) continue;
        rest_ms.push_back(ms(r.end - r.start));
        per_route[r.route].push_back(ms(r.end - r.start));
        if (r.ok) ++rest_ok;
    }
    const Dist rest = distOf(rest_ms);
    std::size_t probe_ok = 0;
    for (const RestSample& r : run.probe_rest) {
        if (r.ok && r.start >= run.t0 && r.start < run.t1) ++probe_ok;
    }

    const double server_cpu = run.e1.daemon.cpu_s - run.e0.daemon.cpu_s;
    const double node_cpu = (run.e1.process_cpu_s - run.e0.process_cpu_s) -
                            (run.e1.main_cpu_s - run.e0.main_cpu_s) - run.non_node_cpu_s;
    const double mreadings = visible_readings / 1e6;
    // The daemon's work: readings made visible plus REST answers, so a
    // change that lets it answer more queries does not read as a cost.
    const double mops = (visible_readings + static_cast<double>(rest_ok + probe_ok)) / 1e6;
    const double rss_mb = shape.rss_readings > 0 ? run.rss_mb : run.e1.daemon.hwm_mb;
    if (rss_mb < 0) {
        std::snprintf(line, sizeof(line), "fewer than %zu readings visible: no server_rss_mb",
                      shape.rss_readings);
        violations.push_back(line);
    }

    Table e2e;
    // The median one-second slice: a stall in one second moves it less
    // than it moves the window's mean.
    e2e.set("ingest_rps", distOf(per_second).p50, per_second.size());
    e2e.set("visible_p50_ms", vis.p50, vis.n);
    e2e.set("visible_p99_ms", vis.p99, vis.n);
    e2e.set("query_qps", static_cast<double>(rest_ok) / window_s, rest.n);
    e2e.set("query_p50_ms", rest.p50, rest.n);
    e2e.set("query_p99_ms", rest.p99, rest.n);
    e2e.set("server_cpu_s_per_mreading", mops > 0 ? server_cpu / mops : 0.0, 1);
    e2e.set("node_cpu_s_per_mreading", mreadings > 0 ? node_cpu / mreadings : 0.0, 1);
    e2e.set("server_rss_mb", rss_mb, 1);

    // Validity of the open-loop numbers and of the generator's size.
    const Dist late_d = distOf(late);
    const double backlog_mid = backlogAt(run, run.tmid);
    const double backlog_end = backlogAt(run, run.t1);
    if (!shape.closed_loop) {
        // Latency counts from the due time, so a tick that starts late
        // because the generator was descheduled still counts in full; only
        // a generator that runs late as a rule is over capacity.
        const double per_period = static_cast<double>(shape.sensors * shape.streams);
        if (late_d.p50 > ms(shape.period_ns) ||
            backlog_end > backlog_mid + std::max(4.0 * per_period,
                                                 0.05 * visible_readings / 2.0)) {
            violations.push_back("over capacity: the backlog grew or ticks ran late");
        }
    }
    std::size_t busy_threads = 0;
    double busiest = 0.0;
    for (const auto& [tid, cpu] : run.e1.thread_cpu_s) {
        const auto before = run.e0.thread_cpu_s.find(tid);
        const double start = before == run.e0.thread_cpu_s.end() ? 0.0 : before->second;
        busiest = std::max(busiest, (cpu - start) / window_s);
        if (cpu - start >= 0.1 * window_s) ++busy_threads;
    }
    if (static_cast<long>(busy_threads) > run.nproc || run.sockets_peak > run.nproc) {
        std::snprintf(line, sizeof(line),
                      "generator over budget: %zu busy threads, %d sockets, nproc %ld",
                      busy_threads, run.sockets_peak, run.nproc);
        violations.push_back(line);
    }

    std::snprintf(line, sizeof(line),
                  "window %.2f s: %zu timed ticks, %.0f readings visible, %zu never visible; "
                  "oracle: %llu expected, %llu missing, %llu duplicated, %llu extra; "
                  "%llu refused; %llu REST failures",
                  window_s, timed_ticks, visible_readings, never_visible,
                  static_cast<unsigned long long>(run.oracle.expected),
                  static_cast<unsigned long long>(run.oracle.missing),
                  static_cast<unsigned long long>(run.oracle.duplicates),
                  static_cast<unsigned long long>(run.oracle.extra),
                  static_cast<unsigned long long>(run.refused),
                  static_cast<unsigned long long>(run.rest_failed));
    report.push_back(line);
    std::snprintf(line, sizeof(line),
                  "generator: %zu threads, %zu busy (>= 10%% of a core; busiest %.0f%%), "
                  "%d sockets at peak (nproc %ld), VmHWM %.1f MB; backlog %.0f readings "
                  "at mid-window, %.0f at the end",
                  run.e1.thread_cpu_s.size(), busy_threads, 100.0 * busiest,
                  run.sockets_peak, run.nproc, run.e1.generator.hwm_mb, backlog_mid,
                  backlog_end);
    report.push_back(line);

    Table layers;
    if (run.traced) {
        const Dist d_self = distOf(sample_self), d_pub = distOf(publish_us),
                   d_wait = distOf(wait), d_ack = distOf(ack), d_lag = distOf(lag),
                   d_ops = distOf(ops);
        const double ticks_delta = (run.e1.daemon.user_s + run.e1.daemon.sys_s) -
                                   (run.e0.daemon.user_s + run.e0.daemon.sys_s);
        const double server_delta = ticks_delta > 0 ? ticks_delta : 1.0;
        layers.set("pusher.sample_ms", d_self.p50, d_self.n);
        layers.set("pusher.refused", static_cast<double>(run.refused), 1);
        layers.set("net.publish_us", d_pub.p50, d_pub.n);
        layers.set("net.window_wait_ms", d_wait.p50, d_wait.n);
        layers.set("net.ack_ms", d_ack.p50, d_ack.n);
        layers.set("net.frames_in", statusDelta(run, "framesIn"), 1);
        layers.set("net.errors",
                   statusSum(run, {"crcRejects", "decodeErrors", "oversizedRejects",
                                   "frameGaps", "heartbeatTimeouts", "evictedSlow",
                                   "evictedInflight", "acceptFaults"}),
                   1);
        layers.set("collectagent.visible_lag_ms", d_lag.p50, d_lag.n);
        layers.set("collectagent.messages", statusDelta(run, "messagesReceived"), 1);
        layers.set("collectagent.dedup_drops", statusDelta(run, "dedupDrops"), 1);
        layers.set("collectagent.quarantined", statusDelta(run, "quarantined"), 1);
        layers.set("mqtt.dropped", statusDelta(run, "brokerDropped"), 1);
        layers.set("storage.readings", statusDelta(run, "storedReadings"), 1);
        layers.set("storage.duplicate_drops", statusDelta(run, "duplicateDrops"), 1);
        layers.set("storage.rejected", statusDelta(run, "rejectedInserts"), 1);
        double memory = 0.0;
        layers.set("storage.memory_mb",
                   jsonNumber(run.e1.status, "storageMemoryBytes", &memory)
                       ? memory / 1048576.0
                       : -1.0,
                   1);
        const double wal = statusDelta(run, "walRecordsLogged");
        layers.set("persist.wal_records_per_reading",
                   wal >= 0 && visible_readings > 0 ? wal / visible_readings : -1.0, 1);
        layers.set("persist.snapshots", statusDelta(run, "snapshotsWritten"), 1);
        layers.set("persist.disk_mb_per_mreading",
                   mreadings > 0 ? (run.e1.daemon.write_bytes - run.e0.daemon.write_bytes) /
                                       1048576.0 / mreadings
                                 : 0.0,
                   1);
        layers.set("core.operators_ms", d_ops.p50, d_ops.n);
        static const std::pair<Route, const char*> kRoutes[] = {
            {kNoop, "rest.noop_ms"},
            {kLatest, "rest.latest_ms"},
            {kSeriesCache, "rest.series_cache_ms"},
            {kSeriesStorage, "rest.series_storage_ms"},
            {kStatus, "rest.status_ms"}};
        for (const auto& [route, name] : kRoutes) {
            layers.timing(name, distOf(per_route[route]));
        }
        layers.set("rest.errors", static_cast<double>(run.rest_failed), 1);
        layers.set("server.cpu_sys_share",
                   (run.e1.daemon.sys_s - run.e0.daemon.sys_s) / server_delta, 1);
        layers.set("server.threads_peak", static_cast<double>(run.daemon_threads_peak), 1);
        layers.set("server.ctx_switches_per_mreading",
                   mreadings > 0 ? (run.e1.daemon.ctx_switches - run.e0.daemon.ctx_switches) /
                                       mreadings
                                 : 0.0,
                   1);
        layers.timing("gen.late_ms", late_d);
        layers.set("gen.backlog_readings", backlog_end, 1);
        layers.set("gen.threads_busy", static_cast<double>(busy_threads), 1);
        layers.set("gen.sockets_peak", run.sockets_peak, 1);
        layers.set("gen.rss_mb", run.e1.generator.hwm_mb, 1);

        // Closure: the stage spans partition every tick, so their means
        // add up to the mean tick latency exactly; the medians need not.
        const Dist d_late = late_d;
        const double mean_sum = d_late.mean + d_self.mean +
                                d_pub.mean * static_cast<double>(shape.sensors) / 1e3 +
                                d_ack.mean + d_lag.mean;
        const double median_sum = d_late.p50 + d_self.p50 +
                                  d_pub.p50 * static_cast<double>(shape.sensors) / 1e3 +
                                  d_ack.p50 + d_lag.p50;
        std::snprintf(line, sizeof(line),
                      "tick stages (mean ms over %zu ticks): gen.late %.4f + pusher.sample "
                      "%.4f + net.publish %.4f + net.ack %.4f + collectagent.visible_lag "
                      "%.4f = %.4f; mean tick latency %.4f; %zu partition errors",
                      vis.n, d_late.mean, d_self.mean,
                      d_pub.mean * static_cast<double>(shape.sensors) / 1e3, d_ack.mean,
                      d_lag.mean, mean_sum, vis.mean, partition_errors);
        report.push_back(line);
        std::snprintf(line, sizeof(line),
                      "closure: sum of stage medians %.4f ms vs visible_p50_ms %.4f ms "
                      "(ratio %.3f)",
                      median_sum, vis.p50, vis.p50 > 0 ? median_sum / vis.p50 : 0.0);
        report.push_back(line);
        if (partition_errors > 0) violations.push_back("tick spans do not partition");
    }

    const std::uint64_t readings_attempted = run.oracle.expected;
    const std::uint64_t rest_attempted = run.probe_rest.size() + run.client_rest.size();
    const std::uint64_t failed = run.oracle.failures() + run.refused + run.rest_failed;
    std::ostringstream out;
    out << "{\"window_start_ns\":" << run.t0
        << ",\"attempted\":" << readings_attempted + rest_attempted
        << ",\"failed\":" << failed << ",\"e2e\":" << e2e.json()
        << ",\"layers\":" << layers.json() << ",\"violations\":[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        out << (i > 0 ? "," : "") << quoted(violations[i]);
    }
    out << "],\"report\":[";
    for (std::size_t i = 0; i < report.size(); ++i) {
        out << (i > 0 ? "," : "") << quoted(report[i]);
    }
    out << "]}\n";
    return out.str();
}

bool writeSpans(const std::string& path, const RunData& run) {
    std::ofstream out(path);
    out << "# tick stream index due start sampled publish_ns acked visible ops_ns wait_ns\n"
        << "# rest route start end ok   (CLOCK_MONOTONIC ns)\n";
    for (std::size_t s = 0; s < run.ingest.size(); ++s) {
        const Stream* stream = run.ingest[s];
        for (std::size_t i = stream->first_timed; i < stream->sent.load(); ++i) {
            const Tick& t = stream->ticks[i];
            out << "tick " << s << ' ' << i << ' ' << t.due << ' ' << t.start << ' '
                << t.sampled << ' ' << t.publish_ns << ' ' << t.acked << ' ' << t.visible
                << ' ' << t.ops_ns << ' ' << t.wait_ns << '\n';
        }
    }
    for (const auto* log : {&run.probe_rest, &run.client_rest}) {
        for (const RestSample& r : *log) {
            out << "rest " << routeName(r.route) << ' ' << r.start << ' ' << r.end << ' '
                << (r.ok ? 1 : 0) << '\n';
        }
    }
    return out.good();
}

}  // namespace perfbench
