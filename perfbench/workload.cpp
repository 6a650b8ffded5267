#include "workload.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "rest/http_server.h"
#include "support.h"

using namespace wm;

namespace perfbench {

thread_local std::int64_t t_publish_ns = 0;

bool shapeOf(const std::string& workload, Shape* shape) {
    Shape s;
    if (workload == "ingest_wire") {
        // Closed loop at saturation, volatile store: two connections, each
        // carrying one Pusher whose tick is one burst.
        s.closed_loop = true;
        s.connections = 2;
        s.streams = 2;
        s.sensors = 1500;
        s.window_msgs = 6000;
        s.probe_gap_ns = 1 * kNsPerMs;
        s.latest_gap_ns = 2 * kNsPerMs;
        // Storage and cache buffers grow by doubling. Peak RSS is read once
        // every series holds 181 readings, mid-way between the 128 and 256
        // steps, whatever the rate. A short cache window keeps the caches,
        // whose size does follow the rate, a small part of it.
        s.rss_readings = s.streams * s.sensors * 181;
        s.cache_window_ns = 250 * kNsPerMs;
    } else if (workload == "ingest_durable") {
        // Open loop at 16k readings/s, about half of what ingest_wire's
        // closed loop achieves against this daemon config (29k-37k/s over
        // 20 s). Persistence on with the daemon's defaults, one Fig. 5
        // tester operator per Pusher.
        s.connections = 2;
        s.streams = 2;
        s.sensors = 160;
        s.period_ns = 20 * kNsPerMs;
        s.window_msgs = 65536;
        s.latest_gap_ns = 2 * kNsPerMs;
        s.operators = true;
        s.persistence = true;
    } else if (workload == "query_mix") {
        // Preloaded history beyond the agent cache window, a closed-loop
        // REST mix, and a low fixed ingest rate underneath.
        s.connections = 1;
        s.streams = 1;
        s.sensors = 25;
        s.period_ns = 5 * kNsPerMs;
        s.window_msgs = 16384;
        s.cache_window_ns = 1000 * kNsPerMs;
        s.preload_sensors = 10000;
        s.preload_ticks = 16;
        s.preload_spacing_ns = 100 * kNsPerMs;
        s.query_clients = 2;
    } else {
        return false;
    }
    *shape = s;
    return true;
}

const char* routeName(Route route) {
    switch (route) {
        case kProbe: return "probe";
        case kNoop: return "noop";
        case kLatest: return "latest";
        case kSeriesCache: return "series_cache";
        case kSeriesStorage: return "series_storage";
        case kStatus: return "status";
        default: return "?";
    }
}

Link::Link(net::ConnectionConfig config, bool timed)
    : connection_(std::move(config), nullptr), remote_(connection_), timed_(timed) {}

int Link::publish(const mqtt::Message& message) {
    const std::int64_t t0 = timed_ ? monoNs() : 0;
    int rv = remote_.publish(message);
    if (rv < 0 && setup_retry.load(std::memory_order_relaxed)) {
        const std::int64_t deadline = monoNs() + 10 * kNsPerSec;
        while (rv < 0 && monoNs() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            rv = remote_.publish(message);
        }
    }
    if (timed_) t_publish_ns += monoNs() - t0;
    if (rv < 0) {
        refused.fetch_add(1, std::memory_order_relaxed);
    } else {
        sent.fetch_add(1, std::memory_order_release);
    }
    return rv;
}

bool Generator::tick(Stream& stream, std::int64_t due, std::int64_t start,
                     std::int64_t wait_ns, std::int64_t ts) {
    const std::size_t k = stream.sent.load(std::memory_order_relaxed);
    if (k >= stream.ticks.size()) return false;
    Tick& t = stream.ticks[k];
    t.due = due;
    t.start = start;
    t.wait_ns = wait_ns;
    t.ts = ts >= 0 ? ts : wall_base_ + (due - mono_base_);
    if (k > 0) t.ts = std::max(t.ts, stream.ticks[k - 1].ts + 1);
    t_publish_ns = 0;
    stream.pusher->sampleOnce(t.ts);
    t.sampled = monoNs();
    t.publish_ns = t_publish_ns;
    t.msgs_through = stream.link->sent.load(std::memory_order_acquire);
    stream.sent.store(k + 1, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        ++wake_seq_;
    }
    wake_.notify_one();
    if (stream.operators) {
        const std::int64_t o0 = monoNs();
        stream.operators->tickAll(t.ts);
        t.ops_ns = monoNs() - o0;
    }
    return true;
}

void Generator::updateAcks(Stream& stream) {
    const std::size_t sent = stream.sent.load(std::memory_order_acquire);
    std::size_t acked = stream.acked.load(std::memory_order_relaxed);
    if (acked >= sent) return;
    // Read the link's total before the window: messages sent in between
    // only make the test stricter, so no tick is marked early.
    const std::uint64_t link_sent = stream.link->sent.load(std::memory_order_acquire);
    const std::uint64_t inflight = stream.link->connection().inflight();
    const std::int64_t now = monoNs();
    while (acked < sent && inflight + stream.ticks[acked].msgs_through <= link_sent) {
        stream.ticks[acked++].acked = now;
    }
    stream.acked.store(acked, std::memory_order_release);
}

bool Generator::probe(Stream& stream, std::vector<RestSample>* log,
                      std::uint64_t* failures) {
    const std::size_t sent = stream.sent.load(std::memory_order_acquire);
    const std::size_t visible = stream.visible.load(std::memory_order_relaxed);
    if (visible >= sent) return false;
    const std::int64_t t0 = monoNs();
    const rest::HttpResult r = rest::httpRequest(
        "127.0.0.1", rest_port_, "GET", "/sensors/latest?topic=" + stream.probe_topic);
    const std::int64_t t1 = monoNs();
    std::int64_t ts = 0;
    bool ok = r.ok && r.status == 200 && jsonInt(r.body, 0, "timestamp", &ts);
    if (ok) {
        // The newest reading may belong to a tick whose sends are done but
        // not yet counted in `sent`; FIFO delivery then makes every counted
        // tick visible.
        const auto begin = stream.ticks.begin();
        const auto end = begin + static_cast<std::ptrdiff_t>(sent);
        const auto it = std::lower_bound(
            begin, end, ts, [](const Tick& tick, std::int64_t value) { return tick.ts < value; });
        std::size_t index = sent;
        if (it != end && it->ts == ts) {
            index = static_cast<std::size_t>(it - begin);
        } else if (it == end) {
            index = sent - 1;
        } else {
            ok = false;
        }
        if (ok && index + 1 > visible) {
            for (std::size_t i = visible; i <= index; ++i) stream.ticks[i].visible = t1;
            stream.visible.store(index + 1, std::memory_order_release);
        }
    }
    if (log != nullptr) log->push_back({kProbe, ok, t0, t1});
    if (!ok && failures != nullptr) ++*failures;
    return true;
}

void Generator::probeLoop(const std::vector<Stream*>& streams, std::int64_t gap_ns,
                          bool acks, std::vector<RestSample>* log,
                          std::uint64_t* failures, double* cpu_window_s,
                          std::int64_t window_start, std::int64_t window_end) {
    sleepUntilNs(window_start);
    const double cpu_start = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    bool window_open = true;
    for (;;) {
        if (window_open && monoNs() >= window_end) {
            *cpu_window_s = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
            window_open = false;
        }
        std::uint64_t seen = 0;
        {
            std::lock_guard<std::mutex> lock(wake_mutex_);
            seen = wake_seq_;
        }
        bool outstanding = false;
        for (Stream* stream : streams) {
            if (acks) updateAcks(*stream);
            outstanding = probe(*stream, log, failures) || outstanding;
        }
        std::unique_lock<std::mutex> lock(wake_mutex_);
        if (stop_probe_) break;
        if (gap_ns > 0) {
            wake_.wait_for(lock, std::chrono::nanoseconds(gap_ns),
                           [this] { return stop_probe_; });
        } else if (!outstanding) {
            wake_.wait_for(lock, std::chrono::milliseconds(2),
                           [this, seen] { return stop_probe_ || wake_seq_ != seen; });
        }
    }
    if (window_open) *cpu_window_s = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
}

void Generator::stopProbe() {
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_probe_ = true;
    }
    wake_.notify_all();
}

}  // namespace perfbench
