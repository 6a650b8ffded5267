#pragma once

// The node side of the benchmark: product Pushers fed by tester sensor
// groups, publishing over net::Connection into a remote wintermuted, ticked
// on the benchmark's own schedule; plus the REST probe that decides when a
// tick is visible. See README.md for the workloads.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/operator_manager.h"
#include "core/query_engine.h"
#include "mqtt/broker.h"
#include "net/connection.h"
#include "pusher/pusher.h"

namespace perfbench {

/// The shape of one workload; everything the seed does not decide.
struct Shape {
    bool closed_loop = false;
    std::size_t connections = 1;
    std::size_t streams = 1;           ///< Pushers ticking in the window
    std::size_t sensors = 0;           ///< readings per tick of each of them
    std::int64_t period_ns = 0;        ///< open loop: tick period of a stream
    std::size_t window_msgs = 0;       ///< unacked window of a connection
    std::int64_t probe_gap_ns = 0;     ///< > 0: probe visibility at this cadence
    bool operators = false;            ///< one tester operator per Pusher
    bool persistence = false;
    std::int64_t cache_window_ns = 0;  ///< daemon `pusher { cacheWindow }`; 0 = default
    std::size_t preload_sensors = 0;   ///< query_mix topics
    std::size_t preload_ticks = 0;     ///< history per topic
    std::int64_t preload_spacing_ns = 0;
    std::size_t query_clients = 0;     ///< closed-loop clients of the query mix
    /// > 0: one /sensors/latest client over the ingest topics, pausing this
    /// long after each answer. It gives the query metrics of the ingest
    /// workloads, apart from the visibility probe.
    std::int64_t latest_gap_ns = 0;
    /// > 0: server_rss_mb is the daemon's VmHWM once this many readings are
    /// visible, so a closed loop measures it at a fixed store size.
    std::size_t rss_readings = 0;
};

/// Returns false for an unknown workload name.
bool shapeOf(const std::string& workload, Shape* shape);

/// Thread-local sum of the publish calls a tick made (traced runs).
extern thread_local std::int64_t t_publish_ns;

/// One wire connection as its Pushers' broker. This is the benchmark's
/// boundary into the net layer: it counts sent and refused messages and,
/// traced, times every publish call.
class Link final : public wm::mqtt::Broker {
  public:
    Link(wm::net::ConnectionConfig config, bool timed);

    int publish(const wm::mqtt::Message& message) override;
    wm::net::Connection& connection() { return connection_; }

    /// While set (during set-up), a refused publish is retried until the
    /// connection's handshake has opened the publish gate.
    std::atomic<bool> setup_retry{true};
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> refused{0};

  private:
    wm::net::Connection connection_;
    wm::net::RemoteBroker remote_;
    const bool timed_;
};

/// One tick of one Pusher. Times are CLOCK_MONOTONIC ns, 0 = not yet.
struct Tick {
    std::int64_t due = 0;
    std::int64_t start = 0;
    std::int64_t sampled = 0;  ///< sampleOnce returned: every send is done
    std::int64_t acked = 0;    ///< every message of the tick acked
    std::int64_t visible = 0;  ///< /sensors/latest showed the tick
    std::int64_t publish_ns = 0;
    std::int64_t ops_ns = 0;
    std::int64_t wait_ns = 0;  ///< closed loop: wait for window room
    std::int64_t ts = 0;       ///< reading timestamp (wall clock ns)
    std::uint64_t msgs_through = 0;  ///< link messages sent once this tick's were
};

/// One generator Pusher with one TesterGroup, and its ticks.
struct Stream {
    std::string prefix;
    std::size_t sensors = 0;
    Link* link = nullptr;
    std::string probe_topic;  ///< the last topic of every tick
    std::unique_ptr<wm::pusher::Pusher> pusher;
    std::unique_ptr<wm::core::QueryEngine> engine;
    std::unique_ptr<wm::core::OperatorManager> operators;
    std::vector<Tick> ticks;  ///< sized before the window; never reallocates
    std::atomic<std::size_t> sent{0};
    std::atomic<std::size_t> visible{0};
    std::atomic<std::size_t> acked{0};  ///< advanced by one thread at a time
    std::size_t first_timed = 0;
};

enum Route : std::uint8_t { kProbe, kNoop, kLatest, kSeriesCache, kSeriesStorage, kStatus,
                            kRouteCount };
const char* routeName(Route route);

struct RestSample {
    Route route = kProbe;
    bool ok = false;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/// Shared state of the tick threads and the visibility probe.
class Generator {
  public:
    Generator(std::uint16_t rest_port, std::int64_t wall_base, std::int64_t mono_base)
        : rest_port_(rest_port), wall_base_(wall_base), mono_base_(mono_base) {}

    /// Samples `stream` once at the reading timestamp `ts` (derived from
    /// `due` when negative) and, with operators, ticks them. False when the
    /// stream's tick capacity is exhausted.
    bool tick(Stream& stream, std::int64_t due, std::int64_t start, std::int64_t wait_ns,
              std::int64_t ts = -1);

    /// Marks acked every tick of `stream` whose messages have all left the
    /// connection's unacked window. Never marks one early.
    static void updateAcks(Stream& stream);

    /// Asks /sensors/latest for the stream's probe topic once, if a tick is
    /// outstanding, and marks visible what it shows. Returns false when
    /// nothing was outstanding.
    bool probe(Stream& stream, std::vector<RestSample>* log, std::uint64_t* failures);

    /// Probe thread body: polls every stream until stopProbe().
    void probeLoop(const std::vector<Stream*>& streams, std::int64_t gap_ns, bool acks,
                   std::vector<RestSample>* log, std::uint64_t* failures,
                   double* cpu_window_s, std::int64_t window_start,
                   std::int64_t window_end);
    void stopProbe();

    std::uint16_t restPort() const { return rest_port_; }

  private:
    const std::uint16_t rest_port_;
    const std::int64_t wall_base_;
    const std::int64_t mono_base_;
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    bool stop_probe_ = false;      // guarded by wake_mutex_
    std::uint64_t wake_seq_ = 0;   // ticks sent; guarded by wake_mutex_
};

}  // namespace perfbench
