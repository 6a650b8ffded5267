// wm_benchgen: the load generator of the end-to-end benchmark (README.md).
// One process hosts the node side -- product Pushers with tester sensor
// groups publishing over the wire -- and the REST clients. It talks to the
// daemon only through the config it prints, the wire protocol and REST.
//
//   wm_benchgen config --workload W --seed S [--persist-dir D] [--inject-loss]
//       prints the daemon config of a workload
//   wm_benchgen run --workload W --seed S --seconds T --trace 0|1
//       --rest-port P --transport-port Q --daemon-pid PID --out FILE
//       [--setup-only] [--truth FILE] [--spans FILE]
//       sets up, measures T seconds, drains, checks the store, writes FILE
//   wm_benchgen verify --rest-port P --truth FILE --out FILE
//       checks a (restarted) daemon's store against a saved ground truth

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include "common/config.h"
#include "common/logging.h"
#include "core/hosting.h"
#include "oracle.h"
#include "plugins/registry.h"
#include "pusher/plugins/tester_group.h"
#include "rest/http_server.h"
#include "summary.h"
#include "support.h"
#include "workload.h"

using namespace wm;
using namespace perfbench;

namespace {

struct Options {
    std::string mode;
    std::string workload;
    std::string out;
    std::string truth;
    std::string spans;
    std::string persist_dir;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool traced = false;
    bool setup_only = false;
    bool inject_loss = false;
    std::uint16_t rest_port = 0;
    std::uint16_t transport_port = 0;
    int daemon_pid = 0;
};

bool parseOptions(int argc, char** argv, Options* o) {
    if (argc < 2) return false;
    o->mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--setup-only") {
            o->setup_only = true;
        } else if (arg == "--inject-loss") {
            o->inject_loss = true;
        } else if (!has_value) {
            return false;
        } else if (arg == "--workload") {
            o->workload = argv[++i];
        } else if (arg == "--seed") {
            o->seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            o->seconds = std::atoi(argv[++i]);
        } else if (arg == "--trace") {
            o->traced = std::atoi(argv[++i]) != 0;
        } else if (arg == "--rest-port") {
            o->rest_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
        } else if (arg == "--transport-port") {
            o->transport_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
        } else if (arg == "--daemon-pid") {
            o->daemon_pid = std::atoi(argv[++i]);
        } else if (arg == "--out") {
            o->out = argv[++i];
        } else if (arg == "--truth") {
            o->truth = argv[++i];
        } else if (arg == "--spans") {
            o->spans = argv[++i];
        } else if (arg == "--persist-dir") {
            o->persist_dir = argv[++i];
        } else {
            return false;
        }
    }
    return o->seconds > 0;
}

bool writeFile(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    return out.good();
}

/// The daemon config: remote ingest only (no local nodes, no facility),
/// one collect agent.
int printConfig(const Options& o) {
    Shape shape;
    if (!shapeOf(o.workload, &shape)) return 2;
    std::printf("cluster {\n    racks 0\n    chassisPerRack 0\n    nodesPerChassis 0\n"
                "    cpusPerNode 0\n}\nfacility {\n    enabled false\n}\n"
                "transport {\n    listen true\n    port 0\n}\n");
    if (shape.cache_window_ns > 0) {
        std::printf("pusher {\n    cacheWindow %lldms\n}\n",
                    static_cast<long long>(shape.cache_window_ns / kNsPerMs));
    }
    if (shape.persistence) {
        if (o.persist_dir.empty()) return 2;
        std::printf("persistence {\n    directory \"%s\"\n}\n", o.persist_dir.c_str());
    }
    if (o.inject_loss) {
        std::printf("faults {\n    seed %llu\n    point \"collectagent.ingest\" {\n"
                    "        spec \"drop prob=0.01\"\n    }\n}\n",
                    static_cast<unsigned long long>(o.seed));
    }
    return 0;
}

OracleResult fetchAndCheck(std::uint16_t port, const std::vector<StreamTruth>& truth) {
    const rest::HttpResult dump =
        rest::httpRequest("127.0.0.1", port, "GET", "/storage/dump", "", 60000);
    if (!dump.ok || dump.status != 200) {
        OracleResult failed;
        for (const auto& t : truth) failed.expected += t.sensors * t.timestamps.size();
        failed.missing = failed.expected;
        return failed;
    }
    return checkDump(dump.body, truth);
}

std::string oracleJson(const OracleResult& r) {
    char text[256];
    std::snprintf(text, sizeof(text),
                  "{\"fetched\":%s,\"expected\":%llu,\"matched\":%llu,\"missing\":%llu,"
                  "\"duplicates\":%llu,\"extra\":%llu}",
                  r.fetched ? "true" : "false",
                  static_cast<unsigned long long>(r.expected),
                  static_cast<unsigned long long>(r.matched),
                  static_cast<unsigned long long>(r.missing),
                  static_cast<unsigned long long>(r.duplicates),
                  static_cast<unsigned long long>(r.extra));
    return text;
}

int verify(const Options& o) {
    std::vector<StreamTruth> truth;
    if (!readTruth(o.truth, &truth)) {
        std::fprintf(stderr, "wm_benchgen: cannot read %s\n", o.truth.c_str());
        return 1;
    }
    return writeFile(o.out, oracleJson(fetchAndCheck(o.rest_port, truth)) + "\n") ? 0 : 1;
}

std::string operatorConfig(std::size_t sensors) {
    std::string text =
        "operator qload {\n    interval 1s\n    window 1000ms\n    queryMode relative\n"
        "    queries " + std::to_string(sensors) + "\n    publish false\n    input {\n";
    for (std::size_t i = 0; i < sensors; ++i) {
        text += "        sensor \"<bottomup>test" + std::to_string(i) + "\"\n";
    }
    return text + "    }\n    output {\n        sensor \"<bottomup>qcount\"\n    }\n}\n";
}

std::unique_ptr<Stream> makeStream(const std::string& prefix, std::size_t sensors,
                                   std::int64_t interval_ns, Link* link,
                                   std::size_t capacity) {
    auto stream = std::make_unique<Stream>();
    stream->prefix = prefix;
    stream->sensors = sensors;
    stream->link = link;
    stream->probe_topic = prefix + "/test" + std::to_string(sensors - 1);
    stream->pusher = std::make_unique<pusher::Pusher>(
        pusher::PusherConfig{prefix, kNsPerSec, 1}, link);
    pusher::TesterGroupConfig group;
    group.prefix = prefix;
    group.num_sensors = sensors;
    group.interval_ns = interval_ns;
    stream->pusher->addGroup(std::make_unique<pusher::TesterGroup>(group));
    stream->ticks.resize(capacity);
    return stream;
}

bool addOperator(Stream& stream) {
    stream.engine = std::make_unique<core::QueryEngine>();
    stream.engine->setCacheStore(&stream.pusher->cacheStore());
    stream.engine->rebuildTree();
    stream.operators = std::make_unique<core::OperatorManager>(
        core::makeHostContext(*stream.engine, &stream.pusher->cacheStore(), nullptr,
                              nullptr),
        1);
    plugins::registerBuiltinPlugins(*stream.operators);
    const auto parsed = common::parseConfig(operatorConfig(stream.sensors));
    return parsed.ok && stream.operators->loadPlugin("tester", parsed.root) == 1;
}

void waitForRoom(Link& link, std::size_t messages, std::size_t window) {
    while (link.connection().inflight() + messages > window) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

/// The query_mix request sequence: seeded routes over uniform keys.
struct MixItem {
    Route route = kNoop;
    std::size_t key = 0;
};

std::vector<MixItem> makeMix(std::mt19937_64& rng, std::size_t keys) {
    // noop 15 %, latest 30 %, series in the cache 25 %, beyond it 25 %,
    // status 5 %.
    std::discrete_distribution<int> route({15, 30, 25, 25, 5});
    std::uniform_int_distribution<std::size_t> key(0, keys - 1);
    const Route routes[] = {kNoop, kLatest, kSeriesCache, kSeriesStorage, kStatus};
    std::vector<MixItem> mix(8192);
    for (auto& item : mix) {
        item.route = routes[route(rng)];
        item.key = key(rng);
    }
    return mix;
}

/// The ingest workloads' query sequence: /sensors/latest over uniform keys
/// of the ingest topics.
std::vector<MixItem> makeLatest(std::mt19937_64& rng, std::size_t keys) {
    std::uniform_int_distribution<std::size_t> key(0, keys - 1);
    std::vector<MixItem> items(8192);
    for (auto& item : items) item = {kLatest, key(rng)};
    return items;
}

/// A /sensors/latest answer on an ingest topic holds a timestamp the stream
/// published and that tick's value (a tester sensor counts its ticks).
bool checkIngestLatest(const rest::HttpResult& r, const Stream& s) {
    std::int64_t ts = 0;
    double value = 0.0;
    if (!r.ok || r.status != 200 || !jsonInt(r.body, 0, "timestamp", &ts) ||
        !jsonNumber(r.body, "value", &value)) {
        return false;
    }
    // A tick whose sends are under way is not yet counted in `sent`.
    const std::size_t sent = s.sent.load(std::memory_order_acquire);
    const auto begin = s.ticks.begin();
    const auto end = begin + static_cast<std::ptrdiff_t>(sent);
    const auto it = std::lower_bound(
        begin, end, ts, [](const Tick& tick, std::int64_t v) { return tick.ts < v; });
    if (it != end && it->ts != ts) return false;
    return value == static_cast<double>(it - begin + 1);
}

/// Readings a /sensors/series window returns: the newest and the n - 1
/// before it, the window ending half a spacing before the n + 1-th.
constexpr std::size_t kSeriesInCache = 5;
constexpr std::size_t kSeriesBeyond = 13;

bool checkSeries(const std::string& body, const Stream& pre, std::size_t n) {
    const std::size_t h = pre.sent.load();
    std::size_t count = 0;
    std::size_t pos = 0;
    std::int64_t t = 0;
    std::int64_t first = -1;
    std::int64_t last = -1;
    while (jsonInt(body, pos, "t", &t, &pos)) {
        if (first < 0) first = t;
        last = t;
        ++count;
    }
    return count == n && first == pre.ticks[h - n].ts && last == pre.ticks[h - 1].ts;
}

bool checkAnswer(const MixItem& item, const rest::HttpResult& r, const Stream& pre) {
    if (!r.ok || r.status != 200) return false;
    const std::size_t h = pre.sent.load();
    switch (item.route) {
        case kLatest: {
            std::int64_t ts = 0;
            double value = 0.0;
            return jsonInt(r.body, 0, "timestamp", &ts) && ts == pre.ticks[h - 1].ts &&
                   jsonNumber(r.body, "value", &value) &&
                   value == static_cast<double>(h);
        }
        case kSeriesCache: return checkSeries(r.body, pre, kSeriesInCache);
        case kSeriesStorage: return checkSeries(r.body, pre, kSeriesBeyond);
        default:
            return !r.body.empty() && r.body.front() == '{' && r.body.back() == '}';
    }
}

std::string mixTarget(const MixItem& item, const Stream& pre, std::int64_t spacing_ns) {
    const std::string topic = pre.prefix + "/test" + std::to_string(item.key);
    auto window = [&](std::size_t n) {
        return std::to_string((static_cast<std::int64_t>(n) * spacing_ns - spacing_ns / 2) /
                              kNsPerMs) + "ms";
    };
    switch (item.route) {
        case kNoop: return "/wintermute/plugins";
        case kLatest: return "/sensors/latest?topic=" + topic;
        case kSeriesCache:
            return "/sensors/series?topic=" + topic + "&window=" + window(kSeriesInCache);
        case kSeriesStorage:
            return "/sensors/series?topic=" + topic + "&window=" + window(kSeriesBeyond);
        default: return "/status";
    }
}

Edge sampleEdge(const Options& o) {
    Edge edge;
    edge.daemon = readProc(o.daemon_pid);
    edge.generator = readProc(static_cast<int>(getpid()));
    edge.process_cpu_s = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    edge.main_cpu_s = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    edge.thread_cpu_s = threadCpu();
    if (o.traced) {
        const rest::HttpResult r = rest::httpRequest("127.0.0.1", o.rest_port, "GET", "/status");
        if (r.ok && r.status == 200) edge.status = r.body;
    }
    return edge;
}

int run(const Options& o) {
    Shape shape;
    if (!shapeOf(o.workload, &shape) || o.rest_port == 0 || o.transport_port == 0 ||
        o.out.empty()) {
        return 2;
    }
    std::mt19937_64 rng(o.seed);
    char base[32];
    std::snprintf(base, sizeof(base), "/pb%06llx",
                  static_cast<unsigned long long>(rng() & 0xffffff));
    const std::int64_t wall_base = wallNs();
    const std::int64_t mono_base = monoNs();
    Generator gen(o.rest_port, wall_base, mono_base);

    std::vector<std::unique_ptr<Link>> links;
    for (std::size_t c = 0; c < shape.connections; ++c) {
        net::ConnectionConfig config;
        config.port = o.transport_port;
        config.client_name = "perfbench" + std::to_string(c);
        config.epoch = static_cast<std::uint64_t>(wall_base);
        config.max_inflight = shape.window_msgs;
        links.push_back(std::make_unique<Link>(config, o.traced));
        links.back()->connection().start();
    }

    const std::int64_t interval = shape.period_ns > 0 ? shape.period_ns : 10 * kNsPerMs;
    const std::size_t capacity =
        2 + (shape.closed_loop ? static_cast<std::size_t>(o.seconds) * 5000
                               : static_cast<std::size_t>(o.seconds * kNsPerSec / interval));
    std::vector<std::unique_ptr<Stream>> streams;
    std::vector<Stream*> ingest;
    Stream* pre = nullptr;
    if (shape.preload_sensors > 0) {
        streams.push_back(makeStream(std::string(base) + "/q", shape.preload_sensors,
                                     shape.preload_spacing_ns, links[0].get(),
                                     shape.preload_ticks));
        pre = streams.back().get();
    }
    for (std::size_t i = 0; i < shape.streams; ++i) {
        streams.push_back(makeStream(std::string(base) + "/n" + std::to_string(i),
                                     shape.sensors, interval,
                                     links[i % links.size()].get(), capacity));
        ingest.push_back(streams.back().get());
        if (shape.operators && !addOperator(*ingest.back())) {
            std::fprintf(stderr, "wm_benchgen: tester operator did not load\n");
            return 1;
        }
    }

    // Set-up: handshakes, topic registration (each stream's first tick),
    // the query_mix preload, and everything visible.
    for (std::size_t j = 0; pre != nullptr && j < shape.preload_ticks; ++j) {
        waitForRoom(*pre->link, pre->sensors, shape.window_msgs);
        const std::int64_t now = monoNs();
        gen.tick(*pre, now, now, 0,
                 wall_base - static_cast<std::int64_t>(shape.preload_ticks - j) *
                                 shape.preload_spacing_ns);
    }
    for (Stream* s : ingest) {
        const std::int64_t now = monoNs();
        gen.tick(*s, now, now, 0);
    }
    const std::int64_t ready_deadline = monoNs() + 60 * kNsPerSec;
    for (const auto& s : streams) {
        while (s->visible.load() < s->sent.load() && monoNs() < ready_deadline) {
            if (!gen.probe(*s, nullptr, nullptr)) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (s->visible.load() < s->sent.load()) {
            std::fprintf(stderr, "wm_benchgen: set-up ticks never became visible\n");
            return 1;
        }
    }
    for (auto& link : links) link->setup_retry.store(false);
    if (o.setup_only) {
        return writeFile(o.out, "{\"window_start_ns\":" + std::to_string(monoNs()) + "}\n")
                   ? 0
                   : 1;
    }

    RunData data;
    data.shape = &shape;
    data.traced = o.traced;
    data.nproc = sysconf(_SC_NPROCESSORS_ONLN);
    data.t0 = monoNs() + 2 * kNsPerMs;
    data.t1 = data.t0 + static_cast<std::int64_t>(o.seconds) * kNsPerSec;
    data.tmid = data.t0 + static_cast<std::int64_t>(o.seconds) * kNsPerSec / 2;
    data.ingest = ingest;
    for (const auto& s : streams) {
        s->first_timed = s->sent.load();
        data.all.push_back(s.get());
    }
    const std::int64_t t0 = data.t0;
    const std::int64_t t1 = data.t1;
    // Window workers outlive the closing edge sample, so their CPU time is
    // still in /proc when it is read.
    std::atomic<bool> edge_sampled{false};
    auto holdUntilSampled = [&edge_sampled] {
        while (!edge_sampled.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    std::uint64_t probe_failures = 0;
    double probe_cpu = 0.0;
    std::thread probe([&] {
        gen.probeLoop(ingest, shape.probe_gap_ns, o.traced && !shape.closed_loop,
                      &data.probe_rest, &probe_failures, &probe_cpu, t0, t1);
    });
    std::vector<std::thread> tickers;
    if (shape.closed_loop) {
        // A stream starts its next tick only when its unacked window has
        // room for all of it, so nothing is refused. The wait polls coarsely:
        // the window holds several ticks, and a tight poll would take CPU
        // from the daemon threads that are the bottleneck.
        for (Stream* s : ingest) {
            tickers.emplace_back([&gen, &holdUntilSampled, s, t0, t1,
                                  window = shape.window_msgs] {
                sleepUntilNs(t0);
                for (;;) {
                    const std::int64_t ready = monoNs();
                    while (monoNs() < t1 &&
                           s->link->connection().inflight() + s->sensors > window) {
                        Generator::updateAcks(*s);
                        std::this_thread::sleep_for(std::chrono::microseconds(500));
                    }
                    const std::int64_t start = monoNs();
                    if (start >= t1 || !gen.tick(*s, start, start, start - ready)) break;
                    Generator::updateAcks(*s);
                }
                holdUntilSampled();
            });
        }
    } else {
        // Open loop: stream j of n is due at t0 + k * period + j * period / n,
        // whether or not the daemon kept up.
        tickers.emplace_back([&gen, &ingest, &holdUntilSampled, t0, t1,
                              period = shape.period_ns] {
            const auto n = static_cast<std::int64_t>(ingest.size());
            bool open = true;
            for (std::int64_t k = 0; open; ++k) {
                for (std::int64_t j = 0; j < n && open; ++j) {
                    const std::int64_t due = t0 + k * period + j * period / n;
                    open = due < t1;
                    if (open) {
                        sleepUntilNs(due);
                        open = gen.tick(*ingest[static_cast<std::size_t>(j)], due, monoNs(), 0);
                    }
                }
            }
            holdUntilSampled();
        });
    }
    // The query clients: the mix on query_mix, one paced /sensors/latest
    // client on the ingest workloads.
    std::vector<std::thread> clients;
    const std::size_t client_count = pre != nullptr ? shape.query_clients
                                                    : (shape.latest_gap_ns > 0 ? 1 : 0);
    std::vector<std::vector<RestSample>> client_logs(client_count);
    std::vector<double> client_cpu(client_count, 0.0);
    std::vector<std::uint64_t> client_failures(client_count, 0);
    std::atomic<std::size_t> next_query{0};
    const std::vector<MixItem> mix =
        pre != nullptr ? makeMix(rng, pre->sensors)
                       : (client_count > 0 ? makeLatest(rng, ingest.size() * shape.sensors)
                                           : std::vector<MixItem>{});
    for (std::size_t c = 0; c < client_count; ++c) {
        clients.emplace_back([&, c] {
            sleepUntilNs(t0);
            const double cpu0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
            for (;;) {
                const MixItem& item = mix[next_query.fetch_add(1) % mix.size()];
                const std::int64_t start = monoNs();
                if (start >= t1) break;
                bool ok = false;
                if (pre != nullptr) {
                    ok = checkAnswer(item,
                                     rest::httpRequest("127.0.0.1", o.rest_port, "GET",
                                                       mixTarget(item, *pre,
                                                                 shape.preload_spacing_ns)),
                                     *pre);
                } else {
                    const Stream& s = *ingest[item.key / shape.sensors];
                    ok = checkIngestLatest(
                        rest::httpRequest("127.0.0.1", o.rest_port, "GET",
                                          "/sensors/latest?topic=" + s.prefix + "/test" +
                                              std::to_string(item.key % shape.sensors)),
                        s);
                }
                client_logs[c].push_back({item.route, ok, start, monoNs()});
                if (!ok) ++client_failures[c];
                if (pre == nullptr) {
                    std::this_thread::sleep_for(std::chrono::nanoseconds(shape.latest_gap_ns));
                }
            }
            client_cpu[c] = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
            holdUntilSampled();
        });
    }

    sleepUntilNs(t0);
    data.e0 = sampleEdge(o);
    data.daemon_threads_peak = data.e0.daemon.threads;
    while (monoNs() < t1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        data.sockets_peak = std::max(data.sockets_peak, socketCount());
        const ProcSample daemon = readProc(o.daemon_pid);
        data.daemon_threads_peak = std::max(data.daemon_threads_peak, daemon.threads);
        std::size_t visible = 0;
        for (const Stream* s : ingest) visible += s->visible.load() * s->sensors;
        if (shape.rss_readings > 0 && data.rss_mb < 0 && visible >= shape.rss_readings) {
            data.rss_mb = daemon.hwm_mb;
        }
    }
    data.e1 = sampleEdge(o);
    edge_sampled.store(true);
    for (auto& t : tickers) t.join();
    for (auto& t : clients) t.join();

    // Drain: every tick visible (and acked) or the deadline.
    const std::int64_t drain_deadline =
        monoNs() + (o.inject_loss ? 5 : 30) * kNsPerSec;
    for (;;) {
        bool pending = false;
        for (Stream* s : ingest) {
            if (shape.closed_loop) Generator::updateAcks(*s);
            const std::size_t sent = s->sent.load();
            pending = pending || s->visible.load() < sent ||
                      ((shape.closed_loop || o.traced) && s->acked.load() < sent);
        }
        if (!pending || monoNs() >= drain_deadline) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gen.stopProbe();
    probe.join();

    data.non_node_cpu_s = probe_cpu;
    data.rest_failed = probe_failures;
    for (std::size_t c = 0; c < client_count; ++c) {
        data.non_node_cpu_s += client_cpu[c];
        data.rest_failed += client_failures[c];
        data.client_rest.insert(data.client_rest.end(), client_logs[c].begin(),
                                client_logs[c].end());
    }
    for (const auto& link : links) data.refused += link->refused.load();

    std::vector<StreamTruth> truth;
    for (const auto& s : streams) {
        StreamTruth t{s->prefix, s->sensors, {}};
        for (std::size_t i = 0; i < s->sent.load(); ++i) t.timestamps.push_back(s->ticks[i].ts);
        truth.push_back(std::move(t));
    }
    data.oracle = fetchAndCheck(o.rest_port, truth);
    if (!o.truth.empty() && !writeTruth(o.truth, truth)) return 1;
    if (o.traced && !o.spans.empty() && !writeSpans(o.spans, data)) return 1;
    for (auto& link : links) link->connection().stop();
    return writeFile(o.out, summarize(data)) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    if (!parseOptions(argc, argv, &options)) {
        std::fprintf(stderr, "usage: %s config|run|verify [options] (see source header)\n",
                     argv[0]);
        return 2;
    }
    common::Logger::instance().setLevel(common::LogLevel::kWarning);
    if (options.mode == "config") return printConfig(options);
    if (options.mode == "run") return run(options);
    if (options.mode == "verify") return verify(options);
    return 2;
}
