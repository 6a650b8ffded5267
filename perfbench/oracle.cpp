#include "oracle.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <unordered_map>

namespace perfbench {

OracleResult checkDump(const std::string& csv, const std::vector<StreamTruth>& truth) {
    OracleResult result;
    result.fetched = true;
    std::unordered_map<std::string_view, std::size_t> by_prefix;
    std::vector<std::vector<std::uint8_t>> seen(truth.size());
    for (std::size_t s = 0; s < truth.size(); ++s) {
        by_prefix.emplace(truth[s].prefix, s);
        seen[s].assign(truth[s].timestamps.size() * truth[s].sensors, 0);
        result.expected += seen[s].size();
    }

    std::size_t pos = csv.find('\n');  // skip the "topic,timestamp,value" header
    while (pos != std::string::npos && pos + 1 < csv.size()) {
        const std::size_t begin = pos + 1;
        pos = csv.find('\n', begin);
        const std::string_view line(csv.data() + begin,
                                    (pos == std::string::npos ? csv.size() : pos) - begin);
        const std::size_t c1 = line.find(',');
        const std::size_t c2 = line.rfind(',');
        if (line.empty() || c1 == std::string_view::npos || c1 == c2) {
            ++result.extra;
            continue;
        }
        const std::string_view topic = line.substr(0, c1);
        const std::size_t cut = topic.rfind("/test");
        const auto stream = cut == std::string_view::npos
                                ? by_prefix.end()
                                : by_prefix.find(topic.substr(0, cut));
        if (stream == by_prefix.end()) {
            ++result.extra;
            continue;
        }
        const StreamTruth& t = truth[stream->second];
        const std::string field(line.substr(c1 + 1, c2 - c1 - 1));
        const std::string value_text(line.substr(c2 + 1));
        const std::string sensor_text(topic.substr(cut + 5));
        char* end = nullptr;
        const std::uint64_t sensor = std::strtoull(sensor_text.c_str(), &end, 10);
        const std::int64_t timestamp = std::strtoll(field.c_str(), nullptr, 10);
        const double value = std::strtod(value_text.c_str(), nullptr);
        const auto tick = std::lower_bound(t.timestamps.begin(), t.timestamps.end(), timestamp);
        if (sensor_text.empty() || *end != '\0' || sensor >= t.sensors ||
            tick == t.timestamps.end() || *tick != timestamp) {
            ++result.extra;
            continue;
        }
        const auto index = static_cast<std::size_t>(tick - t.timestamps.begin());
        if (value != static_cast<double>(index + 1)) {
            ++result.extra;
            continue;
        }
        std::uint8_t& mark = seen[stream->second][index * t.sensors + sensor];
        if (mark != 0) {
            ++result.duplicates;
        } else {
            mark = 1;
            ++result.matched;
        }
    }
    result.missing = result.expected - result.matched;
    return result;
}

bool writeTruth(const std::string& path, const std::vector<StreamTruth>& truth) {
    std::ofstream out(path);
    for (const auto& stream : truth) {
        out << stream.prefix << ' ' << stream.sensors << ' ' << stream.timestamps.size()
            << '\n';
        for (const std::int64_t ts : stream.timestamps) out << ts << '\n';
    }
    return out.good();
}

bool readTruth(const std::string& path, std::vector<StreamTruth>* truth) {
    std::ifstream in(path);
    if (!in.is_open()) return false;
    StreamTruth stream;
    std::size_t count = 0;
    while (in >> stream.prefix >> stream.sensors >> count) {
        stream.timestamps.resize(count);
        for (auto& ts : stream.timestamps) in >> ts;
        if (!in) return false;
        truth->push_back(stream);
    }
    return in.eof();
}

}  // namespace perfbench
