#pragma once

// Output oracle of the end-to-end benchmark: what the generator published,
// and the exactly-once check of a daemon's `/storage/dump` against it.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Ground truth of one generator Pusher with one TesterGroup: its tick j
/// published, for every sensor i, the reading (prefix + "/test" + i,
/// timestamps[j], j + 1) -- a tester sensor's value counts its ticks.
struct StreamTruth {
    std::string prefix;
    std::size_t sensors = 0;
    std::vector<std::int64_t> timestamps;  ///< strictly increasing
};

/// The three rules tools/cluster_driver.py applies, counted per reading:
/// nothing missing, no (topic, timestamp) twice, nothing extra. A stored
/// row whose value differs from the published one counts as extra.
struct OracleResult {
    bool fetched = false;
    std::uint64_t expected = 0;
    std::uint64_t matched = 0;
    std::uint64_t missing = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t extra = 0;

    std::uint64_t failures() const { return missing + duplicates + extra; }
};

/// Checks a `topic,timestamp,value` CSV dump against `truth`.
OracleResult checkDump(const std::string& csv, const std::vector<StreamTruth>& truth);

/// Saves / loads the ground truth, so a restarted daemon can be checked by
/// a later `verify` invocation.
bool writeTruth(const std::string& path, const std::vector<StreamTruth>& truth);
bool readTruth(const std::string& path, std::vector<StreamTruth>* truth);

}  // namespace perfbench
