// The fleet wire pinned from outside: a shard file captured before the
// streaming codec existed (tests/fleet/golden/wire_fleet.jsonl, written
// by `dufp_shard_worker fleet-run --spec wire_fleet.spec.json`) must be
// reproduced byte for byte by today's writer, every record must
// round-trip read -> write, and gathering it must finalize to the same
// bytes as a serial fleet run.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/shard.h"

namespace dufp::fleet {
namespace {

const std::string kGoldenDir = DUFP_FLEET_GOLDEN_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fleet_bytes(const FleetOutputs& out) {
  return out.allocation_csv + '\x1f' + out.summary_csv + '\x1f' +
         out.prometheus;
}

class FleetWireGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = FleetSpec::load(kGoldenDir + "/wire_fleet.spec.json");
    golden_path_ = kGoldenDir + "/wire_fleet.jsonl";
    golden_ = read_file(golden_path_);
  }

  FleetSpec spec_;
  std::string golden_path_;
  std::string golden_;
};

TEST_F(FleetWireGoldenTest, WriterReproducesGoldenBytes) {
  std::ostringstream out;
  run_fleet_shard(spec_, {}, out);
  EXPECT_TRUE(out.str() == golden_) << "the fleet wire format drifted";
}

TEST_F(FleetWireGoldenTest, EveryRecordRoundTripsReadThenWrite) {
  std::istringstream in(golden_);
  std::string line;
  std::getline(in, line);  // header
  std::size_t records = 0;
  while (std::getline(in, line)) {
    json::Reader r(line);
    r.begin_object();
    r.key("job");
    EXPECT_EQ(r.u64(), records);
    r.key("result");
    const std::string result(r.skip_value());
    r.end_object();
    r.finish();
    EXPECT_TRUE(write_node_result(read_node_result(result)) == result);
    EXPECT_TRUE(encode_node_result(decode_node_result(json::parse(result)))
                    .dump() == result);
    // Any proper prefix is an error, never a read past the span.
    for (std::size_t n = 0; n < result.size(); n += 7) {
      EXPECT_THROW(read_node_result(std::string_view(result).substr(0, n)),
                   std::runtime_error);
    }
    ++records;
  }
  EXPECT_EQ(records, spec_.topology.node_count());
}

TEST_F(FleetWireGoldenTest, GatheredGoldenFinalizesLikeSerial) {
  const FleetGatherReport report = gather_fleet_report(spec_, {golden_path_});
  ASSERT_TRUE(report.complete());
  EXPECT_EQ(fleet_bytes(finalize_fleet(spec_, report.results)),
            fleet_bytes(run_fleet_serial(spec_)));
}

}  // namespace
}  // namespace dufp::fleet
