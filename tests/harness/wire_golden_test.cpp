// The grid wire pinned from outside: a shard file captured before the
// streaming codec existed (tests/harness/golden/wire_grid.jsonl, written
// by `dufp_shard_worker run --spec wire_grid.spec.json`) must be
// reproduced byte for byte by today's writer, every record must
// round-trip read -> write, and gathering it must finalize to the same
// bytes as a serial run.  The other shard tests compare the writer with
// its own reader, which would pass even if both drifted together.
//
// The second half is the canonical-record contract under hostile bytes:
// truncations, byte flips, swapped keys, stray whitespace, malformed hex
// doubles and out-of-range enums may only ever produce a typed error
// (strict gather: file:line) or a skipped-line note (partial gather) —
// or, for a flip that still spells a canonical record, a decode that
// re-encodes to exactly the mutated bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/shard.h"
#include "harness/shard_codec.h"

namespace dufp::harness {
namespace {

const std::string kGoldenDir = DUFP_HARNESS_GOLDEN_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "_" + info->name() +
         "_" + tag;
}

std::string write_text(const std::string& text, const std::string& tag) {
  const std::string path = temp_path(tag + ".jsonl");
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

/// The result span of a record line `{"job":N,"result":...}`.
std::string result_of(const std::string& line) {
  json::Reader r(line);
  r.begin_object();
  r.key("job");
  r.u64();
  r.key("result");
  const std::string_view span = r.skip_value();
  r.end_object();
  r.finish();
  return std::string(span);
}

std::string record_line(std::size_t job, const std::string& result) {
  return "{\"job\":" + std::to_string(job) + ",\"result\":" + result + "}";
}

std::string output_bytes(const GridOutputs& out) {
  std::string bytes = out.evaluation_csv;
  bytes += '\x1f';
  bytes += out.merged_prometheus;
  return bytes;
}

class WireGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = GridSpec::load(kGoldenDir + "/wire_grid.spec.json");
    golden_path_ = kGoldenDir + "/wire_grid.jsonl";
    golden_ = read_file(golden_path_);
    lines_ = split_lines(golden_);
    ASSERT_EQ(lines_.size(), 3u) << "header + baseline + DUFP record";
  }

  GridSpec spec_;
  std::string golden_path_;
  std::string golden_;
  std::vector<std::string> lines_;
};

TEST_F(WireGoldenTest, GoldenExercisesEveryRecordSection) {
  const RunResult dufp = read_run_result(result_of(lines_[2]));
  EXPECT_FALSE(dufp.agent_stats.empty());
  ASSERT_FALSE(dufp.fault_stats.empty());
  EXPECT_GT(dufp.fault_stats[0].total(), 0u);
  ASSERT_TRUE(dufp.telemetry.has_value());
  EXPECT_FALSE(dufp.telemetry->dumps.empty());
  EXPECT_FALSE(dufp.telemetry->events.empty());
  EXPECT_FALSE(dufp.phase_totals.empty());
}

TEST_F(WireGoldenTest, WriterReproducesGoldenBytes) {
  std::ostringstream out;
  run_shard(spec_, {}, out);
  EXPECT_TRUE(out.str() == golden_) << "the grid wire format drifted";
}

TEST_F(WireGoldenTest, EveryRecordRoundTripsReadThenWrite) {
  for (std::size_t i = 1; i < lines_.size(); ++i) {
    const std::string result = result_of(lines_[i]);
    EXPECT_TRUE(write_run_result(read_run_result(result)) == result)
        << "record " << i;
    // The tree adapters are the same codec.
    EXPECT_TRUE(encode_run_result(read_run_result(result)).dump() == result);
    EXPECT_TRUE(write_run_result(decode_run_result(json::parse(result))) ==
                result);
  }
}

TEST_F(WireGoldenTest, GatheredGoldenFinalizesLikeSerial) {
  EXPECT_EQ(
      output_bytes(finalize_grid(spec_, gather_shards(spec_, {golden_path_}))),
      output_bytes(run_grid_serial(spec_)));
}

TEST_F(WireGoldenTest, DuplicateGuardCoversRawRecordBytes) {
  GatherOptions partial;
  partial.partial = true;
  // Identical re-deliveries: dropped and counted.
  const GatherReport twice =
      gather_shards_report(spec_, {golden_path_, golden_path_}, partial);
  EXPECT_TRUE(twice.complete());
  EXPECT_EQ(twice.duplicates, 2u);

  // A re-delivery whose bytes differ in one hex digit (still a canonical,
  // decodable record) is a determinism violation in every mode.
  std::string result = result_of(lines_[2]);
  const auto pos = result.find("\"exec_seconds\":\"") + 16;
  result[pos + 15] = result[pos + 15] == '0' ? '1' : '0';
  const std::string divergent =
      write_text(lines_[0] + '\n' + record_line(1, result) + '\n', "div");
  EXPECT_THROW(gather_shards_report(spec_, {golden_path_, divergent}, partial),
               std::runtime_error);
  EXPECT_THROW(gather_shards_report(spec_, {golden_path_, divergent}, {}),
               std::runtime_error);

  // A damaged re-delivery is damage, not a determinism violation: noted
  // and skipped, even though its job was already gathered.
  const std::string spaced = write_text(
      lines_[0] + '\n' + record_line(1, " " + result_of(lines_[2])) + '\n',
      "spaced");
  const GatherReport noted =
      gather_shards_report(spec_, {golden_path_, spaced}, partial);
  EXPECT_TRUE(noted.complete());
  EXPECT_EQ(noted.duplicates, 0u);
  ASSERT_EQ(noted.notes.size(), 1u);
  EXPECT_EQ(noted.notes[0].line, 2);
}

// -- hostile bytes -----------------------------------------------------------

/// Decodes `bytes` from an exactly-sized heap copy, so any read past the
/// end is a heap overflow a sanitizer reports.  Returns true when the
/// record decoded; then it must re-encode to exactly `bytes`.
bool decodes_canonically(const std::string& bytes) {
  const auto copy =
      std::make_unique<char[]>(std::max<std::size_t>(1, bytes.size()));
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  RunResult r;
  try {
    r = read_run_result(std::string_view(copy.get(), bytes.size()));
  } catch (const std::runtime_error&) {
    return false;
  }
  EXPECT_TRUE(write_run_result(r) == bytes)
      << "a record decoded but does not re-encode to its own bytes";
  return true;
}

/// With job `job`'s line replaced by `bad_line`: strict gather names
/// file:line, and partial gather notes that line only and keeps the rest
/// of the file.
void expect_line_rejected(const GridSpec& spec,
                          const std::vector<std::string>& lines,
                          std::size_t job, const std::string& bad_line,
                          const std::string& tag) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += (i == job + 1 ? bad_line : lines[i]) + '\n';
  }
  const std::string path = write_text(text, tag);
  const std::string where = path + ":" + std::to_string(job + 2) + ":";
  try {
    gather_shards(spec, {path});
    ADD_FAILURE() << tag << ": strict gather accepted a damaged record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << tag << ": " << e.what();
  }
  GatherOptions partial;
  partial.partial = true;
  const GatherReport report = gather_shards_report(spec, {path}, partial);
  ASSERT_EQ(report.notes.size(), 1u) << tag;
  EXPECT_EQ(report.notes[0].line, static_cast<int>(job + 2)) << tag;
  EXPECT_EQ(report.missing, std::vector<std::size_t>{job}) << tag;
  EXPECT_EQ(report.records, lines.size() - 2) << tag;
}

/// Swaps the adjacent scalar members `"a":...` and `,"b":...` at their
/// first occurrence.
std::string swap_members(const std::string& s, const std::string& a,
                         const std::string& b) {
  const auto pa = s.find("\"" + a + "\":");
  const auto pb = s.find(",\"" + b + "\":", pa);
  const auto end = s.find_first_of(",}", pb + 1);
  EXPECT_NE(pa, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return s.substr(0, pa) + s.substr(pb + 1, end - pb - 1) + "," +
         s.substr(pa, pb - pa) + s.substr(end);
}

std::string replace_first(std::string s, const std::string& from,
                          const std::string& to) {
  const auto pos = s.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  return s.replace(pos, from.size(), to);
}

TEST_F(WireGoldenTest, TruncationAtEveryOffsetIsAnError) {
  // The baseline record: every proper prefix must be rejected.
  const std::string result = result_of(lines_[1]);
  for (std::size_t n = 0; n < result.size(); ++n) {
    EXPECT_FALSE(decodes_canonically(result.substr(0, n))) << "prefix " << n;
  }
  // The same through gather, for a sample of torn envelope lines.
  for (std::size_t n = 1; n < lines_[1].size(); n += 331) {
    expect_line_rejected(spec_, lines_, 0, lines_[1].substr(0, n),
                         "torn" + std::to_string(n));
  }
}

TEST_F(WireGoldenTest, SeededByteFlipsDecodeCanonicallyOrFail) {
  const std::string result = result_of(lines_[2]);
  std::mt19937_64 rng(20221);
  int decoded = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = result;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng() % 255));
    const bool ok = decodes_canonically(mutated);
    if (ok) ++decoded;
    if (i % 100 != 0) continue;
    // A sample through gather: a decodable flip is an ordinary record,
    // anything else is exactly one note on line 3 (job 1).
    const std::string line = record_line(1, mutated);
    if (line.find('\n') != std::string::npos) continue;  // splits the line
    const std::string path = write_text(
        lines_[0] + '\n' + lines_[1] + '\n' + line + '\n',
        "flip" + std::to_string(i));
    GatherOptions partial;
    partial.partial = true;
    const GatherReport report = gather_shards_report(spec_, {path}, partial);
    EXPECT_EQ(report.complete(), ok) << "flip " << i;
    EXPECT_EQ(report.notes.size(), ok ? 0u : 1u) << "flip " << i;
  }
  // Most flips break the record; a few (inside hex digits or counters)
  // still spell a valid one, which must then re-encode to itself.
  EXPECT_LT(decoded, 3000);
}

TEST_F(WireGoldenTest, NonCanonicalRecordsAreUndecodable) {
  const std::string base = result_of(lines_[1]);
  const std::string dufp = result_of(lines_[2]);
  const std::string hex_key = "\"exec_seconds\":\"";
  const std::size_t hex_at = base.find(hex_key) + hex_key.size();
  struct Case {
    const char* name;
    std::size_t job;
    std::string bytes;
  };
  const std::vector<Case> cases = {
      {"swapped summary keys", 0,
       swap_members(base, "exec_seconds", "pkg_energy_j")},
      {"swapped health keys", 0,
       swap_members(base, "degradations", "reengagements")},
      {"swapped event keys", 1, swap_members(dufp, "t_us", "kind")},
      {"unknown key", 0,
       replace_first(base, "{\"summary\":", "{\"extra\":0,\"summary\":")},
      {"unknown trailing key", 0,
       replace_first(base, "\"telemetry\":", "\"telemetry2\":")},
      {"whitespace after colon", 0,
       replace_first(base, "\"summary\":", "\"summary\": ")},
      {"whitespace before value", 0, " " + base},
      {"15-digit hex double", 0, std::string(base).erase(hex_at, 1)},
      {"17-digit hex double", 0, std::string(base).insert(hex_at, "0")},
      {"uppercase hex double", 0,
       std::string(base).replace(hex_at, 16, "ABCDEF0123456789")},
      {"non-hex double", 0, std::string(base).replace(hex_at, 1, "g")},
      {"out-of-range event kind", 1,
       replace_first(dufp, "\"kind\":", "\"kind\":9")},
      {"out-of-range metric type", 0,
       replace_first(base, "\"type\":", "\"type\":-")},
      {"leading-zero counter", 0,
       replace_first(base, "\"degradations\":", "\"degradations\":0")},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    EXPECT_NE(c.bytes, c.job == 0 ? base : dufp) << c.name;
    EXPECT_FALSE(decodes_canonically(c.bytes)) << c.name;
    // Through gather, the same damage is a file:line error or a note.
    expect_line_rejected(spec_, lines_, c.job, record_line(c.job, c.bytes),
                         "case" + std::to_string(i));
  }
  // Envelope damage: reordered, extra or spaced envelope members.
  expect_line_rejected(spec_, lines_, 0,
                       "{\"result\":" + base + ",\"job\":0}", "env_order");
  expect_line_rejected(spec_, lines_, 0,
                       "{\"job\":0,\"result\":" + base + ",\"x\":1}",
                       "env_extra");
  expect_line_rejected(spec_, lines_, 0,
                       "{\"job\": 0,\"result\":" + base + "}", "env_ws");
}

}  // namespace
}  // namespace dufp::harness
