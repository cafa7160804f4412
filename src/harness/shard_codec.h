// Bit-exact JSON codecs for shard result transport.
//
// A shard worker serializes each job's RunResult (and its optional
// telemetry snapshot) to one JSONL line; the gatherer decodes them and
// feeds ExperimentPlan::finish_with, so the aggregates it produces are
// the *same doubles* a serial in-process run would aggregate.  That
// demands a lossless double transport: every floating-point field
// travels as its IEEE-754 bit pattern (json::double_to_hex), never as
// decimal text.  Counters travel as decimal u64, enums as their integer
// values (with a format version bump required to change any of it).
//
// The record is canonical: write_run_result is its one writer (a
// json::Writer stream, no tree) and read_run_result its one reader, an
// in-order json::Reader that rejects any byte the writer would not have
// produced — so a record that decodes re-encodes to exactly its own
// bytes.  The json::Value functions below are thin adapters over the
// same pair, kept for callers that hold trees.
#pragma once

#include <string>
#include <string_view>

#include "common/json.h"
#include "harness/runner.h"

namespace dufp::harness {

/// The wire record of `result`: one line of compact canonical JSON.
std::string write_run_result(const RunResult& result);

/// Inverse of write_run_result over exactly one record; throws
/// std::runtime_error naming the byte offset on anything else.
RunResult read_run_result(std::string_view bytes);

/// Tree adapters over write_run_result / read_run_result.
json::Value encode_run_result(const RunResult& result);
RunResult decode_run_result(const json::Value& v);

/// Telemetry snapshot codec (nested inside the RunResult record; exposed
/// for tests), as tree adapters over the same writer/reader.
json::Value encode_snapshot(const telemetry::TelemetrySnapshot& snap);
telemetry::TelemetrySnapshot decode_snapshot(const json::Value& v);

}  // namespace dufp::harness
