// Minimal JSON reader/writer for the shard spec + result contract.
//
// Scope is deliberately narrow: deterministic, dependency-free round-trip
// of the JSON the shard layer emits itself (specs, JSONL result lines).
// Two layers share one byte format:
//
//   - Writer / Reader stream one *canonical* document (compact, members
//     in a fixed order, no whitespace) to and from a byte buffer with no
//     intermediate tree.  The shard result records are written and read
//     this way: one writer and one in-order reader per payload, so the
//     bytes a record decodes from are exactly the bytes it re-encodes to.
//   - Value is an insertion-ordered tree for the documents whose readers
//     must be tolerant (specs, manifests, wire headers).  Value::dump
//     emits through the Writer, so both layers escape identically.
//
// Numbers are kept as their raw token text on parse and re-emitted
// verbatim, so a file can be parsed and rewritten without any
// double→text→double wobble.  For bit-exact doubles across machines the
// codec below sidesteps decimal entirely: double_to_hex/hex_to_double
// transport the IEEE-754 bit pattern as 16 hex digits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dufp::json {

class Value;
class Writer;

/// Insertion-ordered key→value list (shard files have a handful of keys;
/// linear find is fine and keeps serialization deterministic).
using Members = std::vector<std::pair<std::string, Value>>;
using Items = std::vector<Value>;

class Value {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  Value() : kind_(Kind::null) {}
  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  /// Stores the decimal text of `v` (shortest round-trip not required —
  /// use this only where bit-exactness doesn't matter, e.g. counts).
  static Value make_u64(std::uint64_t v);
  static Value make_i64(std::int64_t v);
  /// Raw number token, emitted verbatim (caller guarantees validity).
  static Value make_raw_number(std::string token);
  static Value make_string(std::string s);
  static Value make_array(Items items = {});
  static Value make_object(Members members = {});

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::null; }
  bool is_object() const { return kind_ == Kind::object; }
  bool is_array() const { return kind_ == Kind::array; }
  bool is_string() const { return kind_ == Kind::string; }
  bool is_number() const { return kind_ == Kind::number; }
  bool is_bool() const { return kind_ == Kind::boolean; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch or an
  /// unparseable number token (never silently coerce).
  bool as_bool() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  const std::string& as_string() const;
  const Items& as_array() const;
  const Members& as_object() const;

  /// Object lookup; returns nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Object lookup; throws std::runtime_error naming the key when absent.
  const Value& at(std::string_view key) const;
  /// Appends a member (objects) / element (arrays); throws otherwise.
  void add(std::string key, Value v);
  void push_back(Value v);

  /// Compact single-line serialization (no whitespace), deterministic:
  /// members in insertion order, numbers as their stored tokens, strings
  /// escaped minimally (", \, control chars).
  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  void write_to(Writer& w) const;

  Kind kind_;
  bool bool_ = false;
  std::string scalar_;  // number token or string payload
  std::shared_ptr<Items> items_;
  std::shared_ptr<Members> members_;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error with the byte offset on malformed input.
Value parse(std::string_view text);

// -- streaming canonical documents -------------------------------------------

/// Appends one compact canonical JSON document to a string: exactly the
/// bytes Value::dump would emit for the same tree.  Calls must describe a
/// well-formed document (key() before every object member, balanced
/// begin/end); the writer tracks only where commas go.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  /// The next object member's key.
  void key(std::string_view name);

  void null() { scalar("null"); }
  void boolean(bool b) { scalar(b ? "true" : "false"); }
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// `v`'s IEEE-754 bit pattern as a 16-hex-digit string (double_to_hex).
  void hex(double v);
  void string(std::string_view s);
  /// An already-encoded value (a number token, or a whole sub-document),
  /// copied verbatim.
  void raw(std::string_view bytes) { scalar(bytes); }

 private:
  void separate() {
    if (comma_) out_ += ',';
    comma_ = true;
  }
  void open(char c) {
    separate();
    out_ += c;
    comma_ = false;
  }
  void close(char c) {
    out_ += c;
    comma_ = true;
  }
  void scalar(std::string_view token) {
    separate();
    out_ += token;
  }

  std::string& out_;
  bool comma_ = false;  ///< the next value or key needs a ',' first
};

/// A bounds-checked cursor reading one canonical document in order — the
/// inverse of Writer.  Anything the Writer would not have produced (other
/// key order, an unknown or missing key, whitespace, a non-canonical
/// number, string escape or hex double) is an error: every read throws
/// std::runtime_error naming the byte offset instead of guessing.  Reads
/// never look past the end of the view.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  /// Array iteration: true when another element follows (its ',' is
  /// consumed), false after consuming the closing ']'.
  bool next();
  /// Expects the next object member to be exactly `name`.
  void key(std::string_view name);
  /// A trailing optional member: false (nothing consumed) when the
  /// object ends here, otherwise key(name).
  bool optional_key(std::string_view name);

  std::uint64_t u64();
  std::int64_t i64();
  double hex();
  std::string string();
  bool boolean();
  /// Skips one value and returns its exact bytes.  Checks structure only
  /// (brackets balance and nest in kind, strings terminate, nesting is
  /// bounded); the span's grammar is checked by whichever reader decodes
  /// it.
  std::string_view skip_value();

  /// Expects the end of the text: one document, nothing after it.
  void finish();

  /// Throws std::runtime_error for `what` at the current offset — also
  /// for payload-level checks (an out-of-range enum) made by a codec.
  [[noreturn]] void error(const std::string& what) const;

 private:
  char peek() const;
  void expect(char c);
  void open(char c);
  void close(char c);
  void separate();

  std::string_view text_;
  std::size_t pos_ = 0;
  bool comma_ = false;  ///< the next value or key must be preceded by ','
};

// -- bit-exact double transport ---------------------------------------------

/// The IEEE-754 bit pattern of `v` as 16 lowercase hex digits.
std::string double_to_hex(double v);
/// Inverse of double_to_hex; throws std::runtime_error on malformed input
/// (must be exactly 16 hex digits).
double hex_to_double(std::string_view hex);

// -- content fingerprinting --------------------------------------------------

/// FNV-1a 64-bit over the bytes; the shard layer fingerprints the
/// canonical spec serialization with this so a gather can refuse result
/// files produced from a different spec.
std::uint64_t fnv1a(std::string_view bytes);

}  // namespace dufp::json
