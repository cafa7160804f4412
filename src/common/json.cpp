#include "common/json.h"

#include <array>
#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

namespace dufp::json {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// 16 lowercase hex digits of `bits`, most significant nibble first.
std::array<char, 16> hex_digits(std::uint64_t bits) {
  std::array<char, 16> out{};
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[bits & 0xF];
    bits >>= 4;
  }
  return out;
}

/// Decimal text of an integer, via std::to_chars (no locale, no format
/// string).
template <typename Int>
std::string_view int_text(Int v, std::array<char, 24>& buf) {
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  (void)ec;  // 24 chars hold every 64-bit integer
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

/// Parses the whole of `token` as an integer with std::from_chars: no
/// sign prefix other than '-', no trailing characters, no overflow.
template <typename Int>
bool parse_int(std::string_view token, Int& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Value of a hex digit, or -1.
int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// nibble() restricted to the lowercase digits Writer emits, as a table:
/// the canonical reader's hot path is one lookup per digit.
constexpr std::array<std::int8_t, 256> kLowerHex = [] {
  std::array<std::int8_t, 256> t{};
  for (auto& v : t) v = -1;
  for (int i = 0; i < 16; ++i) {
    t[static_cast<unsigned char>(kHexDigits[i])] = static_cast<std::int8_t>(i);
  }
  return t;
}();

/// Appends `s` as a JSON string: the one place escaping lives.  Only
/// '"', '\\' and control characters are escaped (the short forms where
/// JSON has them, \u00XX otherwise); every other byte is copied.
void escape_string(std::string_view s, std::string& out) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHexDigits[(c >> 4) & 0xF];
        out += kHexDigits[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

}  // namespace

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::boolean;
  v.bool_ = b;
  return v;
}

Value Value::make_u64(std::uint64_t n) {
  std::array<char, 24> buf;
  return make_raw_number(std::string(int_text(n, buf)));
}

Value Value::make_i64(std::int64_t n) {
  std::array<char, 24> buf;
  return make_raw_number(std::string(int_text(n, buf)));
}

Value Value::make_raw_number(std::string token) {
  Value v;
  v.kind_ = Kind::number;
  v.scalar_ = std::move(token);
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::string;
  v.scalar_ = std::move(s);
  return v;
}

Value Value::make_array(Items items) {
  Value v;
  v.kind_ = Kind::array;
  v.items_ = std::make_shared<Items>(std::move(items));
  return v;
}

Value Value::make_object(Members members) {
  Value v;
  v.kind_ = Kind::object;
  v.members_ = std::make_shared<Members>(std::move(members));
  return v;
}

bool Value::as_bool() const {
  if (kind_ != Kind::boolean) fail("not a boolean");
  return bool_;
}

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::number) fail("not a number");
  std::uint64_t n = 0;
  if (!parse_int(scalar_, n)) {
    fail("number token '" + scalar_ + "' is not a u64");
  }
  return n;
}

std::int64_t Value::as_i64() const {
  if (kind_ != Kind::number) fail("not a number");
  std::int64_t n = 0;
  if (!parse_int(scalar_, n)) {
    fail("number token '" + scalar_ + "' is not an i64");
  }
  return n;
}

double Value::as_double() const {
  if (kind_ != Kind::number) fail("not a number");
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(scalar_.c_str(), &end);
  if (errno != 0 || end != scalar_.c_str() + scalar_.size() ||
      scalar_.empty()) {
    fail("number token '" + scalar_ + "' is not a double");
  }
  return d;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::string) fail("not a string");
  return scalar_;
}

const Items& Value::as_array() const {
  if (kind_ != Kind::array) fail("not an array");
  return *items_;
}

const Members& Value::as_object() const {
  if (kind_ != Kind::object) fail("not an object");
  return *members_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : *members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) fail("missing key '" + std::string(key) + "'");
  return *v;
}

void Value::add(std::string key, Value v) {
  if (kind_ != Kind::object) fail("add() on a non-object");
  members_->emplace_back(std::move(key), std::move(v));
}

void Value::push_back(Value v) {
  if (kind_ != Kind::array) fail("push_back() on a non-array");
  items_->push_back(std::move(v));
}

void Value::write_to(Writer& w) const {
  switch (kind_) {
    case Kind::null: w.null(); break;
    case Kind::boolean: w.boolean(bool_); break;
    case Kind::number: w.raw(scalar_); break;
    case Kind::string: w.string(scalar_); break;
    case Kind::array:
      w.begin_array();
      for (const Value& item : *items_) item.write_to(w);
      w.end_array();
      break;
    case Kind::object:
      w.begin_object();
      for (const auto& [k, item] : *members_) {
        w.key(k);
        item.write_to(w);
      }
      w.end_object();
      break;
  }
}

void Value::dump_to(std::string& out) const {
  Writer w(out);
  write_to(w);
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// -- streaming writer ----------------------------------------------------------

void Writer::key(std::string_view name) {
  if (comma_) out_ += ',';
  escape_string(name, out_);
  out_ += ':';
  comma_ = false;
}

void Writer::u64(std::uint64_t v) {
  std::array<char, 24> buf;
  scalar(int_text(v, buf));
}

void Writer::i64(std::int64_t v) {
  std::array<char, 24> buf;
  scalar(int_text(v, buf));
}

void Writer::hex(double v) {
  separate();
  const auto digits = hex_digits(std::bit_cast<std::uint64_t>(v));
  out_ += '"';
  out_.append(digits.data(), digits.size());
  out_ += '"';
}

void Writer::string(std::string_view s) {
  separate();
  escape_string(s, out_);
}

// -- streaming reader ----------------------------------------------------------

void Reader::error(const std::string& what) const {
  fail(what + " at offset " + std::to_string(pos_));
}

char Reader::peek() const {
  if (pos_ >= text_.size()) error("unexpected end of input");
  return text_[pos_];
}

void Reader::expect(char c) {
  if (peek() != c) error(std::string("expected '") + c + "'");
  ++pos_;
}

void Reader::separate() {
  if (comma_) expect(',');
  comma_ = true;
}

void Reader::open(char c) {
  separate();
  expect(c);
  comma_ = false;
}

void Reader::close(char c) {
  expect(c);
  comma_ = true;
}

bool Reader::next() {
  if (peek() == ']') {
    ++pos_;
    comma_ = true;
    return false;
  }
  return true;
}

void Reader::key(std::string_view name) {
  separate();
  const std::size_t at = pos_;
  if (text_.size() - pos_ < name.size() + 3 || text_[pos_] != '"' ||
      text_.compare(pos_ + 1, name.size(), name) != 0 ||
      text_[pos_ + 1 + name.size()] != '"' ||
      text_[pos_ + 2 + name.size()] != ':') {
    error("expected key \"" + std::string(name) + "\"");
  }
  pos_ = at + name.size() + 3;
  comma_ = false;
}

bool Reader::optional_key(std::string_view name) {
  if (peek() == '}') return false;
  key(name);
  return true;
}

std::uint64_t Reader::u64() {
  separate();
  // Canonical: "0" or a digit string without a leading zero.
  const char first = peek();
  if (first < '0' || first > '9') error("expected an unsigned integer");
  std::uint64_t v = 0;
  const char* begin = text_.data() + pos_;
  const char* end = text_.data() + text_.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc()) error("integer out of range");
  if (first == '0' && ptr - begin > 1) error("integer has a leading zero");
  pos_ += static_cast<std::size_t>(ptr - begin);
  return v;
}

std::int64_t Reader::i64() {
  separate();
  const bool negative = peek() == '-';
  const std::size_t digits = pos_ + (negative ? 1 : 0);
  if (digits >= text_.size() || text_[digits] < '0' || text_[digits] > '9') {
    error("expected an integer");
  }
  // Canonical: no leading zero, and zero is never "-0".
  if (text_[digits] == '0' && (negative || (digits + 1 < text_.size() &&
                                            text_[digits + 1] >= '0' &&
                                            text_[digits + 1] <= '9'))) {
    error("integer is not in canonical form");
  }
  std::int64_t v = 0;
  const char* begin = text_.data() + pos_;
  const char* end = text_.data() + text_.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc()) error("integer out of range");
  pos_ += static_cast<std::size_t>(ptr - begin);
  return v;
}

double Reader::hex() {
  separate();
  // Canonical: '"' + exactly 16 lowercase hex digits + '"'.
  if (text_.size() - pos_ < 18 || text_[pos_] != '"' ||
      text_[pos_ + 17] != '"') {
    error("expected a 16-digit hex double");
  }
  std::uint64_t bits = 0;
  int bad = 0;
  for (std::size_t i = pos_ + 1; i < pos_ + 17; ++i) {
    const int n = kLowerHex[static_cast<unsigned char>(text_[i])];
    bad |= n;  // any -1 sets the sign bit
    bits = (bits << 4) | static_cast<std::uint64_t>(n & 0xF);
  }
  if (bad < 0) error("bad digit in hex double");
  pos_ += 18;
  return std::bit_cast<double>(bits);
}

std::string Reader::string() {
  separate();
  expect('"');
  std::string out;
  while (true) {
    // The run of verbatim bytes up to the next quote, escape or control
    // character, appended in one piece.
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    out.append(text_.data() + run, pos_ - run);
    const char c = peek();
    if (c == '"') break;
    if (c != '\\') error("unescaped control character in string");
    ++pos_;
    // Exactly the escapes escape_string emits, nothing else.
    switch (peek()) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // \u00XX, lowercase, only for control characters without a
        // short escape.
        int code = -1;
        if (text_.size() - pos_ >= 5 && text_.compare(pos_, 3, "u00") == 0 &&
            (text_[pos_ + 3] == '0' || text_[pos_ + 3] == '1')) {
          const int low = kLowerHex[static_cast<unsigned char>(text_[pos_ + 4])];
          if (low >= 0) code = (text_[pos_ + 3] - '0') * 16 + low;
        }
        if (code < 0 || code == '\n' || code == '\r' || code == '\t') {
          error("non-canonical \\u escape");
        }
        out += static_cast<char>(code);
        pos_ += 4;
        break;
      }
      default: error("non-canonical string escape");
    }
    ++pos_;
  }
  ++pos_;  // the closing quote
  return out;
}

bool Reader::boolean() {
  separate();
  for (const bool b : {true, false}) {
    const std::string_view word = b ? "true" : "false";
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return b;
    }
  }
  error("expected a boolean");
}

std::string_view Reader::skip_value() {
  separate();
  const std::size_t start = pos_;
  const char* const begin = text_.data();
  const char* const end = begin + text_.size();
  const char* p = begin + pos_;
  auto fail_at = [&](const char* at, const char* what) {
    pos_ = static_cast<std::size_t>(at - begin);
    error(what);
  };
  // Structure only, in one tight pass: brackets balance and nest in kind,
  // strings terminate.  The grammar of what lies between is left to the
  // reader that decodes the span.  The fixed bracket stack bounds hostile
  // nesting.
  constexpr std::size_t kMaxDepth = 64;
  char closers[kMaxDepth];
  std::size_t depth = 0;
  do {
    if (p == end) fail_at(p, "unexpected end of input");
    const char c = *p++;
    switch (c) {
      case '{':
      case '[':
        if (depth == kMaxDepth) fail_at(p - 1, "document nested too deeply");
        closers[depth++] = c == '{' ? '}' : ']';
        break;
      case '}':
      case ']':
        if (depth == 0 || closers[--depth] != c) {
          fail_at(p - 1, "mismatched bracket");
        }
        break;
      case '"':
        // To the closing quote, stepping over escaped characters.
        while (true) {
          if (p == end) fail_at(p, "unterminated string");
          const char d = *p++;
          if (d == '"') break;
          if (d == '\\') {
            if (p == end) fail_at(p, "unterminated string");
            ++p;
          }
        }
        break;
      default:
        if (depth > 0) break;
        // A bare scalar: it runs to the next delimiter.
        if (c == ',' || c == ':') fail_at(p - 1, "expected a value");
        while (p != end && *p != ',' && *p != '}' && *p != ']') ++p;
    }
  } while (depth > 0);
  pos_ = static_cast<std::size_t>(p - begin);
  return text_.substr(start, pos_ - start);
}

void Reader::finish() {
  if (pos_ != text_.size()) error("trailing content");
}

// -- parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing content");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  void expect_char(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value::make_string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) error("bad literal");
      return Value::make_bool(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) error("bad literal");
      return Value::make_bool(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) error("bad literal");
      return Value::make_null();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    error("unexpected character");
  }

  // Objects and arrays collect their children on a parser-owned scratch
  // stack (nested containers stack above their parent's entries), then
  // move them into a vector of exactly the right size.
  Value parse_object() {
    expect_char('{');
    const std::size_t mark = members_.size();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object();
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect_char(':');
      Value v = parse_value();
      members_.emplace_back(std::move(key), std::move(v));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value::make_object(take(members_, mark));
      }
      error("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect_char('[');
    const std::size_t mark = items_.size();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array();
    }
    while (true) {
      Value v = parse_value();
      items_.push_back(std::move(v));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value::make_array(take(items_, mark));
      }
      error("expected ',' or ']'");
    }
  }

  /// Moves stack[mark..] into an exact-size vector and pops it.
  template <typename T>
  static std::vector<T> take(std::vector<T>& stack, std::size_t mark) {
    std::vector<T> out(std::make_move_iterator(stack.begin() + mark),
                       std::make_move_iterator(stack.end()));
    stack.resize(mark);
    return out;
  }

  std::string parse_string() {
    expect_char('"');
    std::string out;
    std::size_t run = pos_;  // start of the pending run of verbatim bytes
    while (true) {
      if (pos_ >= text_.size()) error("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        out.append(text_.data() + run, pos_ - run);
        ++pos_;
        return out;
      }
      if (c != '\\') {
        ++pos_;
        continue;
      }
      out.append(text_.data() + run, pos_ - run);
      ++pos_;
      if (pos_ >= text_.size()) error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int n = nibble(text_[pos_++]);
            if (n < 0) error("bad \\u escape");
            code = (code << 4) | static_cast<unsigned>(n);
          }
          // The shard files only ever escape control characters; encode
          // the BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: error("bad escape");
      }
      run = pos_;
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      error("bad number");
    }
    return Value::make_raw_number(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Items items_;      ///< scratch stack of pending array elements
  Members members_;  ///< scratch stack of pending object members
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

// -- bit-exact double transport ----------------------------------------------

std::string double_to_hex(double v) {
  const auto digits = hex_digits(std::bit_cast<std::uint64_t>(v));
  return std::string(digits.data(), digits.size());
}

double hex_to_double(std::string_view hex) {
  if (hex.size() != 16) fail("hex double must be 16 digits");
  std::uint64_t bits = 0;
  for (const char c : hex) {
    const int n = nibble(c);
    if (n < 0) fail("bad hex digit in double");
    bits = (bits << 4) | static_cast<std::uint64_t>(n);
  }
  return std::bit_cast<double>(bits);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dufp::json
