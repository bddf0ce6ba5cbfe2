#pragma once
// Minimal JSON parser to a small value DOM — the read-side complement of
// JsonWriter. Exists so tests can validate every line the JSONL emitter
// produces and so bench_report can consume google-benchmark output without
// an external dependency. Strict RFC 8259 subset: one document per parse,
// objects kept as ordered key/value vectors. Duplicate object keys are a
// parse error (compared after escape decoding, so the escaped spelling
// "\u0061" collides with a literal "a"): every schema built on this parser
// treats keys as field names, and accepting repeats silently would let one
// validator see the first value while a downstream consumer reads the last.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pacds {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Object members in document order (insertion order round-trips).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// One parsed JSON value. Accessors throw std::runtime_error on a type
/// mismatch so test failures name the offense instead of crashing.
class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  explicit JsonValue(std::nullptr_t) : value_(nullptr) {}
  explicit JsonValue(bool flag) : value_(flag) {}
  explicit JsonValue(double number) : value_(number) {}
  explicit JsonValue(std::string text) : value_(std::move(text)) {}
  explicit JsonValue(JsonArray items) : value_(std::move(items)) {}
  explicit JsonValue(JsonObject members) : value_(std::move(members)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<JsonObject>(value_);
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// First member named `key`, or nullptr if absent / not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws std::runtime_error with a byte offset on
/// malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Reads `path` and parses it as one JSON document. Throws
/// std::runtime_error prefixed with the path on read or parse failure.
[[nodiscard]] JsonValue load_json_file(const std::string& path);

class JsonWriter;

/// Re-emits a parsed value through a JsonWriter positioned to accept a
/// value — lets tools transform documents while keeping one writer.
void write_json(JsonWriter& writer, const JsonValue& value);

/// The largest integer a JSON number carries without loss: every integer in
/// [0, 2^53 - 1] is an exact double, and a larger one either is not exact
/// or shares its double with a neighbour (2^53 + 1 parses as 2^53). Seeds
/// on the wire are bounded by it so they round-trip bit for bit.
inline constexpr double kMaxExactJsonInteger = 9007199254740991.0;

}  // namespace pacds
