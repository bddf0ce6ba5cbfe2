#include "io/json_parse.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/json.hpp"

namespace pacds {
namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::runtime_error("parse_json: " + what + " at offset " +
                           std::to_string(offset));
}

constexpr std::size_t kMaxDepth = 256;  // recursion guard

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return value;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) {
      fail(pos_, std::string("expected '") + ch + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail(pos_, "invalid literal");
      default: return JsonValue(parse_number());
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonObject members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    while (true) {
      skip_whitespace();
      const std::size_t key_offset = pos_;
      std::string key = parse_string();
      // Duplicate keys are rejected outright: the wire formats built on this
      // parser (fault plans, fuzz reproducers, serve requests) treat object
      // keys as a schema, and a repeated key is how a validated value gets
      // smuggled past a reader that checks the first occurrence while a
      // last-wins consumer reads the second. Comparison is on the *decoded*
      // key, so the escaped spelling "\u0061" collides with a literal "a".
      for (const auto& [name, value] : members) {
        if (name == key) {
          fail(key_offset, "duplicate object key \"" + key + "\"");
        }
      }
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char ch = peek();
      ++pos_;
      if (ch == '}') return JsonValue(std::move(members));
      if (ch != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonArray items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char ch = peek();
      ++pos_;
      if (ch == ']') return JsonValue(std::move(items));
      if (ch != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (static_cast<unsigned char>(ch) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail(pos_ - 1, "invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail(pos_, "truncated \\u escape");
      const char ch = text_[pos_++];
      code <<= 4;
      if (ch >= '0' && ch <= '9') {
        code |= static_cast<unsigned>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        code |= static_cast<unsigned>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        code |= static_cast<unsigned>(ch - 'A' + 10);
      } else {
        fail(pos_ - 1, "invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: need the pair
      if (!consume_literal("\\u")) fail(pos_, "unpaired surrogate");
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail(pos_, "invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail(pos_, "unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      return count;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) fail(pos_, "invalid number");
    // JSON forbids leading zeros ("01"), unlike strtod.
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail(int_start, "leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(pos_, "digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail(pos_, "digits required in exponent");
    }
    // The token was validated above, so strtod on a NUL-terminated copy is
    // exact (string_view is not NUL-terminated).
    const std::string token(text_.substr(start, pos_ - start));
    return std::strtod(token.c_str(), nullptr);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) throw std::runtime_error("JsonValue: not a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) throw std::runtime_error("JsonValue: not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) throw std::runtime_error("JsonValue: not a string");
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::as_array() const {
  if (!is_array()) throw std::runtime_error("JsonValue: not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::as_object() const {
  if (!is_object()) throw std::runtime_error("JsonValue: not an object");
  return std::get<JsonObject>(value_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(path + ": cannot open file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_json(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_json(JsonWriter& writer, const JsonValue& value) {
  if (value.is_null()) {
    writer.null();
  } else if (value.is_bool()) {
    writer.value(value.as_bool());
  } else if (value.is_number()) {
    writer.value(value.as_number());
  } else if (value.is_string()) {
    writer.value(value.as_string());
  } else if (value.is_array()) {
    writer.begin_array();
    for (const JsonValue& item : value.as_array()) write_json(writer, item);
    writer.end_array();
  } else {
    writer.begin_object();
    for (const auto& [key, member] : value.as_object()) {
      writer.key(key);
      write_json(writer, member);
    }
    writer.end_object();
  }
}

}  // namespace pacds
