#pragma once
// Field lists: one list of a JSON object's keys that its reader and its
// writer both walk, so no key is written without being read or read without
// being written. The SimConfig wire format, fault plans, fuzz corpus files
// and serve requests are all read through it. A struct opts in with
//
//   template <ConstOr<CrashSpec> S, typename Visit>
//   void fields(S& s, Visit&& visit) {
//     visit("node", s.node, Range{.lo = 0, .hi = 1e9, .required = true});
//     visit("recover_at", s.recover_at, Range{0, 1e15});
//   }
//
// in its own namespace, where argument-dependent lookup finds it. Each visit
// names a key (in written order), its member, and what the reader enforces
// beyond the member's type. Members are bools, doubles, strings, integers,
// enums with a name table, optionals (null = empty), vectors (arrays),
// structs with a field list (objects), or documents of their own: types
// with `read_document` / `write_document` overloads (SimConfig, FaultPlan),
// which keep their own checks and error prefix wherever they are nested and
// are told the key they sit under. Absent keys keep the caller's value
// unless required; unknown keys fail.

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/enum_names.hpp"
#include "io/json.hpp"
#include "io/json_parse.hpp"

namespace pacds {

/// The error context of one document: every schema error throws
/// std::runtime_error("<prefix><what> ..."), e.g. "fault plan: seed must be
/// ...".
class JsonReader {
 public:
  /// `prefix` ("fault plan: ") must outlive the reader.
  constexpr explicit JsonReader(std::string_view prefix) : prefix_(prefix) {}

  [[nodiscard]] constexpr std::string_view prefix() const noexcept {
    return prefix_;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(std::string(prefix_) + message);
  }

 private:
  std::string_view prefix_;
};

/// What a field list says about one key beyond its member's type.
struct Range {
  double lo = 0.0;  ///< inclusive bounds of an integer key
  double hi = 0.0;
  bool required = false;  ///< an absent key is an error
};

/// A required key with no integer bounds.
inline constexpr Range kRequired{0.0, 0.0, true};

/// The message for an integer key `what` outside `range`.
inline std::string integer_range_message(const std::string& what,
                                         Range range) {
  return what + " must be an integer in [" +
         std::to_string(static_cast<long long>(range.lo)) + ", " +
         std::to_string(static_cast<long long>(range.hi)) + "]";
}

/// `T` is `U` or `const U`: one field list serves the reader, which fills a
/// mutable struct, and the writer, which reads a const one.
template <typename T, typename U>
concept ConstOr = std::same_as<std::remove_const_t<T>, U>;

namespace detail {
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
struct IgnoreField {
  template <typename M>
  void operator()(const char*, const M&, Range = {}) const {}
};
template <typename T>
concept HasFields = requires(const T& object) {
  fields(object, IgnoreField{});
};
}  // namespace detail

template <typename T>
void write_fields(JsonWriter& json, const T& object);

/// Writes `field` as a JSON value.
template <typename T>
void write_value(JsonWriter& json, const T& field) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    json.value(field);
  } else if constexpr (std::is_enum_v<T>) {
    json.value(std::string(enum_name(field)));
  } else if constexpr (std::is_unsigned_v<T>) {
    json.value(static_cast<std::size_t>(field));
  } else if constexpr (std::is_integral_v<T>) {
    json.value(static_cast<std::int64_t>(field));
  } else if constexpr (detail::kIsOptional<T>) {
    if (field.has_value()) {
      write_value(json, *field);
    } else {
      json.null();
    }
  } else if constexpr (detail::kIsVector<T>) {
    json.begin_array();
    for (const auto& item : field) write_value(json, item);
    json.end_array();
  } else if constexpr (requires { write_document(json, field); }) {
    write_document(json, field);
  } else {
    write_fields(json, field);
  }
}

/// Writes `object` as the JSON object of its field list.
template <typename T>
void write_fields(JsonWriter& json, const T& object) {
  json.begin_object();
  fields(object, [&json](const char* key, const auto& member, Range = {}) {
    json.key(key);
    write_value(json, member);
  });
  json.end_object();
}

template <typename T>
void read_fields(const JsonReader& in, const JsonValue& value,
                 const std::string& what, T& object);

/// Reads `value` into `field`; `what` names it in errors ("config.n",
/// "crashes[0].at").
template <typename T>
void read_value(const JsonReader& in, const JsonValue& value,
                const std::string& what, T& field, Range range = {}) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!value.is_bool()) in.fail(what + " must be a boolean");
    field = value.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.is_string()) in.fail(what + " must be a string");
    field = value.as_string();
  } else if constexpr (std::is_enum_v<T>) {
    std::string name;
    read_value(in, value, what, name);
    const auto parsed = enum_from_name<T>(name);
    if (!parsed) in.fail(what + ": unknown value \"" + name + "\"");
    field = *parsed;
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (!value.is_number()) in.fail(what + " must be a number");
    // A document can spell 1e400, which parses as inf, and JsonWriter
    // writes inf as null: an accepted inf would write back out as a
    // document that no longer parses.
    const double raw = value.as_number();
    if (!std::isfinite(raw)) in.fail(what + " must be finite");
    if constexpr (std::is_integral_v<T>) {
      if (raw != std::floor(raw) || raw < range.lo || raw > range.hi) {
        in.fail(integer_range_message(what, range));
      }
    }
    field = static_cast<T>(raw);
  } else if constexpr (detail::kIsOptional<T>) {
    if (value.is_null()) {
      field.reset();
    } else {
      read_value(in, value, what, field.emplace(), range);
    }
  } else if constexpr (detail::kIsVector<T>) {
    if (!value.is_array()) in.fail(what + " must be an array");
    const JsonArray& items = value.as_array();
    field.clear();
    for (std::size_t i = 0; i < items.size(); ++i) {
      read_value(in, items[i], what + "[" + std::to_string(i) + "]",
                 field.emplace_back());
    }
  } else if constexpr (requires { read_document(in, value, what, field); }) {
    read_document(in, value, what, field);
  } else {
    read_fields(in, value, what, field);
  }
}

/// Reads the JSON object `value` into `object` through its field list. An
/// empty `what` is a document's top level, whose keys are named bare.
template <typename T>
void read_fields(const JsonReader& in, const JsonValue& value,
                 const std::string& what, T& object) {
  if (!value.is_object()) in.fail(what + " must be an object");
  for (const auto& [key, member] : value.as_object()) {
    bool known = false;
    fields(object, [&](const char* name, auto&& target, Range range = {}) {
      if (known || key != name) return;
      known = true;
      read_value(in, member, what.empty() ? key : what + "." + key, target,
                 range);
    });
    if (known) continue;
    in.fail(what.empty() ? "unknown top-level key \"" + key + "\""
                         : what + ": unknown key \"" + key + "\"");
  }
  fields(object, [&](const char* name, auto&&, Range range = {}) {
    if (range.required && value.find(name) == nullptr) {
      in.fail((what.empty() ? "" : what + " ") + "needs \"" + name + "\"");
    }
  });
}

/// The first integer member of `object`, or of a struct nested in it,
/// outside the range its field list declares, named as the reader names it
/// under `what` ("config.threads must be an integer in [0, 256]"), or "".
/// A struct built in code is held to the bounds a parsed one meets.
template <typename T>
std::string field_range_error(const T& object, const std::string& what) {
  std::string error;
  fields(object, [&](const char* key, const auto& member, Range range = {}) {
    using M = std::remove_cvref_t<decltype(member)>;
    if (!error.empty()) return;
    if constexpr (std::is_integral_v<M> && !std::is_same_v<M, bool>) {
      if (std::cmp_less(member, static_cast<std::int64_t>(range.lo)) ||
          std::cmp_greater(member, static_cast<std::int64_t>(range.hi))) {
        error = integer_range_message(what + "." + key, range);
      }
    } else if constexpr (detail::HasFields<M>) {
      error = field_range_error(member, what + "." + key);
    }
  });
  return error;
}

}  // namespace pacds
