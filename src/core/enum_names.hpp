#pragma once
// One name table per enum. The header that declares an enum declares its
// table right beside it, as an overload found by argument-dependent lookup:
//
//   constexpr auto enum_names(RuleSet) {
//     return std::to_array<EnumName<RuleSet>>({{RuleSet::kNR, "NR"}, ...});
//   }
//
// to_string, the config wire format, the CLI and the serve protocol all
// read that one table, so a name is spelled once and cannot be written in
// one place and parsed differently in another.

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace pacds {

/// One row of an enum's name table.
template <typename E>
struct EnumName {
  E value;
  std::string_view name;
};

/// An enum with a name table: `enum_names(E)` returns one row per value.
template <typename E>
concept NamedEnum = std::is_enum_v<E> && requires(E value) {
  { enum_names(value) };
};

/// The table name of `value`; "?" for a value the table does not list.
template <NamedEnum E>
[[nodiscard]] constexpr std::string_view enum_name(E value) {
  for (const EnumName<E>& row : enum_names(value)) {
    if (row.value == value) return row.name;
  }
  return "?";
}

/// The value whose table name is `name`, or nullopt if no row matches.
template <NamedEnum E>
[[nodiscard]] constexpr std::optional<E> enum_from_name(std::string_view name) {
  for (const EnumName<E>& row : enum_names(E{})) {
    if (row.name == name) return row.value;
  }
  return std::nullopt;
}

/// Prints a named enum by its table name. An enum with a separate display
/// label (DrainModel) declares a plain to_string overload, which wins.
template <NamedEnum E>
[[nodiscard]] std::string to_string(E value) {
  return std::string(enum_name(value));
}

}  // namespace pacds
