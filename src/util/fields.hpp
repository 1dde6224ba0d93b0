// Field visitors. A record struct (an options block, a report, a
// checkpoint payload, a manifest section) lists its fields once, in a
// `visit_fields(record, f)` template next to the struct that calls
// f(name, member) for each field in a fixed order. Writers, readers and
// tests walk that list instead of typing the field names out again:
// util/json.hpp write_json writes a record as a JSON object, and
// read_fields, its exact inverse, reads it back.
//
// Each visitor binds every data member of its struct with one structured
// binding, so a member added to the struct without a visitor entry stops
// the build. A member deliberately left out is bound but not visited; the
// exclusions and their reasons are listed in autoncs/config.hpp.
#pragma once

#include <concepts>
#include <type_traits>

namespace autoncs::util {

/// `T` is `Record` or `const Record`: one visitor template serves both.
template <class T, class Record>
concept RecordOf = std::same_as<std::remove_const_t<T>, Record>;

/// A type with a visit_fields overload (found by argument-dependent
/// lookup).
template <class T>
concept Visitable = requires(T& record) {
  visit_fields(record, [](const char*, auto&) {});
};

}  // namespace autoncs::util
