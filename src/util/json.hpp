// Minimal JSON emission and parsing shared by the telemetry layer
// (Chrome trace export, metrics JSONL, run manifests), the checkpoints, the
// service protocol and the bench harness JSON artifacts. Writing is
// string-building only — no DOM. Reading has one strict RFC 8259 parser
// that builds a small DOM (json_parse); json_valid runs it into a scratch
// value, so the tests and tools that check an emitted artifact stays
// loadable accept exactly what the loaders accept.
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "util/fields.hpp"

namespace autoncs::util {

/// Escapes `text` for use inside a JSON string literal (quotes, backslash,
/// control characters). Does NOT add the surrounding quotes.
std::string json_escape(const std::string& text);

/// Formats a double as a JSON number token. Non-finite values (which JSON
/// cannot represent) are emitted as null. Round-trips exactly via %.17g.
std::string json_number(double value);

/// Incremental writer for nested objects/arrays. The caller is responsible
/// for balanced begin/end calls; keys are only legal inside objects. A
/// minimal state stack inserts commas automatically.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"name":` — must be followed by exactly one value.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);  // string value (escaped)
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(std::size_t number);
  JsonWriter& value(long long number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// Shorthand: key(name) followed by value(v).
  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  /// One frame per open container: true = expecting the first element.
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Parser hardening knobs. The parser rejects — never crashes on — input
/// exceeding these bounds, so it is safe to point at adversarial data
/// (network requests, user-supplied files). Its recursion depth is bounded
/// by max_depth, which keeps a deeply nested document from overflowing the
/// stack.
struct JsonLimits {
  /// Maximum container nesting depth. A document nested deeper is a parse
  /// error. Must be small enough that max_depth recursive frames fit the
  /// caller's stack (the historical default, 256, is conservative).
  std::size_t max_depth = 256;
  /// Maximum input size in bytes; 0 = unlimited. Checked before parsing,
  /// so an oversized document is rejected in O(1).
  std::size_t max_bytes = 0;
};

/// True iff `text` is one complete, valid JSON value (with optional
/// surrounding whitespace) within `limits`: json_parse into a discarded
/// value. Used by the tests and `autoncs validate-json` to check the
/// emitted artifacts.
bool json_valid(const std::string& text);
bool json_valid(const std::string& text, const JsonLimits& limits);

/// Minimal JSON DOM, the read-side counterpart of JsonWriter. Built for
/// loading back the artifacts this library writes (checkpoints, manifests):
/// numbers parse with strtod, so every %.17g double the writer emitted
/// round-trips bit-exactly, and object member order is preserved.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;  // array elements
  std::vector<std::pair<std::string, JsonValue>> members;  // object fields

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_bool() const { return kind == Kind::kBool; }

  /// First member named `key`, or nullptr (also when not an object).
  const JsonValue* find(const std::string& key) const;
};

/// Parses one complete JSON value (optional surrounding whitespace).
/// Returns false and leaves `out` unspecified on any syntax error or when
/// `text` exceeds `limits`.
bool json_parse(const std::string& text, JsonValue& out);
bool json_parse(const std::string& text, JsonValue& out,
                const JsonLimits& limits);

/// Typed reads of one value (`v` as JsonValue::find returns it, so nullptr
/// is a missing member). Each returns false when the value is missing or
/// of the wrong type: a size must be a non-negative whole number, and a
/// double also accepts null, which json_number writes for a non-finite
/// value (read back as NaN).
bool json_read(const JsonValue* v, std::size_t& out);
bool json_read(const JsonValue* v, double& out);
bool json_read(const JsonValue* v, bool& out);
bool json_read(const JsonValue* v, std::string& out);

/// write_json of a record without the braces: its fields as members of
/// the object open in `w`, which may carry values derived from them.
template <class Record>
void write_fields(JsonWriter& w, const Record& record) {
  visit_fields(record, [&w](const char* name, const auto& field) {
    w.key(name);
    write_json(w, field);
  });
}

/// Writes `value` as JSON: a record (see util/fields.hpp) as an object with
/// one key per visited field in visit order, a string as a string, a
/// vector or array as an array, an enum as the text of enum_name(value)
/// (found by argument-dependent lookup), anything else through
/// JsonWriter::value.
template <class T>
void write_json(JsonWriter& w, const T& value) {
  if constexpr (Visitable<const T>) {
    w.begin_object();
    write_fields(w, value);
    w.end_object();
  } else if constexpr (std::is_enum_v<T>) {
    w.value(enum_name(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.value(value);
  } else if constexpr (requires { typename T::value_type; }) {
    w.begin_array();
    for (const auto& item : value) write_json(w, item);
    w.end_array();
  } else {
    w.value(value);
  }
}

/// The inverse of write_json (enums excepted: no record read back holds
/// one). Reads `v` (nullptr = missing) into `out`; a fixed-size array must
/// match its size. False, with `out` partly written, when anything is
/// missing or mistyped.
template <class T>
bool read_fields(const JsonValue* v, T& out) {
  if constexpr (Visitable<T>) {
    if (v == nullptr || !v->is_object()) return false;
    bool ok = true;
    visit_fields(out, [&](const char* name, auto& field) {
      ok = ok && read_fields(v->find(name), field);
    });
    return ok;
  } else if constexpr (std::is_same_v<T, std::string> ||
                       !requires { typename T::value_type; }) {
    return json_read(v, out);
  } else {
    if (v == nullptr || !v->is_array()) return false;
    if constexpr (requires { out.resize(0); }) out.resize(v->items.size());
    if (v->items.size() != out.size()) return false;
    for (std::size_t i = 0; i < out.size(); ++i)
      if (!read_fields(&v->items[i], out[i])) return false;
    return true;
  }
}

/// Writes `content` to `path`, returning false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace autoncs::util
