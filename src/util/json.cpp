#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace autoncs::util {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // %g never emits a JSON-illegal token for finite doubles, but a bare
  // integer like "1" is fine, so no fixup is needed beyond this.
  return buf;
}

JsonWriter::JsonWriter() = default;

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_.empty()) return;
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  comma();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& text) {
  comma();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string(text));
}

JsonWriter& JsonWriter::value(double number) {
  comma();
  out_ += json_number(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::size_t number) {
  comma();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(long long number) {
  comma();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  comma();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

namespace {

/// Recursive-descent parser over [pos, text.size()): each production
/// fills the value it parsed.
class Parser {
 public:
  Parser(const std::string& text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  bool parse(JsonValue& out) {
    if (limits_.max_bytes != 0 && text_.size() > limits_.max_bytes)
      return false;
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value(JsonValue& out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JsonValue::Kind::kString; return string(out.string_value);
      case 't': out.kind = JsonValue::Kind::kBool; out.bool_value = true;
                return literal("true");
      case 'f': out.kind = JsonValue::Kind::kBool; out.bool_value = false;
                return literal("false");
      case 'n': out.kind = JsonValue::Kind::kNull; return literal("null");
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    if (static_cast<std::size_t>(depth_) >= limits_.max_depth) return false;
    out.kind = JsonValue::Kind::kObject;
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; --depth_; return true; }
    for (;;) {
      skip_ws();
      std::string key;
      if (peek() != '"' || !string(key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(member)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; --depth_; return true; }
      return false;
    }
  }

  bool array(JsonValue& out) {
    if (static_cast<std::size_t>(depth_) >= limits_.max_depth) return false;
    out.kind = JsonValue::Kind::kArray;
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; --depth_; return true; }
    for (;;) {
      skip_ws();
      JsonValue item;
      if (!value(item)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; --depth_; return true; }
      return false;
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              ++pos_;
              if (pos_ >= text_.size()) return false;
              const char h = text_[pos_];
              unsigned digit = 0;
              if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') digit = static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') digit = static_cast<unsigned>(h - 'A' + 10);
              else return false;
              code = code * 16 + digit;
            }
            // Minimal UTF-8 encoding (surrogate pairs are not combined —
            // the writer only ever emits \u00xx for control characters).
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
          default: return false;
        }
        ++pos_;
        continue;
      }
      out += static_cast<char>(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    } else {
      return false;
    }
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number_value = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                   nullptr);
    return true;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  const JsonLimits& limits_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool json_valid(const std::string& text) {
  return json_valid(text, JsonLimits{});
}

bool json_valid(const std::string& text, const JsonLimits& limits) {
  JsonValue scratch;
  return json_parse(text, scratch, limits);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, member] : members) {
    if (name == key) return &member;
  }
  return nullptr;
}

bool json_parse(const std::string& text, JsonValue& out) {
  return json_parse(text, out, JsonLimits{});
}

bool json_parse(const std::string& text, JsonValue& out,
                const JsonLimits& limits) {
  out = JsonValue{};
  return Parser(text, limits).parse(out);
}

bool json_read(const JsonValue* v, std::size_t& out) {
  // The largest size rounds up to 2^64 as a double, the first whole
  // number past the range (a size_t cast of it or beyond is undefined).
  constexpr double kSizeLimit =
      static_cast<double>(std::numeric_limits<std::size_t>::max());
  if (v == nullptr || !v->is_number() || v->number_value < 0.0 ||
      v->number_value != std::floor(v->number_value) ||
      !(v->number_value < kSizeLimit))
    return false;
  out = static_cast<std::size_t>(v->number_value);
  return true;
}

bool json_read(const JsonValue* v, double& out) {
  if (v != nullptr && v->kind == JsonValue::Kind::kNull) {
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (v == nullptr || !v->is_number()) return false;
  out = v->number_value;
  return true;
}

bool json_read(const JsonValue* v, bool& out) {
  if (v == nullptr || !v->is_bool()) return false;
  out = v->bool_value;
  return true;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace autoncs::util
