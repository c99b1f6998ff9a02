#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file json.hpp
/// Minimal JSON value + parser + writer for the wormrtd wire protocol
/// (newline-delimited JSON objects) and the metrics registry's JSON
/// exposition (obs::Registry::to_json).  Self-contained on purpose: the
/// container bakes no JSON library, and the protocol needs only objects,
/// arrays, strings, 64-bit integers, doubles, booleans, and null.
///
/// Integers are kept exact (std::int64_t) rather than routed through
/// double — handles and flit times are int64 end to end.

namespace wormrt::util {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(std::int64_t i) : type_(Type::kInt), int_(i) {}
  Json(int i) : type_(Type::kInt), int_(i) {}
  Json(double d) : type_(Type::kDouble), double_(d) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_number() const { return type_ == Type::kInt || type_ == Type::kDouble; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  /// A double truncates toward zero; one int64 cannot hold (the cast
  /// would be undefined) reads as \p fallback, as NaN does.
  std::int64_t as_int(std::int64_t fallback = 0) const {
    if (type_ == Type::kInt) return int_;
    if (type_ == Type::kDouble && double_ >= -0x1p63 && double_ < 0x1p63) {
      return static_cast<std::int64_t>(double_);
    }
    return fallback;
  }
  double as_double(double fallback = 0.0) const {
    if (type_ == Type::kDouble) return double_;
    if (type_ == Type::kInt) return static_cast<double>(int_);
    return fallback;
  }
  const std::string& as_string() const { return string_; }

  /// Array access.
  const std::vector<Json>& items() const { return array_; }
  void push_back(Json v) { array_.push_back(std::move(v)); }
  std::size_t size() const {
    return is_array() ? array_.size() : members_.size();
  }

  /// Object access: member lookup (nullptr when absent) and insertion.
  const Json* get(const std::string& key) const;
  void set(std::string key, Json value);
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Compact single-line serialization (never emits raw newlines, so a
  /// dumped value is always exactly one protocol line).
  std::string dump() const;

  /// Parses one JSON document.  On failure returns a null value and sets
  /// \p error to "offset N: what went wrong"; \p error is cleared on
  /// success.  Trailing whitespace is allowed, trailing garbage is not.
  static Json parse(const std::string& text, std::string* error);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace wormrt::util
