#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wormrt::util {

const Json* Json::get(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

void Json::set(std::string key, Json value) {
  type_ = Type::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Json& j, std::string& out) {
  switch (j.type()) {
    case Json::Type::kNull:
      out += "null";
      break;
    case Json::Type::kBool:
      out += j.as_bool() ? "true" : "false";
      break;
    case Json::Type::kInt:
      out += std::to_string(j.as_int());
      break;
    case Json::Type::kDouble: {
      const double d = j.as_double();
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no inf/nan
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
      break;
    }
    case Json::Type::kString:
      dump_string(j.as_string(), out);
      break;
    case Json::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : j.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(item, out);
      }
      out.push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : j.members()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        dump_value(v, out);
      }
      out.push_back('}');
      break;
    }
  }
}

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  Json run() {
    Json value = parse_value();
    if (failed_) {
      return Json();
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after document");
    }
    if (error_ != nullptr) {
      error_->clear();
    }
    return value;
  }

 private:
  /// Recursion cap for nested containers.  The parser is recursive
  /// descent, so without a cap one hostile line of 10^5 '[' characters
  /// overflows the daemon's stack — not an exception, not catchable.
  /// The protocol nests at most ~3 levels; 64 is generous.
  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool failed_ = false;

  Json fail(const std::string& what) {
    if (!failed_ && error_ != nullptr) {
      *error_ = "offset " + std::to_string(pos_) + ": " + what;
    }
    failed_ = true;
    return Json();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't') return literal("true") ? Json(true) : fail("bad literal");
    if (c == 'f') return literal("false") ? Json(false) : fail("bad literal");
    if (c == 'n') return literal("null") ? Json(nullptr) : fail("bad literal");
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    return fail("unexpected character");
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      return fail("malformed number");
    }
    if (integral) {
      // Exact int64 or a parse error: the protocol carries handles and
      // flit times as int64 end to end, so an out-of-range literal must
      // not silently degrade to a rounded double (and a partially
      // consumed token must not pass as a number).
      std::int64_t v = 0;
      const char* first = token.data();
      const char* last = token.data() + token.size();
      const auto [ptr, ec] = std::from_chars(first, last, v, 10);
      if (ec == std::errc::result_out_of_range) {
        return fail("integer out of range");
      }
      if (ec != std::errc() || ptr != last) {
        return fail("malformed number");
      }
      return Json(v);
    }
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return fail("malformed number");
    }
    if (!std::isfinite(d)) {
      return fail("number out of range");
    }
    return Json(d);
  }

  Json parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Json(std::move(out));
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          break;
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return fail("truncated \\u escape");
            }
            unsigned cp = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // UTF-8 encode the BMP codepoint (surrogate pairs are beyond
            // what the protocol ever carries; encode them raw).
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default:
            return fail("bad escape character");
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  Json parse_array() {
    ++pos_;  // '['
    if (++depth_ > kMaxDepth) {
      return fail("nesting too deep");
    }
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return arr;
    }
    for (;;) {
      Json v = parse_value();
      if (failed_) {
        return Json();
      }
      arr.push_back(std::move(v));
      skip_ws();
      if (consume(']')) {
        --depth_;
        return arr;
      }
      if (!consume(',')) {
        return fail("expected ',' or ']' in array");
      }
    }
  }

  Json parse_object() {
    ++pos_;  // '{'
    if (++depth_ > kMaxDepth) {
      return fail("nesting too deep");
    }
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected member name");
      }
      Json key = parse_string();
      if (failed_) {
        return Json();
      }
      skip_ws();
      if (!consume(':')) {
        return fail("expected ':' after member name");
      }
      Json v = parse_value();
      if (failed_) {
        return Json();
      }
      obj.set(key.as_string(), std::move(v));
      skip_ws();
      if (consume('}')) {
        --depth_;
        return obj;
      }
      if (!consume(',')) {
        return fail("expected ',' or '}' in object");
      }
    }
  }
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json Json::parse(const std::string& text, std::string* error) {
  Parser parser(text, error);
  return parser.run();
}

}  // namespace wormrt::util
