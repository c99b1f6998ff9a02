#pragma once

#include <cstdint>
#include <string>

#include "svc/json.hpp"

/// \file metrics_reply.hpp
/// Reads the "metrics" block of a METRICS reply, the block wormrt-top and
/// perfbench read, so the service tests assert counts where an operator
/// sees them.

namespace wormrt::svc::testing {

/// The child \p name of \p reply's "metrics" block whose label \p key
/// reads \p value (the first child when \p key is empty), or nullptr.
inline const Json* metric_child(const Json& reply, const std::string& name,
                                const std::string& key = "",
                                const std::string& value = "") {
  const Json* block = reply.get("metrics");
  const Json* list = block != nullptr ? block->get("metrics") : nullptr;
  if (list == nullptr || !list->is_array()) {
    return nullptr;
  }
  for (const Json& child : list->items()) {
    const Json* n = child.get("name");
    if (n == nullptr || !n->is_string() || n->as_string() != name) {
      continue;
    }
    const Json* labels = child.get("labels");
    const Json* label =
        key.empty() || labels == nullptr ? nullptr : labels->get(key);
    if (key.empty() || (label != nullptr && label->is_string() &&
                        label->as_string() == value)) {
      return &child;
    }
  }
  return nullptr;
}

/// A counter's or gauge's value, or a histogram's \p field, from
/// \p reply; -1 when the child or the field is absent.
inline std::int64_t metric_count(const Json& reply, const std::string& name,
                                 const std::string& key = "",
                                 const std::string& value = "",
                                 const char* field = "value") {
  const Json* child = metric_child(reply, name, key, value);
  const Json* v = child != nullptr ? child->get(field) : nullptr;
  return v != nullptr && v->is_number() ? v->as_int() : -1;
}

/// wormrt_requests_total{verb=\p verb} from \p reply.
inline std::int64_t verb_count(const Json& reply, const std::string& verb) {
  return metric_count(reply, "wormrt_requests_total", "verb", verb);
}

}  // namespace wormrt::svc::testing
