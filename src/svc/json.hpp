#pragma once

#include "util/json.hpp"

/// \file json.hpp
/// The wire protocol's JSON value, util::Json, under the name the
/// service, its clients and their tests use.

namespace wormrt::svc {

using Json = util::Json;

}  // namespace wormrt::svc
