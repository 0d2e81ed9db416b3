#pragma once
// The service protocol's JSON value is util::Json (util/json.hpp), which
// lives below ftbesst_obs so the observability exports can use it too. The
// service code and the benches spell it svc::Json.
#include "util/json.hpp"

namespace ftbesst::svc {
using util::Json;
using util::JsonArray;
using util::JsonObject;
}  // namespace ftbesst::svc
