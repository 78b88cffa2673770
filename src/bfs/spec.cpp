#include "bfs/spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace ent::bfs {

namespace {

// Characters with grammar meaning; they may not appear inside names or
// param keys. Values are free-form except for the pair separator.
constexpr std::string_view kReserved = ":/?&=";

bool valid_name(std::string_view token) {
  if (token.empty()) return false;
  return token.find_first_of(kReserved) == std::string_view::npos;
}

std::optional<EngineSpec> fail(SpecError* error, SpecError::Code code,
                               std::string message) {
  if (error != nullptr) {
    error->code = code;
    error->message = std::move(message);
  }
  return std::nullopt;
}

}  // namespace

const char* to_string(SpecError::Code code) {
  switch (code) {
    case SpecError::Code::kNone: return "none";
    case SpecError::Code::kEmptySpec: return "empty-spec";
    case SpecError::Code::kUnknownDecorator: return "unknown-decorator";
    case SpecError::Code::kDuplicateDecorator: return "duplicate-decorator";
    case SpecError::Code::kDecoratorOrder: return "decorator-order";
    case SpecError::Code::kBadName: return "bad-name";
    case SpecError::Code::kBadParam: return "bad-param";
    case SpecError::Code::kDuplicateParam: return "duplicate-param";
  }
  return "unknown";
}

std::optional<EngineSpec> EngineSpec::parse(std::string_view text,
                                            SpecError* error) {
  if (error != nullptr) *error = {};
  if (text.empty()) {
    return fail(error, SpecError::Code::kEmptySpec, "empty engine spec");
  }

  EngineSpec spec;

  // Decorator chain: every ':'-separated segment before the last must be a
  // known decorator, in canonical guarded-then-resilient order.
  std::string_view rest = text;
  for (std::size_t colon = rest.find(':'); colon != std::string_view::npos;
       colon = rest.find(':')) {
    const std::string_view segment = rest.substr(0, colon);
    if (segment != kGuardedDecorator && segment != kResilientDecorator) {
      return fail(error, SpecError::Code::kUnknownDecorator,
                  std::string("'").append(segment).append(
                      "' is not a decorator (expected guarded or resilient)"));
    }
    if (std::find(spec.decorators.begin(), spec.decorators.end(), segment) !=
        spec.decorators.end()) {
      return fail(error, SpecError::Code::kDuplicateDecorator,
                  "decorator '" + std::string(segment) + "' repeats");
    }
    if (segment == kGuardedDecorator && !spec.decorators.empty()) {
      // The only way decorators is non-empty here is a leading resilient.
      return fail(error, SpecError::Code::kDecoratorOrder,
                  "guards compose outside resilience: write "
                  "guarded:resilient:<core>, not resilient:guarded:<core>");
    }
    spec.decorators.emplace_back(segment);
    rest = rest.substr(colon + 1);
  }
  if (rest.empty()) {
    return fail(error, SpecError::Code::kEmptySpec,
                "decorator chain with no engine after it");
  }

  // Split off "?params" first, then "/program".
  std::string_view core = rest;
  std::string_view params;
  if (const std::size_t qmark = core.find('?');
      qmark != std::string_view::npos) {
    params = core.substr(qmark + 1);
    core = core.substr(0, qmark);
  }
  std::string_view base = core;
  std::string_view program;
  if (const std::size_t slash = core.find('/');
      slash != std::string_view::npos) {
    program = core.substr(slash + 1);
    base = core.substr(0, slash);
    if (!valid_name(program)) {
      return fail(error, SpecError::Code::kBadName,
                  "bad program name '" + std::string(program) + "'");
    }
  }
  if (!valid_name(base)) {
    return fail(error, SpecError::Code::kBadName,
                "bad engine name '" + std::string(base) + "'");
  }
  spec.base = std::string(base);
  spec.program = std::string(program);

  // Params: key=value pairs; '&' separates, keys unique and well-formed.
  while (!params.empty()) {
    const std::size_t amp = params.find('&');
    const std::string_view pair = params.substr(0, amp);
    params = amp == std::string_view::npos ? std::string_view{}
                                           : params.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return fail(error, SpecError::Code::kBadParam,
                  "param '" + std::string(pair) + "' is not key=value");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (!valid_name(key) || value.empty()) {
      return fail(error, SpecError::Code::kBadParam,
                  "param '" + std::string(pair) + "' has an empty or "
                  "malformed key or value");
    }
    if (spec.param(key).has_value()) {
      return fail(error, SpecError::Code::kDuplicateParam,
                  "param '" + std::string(key) + "' given twice");
    }
    spec.params.emplace_back(std::string(key), std::string(value));
  }

  return spec;
}

std::string EngineSpec::core() const {
  std::string s = base;
  if (!program.empty()) s += "/" + program;
  if (!params.empty()) {
    s += '?';
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i > 0) s += '&';
      s += params[i].first + "=" + params[i].second;
    }
  }
  return s;
}

std::string EngineSpec::to_string() const {
  std::string s;
  for (const std::string& d : decorators) s += d + ":";
  return s + core();
}

bool EngineSpec::decorated_with(std::string_view decorator) const {
  return std::find(decorators.begin(), decorators.end(), decorator) !=
         decorators.end();
}

std::optional<std::string> EngineSpec::param(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return std::nullopt;
}

double EngineSpec::param_double(std::string_view key, double fallback) const {
  const auto value = param(key);
  if (!value) return fallback;
  const char* begin = value->c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0') return fallback;
  return parsed;
}

EngineSpec EngineSpec::with_program(std::string_view new_program) const {
  EngineSpec out = *this;
  const std::string target =
      new_program == "bfs" ? std::string() : std::string(new_program);
  if (out.program != target) out.params.clear();
  out.program = target;
  return out;
}

}  // namespace ent::bfs
