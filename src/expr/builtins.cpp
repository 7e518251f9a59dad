// Builtin function registry for DXG expressions, including the paper's
// currency_convert (Fig. 6) and a small standard library.
#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/json.h"
#include "expr/eval.h"

namespace knactor::expr {

using common::Error;
using common::Result;
using common::Value;

namespace {

// Units of currency per USD. Replaceable via set_currency_rates (tests and
// apps calibrate their own tables).
std::map<std::string, double>& currency_rates() {
  static std::map<std::string, double> rates = {
      {"USD", 1.0},  {"EUR", 0.92}, {"GBP", 0.79}, {"JPY", 157.0},
      {"CAD", 1.37}, {"CHF", 0.90}, {"CNY", 7.25}, {"AUD", 1.50},
  };
  return rates;
}

/// Bumped by every set_currency_rates: the table is the only input a
/// builtin reads besides its arguments.
std::uint64_t rates_generation = 0;

Error arity_error(const std::string& fn, std::size_t want, std::size_t got) {
  return Error::eval(fn + "() takes " + std::to_string(want) +
                     " argument(s), got " + std::to_string(got));
}

Result<Value> fn_currency_convert(const Args& args) {
  if (args.size() != 3) return arity_error("currency_convert", 3, args.size());
  // Null inputs mean "upstream not ready" — propagate.
  if (args[0].is_null() || args[1].is_null() || args[2].is_null()) {
    return Value(nullptr);
  }
  auto amount = args[0].try_number();
  auto from = args[1].try_string();
  auto to = args[2].try_string();
  if (!amount || !from || !to) {
    return Error::eval("currency_convert(amount, from, to) types invalid");
  }
  const auto& rates = currency_rates();
  auto from_it = rates.find(*from);
  auto to_it = rates.find(*to);
  if (from_it == rates.end()) {
    return Error::eval("currency_convert: unknown currency '" + *from + "'");
  }
  if (to_it == rates.end()) {
    return Error::eval("currency_convert: unknown currency '" + *to + "'");
  }
  return Value(*amount / from_it->second * to_it->second);
}

Result<Value> fn_len(const Args& args) {
  if (args.size() != 1) return arity_error("len", 1, args.size());
  const Value& v = args[0];
  if (v.is_string()) return Value(static_cast<std::int64_t>(v.as_string().size()));
  if (v.is_array()) return Value(static_cast<std::int64_t>(v.as_array().size()));
  if (v.is_object()) return Value(static_cast<std::int64_t>(v.as_object().size()));
  if (v.is_null()) return Value(nullptr);
  return Error::eval(std::string("len() of ") + v.type_name());
}

Result<Value> fn_str(const Args& args) {
  if (args.size() != 1) return arity_error("str", 1, args.size());
  const Value& v = args[0];
  if (v.is_string()) return v;
  return Value(common::to_json(v));
}

Result<Value> fn_int(const Args& args) {
  if (args.size() != 1) return arity_error("int", 1, args.size());
  const Value& v = args[0];
  if (v.is_int()) return v;
  if (v.is_double()) return Value(static_cast<std::int64_t>(v.as_double()));
  if (v.is_bool()) return Value(static_cast<std::int64_t>(v.as_bool()));
  if (v.is_string()) {
    try {
      return Value(static_cast<std::int64_t>(std::stoll(v.as_string())));
    } catch (...) {
      return Error::eval("int(): cannot parse '" + v.as_string() + "'");
    }
  }
  return Error::eval(std::string("int() of ") + v.type_name());
}

Result<Value> fn_float(const Args& args) {
  if (args.size() != 1) return arity_error("float", 1, args.size());
  const Value& v = args[0];
  if (v.is_double()) return v;
  if (v.is_int()) return Value(static_cast<double>(v.as_int()));
  if (v.is_string()) {
    try {
      return Value(std::stod(v.as_string()));
    } catch (...) {
      return Error::eval("float(): cannot parse '" + v.as_string() + "'");
    }
  }
  return Error::eval(std::string("float() of ") + v.type_name());
}

Result<Value> fn_round(const Args& args) {
  if (args.empty() || args.size() > 2) return arity_error("round", 2, args.size());
  auto x = args[0].try_number();
  if (!x) return Error::eval("round() needs a number");
  if (args.size() == 1) {
    return Value(static_cast<std::int64_t>(std::llround(*x)));
  }
  auto d = args[1].try_int();
  if (!d) return Error::eval("round() digits must be an int");
  double scale = std::pow(10.0, static_cast<double>(*d));
  return Value(std::round(*x * scale) / scale);
}

Result<Value> fn_abs(const Args& args) {
  if (args.size() != 1) return arity_error("abs", 1, args.size());
  if (args[0].is_int()) return Value(std::abs(args[0].as_int()));
  if (args[0].is_double()) return Value(std::fabs(args[0].as_double()));
  return Error::eval("abs() needs a number");
}

/// Validates a single list-of-numbers argument; reports element values and
/// whether all were ints.
Result<std::pair<std::vector<double>, bool>> numeric_list(
    const Args& args, const char* name) {
  if (args.size() != 1) return arity_error(name, 1, args.size());
  if (args[0].is_null()) {
    // Propagated "not ready" marker; caller maps empty+flag back to null.
    return std::pair<std::vector<double>, bool>{{}, false};
  }
  if (!args[0].is_array()) {
    return Error::eval(std::string(name) + "() needs a list");
  }
  std::vector<double> nums;
  bool all_int = true;
  for (const auto& v : args[0].as_array()) {
    auto n = v.try_number();
    if (!n) return Error::eval(std::string(name) + "(): non-numeric element");
    if (!v.is_int()) all_int = false;
    nums.push_back(*n);
  }
  return std::pair{std::move(nums), all_int};
}

Result<Value> fn_sum(const Args& args) {
  if (args.size() == 1 && args[0].is_null()) return Value(nullptr);
  KN_ASSIGN_OR_RETURN(auto nums, numeric_list(args, "sum"));
  double acc = 0;
  for (double n : nums.first) acc += n;
  if (nums.second) return Value(static_cast<std::int64_t>(acc));
  return Value(acc);
}

Result<Value> fn_min(const Args& args) {
  if (args.size() == 1 && args[0].is_null()) return Value(nullptr);
  KN_ASSIGN_OR_RETURN(auto nums, numeric_list(args, "min"));
  if (nums.first.empty()) return Error::eval("min() of empty list");
  double m = *std::min_element(nums.first.begin(), nums.first.end());
  if (nums.second) return Value(static_cast<std::int64_t>(m));
  return Value(m);
}

Result<Value> fn_max(const Args& args) {
  if (args.size() == 1 && args[0].is_null()) return Value(nullptr);
  KN_ASSIGN_OR_RETURN(auto nums, numeric_list(args, "max"));
  if (nums.first.empty()) return Error::eval("max() of empty list");
  double m = *std::max_element(nums.first.begin(), nums.first.end());
  if (nums.second) return Value(static_cast<std::int64_t>(m));
  return Value(m);
}

Result<Value> fn_avg(const Args& args) {
  if (args.size() == 1 && args[0].is_null()) return Value(nullptr);
  KN_ASSIGN_OR_RETURN(auto nums, numeric_list(args, "avg"));
  if (nums.first.empty()) return Error::eval("avg() of empty list");
  double acc = 0;
  for (double n : nums.first) acc += n;
  return Value(acc / static_cast<double>(nums.first.size()));
}

Result<Value> fn_upper(const Args& args) {
  if (args.size() != 1) return arity_error("upper", 1, args.size());
  auto s = args[0].try_string();
  if (!s) return Error::eval("upper() needs a string");
  std::string out = *s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return Value(std::move(out));
}

Result<Value> fn_lower(const Args& args) {
  if (args.size() != 1) return arity_error("lower", 1, args.size());
  auto s = args[0].try_string();
  if (!s) return Error::eval("lower() needs a string");
  std::string out = *s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return Value(std::move(out));
}

Result<Value> fn_concat(const Args& args) {
  std::string out;
  for (const auto& v : args) {
    if (v.is_null()) return Value(nullptr);
    out += v.is_string() ? v.as_string() : common::to_json(v);
  }
  return Value(std::move(out));
}

Result<Value> fn_contains(const Args& args) {
  if (args.size() != 2) return arity_error("contains", 2, args.size());
  const Value& container = args[0];
  const Value& needle = args[1];
  if (container.is_string() && needle.is_string()) {
    return Value(container.as_string().find(needle.as_string()) !=
                 std::string::npos);
  }
  if (container.is_array()) {
    for (const auto& v : container.as_array()) {
      if (v.is_number() && needle.is_number()) {
        if (v.as_number() == needle.as_number()) return Value(true);
      } else if (v == needle) {
        return Value(true);
      }
    }
    return Value(false);
  }
  if (container.is_object() && needle.is_string()) {
    return Value(container.as_object().contains(needle.as_string()));
  }
  return Error::eval("contains() needs (string|list|object, value)");
}

Result<Value> fn_keys(const Args& args) {
  if (args.size() != 1) return arity_error("keys", 1, args.size());
  if (!args[0].is_object()) return Error::eval("keys() needs an object");
  Value::Array out;
  for (const auto& [k, v] : args[0].as_object()) out.emplace_back(k);
  return Value(std::move(out));
}

Result<Value> fn_values(const Args& args) {
  if (args.size() != 1) return arity_error("values", 1, args.size());
  if (!args[0].is_object()) return Error::eval("values() needs an object");
  Value::Array out;
  for (const auto& [k, v] : args[0].as_object()) out.push_back(v);
  return Value(std::move(out));
}

Result<Value> fn_get(const Args& args) {
  if (args.size() != 2 && args.size() != 3) {
    return arity_error("get", 2, args.size());
  }
  Value fallback = args.size() == 3 ? args[2] : Value(nullptr);
  if (args[0].is_null()) return fallback;
  if (!args[0].is_object()) return Error::eval("get() needs an object");
  auto key = args[1].try_string();
  if (!key) return Error::eval("get() key must be a string");
  const Value* v = args[0].get(*key);
  return v == nullptr || v->is_null() ? fallback : *v;
}

Result<Value> fn_unique(const Args& args) {
  if (args.size() != 1) return arity_error("unique", 1, args.size());
  if (!args[0].is_array()) return Error::eval("unique() needs a list");
  Value::Array out;
  for (const auto& v : args[0].as_array()) {
    bool seen = false;
    for (const auto& u : out) {
      if (u == v) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(v);
  }
  return Value(std::move(out));
}

Result<Value> fn_sorted(const Args& args) {
  if (args.size() != 1) return arity_error("sorted", 1, args.size());
  if (!args[0].is_array()) return Error::eval("sorted() needs a list");
  Value::Array out = args[0].as_array();
  bool type_error = false;
  std::stable_sort(out.begin(), out.end(),
                   [&](const Value& a, const Value& b) {
                     if (a.is_number() && b.is_number()) {
                       return a.as_number() < b.as_number();
                     }
                     if (a.is_string() && b.is_string()) {
                       return a.as_string() < b.as_string();
                     }
                     type_error = true;
                     return false;
                   });
  if (type_error) return Error::eval("sorted(): unorderable elements");
  return Value(std::move(out));
}

Result<Value> fn_split(const Args& args) {
  if (args.size() != 2) return arity_error("split", 2, args.size());
  if (args[0].is_null()) return Value(nullptr);
  auto s = args[0].try_string();
  auto sep = args[1].try_string();
  if (!s || !sep || sep->empty()) {
    return Error::eval("split(string, separator) types invalid");
  }
  Value::Array out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s->find(*sep, start);
    if (pos == std::string::npos) {
      out.emplace_back(s->substr(start));
      break;
    }
    out.emplace_back(s->substr(start, pos - start));
    start = pos + sep->size();
  }
  return Value(std::move(out));
}

Result<Value> fn_join(const Args& args) {
  if (args.size() != 2) return arity_error("join", 2, args.size());
  if (args[0].is_null()) return Value(nullptr);
  auto sep = args[1].try_string();
  if (!args[0].is_array() || !sep) {
    return Error::eval("join(list, separator) types invalid");
  }
  std::string out;
  bool first = true;
  for (const auto& item : args[0].as_array()) {
    if (!first) out += *sep;
    first = false;
    out += item.is_string() ? item.as_string() : common::to_json(item);
  }
  return Value(std::move(out));
}

Result<Value> fn_replace(const Args& args) {
  if (args.size() != 3) return arity_error("replace", 3, args.size());
  if (args[0].is_null()) return Value(nullptr);
  auto s = args[0].try_string();
  auto from = args[1].try_string();
  auto to = args[2].try_string();
  if (!s || !from || !to || from->empty()) {
    return Error::eval("replace(string, from, to) types invalid");
  }
  std::string out = *s;
  std::size_t pos = 0;
  while ((pos = out.find(*from, pos)) != std::string::npos) {
    out.replace(pos, from->size(), *to);
    pos += to->size();
  }
  return Value(std::move(out));
}

Result<Value> fn_trim(const Args& args) {
  if (args.size() != 1) return arity_error("trim", 1, args.size());
  if (args[0].is_null()) return Value(nullptr);
  auto s = args[0].try_string();
  if (!s) return Error::eval("trim() needs a string");
  std::size_t b = s->find_first_not_of(" \t\r\n");
  std::size_t e = s->find_last_not_of(" \t\r\n");
  if (b == std::string::npos) return Value("");
  return Value(s->substr(b, e - b + 1));
}

Result<Value> fn_startswith(const Args& args) {
  if (args.size() != 2) return arity_error("startswith", 2, args.size());
  if (args[0].is_null()) return Value(nullptr);
  auto s = args[0].try_string();
  auto prefix = args[1].try_string();
  if (!s || !prefix) return Error::eval("startswith(string, prefix)");
  return Value(s->rfind(*prefix, 0) == 0);
}

Result<Value> fn_endswith(const Args& args) {
  if (args.size() != 2) return arity_error("endswith", 2, args.size());
  if (args[0].is_null()) return Value(nullptr);
  auto s = args[0].try_string();
  auto suffix = args[1].try_string();
  if (!s || !suffix) return Error::eval("endswith(string, suffix)");
  return Value(s->size() >= suffix->size() &&
               s->compare(s->size() - suffix->size(), suffix->size(),
                          *suffix) == 0);
}

}  // namespace

void FunctionRegistry::register_function(std::string name, Function fn) {
  functions_[std::move(name)] = std::move(fn);
}

const Function* FunctionRegistry::find(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

std::vector<std::string> FunctionRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(functions_.size());
  for (const auto& [k, v] : functions_) out.push_back(k);
  return out;
}

void FunctionRegistry::set_currency_rates(std::map<std::string, double> rates) {
  currency_rates() = std::move(rates);
  ++rates_generation;
}

std::uint64_t FunctionRegistry::currency_rates_generation() {
  return rates_generation;
}

const FunctionRegistry& FunctionRegistry::builtins() {
  static FunctionRegistry* registry = [] {
    auto* r = new FunctionRegistry();
    r->register_function("currency_convert", fn_currency_convert);
    r->register_function("len", fn_len);
    r->register_function("str", fn_str);
    r->register_function("int", fn_int);
    r->register_function("float", fn_float);
    r->register_function("round", fn_round);
    r->register_function("abs", fn_abs);
    r->register_function("sum", fn_sum);
    r->register_function("min", fn_min);
    r->register_function("max", fn_max);
    r->register_function("avg", fn_avg);
    r->register_function("upper", fn_upper);
    r->register_function("lower", fn_lower);
    r->register_function("concat", fn_concat);
    r->register_function("contains", fn_contains);
    r->register_function("keys", fn_keys);
    r->register_function("values", fn_values);
    r->register_function("get", fn_get);
    r->register_function("unique", fn_unique);
    r->register_function("sorted", fn_sorted);
    r->register_function("split", fn_split);
    r->register_function("join", fn_join);
    r->register_function("replace", fn_replace);
    r->register_function("trim", fn_trim);
    r->register_function("startswith", fn_startswith);
    r->register_function("endswith", fn_endswith);
    return r;
  }();
  return *registry;
}

}  // namespace knactor::expr
