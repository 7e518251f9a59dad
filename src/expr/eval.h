// Evaluator for the DXG expression language.
//
// Evaluation resolves root names (C, S, P, this, loop variables) against an
// Env, and function calls against a FunctionRegistry. Semantics follow
// Python where the grammar does: truthiness, short-circuit and/or returning
// operands, '+' concatenating strings and lists, 'in' membership, '=='
// comparing numbers across int/double.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "expr/ast.h"

namespace knactor::expr {

/// Name-resolution environment. The Cast integrator implements this over
/// its pass's working snapshot; tests use MapEnv. Evaluation borrows what
/// resolve() returns (it copies only the final result), so the pointed-to
/// values must stay unchanged for the duration of an evaluate() call.
class Env {
 public:
  virtual ~Env() = default;
  /// Resolves a root name to a value, or nullptr when unknown.
  [[nodiscard]] virtual const common::Value* resolve(
      const std::string& name) const = 0;
};

/// Env over an in-memory map, with optional chaining to a parent.
class MapEnv : public Env {
 public:
  MapEnv() = default;
  explicit MapEnv(const Env* parent) : parent_(parent) {}

  void bind(std::string name, common::Value v) {
    vars_[std::move(name)] = std::move(v);
  }

  [[nodiscard]] const common::Value* resolve(
      const std::string& name) const override {
    auto it = vars_.find(name);
    if (it != vars_.end()) return &it->second;
    return parent_ != nullptr ? parent_->resolve(name) : nullptr;
  }

 private:
  std::map<std::string, common::Value> vars_;
  const Env* parent_ = nullptr;
};

/// The evaluated arguments of one call, as a borrowed view: each argument
/// points into the caller's Env or into an evaluator temporary, and is
/// valid only for the duration of the call. A function must copy anything
/// it keeps.
class Args {
 public:
  /// Iterates the arguments as `const Value&`.
  class iterator {
   public:
    explicit iterator(const common::Value* const* at) : at_(at) {}
    const common::Value& operator*() const { return **at_; }
    iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator!=(const iterator& other) const { return at_ != other.at_; }

   private:
    const common::Value* const* at_;
  };

  explicit Args(const std::vector<const common::Value*>& values)
      : values_(values) {}

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  const common::Value& operator[](std::size_t i) const { return *values_[i]; }
  [[nodiscard]] iterator begin() const { return iterator(values_.data()); }
  [[nodiscard]] iterator end() const {
    return iterator(values_.data() + values_.size());
  }

 private:
  const std::vector<const common::Value*>& values_;
};

/// A builtin or user-registered function.
using Function = std::function<common::Result<common::Value>(const Args&)>;

/// Registry of callable functions. The default registry carries the
/// builtins the paper's DXG uses (currency_convert) plus a standard
/// library (len, sum, min, max, str, int, float, round, abs, upper, lower,
/// concat, keys, values, get, contains, unique, sorted, avg).
class FunctionRegistry {
 public:
  /// Registry preloaded with the builtins.
  static const FunctionRegistry& builtins();
  /// Empty registry (for sandboxed evaluation tests).
  FunctionRegistry() = default;

  void register_function(std::string name, Function fn);
  [[nodiscard]] const Function* find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Replaces the conversion-rate table used by currency_convert.
  /// Rates map currency code -> units per USD.
  static void set_currency_rates(std::map<std::string, double> rates);
  /// Counts set_currency_rates calls. The rate table is the only state a
  /// builtin reads besides its arguments, so a caller that memoizes
  /// results (the Cast integrator) invalidates them when this changes.
  static std::uint64_t currency_rates_generation();

 private:
  std::map<std::string, Function> functions_;
};

/// Evaluates an AST against an environment and function registry.
common::Result<common::Value> evaluate(const Node& node, const Env& env,
                                       const FunctionRegistry& functions);

/// Convenience: parse + evaluate in one call.
common::Result<common::Value> evaluate(std::string_view text, const Env& env,
                                       const FunctionRegistry& functions);

}  // namespace knactor::expr
