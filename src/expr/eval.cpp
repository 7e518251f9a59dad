#include "expr/eval.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "expr/parser.h"

namespace knactor::expr {

using common::Error;
using common::Result;
using common::Value;

namespace {

Error eval_error(const std::string& msg) { return Error::eval(msg); }

/// Python-style equality: numbers compare by value across int/double;
/// everything else by type+structure.
bool values_equal(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) return a.as_number() == b.as_number();
  return a == b;
}

Result<int> compare_values(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) {
    double x = a.as_number();
    double y = b.as_number();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.is_string() && b.is_string()) {
    return a.as_string().compare(b.as_string()) < 0
               ? -1
               : (a.as_string() == b.as_string() ? 0 : 1);
  }
  return eval_error(std::string("cannot order ") + a.type_name() + " and " +
                    b.type_name());
}

/// One-slot scope for a comprehension's loop variable: binds the name to
/// the current item by pointer and defers every other name to the parent.
class LoopEnv : public Env {
 public:
  LoopEnv(const Env& parent, const std::string& name)
      : parent_(parent), name_(name) {}

  void bind(const Value* item) { item_ = item; }

  [[nodiscard]] const Value* resolve(const std::string& name) const override {
    return name == name_ ? item_ : parent_.resolve(name);
  }

 private:
  const Env& parent_;
  const std::string& name_;
  const Value* item_ = nullptr;
};

const Value kNull{};

class Evaluator {
 public:
  Evaluator(const Env& env, const FunctionRegistry& functions)
      : env_(env), functions_(functions) {}

  /// Evaluates `node` to an owned value: the only copy evaluation makes of
  /// data it reads from the Env is this final one.
  Result<Value> eval(const Node& node) {
    Value tmp;
    KN_ASSIGN_OR_RETURN(const Value* v, borrow(node, tmp));
    if (v == &tmp) return tmp;
    return *v;
  }

 private:
  /// Evaluates `node` without copying what it reads. Names resolve to the
  /// Env's own storage; attribute and index chains point into a borrowed
  /// base; a ternary passes its chosen branch through. Every other node is
  /// computed into `tmp`, and so is a field of a base that is itself a
  /// temporary. The result is valid while the Env and `tmp` are.
  Result<const Value*> borrow(const Node& node, Value& tmp) {
    switch (node.kind) {
      case NodeKind::kLiteral:
        return &node.literal;
      case NodeKind::kName: {
        const Value* v = env_.resolve(node.name);
        if (v == nullptr) {
          return eval_error("unknown name '" + node.name + "'");
        }
        return v;
      }
      case NodeKind::kAttribute: {
        KN_ASSIGN_OR_RETURN(const Value* base, borrow(*node.a, tmp));
        if (base->is_null()) {
          // Missing upstream state resolves to null rather than erroring:
          // Cast treats null results as "dependency not ready yet".
          return &kNull;
        }
        if (!base->is_object()) {
          return eval_error("cannot access attribute '" + node.name +
                            "' of " + base->type_name());
        }
        return field_of(base, base->get(node.name), tmp);
      }
      case NodeKind::kIndex: {
        KN_ASSIGN_OR_RETURN(const Value* base, borrow(*node.a, tmp));
        Value sub_tmp;
        KN_ASSIGN_OR_RETURN(const Value* sub, borrow(*node.b, sub_tmp));
        if (base->is_array()) {
          auto idx = sub->try_int();
          if (!idx) return eval_error("array index must be an int");
          std::int64_t i = *idx;
          auto n = static_cast<std::int64_t>(base->as_array().size());
          if (i < 0) i += n;  // Python negative indexing
          if (i < 0 || i >= n) return eval_error("array index out of range");
          return field_of(base,
                          &base->as_array()[static_cast<std::size_t>(i)], tmp);
        }
        if (base->is_object()) {
          auto key = sub->try_string();
          if (!key) return eval_error("object index must be a string");
          return field_of(base, base->get(*key), tmp);
        }
        if (base->is_string()) {
          auto idx = sub->try_int();
          if (!idx) return eval_error("string index must be an int");
          std::int64_t i = *idx;
          auto n = static_cast<std::int64_t>(base->as_string().size());
          if (i < 0) i += n;
          if (i < 0 || i >= n) return eval_error("string index out of range");
          tmp = Value(std::string(
              1, base->as_string()[static_cast<std::size_t>(i)]));
          return &tmp;
        }
        return eval_error(std::string("cannot index ") + base->type_name());
      }
      case NodeKind::kTernary: {
        Value cond_tmp;
        KN_ASSIGN_OR_RETURN(const Value* cond, borrow(*node.a, cond_tmp));
        // A null condition means the deciding state has not arrived:
        // neither branch is taken (the Cast integrator skips the mapping
        // until the dependency resolves).
        if (cond->is_null()) return &kNull;
        return borrow(cond->truthy() ? *node.b : *node.c, tmp);
      }
      default:
        break;
    }
    KN_ASSIGN_OR_RETURN(tmp, compute(node));
    return &tmp;
  }

  /// A member `field` of borrowed `base` (nullptr when absent). When the
  /// base is the temporary `tmp` itself, the field is moved out into it;
  /// `tmp` is a non-const object this evaluator owns, so the cast is safe.
  static const Value* field_of(const Value* base, const Value* field,
                               Value& tmp) {
    if (field == nullptr) return &kNull;
    if (base != &tmp) return field;
    Value out = std::move(*const_cast<Value*>(field));
    tmp = std::move(out);
    return &tmp;
  }

  /// Nodes that construct a new value.
  Result<Value> compute(const Node& node) {
    switch (node.kind) {
      case NodeKind::kCall: {
        const Function* fn = functions_.find(node.name);
        if (fn == nullptr) {
          return eval_error("unknown function '" + node.name + "'");
        }
        std::vector<Value> temps(node.args.size());
        std::vector<const Value*> args(node.args.size());
        for (std::size_t i = 0; i < node.args.size(); ++i) {
          KN_ASSIGN_OR_RETURN(args[i], borrow(*node.args[i], temps[i]));
        }
        return (*fn)(Args(args));
      }
      case NodeKind::kUnary: {
        Value tmp;
        KN_ASSIGN_OR_RETURN(const Value* v, borrow(*node.a, tmp));
        if (node.op == "not") return Value(!v->truthy());
        if (!v->is_number()) {
          return eval_error("unary '" + node.op + "' needs a number");
        }
        if (node.op == "-") {
          if (v->is_int()) return Value(-v->as_int());
          return Value(-v->as_double());
        }
        return *v;  // unary '+'
      }
      case NodeKind::kBinary:
        return eval_binary(node);
      case NodeKind::kList: {
        Value::Array arr;
        arr.reserve(node.args.size());
        for (const auto& item : node.args) {
          KN_ASSIGN_OR_RETURN(Value v, eval(*item));
          arr.push_back(std::move(v));
        }
        return Value(std::move(arr));
      }
      case NodeKind::kDict: {
        Value::Object obj;
        for (std::size_t i = 0; i < node.args.size(); ++i) {
          KN_ASSIGN_OR_RETURN(Value v, eval(*node.args[i]));
          obj.set(node.dict_keys[i], std::move(v));
        }
        return Value(std::move(obj));
      }
      case NodeKind::kListComp: {
        Value iter_tmp;
        KN_ASSIGN_OR_RETURN(const Value* iter, borrow(*node.a, iter_tmp));
        if (iter->is_null()) return Value(nullptr);  // dependency not ready
        if (!iter->is_array()) {
          return eval_error("comprehension iterable must be a list, got " +
                            std::string(iter->type_name()));
        }
        LoopEnv scope(env_, node.name);
        Evaluator inner(scope, functions_);
        Value::Array out;
        for (const auto& item : iter->as_array()) {
          scope.bind(&item);
          if (node.c) {
            Value keep_tmp;
            KN_ASSIGN_OR_RETURN(const Value* keep,
                                inner.borrow(*node.c, keep_tmp));
            if (!keep->truthy()) continue;
          }
          KN_ASSIGN_OR_RETURN(Value v, inner.eval(*node.b));
          out.push_back(std::move(v));
        }
        return Value(std::move(out));
      }
      default:
        break;
    }
    return eval_error("unhandled node kind");
  }

  Result<Value> eval_binary(const Node& node) {
    const std::string& op = node.op;
    Value lhs_tmp;
    KN_ASSIGN_OR_RETURN(const Value* lhs_ptr, borrow(*node.a, lhs_tmp));
    const Value& lhs = *lhs_ptr;
    if (op == "and") {
      if (!lhs.truthy()) return lhs;  // Python returns the operand
      return eval(*node.b);
    }
    if (op == "or") {
      if (lhs.truthy()) return lhs;
      return eval(*node.b);
    }

    Value rhs_tmp;
    KN_ASSIGN_OR_RETURN(const Value* rhs_ptr, borrow(*node.b, rhs_tmp));
    const Value& rhs = *rhs_ptr;

    if (op == "==") return Value(values_equal(lhs, rhs));
    if (op == "!=") return Value(!values_equal(lhs, rhs));
    if (op == "<" || op == "<=" || op == ">" || op == ">=") {
      // Null (missing upstream state) propagates through orderings: the
      // policy "cost > 1000" is *not ready* until cost arrives, rather
      // than false (which would prematurely commit the else-branch of a
      // conditional) or an error. Null is falsy, so log filters simply
      // drop records lacking the field.
      if (lhs.is_null() || rhs.is_null()) return Value(nullptr);
      KN_ASSIGN_OR_RETURN(int c, compare_values(lhs, rhs));
      if (op == "<") return Value(c < 0);
      if (op == "<=") return Value(c <= 0);
      if (op == ">") return Value(c > 0);
      return Value(c >= 0);
    }
    if (op == "in" || op == "not in") {
      bool found = false;
      if (rhs.is_array()) {
        for (const auto& item : rhs.as_array()) {
          if (values_equal(item, lhs)) {
            found = true;
            break;
          }
        }
      } else if (rhs.is_object()) {
        auto key = lhs.try_string();
        found = key && rhs.as_object().contains(*key);
      } else if (rhs.is_string() && lhs.is_string()) {
        found = rhs.as_string().find(lhs.as_string()) != std::string::npos;
      } else {
        return eval_error(std::string("'in' needs a container, got ") +
                          rhs.type_name());
      }
      return Value(op == "in" ? found : !found);
    }

    if (op == "+") {
      if (lhs.is_string() && rhs.is_string()) {
        return Value(lhs.as_string() + rhs.as_string());
      }
      if (lhs.is_array() && rhs.is_array()) {
        Value::Array out = lhs.as_array();
        for (const auto& v : rhs.as_array()) out.push_back(v);
        return Value(std::move(out));
      }
    }
    if (!lhs.is_number() || !rhs.is_number()) {
      // Null operands propagate: a mapping whose inputs are absent yields
      // null ("not ready") rather than an error.
      if (lhs.is_null() || rhs.is_null()) return Value(nullptr);
      return eval_error("operator '" + op + "' needs numbers, got " +
                        lhs.type_name() + " and " + rhs.type_name());
    }

    bool both_int = lhs.is_int() && rhs.is_int();
    if (op == "+") {
      if (both_int) return Value(lhs.as_int() + rhs.as_int());
      return Value(lhs.as_number() + rhs.as_number());
    }
    if (op == "-") {
      if (both_int) return Value(lhs.as_int() - rhs.as_int());
      return Value(lhs.as_number() - rhs.as_number());
    }
    if (op == "*") {
      if (both_int) return Value(lhs.as_int() * rhs.as_int());
      return Value(lhs.as_number() * rhs.as_number());
    }
    if (op == "/") {
      if (rhs.as_number() == 0.0) return eval_error("division by zero");
      return Value(lhs.as_number() / rhs.as_number());
    }
    if (op == "//") {
      if (rhs.as_number() == 0.0) return eval_error("division by zero");
      double q = std::floor(lhs.as_number() / rhs.as_number());
      if (both_int) return Value(static_cast<std::int64_t>(q));
      return Value(q);
    }
    if (op == "%") {
      if (rhs.as_number() == 0.0) return eval_error("modulo by zero");
      if (both_int) {
        // Python semantics: result has the sign of the divisor.
        std::int64_t r = lhs.as_int() % rhs.as_int();
        if (r != 0 && ((r < 0) != (rhs.as_int() < 0))) r += rhs.as_int();
        return Value(r);
      }
      double r = std::fmod(lhs.as_number(), rhs.as_number());
      if (r != 0 && ((r < 0) != (rhs.as_number() < 0))) r += rhs.as_number();
      return Value(r);
    }
    if (op == "**") {
      double p = std::pow(lhs.as_number(), rhs.as_number());
      if (both_int && rhs.as_int() >= 0 && std::abs(p) < 9.0e15) {
        return Value(static_cast<std::int64_t>(p));
      }
      return Value(p);
    }
    return eval_error("unknown operator '" + op + "'");
  }

  const Env& env_;
  const FunctionRegistry& functions_;
};

}  // namespace

Result<Value> evaluate(const Node& node, const Env& env,
                       const FunctionRegistry& functions) {
  return Evaluator(env, functions).eval(node);
}

Result<Value> evaluate(std::string_view text, const Env& env,
                       const FunctionRegistry& functions) {
  KN_ASSIGN_OR_RETURN(NodePtr node, parse(text));
  return Evaluator(env, functions).eval(*node);
}

}  // namespace knactor::expr
