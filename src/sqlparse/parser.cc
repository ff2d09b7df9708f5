#include "sqlparse/parser.h"

#include "common/string_util.h"
#include "sqlparse/lexer.h"

namespace hypre {
namespace sqlparse {

using reldb::CompareOp;
using reldb::ExprPtr;
using reldb::Value;

namespace {

/// Deepest nesting of '(' and NOT a predicate may use. Every level costs
/// four stack frames of recursive descent, so without a cap one request
/// with a few hundred thousand '(' overflows the stack; real preference
/// predicates nest a handful of levels.
constexpr size_t kMaxNestingDepth = 64;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprPtr> Parse() {
    HYPRE_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr(0));
    if (Peek().type != TokenType::kEnd) {
      return UnexpectedToken("end of input");
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(TokenType type) {
    if (Peek().type == type) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status UnexpectedToken(const std::string& expected) const {
    return Status::ParseError(StringFormat(
        "expected %s but found %s at offset %zu", expected.c_str(),
        TokenTypeToString(Peek().type), Peek().position));
  }

  // `depth` counts the '(' and NOT enclosing the current position.
  Result<ExprPtr> ParseOr(size_t depth) {
    HYPRE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd(depth));
    std::vector<ExprPtr> children{lhs};
    while (Match(TokenType::kOr)) {
      HYPRE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd(depth));
      children.push_back(std::move(rhs));
    }
    if (children.size() == 1) return children[0];
    return reldb::MakeOr(std::move(children));
  }

  Result<ExprPtr> ParseAnd(size_t depth) {
    HYPRE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary(depth));
    std::vector<ExprPtr> children{lhs};
    while (Match(TokenType::kAnd)) {
      HYPRE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary(depth));
      children.push_back(std::move(rhs));
    }
    if (children.size() == 1) return children[0];
    return reldb::MakeAnd(std::move(children));
  }

  Result<ExprPtr> ParseUnary(size_t depth) {
    if (depth > kMaxNestingDepth) {
      return Status::ParseError(StringFormat(
          "predicate nests deeper than %zu levels at offset %zu",
          kMaxNestingDepth, Peek().position));
    }
    if (Match(TokenType::kNot)) {
      HYPRE_ASSIGN_OR_RETURN(ExprPtr child, ParseUnary(depth + 1));
      return reldb::MakeNot(std::move(child));
    }
    return ParsePrimary(depth);
  }

  Result<ExprPtr> ParsePrimary(size_t depth) {
    if (Match(TokenType::kLParen)) {
      HYPRE_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr(depth + 1));
      if (!Match(TokenType::kRParen)) return UnexpectedToken("')'");
      return inner;
    }
    return ParsePredicateAtom();
  }

  bool IsLiteral(TokenType t) const {
    return t == TokenType::kInt || t == TokenType::kReal ||
           t == TokenType::kString;
  }

  Result<Value> ParseLiteral() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInt:
        Advance();
        return Value::Int(tok.int_value);
      case TokenType::kReal:
        Advance();
        return Value::Real(tok.real_value);
      case TokenType::kString:
        Advance();
        return Value::Str(tok.text);
      default:
        return UnexpectedToken("a literal");
    }
  }

  Result<ExprPtr> ParseColumnRef() {
    if (Peek().type != TokenType::kIdent) {
      return UnexpectedToken("a column name");
    }
    std::string first = Advance().text;
    if (Match(TokenType::kDot)) {
      if (Peek().type != TokenType::kIdent) {
        return UnexpectedToken("a column name after '.'");
      }
      std::string second = Advance().text;
      return reldb::Col(std::move(first), std::move(second));
    }
    return reldb::Col(std::move(first));
  }

  Result<ExprPtr> ParseOperand() {
    if (Peek().type == TokenType::kIdent) return ParseColumnRef();
    HYPRE_ASSIGN_OR_RETURN(Value v, ParseLiteral());
    return reldb::Lit(std::move(v));
  }

  Result<ExprPtr> ParsePredicateAtom() {
    HYPRE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseOperand());

    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kEq:
      case TokenType::kNe:
      case TokenType::kLt:
      case TokenType::kLe:
      case TokenType::kGt:
      case TokenType::kGe: {
        CompareOp op;
        switch (tok.type) {
          case TokenType::kEq:
            op = CompareOp::kEq;
            break;
          case TokenType::kNe:
            op = CompareOp::kNe;
            break;
          case TokenType::kLt:
            op = CompareOp::kLt;
            break;
          case TokenType::kLe:
            op = CompareOp::kLe;
            break;
          case TokenType::kGt:
            op = CompareOp::kGt;
            break;
          default:
            op = CompareOp::kGe;
            break;
        }
        Advance();
        HYPRE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseOperand());
        return reldb::Cmp(op, std::move(lhs), std::move(rhs));
      }
      case TokenType::kBetween: {
        Advance();
        HYPRE_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
        if (!Match(TokenType::kAnd)) return UnexpectedToken("AND");
        HYPRE_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
        return reldb::Between(std::move(lhs), std::move(lo), std::move(hi));
      }
      case TokenType::kIn: {
        Advance();
        if (!Match(TokenType::kLParen)) return UnexpectedToken("'('");
        std::vector<Value> values;
        do {
          HYPRE_ASSIGN_OR_RETURN(Value v, ParseLiteral());
          values.push_back(std::move(v));
        } while (Match(TokenType::kComma));
        if (!Match(TokenType::kRParen)) return UnexpectedToken("')'");
        return reldb::In(std::move(lhs), std::move(values));
      }
      default:
        return UnexpectedToken("a comparison operator, BETWEEN, or IN");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ExprPtr> ParsePredicate(const std::string& input) {
  HYPRE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace sqlparse
}  // namespace hypre
