// Recursive-descent parser for SQL WHERE-clause predicates.
//
// HYPRE stores every preference as predicate text such as
//   dblp.venue="INFOCOM"
//   price BETWEEN 7000 AND 16000
//   make IN ('BMW', 'Honda')
//   (dblp.venue='VLDB' AND year>=2010) OR dblp_author.aid=128
// This parser turns that surface syntax into reldb expression ASTs; the
// inverse direction is Expr::ToString(), and ParsePredicate(expr.ToString())
// round-trips structurally (tested).
#pragma once

#include <string>

#include "common/status.h"
#include "reldb/expr.h"

namespace hypre {
namespace sqlparse {

/// \brief Parses a predicate string into an expression tree.
///
/// Grammar (operator precedence: NOT > AND > OR):
///   expr      := or_expr
///   or_expr   := and_expr (OR and_expr)*
///   and_expr  := unary (AND unary)*
///   unary     := NOT unary | primary
///   primary   := '(' expr ')' | predicate
///   predicate := operand cmp operand
///             |  column BETWEEN literal AND literal
///             |  column IN '(' literal (',' literal)* ')'
///   operand   := column | literal
///   column    := IDENT ('.' IDENT)?
///
/// '(' and NOT may nest at most 64 levels deep; deeper input is a
/// ParseError rather than a stack overflow.
Result<reldb::ExprPtr> ParsePredicate(const std::string& input);

}  // namespace sqlparse
}  // namespace hypre
