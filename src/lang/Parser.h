//===- lang/Parser.h - MiniFort parser --------------------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniFort. See the grammar in README.md.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_LANG_PARSER_H
#define IPCP_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>

namespace ipcp {

/// The deepest nesting the parser accepts. Depth counts levels from a
/// procedure down: a statement in a procedure body is at depth 1, a
/// statement in the body of an if/do/while at depth d is at d + 1 (an
/// elseif is an if nested in the else block), an operand of a statement
/// or expression at depth d is at d + 1, and so is the inside of a
/// parenthesis at depth d. The parser counts it for the tree it builds,
/// left-deep operator chains included, so its own recursion and every
/// later recursive walk over the AST (Sema, AstPrinter, AstClone,
/// CfgBuilder, Interpreter, BytecodeCompiler, the jump functions built
/// from it) stay within a bounded stack. The deepest program in the
/// built-in suite, the fuzz corpus and the random-program generator
/// nests far less deep (README.md, "Input limits").
inline constexpr unsigned MaxAstDepth = 256;

/// Parses \p Source into an AST. Always returns a context; the caller must
/// check \p Diags for errors before trusting the tree. On a syntax error
/// the parser reports a diagnostic and resynchronizes at the next line.
/// Past MaxAstDepth it reports one diagnostic and stops parsing.
std::unique_ptr<AstContext> parseProgram(std::string_view Source,
                                         DiagnosticEngine &Diags);

} // namespace ipcp

#endif // IPCP_LANG_PARSER_H
