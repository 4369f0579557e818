//===- tests/DeepPrograms.h - Programs nested to a chosen depth -*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generators for the three program shapes that once overflowed the
/// stack of every recursive walk over the AST: nested parentheses,
/// nested `if` blocks, and a flat left-deep operator chain. Each takes
/// the nesting depth its deepest node should have, as lang/Parser.h
/// counts it, so a test can build a program exactly at MaxAstDepth or
/// one level past it. The shape sits in `g(a)`, whose formal reaches a
/// call to `f`, so the jump functions are built over the deep
/// expression too.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_TESTS_DEEPPROGRAMS_H
#define IPCP_TESTS_DEEPPROGRAMS_H

#include <string>
#include <vector>

namespace ipcp {
namespace test {

/// A program whose `main` reads `y` and calls `g(y)`, where `g(a)` runs
/// \p Body and `f(v)` prints its argument.
inline std::string wrapInG(const std::string &Body) {
  return "proc main()\n  integer y\n  read y\n  call g(y)\nend\n"
         "proc g(a)\n  integer x\n" +
         Body + "end\nproc f(v)\n  print v\nend\n";
}

/// `x = ((...(a)...))`: the assignment is at depth 1, the outermost
/// parenthesis at 2, `a` at Depth.
inline std::string nestedParens(unsigned Depth) {
  unsigned K = Depth - 2;
  return wrapInG("  x = " + std::string(K, '(') + "a" + std::string(K, ')') +
                 "\n  call f(x)\n");
}

/// Depth - 2 nested `if (a > 0) then` blocks around `call f(a)`: the
/// innermost call is at depth Depth - 1, its argument at Depth.
inline std::string nestedIfs(unsigned Depth) {
  unsigned K = Depth - 2;
  std::string Body;
  for (unsigned I = 0; I != K; ++I)
    Body += "  if (a > 0) then\n";
  Body += "  call f(a)\n";
  for (unsigned I = 0; I != K; ++I)
    Body += "  end if\n";
  return wrapInG(Body);
}

/// `x = a + a + ... + a` with Depth - 1 terms: the left-deep chain's
/// root is at depth 2, its leftmost `a` at Depth.
inline std::string operatorChain(unsigned Depth) {
  std::string Expr = "a";
  for (unsigned I = 1; I != Depth - 1; ++I)
    Expr += " + a";
  return wrapInG("  x = " + Expr + "\n  call f(x)\n");
}

struct DeepShape {
  const char *Name;
  std::string (*Make)(unsigned Depth);
};

inline const std::vector<DeepShape> &deepShapes() {
  static const std::vector<DeepShape> Shapes = {
      {"parens", nestedParens},
      {"ifs", nestedIfs},
      {"chain", operatorChain},
  };
  return Shapes;
}

} // namespace test
} // namespace ipcp

#endif // IPCP_TESTS_DEEPPROGRAMS_H
