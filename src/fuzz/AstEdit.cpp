//===- fuzz/AstEdit.cpp - Shared AST surgery helpers ----------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/AstEdit.h"

#include "lang/AstPrinter.h"
#include "lang/Sema.h"
#include "support/Casting.h"

using namespace ipcp;
using namespace ipcp::fuzz;

namespace {

void collectFromList(std::vector<Stmt *> *List,
                     std::function<void(std::vector<Stmt *>)> Set,
                     ProcId Owner, std::vector<StmtListRef> &Out) {
  Out.push_back({*List, std::move(Set), Owner});
  for (Stmt *S : *List) {
    if (auto *If = dyn_cast<IfStmt>(S)) {
      collectFromList(
          const_cast<std::vector<Stmt *> *>(&If->thenBody()),
          [If](std::vector<Stmt *> B) { If->setThenBody(std::move(B)); },
          Owner, Out);
      collectFromList(
          const_cast<std::vector<Stmt *> *>(&If->elseBody()),
          [If](std::vector<Stmt *> B) { If->setElseBody(std::move(B)); },
          Owner, Out);
    } else if (auto *Do = dyn_cast<DoLoopStmt>(S)) {
      collectFromList(
          const_cast<std::vector<Stmt *> *>(&Do->body()),
          [Do](std::vector<Stmt *> B) { Do->setBody(std::move(B)); }, Owner,
          Out);
    } else if (auto *While = dyn_cast<WhileStmt>(S)) {
      collectFromList(
          const_cast<std::vector<Stmt *> *>(&While->body()),
          [While](std::vector<Stmt *> B) { While->setBody(std::move(B)); },
          Owner, Out);
    }
  }
}

} // namespace

std::vector<StmtListRef> ipcp::fuzz::collectStmtLists(Program &Prog) {
  std::vector<StmtListRef> Out;
  for (ProcId P = 0, E = static_cast<ProcId>(Prog.Procs.size()); P != E;
       ++P) {
    Proc *Pr = Prog.Procs[P].get();
    collectFromList(
        &Pr->Body, [Pr](std::vector<Stmt *> B) { Pr->Body = std::move(B); },
        P, Out);
  }
  return Out;
}

std::string ipcp::fuzz::printProgram(const Program &Prog) {
  AstPrinter Printer;
  return Printer.programToString(Prog);
}

std::optional<std::string>
ipcp::fuzz::normalizeProgram(std::string_view Source) {
  auto Ctx = checkProgram(Source).Ctx;
  if (!Ctx)
    return std::nullopt;
  return printProgram(Ctx->program());
}
