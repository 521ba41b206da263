//===- frontend/Parser.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Sema.h"
#include "support/Trace.h"

using namespace ipcp;

Parser::Parser(std::string_view Source, DiagnosticsEngine &Diags,
               ResourceGuard *Guard)
    : Diags(Diags), Guard(Guard) {
  Lexer Lex(Source, Diags);
  Tokens = Lex.lexAll();
  if (Guard) {
    if (Guard->limits().MaxParseDepth != 0)
      MaxDepth = Guard->limits().MaxParseDepth;
    // lexAll always appends Eof; only real tokens count.
    if (!Guard->checkTokens(Tokens.size() - 1)) {
      Diags.error(Tokens.front().Loc,
                  "input exceeds the token budget (limit " +
                      std::to_string(Guard->limits().MaxTokens) + ")");
      BudgetReported = true;
      Tokens.erase(Tokens.begin(), Tokens.end() - 1); // keep Eof only
    }
  }
}

bool Parser::atDepthLimit() {
  if (Depth < MaxDepth)
    return false;
  if (!BudgetReported) {
    BudgetReported = true;
    Diags.error(peek().Loc, "nesting too deep (parser depth limit " +
                                std::to_string(MaxDepth) + ")");
    if (Guard)
      Guard->trip("parse-depth", "frontend");
    abortParse();
  }
  return true;
}

void Parser::noteNode() {
  ++NodeCount;
  if (Guard && !Guard->checkAstNodes(NodeCount) && !BudgetReported) {
    BudgetReported = true;
    Diags.error(peek().Loc,
                "program exceeds the AST node budget (limit " +
                    std::to_string(Guard->limits().MaxAstNodes) + ")");
    abortParse();
  }
}

const Token &Parser::peekAhead() const {
  size_t Next = Index + 1;
  if (Next >= Tokens.size())
    Next = Tokens.size() - 1; // Eof
  return Tokens[Next];
}

Token Parser::consume() {
  Token Tok = Tokens[Index];
  if (!Tok.is(TokenKind::Eof))
    ++Index;
  return Tok;
}

bool Parser::match(TokenKind Kind) {
  if (!check(Kind))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (match(Kind))
    return true;
  Diags.error(peek().Loc, std::string("expected ") + tokenKindName(Kind) +
                              " " + Context + ", found " +
                              tokenKindName(peek().Kind));
  return false;
}

void Parser::syncToStmtBoundary() {
  while (!check(TokenKind::Eof)) {
    if (match(TokenKind::Semicolon))
      return;
    if (check(TokenKind::RBrace) || check(TokenKind::LBrace) ||
        check(TokenKind::KwProc) || check(TokenKind::KwGlobal))
      return;
    consume();
  }
}

void Parser::syncToTopLevel() {
  while (!check(TokenKind::Eof) && !check(TokenKind::KwProc) &&
         !check(TokenKind::KwGlobal))
    consume();
}

std::vector<DeclItem> Parser::parseDeclItems(bool AllowArrays) {
  std::vector<DeclItem> Items;
  do {
    Token Name = consume();
    if (!Name.is(TokenKind::Identifier)) {
      Diags.error(Name.Loc, "expected identifier in declaration, found " +
                                std::string(tokenKindName(Name.Kind)));
      return Items;
    }
    DeclItem Item;
    Item.Loc = Name.Loc;
    Item.Name = Name.Text;
    if (check(TokenKind::LBracket)) {
      consume();
      Token Size = consume();
      if (!Size.is(TokenKind::IntLiteral)) {
        Diags.error(Size.Loc, "expected integer literal array extent");
      } else if (Size.IntValue <= 0) {
        Diags.error(Size.Loc, "array extent must be positive");
      } else if (!AllowArrays) {
        Diags.error(Name.Loc,
                    "array '" + Item.Name + "' not allowed in this context");
      } else {
        Item.ArraySize = Size.IntValue;
      }
      expect(TokenKind::RBracket, "after array extent");
    }
    Items.push_back(std::move(Item));
  } while (match(TokenKind::Comma));
  return Items;
}

void Parser::parseGlobalDecl(Program &Prog) {
  GlobalDecl Decl;
  Decl.Loc = consume().Loc; // 'global'
  Decl.Items = parseDeclItems(/*AllowArrays=*/true);
  expect(TokenKind::Semicolon, "after global declaration");
  Prog.Globals.push_back(std::move(Decl));
}

void Parser::parseProcDecl(Program &Prog) {
  ProcDecl Decl;
  Decl.Loc = consume().Loc; // 'proc'
  Token Name = consume();
  if (!Name.is(TokenKind::Identifier)) {
    Diags.error(Name.Loc, "expected procedure name after 'proc'");
    syncToTopLevel();
    return;
  }
  Decl.Name = Name.Text;
  if (!expect(TokenKind::LParen, "after procedure name")) {
    syncToTopLevel();
    return;
  }
  if (!check(TokenKind::RParen))
    Decl.Params = parseDeclItems(/*AllowArrays=*/false);
  expect(TokenKind::RParen, "after parameter list");
  if (!check(TokenKind::LBrace)) {
    Diags.error(peek().Loc, "expected '{' to begin procedure body");
    syncToTopLevel();
    return;
  }
  Decl.Body = parseBlock();
  Prog.Procs.push_back(std::move(Decl));
}

std::unique_ptr<BlockStmt> Parser::parseBlock() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::LBrace, "to begin block");
  std::vector<StmtPtr> Stmts;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    // Stop when we fell off the end of a malformed body into a new
    // top-level declaration.
    if (check(TokenKind::KwProc) || check(TokenKind::KwGlobal))
      break;
    if (StmtPtr S = parseStmt())
      Stmts.push_back(std::move(S));
  }
  expect(TokenKind::RBrace, "to end block");
  return makeNode<BlockStmt>(Loc, std::move(Stmts));
}

StmtPtr Parser::parseStmt() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::KwVar: {
    consume();
    std::vector<DeclItem> Items = parseDeclItems(/*AllowArrays=*/true);
    expect(TokenKind::Semicolon, "after variable declaration");
    return makeNode<VarDeclStmt>(Loc, std::move(Items));
  }
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwDo:
    return parseDoLoop();
  case TokenKind::KwCall:
    return parseCall();
  case TokenKind::KwPrint: {
    consume();
    ExprPtr Value = parseExpr();
    expect(TokenKind::Semicolon, "after print statement");
    if (!Value)
      return nullptr;
    return makeNode<PrintStmt>(Loc, std::move(Value));
  }
  case TokenKind::KwRead: {
    consume();
    ExprPtr Target = parseLValue();
    expect(TokenKind::Semicolon, "after read statement");
    if (!Target)
      return nullptr;
    return makeNode<ReadStmt>(Loc, std::move(Target));
  }
  case TokenKind::KwReturn: {
    consume();
    expect(TokenKind::Semicolon, "after return statement");
    return makeNode<ReturnStmt>(Loc);
  }
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::Identifier:
    return parseAssign();
  default:
    Diags.error(Loc, std::string("expected statement, found ") +
                         tokenKindName(peek().Kind));
    syncToStmtBoundary();
    return nullptr;
  }
}

StmtPtr Parser::parseIf() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = consume().Loc; // 'if'
  expect(TokenKind::LParen, "after 'if'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  StmtPtr Then = parseBlock();
  StmtPtr Else;
  if (match(TokenKind::KwElse)) {
    if (check(TokenKind::KwIf))
      Else = parseIf();
    else
      Else = parseBlock();
  }
  if (!Cond || !Then)
    return nullptr;
  return makeNode<IfStmt>(Loc, std::move(Cond), std::move(Then),
                                  std::move(Else));
}

StmtPtr Parser::parseWhile() {
  SourceLoc Loc = consume().Loc; // 'while'
  expect(TokenKind::LParen, "after 'while'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  StmtPtr Body = parseBlock();
  if (!Cond || !Body)
    return nullptr;
  return makeNode<WhileStmt>(Loc, std::move(Cond), std::move(Body));
}

StmtPtr Parser::parseDoLoop() {
  SourceLoc Loc = consume().Loc; // 'do'
  Token IndVar = consume();
  if (!IndVar.is(TokenKind::Identifier)) {
    Diags.error(IndVar.Loc, "expected induction variable after 'do'");
    syncToStmtBoundary();
    return nullptr;
  }
  expect(TokenKind::Assign, "after do-loop induction variable");
  ExprPtr Lo = parseExpr();
  expect(TokenKind::Comma, "after do-loop lower bound");
  ExprPtr Hi = parseExpr();
  ExprPtr Step;
  if (match(TokenKind::Comma))
    Step = parseExpr();
  StmtPtr Body = parseBlock();
  if (!Lo || !Hi || !Body)
    return nullptr;
  return makeNode<DoLoopStmt>(Loc, IndVar.Text, std::move(Lo),
                                      std::move(Hi), std::move(Step),
                                      std::move(Body));
}

StmtPtr Parser::parseCall() {
  SourceLoc Loc = consume().Loc; // 'call'
  Token Callee = consume();
  if (!Callee.is(TokenKind::Identifier)) {
    Diags.error(Callee.Loc, "expected procedure name after 'call'");
    syncToStmtBoundary();
    return nullptr;
  }
  expect(TokenKind::LParen, "after callee name");
  std::vector<ExprPtr> Args;
  if (!check(TokenKind::RParen)) {
    do {
      if (ExprPtr Arg = parseExpr())
        Args.push_back(std::move(Arg));
      else
        break;
    } while (match(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "after call arguments");
  expect(TokenKind::Semicolon, "after call statement");
  return makeNode<CallStmt>(Loc, Callee.Text, std::move(Args));
}

StmtPtr Parser::parseAssign() {
  SourceLoc Loc = peek().Loc;
  ExprPtr Target = parseLValue();
  if (!Target) {
    syncToStmtBoundary();
    return nullptr;
  }
  if (!expect(TokenKind::Assign, "in assignment")) {
    syncToStmtBoundary();
    return nullptr;
  }
  ExprPtr Value = parseExpr();
  expect(TokenKind::Semicolon, "after assignment");
  if (!Value)
    return nullptr;
  return makeNode<AssignStmt>(Loc, std::move(Target),
                                      std::move(Value));
}

ExprPtr Parser::parseLValue() {
  Token Name = consume();
  if (!Name.is(TokenKind::Identifier)) {
    Diags.error(Name.Loc, "expected variable name, found " +
                              std::string(tokenKindName(Name.Kind)));
    return nullptr;
  }
  if (match(TokenKind::LBracket)) {
    ExprPtr Index = parseExpr();
    expect(TokenKind::RBracket, "after array subscript");
    if (!Index)
      return nullptr;
    return makeNode<ArrayRefExpr>(Name.Loc, Name.Text,
                                          std::move(Index));
  }
  return makeNode<VarRefExpr>(Name.Loc, Name.Text);
}

static std::optional<BinaryOp> relOpFor(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EqEq:
    return BinaryOp::CmpEq;
  case TokenKind::NotEq:
    return BinaryOp::CmpNe;
  case TokenKind::Less:
    return BinaryOp::CmpLt;
  case TokenKind::LessEq:
    return BinaryOp::CmpLe;
  case TokenKind::Greater:
    return BinaryOp::CmpGt;
  case TokenKind::GreaterEq:
    return BinaryOp::CmpGe;
  default:
    return std::nullopt;
  }
}

ExprPtr Parser::parseExpr() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  ExprPtr LHS = parseAddExpr();
  if (!LHS)
    return nullptr;
  if (auto Op = relOpFor(peek().Kind)) {
    SourceLoc Loc = consume().Loc;
    ExprPtr RHS = parseAddExpr();
    if (!RHS)
      return nullptr;
    return makeNode<BinaryExpr>(Loc, *Op, std::move(LHS),
                                        std::move(RHS));
  }
  return LHS;
}

ExprPtr Parser::parseAddExpr() {
  ExprPtr LHS = parseMulExpr();
  while (LHS && (check(TokenKind::Plus) || check(TokenKind::Minus))) {
    Token Op = consume();
    ExprPtr RHS = parseMulExpr();
    if (!RHS)
      return nullptr;
    BinaryOp Kind =
        Op.is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    LHS = makeNode<BinaryExpr>(Op.Loc, Kind, std::move(LHS),
                                       std::move(RHS));
  }
  return LHS;
}

ExprPtr Parser::parseMulExpr() {
  ExprPtr LHS = parseUnary();
  while (LHS && (check(TokenKind::Star) || check(TokenKind::Slash) ||
                 check(TokenKind::Percent))) {
    Token Op = consume();
    ExprPtr RHS = parseUnary();
    if (!RHS)
      return nullptr;
    BinaryOp Kind = Op.is(TokenKind::Star)    ? BinaryOp::Mul
                    : Op.is(TokenKind::Slash) ? BinaryOp::Div
                                              : BinaryOp::Mod;
    LHS = makeNode<BinaryExpr>(Op.Loc, Kind, std::move(LHS),
                                       std::move(RHS));
  }
  return LHS;
}

ExprPtr Parser::parseUnary() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = peek().Loc;
  if (match(TokenKind::Minus)) {
    // Fold a negated literal into a single literal so `-5` is a literal
    // constant for the literal jump function, as it would be in Fortran.
    if (check(TokenKind::IntLiteral)) {
      Token Lit = consume();
      return makeNode<IntLiteralExpr>(Loc, -Lit.IntValue);
    }
    ExprPtr Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return makeNode<UnaryExpr>(Loc, UnaryOp::Neg, std::move(Operand));
  }
  if (match(TokenKind::Not)) {
    ExprPtr Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return makeNode<UnaryExpr>(Loc, UnaryOp::Not, std::move(Operand));
  }
  if (check(TokenKind::IntLiteral)) {
    Token Lit = consume();
    return makeNode<IntLiteralExpr>(Loc, Lit.IntValue);
  }
  if (match(TokenKind::LParen)) {
    ExprPtr Inner = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return Inner;
  }
  if (check(TokenKind::Identifier))
    return parseLValue();
  Diags.error(Loc, std::string("expected expression, found ") +
                       tokenKindName(peek().Kind));
  consume();
  return nullptr;
}

Program Parser::parseProgram() {
  Program Prog;
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::KwGlobal)) {
      parseGlobalDecl(Prog);
    } else if (check(TokenKind::KwProc)) {
      parseProcDecl(Prog);
    } else {
      Diags.error(peek().Loc,
                  std::string("expected 'global' or 'proc' at top level, "
                              "found ") +
                      tokenKindName(peek().Kind));
      syncToTopLevel();
      if (check(TokenKind::Eof))
        break;
    }
  }
  return Prog;
}

std::optional<Program> ipcp::parseAndCheck(std::string_view Source,
                                           DiagnosticsEngine &Diags,
                                           bool RequireMain,
                                           ResourceGuard *Guard) {
  Program Prog;
  {
    ScopedTraceSpan ParseSpan("parse");
    Parser P(Source, Diags, Guard);
    Prog = P.parseProgram();
  }
  if (Diags.hasErrors())
    return std::nullopt;
  {
    ScopedTraceSpan SemaSpan("sema");
    Sema Checker(Diags);
    Checker.setRequireMain(RequireMain);
    Checker.check(Prog);
  }
  if (Diags.hasErrors())
    return std::nullopt;
  return Prog;
}
