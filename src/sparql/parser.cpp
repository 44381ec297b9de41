#include "src/sparql/parser.h"

#include <memory>
#include <vector>

#include "src/sparql/lexer.h"

namespace wdpt::sparql {

namespace {

// Deepest nesting of parenthesised groups a query may have. The parser
// recurses once per level, so the cap turns a hostile query into a
// parse error instead of a stack overflow.
constexpr int kMaxNestingDepth = 1000;

// Intermediate pattern forest: a bag of root atoms plus optional child
// forests (one per OPT branch).
struct PatternForest {
  std::vector<Atom> atoms;
  std::vector<PatternForest> children;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, RdfContext* ctx)
      : tokens_(std::move(tokens)), ctx_(ctx) {}

  Result<PatternTree> Run() {
    std::vector<VariableId> projection;
    bool has_projection = false;
    if (Peek().kind == TokenKind::kSelect) {
      ++pos_;
      has_projection = true;
      while (Peek().kind == TokenKind::kVar) {
        projection.push_back(ctx_->vocab().VariableIdOf(Peek().text));
        ++pos_;
      }
      if (Peek().kind != TokenKind::kWhere) {
        return Error("expected WHERE after SELECT clause");
      }
      ++pos_;
    }
    Result<PatternForest> forest = ParseExpr();
    if (!forest.ok()) return forest.status();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after query");
    }
    PatternTree tree;
    for (const Atom& a : forest->atoms) tree.AddAtom(PatternTree::kRoot, a);
    for (const PatternForest& child : forest->children) {
      Attach(&tree, PatternTree::kRoot, child);
    }
    if (has_projection) {
      tree.SetFreeVariables(std::move(projection));
    } else {
      tree.SetFreeVariables(tree.AllVariables());
    }
    Status status = tree.Validate();
    if (!status.ok()) return status;
    return tree;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (at offset " +
                              std::to_string(Peek().position) + ")");
  }

  static bool IsTermToken(const Token& t) {
    return t.kind == TokenKind::kVar || t.kind == TokenKind::kIdent ||
           t.kind == TokenKind::kString;
  }

  Result<PatternForest> ParseExpr() {
    Result<PatternForest> left = ParsePrimary();
    if (!left.ok()) return left;
    PatternForest acc = std::move(*left);
    while (Peek().kind == TokenKind::kAnd || Peek().kind == TokenKind::kOpt) {
      bool is_and = Peek().kind == TokenKind::kAnd;
      ++pos_;
      Result<PatternForest> right = ParsePrimary();
      if (!right.ok()) return right;
      if (is_and) {
        acc.atoms.insert(acc.atoms.end(), right->atoms.begin(),
                         right->atoms.end());
        for (PatternForest& c : right->children) {
          acc.children.push_back(std::move(c));
        }
      } else {
        acc.children.push_back(std::move(*right));
      }
    }
    return acc;
  }

  Result<PatternForest> ParsePrimary() {
    if (Peek().kind != TokenKind::kLParen) {
      return Error("expected '('");
    }
    // Triple lookahead: '(' term ','.
    if (IsTermToken(Peek(1)) && Peek(2).kind == TokenKind::kComma) {
      return ParseTriple();
    }
    ++pos_;  // '('
    if (++depth_ > kMaxNestingDepth) {
      return Error("groups nested deeper than " +
                   std::to_string(kMaxNestingDepth) + " levels");
    }
    Result<PatternForest> inner = ParseExpr();
    --depth_;
    if (!inner.ok()) return inner;
    if (Peek().kind != TokenKind::kRParen) {
      return Error("expected ')'");
    }
    ++pos_;
    return inner;
  }

  Result<PatternForest> ParseTriple() {
    ++pos_;  // '('
    Term terms[3];
    for (int i = 0; i < 3; ++i) {
      const Token& t = Peek();
      if (!IsTermToken(t)) return Error("expected a term");
      if (t.kind == TokenKind::kVar) {
        terms[i] = ctx_->vocab().Variable(t.text);
      } else {
        terms[i] = ctx_->vocab().Constant(t.text);
      }
      ++pos_;
      if (i < 2) {
        if (Peek().kind != TokenKind::kComma) return Error("expected ','");
        ++pos_;
      }
    }
    if (Peek().kind != TokenKind::kRParen) return Error("expected ')'");
    ++pos_;
    PatternForest forest;
    forest.atoms.emplace_back(ctx_->triple_relation(),
                              std::vector<Term>{terms[0], terms[1],
                                                terms[2]});
    return forest;
  }

  // Attaches `forest` as a child subtree of `parent`.
  void Attach(PatternTree* tree, NodeId parent, const PatternForest& forest) {
    NodeId node = tree->AddChild(parent, forest.atoms);
    for (const PatternForest& child : forest.children) {
      Attach(tree, node, child);
    }
  }

  std::vector<Token> tokens_;
  RdfContext* ctx_;
  size_t pos_ = 0;
  int depth_ = 0;  // Groups open around the current position.
};

}  // namespace

Result<PatternTree> ParseQuery(std::string_view input, RdfContext* ctx) {
  Result<std::vector<Token>> tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens), ctx);
  return parser.Run();
}

}  // namespace wdpt::sparql
