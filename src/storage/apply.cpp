#include "src/storage/apply.h"

namespace wdpt::storage {

void ApplyTripleOps(RdfContext* ctx, Database* db,
                    const std::vector<TripleOp>& ops, uint64_t* added,
                    uint64_t* removed) {
  RelationId triple = ctx->triple_relation();
  for (const TripleOp& op : ops) {
    if (op.kind == TripleOpKind::kAdd) {
      ConstantId ids[3] = {ctx->vocab().ConstantIdOf(op.s),
                           ctx->vocab().ConstantIdOf(op.p),
                           ctx->vocab().ConstantIdOf(op.o)};
      if (!db->ContainsFact(triple, ids)) {
        // Cannot fail: the ids were interned above and the arity is the
        // schema's.
        (void)db->AddFact(triple, ids);
        if (added != nullptr) ++*added;
      }
    } else {
      const Vocabulary& vocab = ctx->vocab();
      ConstantId ids[3] = {vocab.FindConstant(op.s), vocab.FindConstant(op.p),
                           vocab.FindConstant(op.o)};
      if (ids[0] == Interner::kNotInterned ||
          ids[1] == Interner::kNotInterned ||
          ids[2] == Interner::kNotInterned) {
        continue;  // Never-interned constant: the triple cannot exist.
      }
      if (db->RemoveFact(triple, ids) && removed != nullptr) ++*removed;
    }
  }
}

std::shared_ptr<const server::Snapshot> NextSnapshot(
    const server::Snapshot& base, const std::vector<TripleOp>& ops,
    uint64_t version, Trace* trace, uint64_t* added, uint64_t* removed) {
  std::shared_ptr<server::Snapshot> next;
  {
    Trace::Span span(trace, TraceStage::kPublish);
    next = std::make_shared<server::Snapshot>(base);
  }
  {
    Trace::Span span(trace, TraceStage::kApply);
    ApplyTripleOps(&next->ctx, &next->db, ops, added, removed);
  }
  Trace::Span span(trace, TraceStage::kPublish);
  next->version = version;
  next->db.Freeze();
  return next;
}

std::string FormatIngestBody(const std::vector<TripleOp>& ops) {
  std::string body;
  for (const TripleOp& op : ops) {
    body += op.kind == TripleOpKind::kAdd ? "add " : "remove ";
    body += op.s;
    body += ' ';
    body += op.p;
    body += ' ';
    body += op.o;
    body += '\n';
  }
  return body;
}

}  // namespace wdpt::storage
